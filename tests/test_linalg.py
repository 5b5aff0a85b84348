import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois import _modp_py
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.linalg import (Factorization, Matrix, NoSolution,
                               NotInvertible, basis_vec, eliminate)

from conftest import kron_vec, scatter_legs

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)
F_BIG = PrimeField(2 ** 61 - 1)


# -- the dense oracles ---------------------------------------------------------


def fraction_rref(m):
    """The former Matrix.rref over Q: the dense loop on field operations
    (leftmost nonzero pivot, rows scanned top-down).  Returns (Matrix,
    pivot column list)."""
    f = m.field
    rows = m.row_list()
    pivots = []
    row = 0
    for col in range(m.cols):
        if row == m.rows:
            break
        sel = -1
        for r in range(row, m.rows):
            if rows[r][col] != f.zero:
                sel = r
                break
        if sel < 0:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        inv = f.inv(rows[row][col])
        rows[row] = [f.mul(inv, v) for v in rows[row]]
        for r in range(m.rows):
            if r != row and rows[r][col] != f.zero:
                c = rows[r][col]
                rows[r] = [f.sub(a, f.mul(c, b))
                           for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
    return (Matrix.from_rows(f, rows) if rows else Matrix.zeros(f, 0, m.cols),
            pivots)


def dense_rref(m):
    """The dense RREF, the oracle of eliminate: _modp_py.rref_modp over
    F_p, fraction_rref over Q."""
    f = m.field
    if f.kind == "Fp":
        data, pivots = _modp_py.rref_modp(m.data, m.rows, m.cols, f.p)
        return Matrix(f, m.rows, m.cols, data), pivots
    return fraction_rref(m)


def dense_kernel(m):
    """The former Matrix.kernel: the basis read off the dense RREF of
    every row, one vector per free column."""
    f = m.field
    red, pivots = dense_rref(m)
    basis = []
    for fc in (j for j in range(m.cols) if j not in pivots):
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.get(r, fc))
        basis.append(v)
    return basis


def test_kernel_f2_oracle():
    # frozen oracle: ker [[1,1],[1,1]] over F_2 is spanned by (1,1)
    m = Matrix(F2, 2, 2, [1, 1, 1, 1])
    ker = m.kernel()
    assert ker == [[1, 1]]


def test_inverse_f5_oracle():
    m = Matrix(F5, 1, 1, [2])
    assert m.invert() == Matrix(F5, 1, 1, [3])


def test_rref_deterministic():
    m = Matrix(QQ, 3, 3, [QQ.parse(x) for x in
                          ["2", "4", "1", "1", "2", "0", "0", "0", "3"]])
    r1, p1 = m.rref()
    r2, p2 = m.rref()
    assert r1 == r2 and p1 == p2
    assert p1 == [0, 2]


def test_solve_and_no_solution():
    m = Matrix(QQ, 2, 2, [QQ.parse(x) for x in ["1", "1", "2", "2"]])
    assert m.solve([QQ.parse("3"), QQ.parse("6")])[0] is not None
    with pytest.raises(NoSolution):
        m.solve([QQ.one, QQ.zero])


def rref_solve(a, b):
    """The augmented-RREF solve: the oracle for Factorization.  Reduces
    [a | b] densely and reads x off the pivot columns; raises NoSolution."""
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    f = a.field
    aug = Matrix(f, a.rows, a.cols + 1,
                 [x for i in range(a.rows) for x in a.row(i) + [b[i]]])
    red, pivots = dense_rref(aug)
    if a.cols in pivots:
        raise NoSolution()
    x = [f.zero] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.get(r, a.cols)
    return x


def _solution_or_none(solve, b):
    try:
        return solve(b)
    except NoSolution:
        return None


@st.composite
def _matrices(draw):
    """A of rank <= r over F_2, F_7, F_(2^61-1) or Q, tall, wide or square
    (0 rows or columns allowed), with entries moved off their reduced
    values by multiples of p (so unreduced or negative) over F_p and
    fractions among them over Q."""
    field = draw(st.sampled_from([F2, F7, F_BIG, QQ]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        cols = rows
    rank = draw(st.integers(0, min(rows, cols)))
    if field.kind == "Fp":
        scalar = st.integers(-3, 3).map(field.from_int)
    else:
        scalar = st.sampled_from([-2, -1, 0, 1, 3]).map(field.from_int) | \
            st.sampled_from(["1/2", "-2/3", "5/7"]).map(field.parse)

    def mat(r, c):
        return Matrix(field, r, c, draw(st.lists(scalar, min_size=r * c,
                                                 max_size=r * c)))

    a = mat(rows, rank) @ mat(rank, cols)
    if field.kind == "Fp":
        shifts = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                               max_size=rows * cols))
        a = Matrix(field, rows, cols, [x + s * field.p
                                       for x, s in zip(a.data, shifts)])
    return a


@st.composite
def _systems(draw):
    """A from _matrices, with k right-hand sides (k = 0 allowed) in its
    column space and k arbitrary ones."""
    a = draw(_matrices())
    f, k = a.field, draw(st.integers(0, 3))

    def mat(r, c):
        return Matrix(f, r, c, [f.from_int(draw(st.integers(-3, 3)))
                                for _ in range(r * c)])

    return a, [a @ mat(a.cols, k), mat(a.rows, k)]


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_factorization_matches_solve(system):
    a, rhs = system
    fac = Factorization(a)
    assert fac.pivots == dense_rref(a)[1]
    for b in rhs:
        cols = [_solution_or_none(lambda v: rref_solve(a, v), b.col(j))
                for j in range(b.cols)]
        for j, want in enumerate(cols):
            assert _solution_or_none(fac.solve, b.col(j)) == want
        if None in cols:
            with pytest.raises(NoSolution):
                fac.solve_matrix(b)
        else:
            assert fac.solve_matrix(b) == Matrix.from_cols(a.field, cols,
                                                            nrows=a.cols)
            assert a.solve_matrix(b) == fac.solve_matrix(b)
        for j, want in enumerate(cols):
            assert _solution_or_none(a.solve, b.col(j)) == want


@settings(max_examples=300, deadline=None)
@given(_systems(), st.lists(st.booleans(), min_size=3, max_size=3))
def test_solve_columns_flags_each_column(system, pick):
    """Mixed consistent and arbitrary columns in one block: each consistent
    column is the augmented-RREF solution, each inconsistent one is
    flagged."""
    a, (good, anything) = system
    b = Matrix.from_cols(a.field, [good.col(j) if pick[j] else
                                   anything.col(j) for j in range(good.cols)],
                         nrows=a.rows)
    x, ok = Factorization(a).solve_columns(b)
    assert (x.rows, x.cols, len(ok)) == (a.cols, b.cols, b.cols)
    for j in range(b.cols):
        want = _solution_or_none(lambda v: rref_solve(a, v), b.col(j))
        assert ok[j] == (want is not None)
        if ok[j]:
            assert x.col(j) == want
        if pick[j]:
            assert ok[j]


def test_factorization_inconsistent_and_empty():
    a = Matrix(F7, 3, 1, [1, 2, 3])
    fac = Factorization(a)
    assert fac.solve([2, 4, 6]) == rref_solve(a, [2, 4, 6]) == [2]
    assert fac.solve([-5, 4, 13]) == [2]   # unreduced entries of b
    with pytest.raises(NoSolution):
        fac.solve([1, 0, 0])
    # a 0-column operator: only b = 0 is solvable, by the empty vector
    empty = Factorization(Matrix.zeros(QQ, 2, 0))
    assert empty.solve([QQ.zero, QQ.zero]) == []
    with pytest.raises(NoSolution):
        empty.solve([QQ.one, QQ.zero])


def test_kron_and_apply():
    a = Matrix(QQ, 2, 2, [QQ.parse(x) for x in ["1", "2", "3", "4"]])
    v = [QQ.parse("1"), QQ.parse("-1")]
    w = [QQ.parse("2"), QQ.parse("0")]
    # (A (x) A)(v (x) w) = Av (x) Aw
    lhs = a.kron(a).apply(kron_vec(QQ, v, w))
    rhs = kron_vec(QQ, a.apply(v), a.apply(w))
    assert lhs == rhs


def test_perm_legs_swap():
    v = [QQ.from_int(i) for i in range(6)]
    out = scatter_legs(Matrix(QQ, 6, 1, v), (2, 3), (1, 0)).data
    # entry (j, i) of the swapped tensor equals entry (i, j) of the original
    for i in range(2):
        for j in range(3):
            assert out[j * 2 + i] == v[i * 3 + j]


def test_basis_vec():
    assert basis_vec(QQ, 3, 1) == [QQ.zero, QQ.one, QQ.zero]


def test_large_prime_is_exact():
    """Python-int kernels stay exact when p^2 overflows 64-bit integers."""
    f = PrimeField(4294967311)
    a = Matrix(f, 3, 3, [f.from_int(x) for x in
                         [2, -1, 7, 4294967310, 5, 3, 11, 0, 4294967000]])
    assert a @ a.invert() == Matrix.identity(f, 3)


def old_matmul_modp(a, ar, ac, b, br, bc, p):
    """The former kernel, reducing after every multiply-add."""
    out = [0] * (ar * bc)
    for i in range(ar):
        arow = a[i * ac:(i + 1) * ac]
        base = i * bc
        for k in range(ac):
            aik = arow[k]
            if aik:
                boff = k * bc
                for j in range(bc):
                    out[base + j] = (out[base + j] + aik * b[boff + j]) % p
    return out


@pytest.mark.parametrize("p", [7, 2 ** 31 - 1, 2 ** 31 + 11, 4294967311])
def test_matmul_modp_reduces_once_like_the_old_kernel(p):
    import random
    rng = random.Random(p)
    for _ in range(150):
        ar, ac, bc = (rng.randrange(6) for _ in range(3))
        density = rng.random()
        a = [rng.randrange(p) if rng.random() < density else 0
             for _ in range(ar * ac)]
        b = [rng.randrange(p) for _ in range(ac * bc)]
        got = _modp_py.matmul_modp(a, ar, ac, b, ac, bc, p)
        assert got == old_matmul_modp(a, ar, ac, b, ac, bc, p)
        assert all(0 <= x < p for x in got)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 13]), rows=st.integers(0, 5),
       cols=st.integers(0, 5), low_rank=st.booleans(), data=st.data())
def test_full_rank_modp_matches_the_rref_rank(p, rows, cols, low_rank, data):
    """The forward-only full-rank test against the pivot count of the dense
    RREF, on entries that are unreduced or negative, zero or
    rank-deficient."""
    f = PrimeField(p)
    entry = st.integers(-3 * p, 3 * p)
    flat = data.draw(st.lists(entry, min_size=rows * cols,
                              max_size=rows * cols))
    if low_rank and rows > 1:  # last row a combination of the others
        coeffs = data.draw(st.lists(entry, min_size=rows - 1,
                                    max_size=rows - 1))
        flat[-cols:] = [sum(c * flat[r * cols + j]
                            for r, c in enumerate(coeffs))
                        for j in range(cols)] if cols else []
    m = Matrix(f, rows, cols, flat)
    rank = len(dense_rref(m)[1])
    assert m.is_invertible() is (rows == cols == rank)
    assert Matrix.zeros(f, rows, rows).is_invertible() is (rows == 0)
    rows_of = [{j: x for j, x in enumerate(m.row(i)) if x}
               for i in range(rows)]
    independent = eliminate(f, rows_of, independent=True, back=False)
    assert (independent is not None) is (rank == rows)


# -- the one elimination against the dense oracles ----------------------------


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_elimination_matches_the_dense_rref(a):
    """Pivots, RREF, rank, full rank, kernel and inverse of the one
    elimination against the dense RREF of the same matrix."""
    f, n = a.field, a.rows
    red, pivots = dense_rref(a)
    assert a.rref() == (red, pivots)
    assert a.rank() == len(pivots)
    assert a.kernel() == dense_kernel(a)
    for v in a.kernel():
        assert not any(a.apply(v))
    square = a.rows == a.cols
    assert a.is_invertible() is (square and len(pivots) == n)
    if square and len(pivots) == n:
        inv = a.invert()
        assert a @ inv == inv @ a == Matrix.identity(f, n)
    else:
        with pytest.raises(NotInvertible):
            a.invert()


@pytest.mark.parametrize("field", [QQ, F2, F7])
def test_apply_reduces_once_like_the_old_loop(field):
    """apply against the former per-entry field.add/dense_mul(field) loop."""
    import random
    rng = random.Random(7)
    for _ in range(100):
        rows, cols = rng.randrange(5), rng.randrange(5)
        m = Matrix(field, rows, cols,
                   [field.from_int(rng.randrange(-9, 9))
                    for _ in range(rows * cols)])
        vec = [rng.choice([field.zero, field.from_int(rng.randrange(-9, 9))])
               for _ in range(cols)]
        old = [field.zero] * rows
        for j, v in enumerate(vec):
            if v != field.zero:
                for i in range(rows):
                    old[i] = field.add(old[i], field.mul(m.get(i, j), v))
        assert m.apply(vec) == old
