import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois import _modp_py
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.linalg import (Factorization, Matrix, NoSolution,
                               NotInvertible, _columns, basis_vec, eliminate,
                               reduced)

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
    x, ok = Factorization(QQ, _columns(m)).solve_columns(
        [[(0, QQ.parse("3")), (1, QQ.parse("6"))], [(0, QQ.one)]])
    assert ok == [True, False] and x[0] == [(0, QQ.parse("3"))]
    assert m.solve([QQ.parse("3"), QQ.parse("6")]) == [QQ.parse("3"), QQ.zero]
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


def dense_solve(a, rhs):
    """X with a X = rhs, read off the dense RREF of [a | rhs] as rref_solve
    reads x; raises NoSolution if any column has none."""
    f, n, k = a.field, a.cols, rhs.cols
    aug = Matrix(f, a.rows, n + k,
                 [x for i in range(a.rows) for x in a.row(i) + rhs.row(i)])
    red, pivots = dense_rref(aug)
    if pivots and pivots[-1] >= n:
        raise NoSolution()
    x = [f.zero] * (n * k)
    for r, pc in enumerate(pivots):
        x[pc * k:(pc + 1) * k] = red.row(r)[n:]
    return Matrix(f, n, k, x)


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
    column space and k arbitrary ones, and the columns of A and of each
    right-hand side as raw terms (raw_columns)."""
    a = draw(_matrices())
    f, k = a.field, draw(st.integers(0, 3))

    def mat(r, c):
        return Matrix(f, r, c, [f.from_int(draw(st.integers(-3, 3)))
                                for _ in range(r * c)])

    rhs = [a @ mat(a.cols, k), mat(a.rows, k)]
    return a, rhs, raw_columns(draw, a), [raw_columns(draw, b) for b in rhs]


def raw_columns(draw, mat):
    """The columns of mat as raw (row, x) terms in a drawn order: each entry,
    a zero one at times too, split into 1-3 terms that sum to it unreduced
    (negative or off by multiples of p over F_p, Fractions over Q)."""
    f, rnd = mat.field, draw(st.randoms(use_true_random=True))
    if f.kind == "Fp":
        parts = range(-2 * f.p, 2 * f.p + 1)
    else:
        parts = [f.parse(x) for x in ("-1", "2", "1/2", "-2/3")]
    cols = []
    for j in range(mat.cols):
        terms = []
        for i, x in enumerate(mat.col(j)):
            if x or rnd.randrange(4) == 0:
                split = [rnd.choice(parts) for _ in range(rnd.randrange(3))]
                terms += [(i, y) for y in split] + [(i, x - sum(split))]
        rnd.shuffle(terms)
        cols.append(terms)
    return cols


def dense_col(field, n, col):
    """The length-n vector with the (i, x) of col, after checking that col
    is in the layout of _columns: i ascending, x reduced and nonzero."""
    assert [i for i, _ in col] == sorted({i for i, _ in col})
    assert all(x and reduced(field, [x]) == [x] for _, x in col)
    v = [field.zero] * n
    for i, x in col:
        v[i] = x
    return v


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_factorization_matches_solve(system):
    """Factorization from raw columns against the augmented-RREF oracle on
    every right-hand side, given as raw terms: a block, and each column
    alone.  Matrix.solve, the one-column dense form, agrees."""
    a, rhs, raw_a, raw_rhs = system
    fac = Factorization(a.field, raw_a)
    assert fac.pivots == dense_rref(a)[1]
    for b, raw_b in zip(rhs, raw_rhs):
        x, ok = fac.solve_columns(raw_b)
        assert len(x) == len(ok) == b.cols
        for j in range(b.cols):
            want = _solution_or_none(lambda v: rref_solve(a, v), b.col(j))
            assert ok[j] == (want is not None)
            if ok[j]:
                assert dense_col(a.field, a.cols, x[j]) == want
            assert _solution_or_none(a.solve, b.col(j)) == want
            assert fac.solve_columns([raw_b[j]]) == ([x[j]], [ok[j]])


@settings(max_examples=300, deadline=None)
@given(_systems(), st.lists(st.sampled_from(["good", "any", "empty"]),
                            min_size=3, max_size=3))
def test_solve_columns_flags_each_column(system, pick):
    """Mixed consistent, arbitrary and empty raw columns in one block: each
    consistent column is the augmented-RREF solution, each inconsistent
    one is flagged, and an empty column is solved by the empty one."""
    a, (good, anything), raw_a, (raw_good, raw_any) = system
    f, z = a.field, a.field.zero
    b, raw_b = [], []
    for j in range(good.cols):
        col, raw = {"good": (good.col(j), raw_good[j]),
                    "any": (anything.col(j), raw_any[j]),
                    "empty": ([z] * a.rows, [])}[pick[j]]
        b.append(col)
        raw_b.append(raw)
    x, ok = Factorization(f, raw_a).solve_columns(raw_b)
    assert len(x) == len(ok) == len(b)
    for j, col in enumerate(b):
        want = _solution_or_none(lambda v: rref_solve(a, v), col)
        assert ok[j] == (want is not None)
        if ok[j]:
            assert dense_col(f, a.cols, x[j]) == want
        if pick[j] != "any":
            assert ok[j]
        if pick[j] == "empty":
            assert x[j] == []


def test_factorization_inconsistent_and_empty():
    a = Matrix(F7, 3, 1, [1, 2, 3])
    x, ok = Factorization(F7, [[(2, 3), (0, 8), (1, -5)]]).solve_columns(
        [[(0, 2), (1, 4), (2, 6)],
         [(0, -5), (1, 4), (2, 13)],           # unreduced entries of b
         [(2, 6), (0, 1), (1, 4), (0, 1)],     # repeated rows, out of order
         [(0, 1)]])
    assert rref_solve(a, [2, 4, 6]) == [2]
    assert (x[:3], ok) == ([[(0, 2)]] * 3, [True, True, True, False])
    # a 0-column operator: only b = 0 is solvable, by the empty vector
    x, ok = Factorization(QQ, []).solve_columns([[], [(1, QQ.one)],
                                                 [(0, QQ.one), (0, -QQ.one)]])
    assert (x[0], x[2], ok) == ([], [], [True, False, True])
    with pytest.raises(NoSolution):
        rref_solve(Matrix.zeros(QQ, 2, 0), [QQ.zero, QQ.one])


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
