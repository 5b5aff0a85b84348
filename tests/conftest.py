import itertools
from fractions import Fraction

import pytest

from hopfgalois import maintheorem
from hopfgalois.comodule import BModule, regular_bmodule
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cp_fixture, cyclic_cayley,
                                 dual_group_algebra, graded_m2, group_algebra,
                                 regular_comodule, sweedler_h4, trivial_kxk)
from hopfgalois.hopf import convolution_columns
from hopfgalois.linalg import (Matrix, _columns, _combination, _rows,
                               basis_vec, reduced, sparse_kernel,
                               summed_columns)
from hopfgalois.search import FREE_SAMPLES, SearchInconclusive

F3 = PrimeField(3)
F5 = PrimeField(5)


@pytest.fixture
def kc2_q():
    h = group_algebra(QQ, cyclic_cayley(2), ["1", "g"])
    return regular_comodule(h)


@pytest.fixture
def kc2_f3():
    h = group_algebra(F3, cyclic_cayley(2), ["1", "g"])
    return regular_comodule(h)


@pytest.fixture
def kc4_q():
    h = group_algebra(QQ, cyclic_cayley(4))
    return regular_comodule(h)


@pytest.fixture
def dual_kc2_q():
    h = dual_group_algebra(QQ, cyclic_cayley(2), ["p0", "p1"])
    return regular_comodule(h)


@pytest.fixture
def h4_q():
    return regular_comodule(sweedler_h4(QQ))


@pytest.fixture
def h4_f5():
    return regular_comodule(sweedler_h4(F5))


@pytest.fixture
def m2_q():
    return graded_m2(QQ)


@pytest.fixture
def m2_f3():
    return graded_m2(F3)


@pytest.fixture
def cp_minus1():
    return cp_fixture(QQ, QQ.from_int(-1))


@pytest.fixture
def cp2():
    return cp_fixture(QQ, QQ.from_int(2))


@pytest.fixture
def cp4():
    return cp_fixture(QQ, QQ.from_int(4))


@pytest.fixture
def kxk_q():
    return trivial_kxk(QQ)


@pytest.fixture
def kxk_f3():
    return trivial_kxk(F3)


def character_module(ca, values):
    """M = k as a B-module via the algebra character b_i -> values[i]."""
    b = ca.coinvariants()
    f = ca.field
    m = BModule(b, 1, action_table([Matrix(f, 1, 1, [v]) for v in values]))
    assert m.validate().passed
    return m


def module_k(ca):
    """M = k via the first-coordinate character of B (works for the shipped
    fixtures, whose coinvariants are spanned by orthogonal idempotents or 1)."""
    b = ca.coinvariants()
    f = ca.field
    if b.dim == 1:
        # B = k.1; scale by the coefficient making the unit act as 1
        c = b.algebra.unit[0]
        return character_module(ca, [f.inv(c)])
    return character_module(ca, [f.one if i == 0 else f.zero
                                 for i in range(b.dim)])


def module_b(ca):
    return regular_bmodule(ca)


@pytest.fixture
def corrupt_gamma(monkeypatch):
    """The negative control of identity (12b): gamma_12^{-1} forgets Sbar,
    so alpha on C(2, 1) is beta_12 itself."""
    alpha = maintheorem.alpha

    def corrupt(ctx, cls, cols):
        if cls == (2, 1):
            return maintheorem.beta(ctx, cls, cols)
        return alpha(ctx, cls, cols)

    monkeypatch.setattr(maintheorem, "alpha", corrupt)


# -- dense oracles ----------------------------------------------------------
# The package holds m, Delta, every coaction and every module action only as
# sparse tables; the oracles below rebuild the dense matrices and the
# tensor-leg permutations from them.


def dense_mul(alg):
    """m: A (x) A -> A as a dim x dim^2 matrix, from alg.mul_table."""
    n, out = alg.dim, Matrix.zeros(alg.field, alg.dim, alg.dim ** 2)
    for col, terms in enumerate(alg.mul_table):
        for r, c in terms:
            out.data[r * n * n + col] = c
    return out


def dense_comul(co):
    """Delta: C -> C (x) C as a dim^2 x dim matrix, from co.comul_table."""
    n, out = co.dim, Matrix.zeros(co.field, co.dim ** 2, co.dim)
    for c, terms in enumerate(co.comul_table):
        for c1, c2, x in terms:
            out.data[(c1 * n + c2) * n + c] = x
    return out


def dense_rho(field, table, dh):
    """rho: V -> V (x) H as a (dim V * dh) x dim V matrix, from its
    coaction_table."""
    n = len(table)
    out = Matrix.zeros(field, n * dh, n)
    for v, terms in enumerate(table):
        for v0, h, x in terms:
            out.data[(v0 * dh + h) * n + v] = x
    return out


def action_table(mats):
    """The action table of the action with dense matrices mats: entry m
    lists, sorted, the (r, k, x) with x = mats[k][r, m] nonzero."""
    cols = [_columns(mat) for mat in mats]
    return [sorted((r, k, x) for k, col in enumerate(cols) for r, x in col[m])
            for m in range(mats[0].cols)]


def dense_actions(field, table, n):
    """The dense view of an action table over an n-dimensional algebra: one
    len(table)^2 matrix per basis element, entry (r, m) the x of (r, k, x)
    in table[m]."""
    dim = len(table)
    out = [Matrix.zeros(field, dim, dim) for _ in range(n)]
    for m, terms in enumerate(table):
        for r, k, x in terms:
            out[k].data[r * dim + m] = x
    return out


def kron_vec(field, v, w):
    """v (x) w, leg v major; each block a w of a nonzero a is taken raw and
    reduced once (the package's former kron_vec)."""
    out, n = [field.zero] * (len(v) * len(w)), len(w)
    for i, a in enumerate(v):
        if a != field.zero:
            out[i * n:(i + 1) * n] = reduced(field, [a * b for b in w])
    return out


def vec_add(field, v, w):
    return [field.add(a, b) for a, b in zip(v, w)]


def vec_scale(field, c, v):
    return [field.mul(c, a) for a in v]


def project(quot, v):
    """Quotient coordinates of the class of the ambient vector v (the
    former QuotientSpace.project), from quot.columns."""
    f, out = quot.field, [quot.field.zero] * quot.dim
    for j, x in enumerate(v):
        if x:
            for q, y in quot.columns[j]:
                out[q] += x * y
    return reduced(f, out)


def act_on(action, h_vec, b_vec):
    """h . b for the dense action matrix H (x) B -> B (the former
    HModuleAlgebraAction.act and CrossedProductData.act)."""
    return action.apply(kron_vec(action.field, h_vec, b_vec))


def dense_act(ctx, phi, a_vec):
    """The former lifting.ActionCandidate.act_matrix: m -> phi(pi(m (x) a))
    as a dense dim M x dim M matrix."""
    f, dm = ctx.field, ctx.m.dim
    return Matrix.from_cols(f, [phi.apply(project(ctx.quot, kron_vec(
        f, basis_vec(f, dm, mi), a_vec))) for mi in range(dm)], nrows=dm)


def dense_rows(field, rows, cols):
    """The dense view of an operator held as sparse rows ({column: x}
    dicts of raw sums): a len(rows) x cols matrix, reduced."""
    data = [0] * (len(rows) * cols)
    for r, row in enumerate(rows):
        for c, x in row.items():
            data[r * cols + c] = x
    return Matrix(field, len(rows), cols,
                  [field.zero if not v else v for v in reduced(field, data)])


def dense(field, rows, cols):
    """The rows x len(cols) matrix whose column j sums the raw (r, x) of
    cols[j]: the dense view of a map the package holds as its _columns."""
    return summed_columns(field, rows, cols)


def convolution_operator(algebra, coalgebra, f_mat):
    """The matrix on vec(X) of X -> f * X, summed from the columns
    hopf.convolution_columns gives."""
    return dense(algebra.field, algebra.dim * coalgebra.dim,
                 convolution_columns(algebra, coalgebra, _columns(f_mat)))


def endomorphism(ctx, coords):
    """The dense endomorphism of M (x)_B A with the E-coordinate terms
    coords (k, c), summed from E's basis columns."""
    n = ctx.quot.dim
    return dense(ctx.field, n, _combination(ctx.e.basis, coords, n))


def dense_lin_comb(mats, coeffs):
    """Sum_k coeffs[k] mats[k] for equal-shape dense matrices (the former
    linalg.lin_comb)."""
    f = mats[0].field
    out = [f.zero] * len(mats[0].data)
    for m, c in zip(mats, coeffs):
        if c != f.zero:
            out = [o + c * x for o, x in zip(out, m.data)]
    return Matrix(f, mats[0].rows, mats[0].cols, reduced(f, out))


def kernel_of(mat):
    """sparse_kernel of the rows of mat, each vector summed dense from its
    terms (the former Matrix.kernel)."""
    f, n = mat.field, mat.cols
    return [dense(f, n, [v]).data for v in sparse_kernel(f, n, _rows(mat))]


def nonzero_rows(mat):
    """The nonzero rows of mat, in order."""
    return [row for row in map(mat.row, range(mat.rows)) if any(row)]


def dense_can(can):
    """(can, can^-1) of a galois.CanonicalMapData as dense matrices through
    dense_rows; can^-1 is None where none is held."""
    quot, rows = can.induced.quotient, len(can.rows)
    f, cols = quot.field, quot.dim
    return dense_rows(f, can.rows, cols), (
        None if can.inverse is None else dense_rows(f, can.inverse, rows))


def vstack(mats):
    """The matrices mats stacked top to bottom."""
    return Matrix(mats[0].field, sum(m.rows for m in mats), mats[0].cols,
                  [x for m in mats for x in m.data])


def tensor_entries(field, vec, dims):
    """Iterate (multi_index, coeff) over the nonzero entries of a tensor.

    dims are the leg dimensions, leg 0 major (the package-wide convention).
    """
    k = len(dims)
    for flat, c in enumerate(vec):
        if c != field.zero:
            idx = [0] * k
            rem = flat
            for leg in reversed(range(k)):
                idx[leg] = rem % dims[leg]
                rem //= dims[leg]
            yield tuple(idx), c


def dense_comul_iterated(co, x, arity):
    """x_(1) (x) ... (x) x_(arity) as a flat vector, by left-nested dense
    comultiplication: Delta (x) I on the first leg each time."""
    out, comul = list(x), dense_comul(co)
    for step in range(arity - 1):
        op = comul.kron(Matrix.identity(co.field, co.dim ** step))
        out = op.apply(out)
    return out


def leg_index(dims, perm):
    """to[s] = flat index that source flat index s takes when the legs of a
    tensor with leg dimensions dims are reordered so that output leg j
    carries source leg perm[j]."""
    stride = [0] * len(dims)
    size = 1
    for j in reversed(range(len(perm))):
        stride[perm[j]] = size
        size *= dims[perm[j]]
    to = [0]
    for leg, d in enumerate(dims):
        to = [t + i * stride[leg] for t in to for i in range(d)]
    return to


def gather_legs(mat, dims, perm):
    """mat @ P for the leg permutation P: column s is column to[s] of mat."""
    to = leg_index(dims, perm)
    data, n = mat.data, mat.cols
    return Matrix(mat.field, mat.rows, n, [
        data[base + t] for base in range(0, len(data), n) for t in to])


def scatter_legs(mat, dims, perm):
    """P @ mat for the leg permutation P: row s of mat becomes row to[s]."""
    to = leg_index(dims, perm)
    src = [0] * len(to)
    for s, t in enumerate(to):
        src[t] = s
    return Matrix(mat.field, mat.rows, mat.cols,
                  [x for s in src for x in mat.row(s)])


def sympy_expr(poly, cs):
    """A polynomial of search.rational_points, {exponents: Fraction} or a
    plain number, as an expanded sympy expression in the symbols cs."""
    import sympy
    terms = poly.items() if isinstance(poly, dict) else [
        ((0,) * len(cs), poly)]
    return sympy.expand(sympy.Add(*(
        sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
        * sympy.Mul(*(c ** e for c, e in zip(cs, m))) for m, x in terms)))


def sympy_rational_points(algebra, ops, equations, test, refuse=None):
    """The former search.rational_points, kept as its oracle: the system is
    solved with sympy.solve and its solutions are read in sympy's order."""
    import sympy
    n, rows = len(ops), algebra.dim
    cs = sympy.symbols(f"c0:{n}")
    t_cols = [[sympy.Integer(0)] * rows for _ in ops[0]]
    for c, op in zip(cs, ops):
        for j, col in enumerate(op):
            for r, x in col:
                t_cols[j][r] += sympy.Rational(x) * c

    def prod(x, y):
        out = [sympy.Integer(0)] * rows
        for a in range(rows):
            if x[a] != 0:
                for b in range(rows):
                    for r, coeff in algebra.mul_table[a * rows + b]:
                        out[r] += sympy.Rational(coeff) * x[a] * y[b]
        return out

    eqs = [sympy.expand(e) for e in equations(t_cols, prod)]
    sols = sympy.solve([e for e in eqs if e != 0], list(cs), dict=True)
    sampled = False
    for sol in sols:
        free = set(c for c in cs if c not in sol)
        for v in sol.values():
            free |= v.free_symbols
        free = sorted(free, key=lambda sym: sym.name)
        assignments = [sol]
        if free:
            if refuse is not None:
                raise SearchInconclusive(refuse)
            sampled = True
            assignments = []
            for combo in itertools.product(map(sympy.Integer, FREE_SAMPLES),
                                           repeat=len(free)):
                subs = dict(zip(free, combo))
                assignments.append({c: (sol[c].subs(subs) if c in sol
                                        else subs[c]) for c in cs})
        for assign in assignments:
            vals = [sympy.nsimplify(assign.get(c, sympy.Integer(0)))
                    for c in cs]
            if not all(v.is_rational for v in vals):
                continue
            hit = test(tuple(Fraction(int(num), int(den))
                             for num, den in map(sympy.fraction, vals)))
            if hit is not None:
                yield hit
    if sampled:
        raise SearchInconclusive("a positive-dimensional family was sampled "
                                 "without a witness")
