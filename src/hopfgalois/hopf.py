"""Finite-dimensional algebras, coalgebras and Hopf algebras by structure
constants, with exact axiom validation and a few built-in generators.

Conventions (inherited by every other module):
  * the multiplication is a matrix  m : A (x) A -> A,
  * the comultiplication a matrix  Delta : H -> H (x) H,
  * tensor factors are flattened lexicographically with the LEFT leg major,
  * the constructors also hold sparse tables, which product, lmul, rmul and
    convolve use: mul_table[i*dim + j] lists (r, c) with e_i e_j = Sum c e_r
    and comul_table[c] lists (c1, c2, x) with Delta(e_c) = Sum x e_c1 (x) e_c2,
    both ascending.  mul.data and comul.data are only written before the
    constructor is called, so the tables cannot go stale.
"""

import itertools

from .linalg import (Matrix, NoSolution, NotInvertible, basis_vec,
                     gather_legs, kron_vec, linear_operator, reduced,
                     scatter_legs)


class DimensionMismatch(ValueError):
    pass


class NotAGroup(ValueError):
    pass


class BadCharacteristic(ValueError):
    pass


class ValidationReport:
    """Outcome of an axiom audit: empty failure list means pass.

    Each failure is (axiom name, witness); the witness is a tuple of basis
    indices locating the first offending instance, or None when the failure
    is structural (e.g. a dimension clash).  details holds what a check
    measured besides its verdict (dimensions, counts, sizes).
    """

    def __init__(self):
        self.failures = []
        self.details = {}

    def fail(self, axiom, witness=None):
        self.failures.append((axiom, witness))

    def fail_at(self, axiom, witness):
        """Record axiom as failing at witness, unless witness is None."""
        if witness is not None:
            self.fail(axiom, witness)

    @property
    def passed(self):
        return not self.failures

    def check(self, axiom, lhs, rhs, witness_dims=None):
        """Record the first differing entry of two matrices under `axiom`."""
        diff = lhs - rhs
        if not diff.is_zero():
            witness = None
            if witness_dims is not None:
                i = next(i for i, x in enumerate(diff.data)
                         if x != diff.field.zero)
                witness = _unflatten(i % diff.cols, witness_dims)
            self.fail(axiom, witness)

    def __repr__(self):
        status = "pass" if self.passed else f"fail({self.failures!r})"
        return f"ValidationReport({status})"


def first_failure(holds, *dims):
    """The first index tuple of range(dims[0]) x range(dims[1]) x ... in
    lexicographic order at which holds(*idx) is false, or None when it holds
    on every tuple; holds is called on no tuple after the first failure."""
    return next((idx for idx in itertools.product(*map(range, dims))
                 if not holds(*idx)), None)


def multiplicative_witness(src, dst, t_mat, anti=False):
    """First (i, j) with t(e_i e_j) != t(e_i) t(e_j), or != t(e_j) t(e_i)
    when anti, for a linear map t: src -> dst of algebras; None if none."""
    n = src.dim
    images = [t_mat.col(i) for i in range(n)]

    def holds(i, j):
        x, y = (j, i) if anti else (i, j)
        return (t_mat.apply(src.mul.col(i * n + j))
                == dst.product(images[x], images[y]))

    return first_failure(holds, n, n)


def _columns(mat):
    """The nonzero entries (row, x) of each column of mat, rows ascending."""
    zero, m = mat.field.zero, mat.cols
    return [[(r, x) for r, x in enumerate(mat.data[j::m]) if x != zero]
            for j in range(m)]


def _unflatten(flat, dims):
    idx = [0] * len(dims)
    for leg in reversed(range(len(dims))):
        idx[leg] = flat % dims[leg]
        flat //= dims[leg]
    return tuple(idx)


class StructureConstantAlgebra:
    """Associative unital algebra given by a multiplication tensor.

    mul is the matrix A (x) A -> A; unit is the coordinate vector of 1.
    """

    def __init__(self, field, dim, mul, unit, labels=None):
        if mul.rows != dim or mul.cols != dim * dim or len(unit) != dim:
            raise DimensionMismatch("algebra tensor shapes")
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = list(unit)
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        self.mul_table = _columns(mul)

    def product(self, v, w):
        f, n, table = self.field, self.dim, self.mul_table
        out = [f.zero] * n
        for i, a in enumerate(v):
            if a != f.zero:
                for j, b in enumerate(w):
                    if b != f.zero:
                        ab = a * b
                        for r, c in table[i * n + j]:
                            out[r] += c * ab
        return reduced(f, out)

    def lmul(self, v):
        """Matrix of left multiplication by the element v."""
        return self._mul_by(v, True)

    def rmul(self, v):
        return self._mul_by(v, False)

    def _mul_by(self, v, left):
        """Column j is v e_j (left) or e_j v, from the mul table."""
        f, n, table = self.field, self.dim, self.mul_table
        out = [f.zero] * (n * n)
        for i, a in enumerate(v):
            if a != f.zero:
                for j in range(n):
                    for r, c in table[i * n + j if left else j * n + i]:
                        out[r * n + j] += c * a
        return Matrix(f, n, n, reduced(f, out))

    def element_inverse(self, v):
        """Two-sided inverse of v, or None."""
        try:
            w = self.lmul(v).solve(self.unit)
        except NoSolution:
            return None
        if self.product(w, v) != self.unit:
            return None
        return w

    def is_commutative(self):
        return gather_legs(self.mul, (self.dim, self.dim), (1, 0)) == self.mul

    def validate(self, report=None):
        report = report if report is not None else ValidationReport()
        f, n = self.field, self.dim
        idn = Matrix.identity(f, n)
        lhs = self.mul @ self.mul.kron(idn)          # (ab)c
        rhs = self.mul @ idn.kron(self.mul)          # a(bc)
        report.check("algebra.associativity", lhs, rhs, (n, n, n))
        for name, op in (("algebra.left-unit", self.lmul(self.unit)),
                         ("algebra.right-unit", self.rmul(self.unit))):
            report.fail_at(name, first_failure(
                lambda i: op.col(i) == idn.col(i), n))
        return report


class CoalgebraData:
    """Coalgebra: comul H -> H (x) H plus counit H -> k (a 1 x dim matrix)."""

    def __init__(self, field, dim, comul, counit):
        if comul.rows != dim * dim or comul.cols != dim or counit.cols != dim:
            raise DimensionMismatch("coalgebra tensor shapes")
        self.field = field
        self.dim = dim
        self.comul = comul
        self.counit = counit
        self.comul_table = [[(*divmod(k, dim), x) for k, x in col]
                            for col in _columns(comul)]

    def validate(self, report=None):
        report = report if report is not None else ValidationReport()
        f, n = self.field, self.dim
        idn = Matrix.identity(f, n)
        lhs = self.comul.kron(idn) @ self.comul
        rhs = idn.kron(self.comul) @ self.comul
        report.check("coalgebra.coassociativity", lhs, rhs, (n,))
        left = self.counit.kron(idn) @ self.comul    # (eps (x) id) Delta
        right = idn.kron(self.counit) @ self.comul
        report.check("coalgebra.left-counit", left, idn, (n,))
        report.check("coalgebra.right-counit", right, idn, (n,))
        return report


class HopfAlgebraData:
    """Hopf algebra: algebra + coalgebra on one space, antipode and its inverse."""

    def __init__(self, algebra, coalgebra, antipode, antipode_inv):
        if algebra.dim != coalgebra.dim or algebra.field != coalgebra.field:
            raise DimensionMismatch("algebra/coalgebra mismatch")
        if antipode.rows != algebra.dim or antipode_inv.rows != algebra.dim:
            raise DimensionMismatch("antipode shape")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode
        self.antipode_inv = antipode_inv

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels


def validate_hopf(h):
    """Audit all bialgebra + antipode axioms; exact, with witnesses."""
    f, n = h.field, h.dim
    report = ValidationReport()
    h.algebra.validate(report)
    h.coalgebra.validate(report)
    idn = Matrix.identity(f, n)
    mul, comul = h.algebra.mul, h.coalgebra.comul
    counit, unit = h.coalgebra.counit, h.algebra.unit

    # Delta is an algebra map: Delta(ab) = Delta(a)Delta(b)
    mul2 = gather_legs(mul.kron(mul), (n,) * 4, (0, 2, 1, 3))  # on H (x) H
    report.check("bialgebra.comul-multiplicative",
                 comul @ mul, mul2 @ comul.kron(comul), (n, n))
    if comul.apply(unit) != kron_vec(f, unit, unit):
        report.fail("bialgebra.comul-unit")
    # eps is an algebra map
    report.check("bialgebra.counit-multiplicative",
                 counit @ mul, counit.kron(counit), (n, n))
    if counit.apply(unit) != [f.one]:
        report.fail("bialgebra.counit-unit")

    unit_mat = Matrix.from_cols(f, [unit])           # k -> H
    eta_eps = unit_mat @ counit
    report.check("antipode.left", mul @ h.antipode.kron(idn) @ comul, eta_eps, (n,))
    report.check("antipode.right", mul @ idn.kron(h.antipode) @ comul, eta_eps, (n,))
    report.check("antipode.inverse-left", h.antipode @ h.antipode_inv, idn, (n,))
    report.check("antipode.inverse-right", h.antipode_inv @ h.antipode, idn, (n,))
    return report


def comul_iterated(h, x, arity):
    """x_(1) (x) ... (x) x_(r), computed by left-nested comultiplication."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    f, n = h.field, h.dim
    out = list(x)
    for step in range(arity - 1):
        trailing = n ** step
        op = h.coalgebra.comul.kron(Matrix.identity(f, trailing)) if step else h.coalgebra.comul
        out = op.apply(out)
    return out


def is_cocommutative(h):
    comul = h.coalgebra.comul
    return scatter_legs(comul, (h.dim, h.dim), (1, 0)) == comul


# -- the convolution algebra Hom(C, A) -------------------------------------


class OneSidedInverse(NotInvertible):
    """A right convolution inverse exists but is not a left inverse."""


def convolve(algebra, coalgebra, g_mat, f_mat):
    """(g * f)(c) = Sum x g(c1) f(c2) over the Delta table of c, each product
    from the mul table; maps C -> A as dim A x dim C matrices."""
    da, dc, table = algebra.dim, coalgebra.dim, algebra.mul_table
    gs, fs = _columns(g_mat), _columns(f_mat)
    out = [algebra.field.zero] * (da * dc)
    for c, terms in enumerate(coalgebra.comul_table):
        for c1, c2, x in terms:
            for i, a in gs[c1]:
                xa = x * a
                for j, b in fs[c2]:
                    xab = xa * b
                    for r, m in table[i * da + j]:
                        out[r * dc + c] += m * xab
    return Matrix(algebra.field, da, dc, reduced(algebra.field, out))


def convolution_unit(algebra, coalgebra):
    """eta_A o eps_C, the unit of Hom(C, A)."""
    return Matrix.from_cols(algebra.field, [algebra.unit]) @ coalgebra.counit


def is_convolution_inverse(algebra, coalgebra, f_mat, g_mat):
    """f * g = g * f = eta eps in Hom(C, A)."""
    unit = convolution_unit(algebra, coalgebra)
    return (convolve(algebra, coalgebra, f_mat, g_mat) == unit
            and convolve(algebra, coalgebra, g_mat, f_mat) == unit)


def convolution_operator(algebra, coalgebra, f_mat):
    """Matrix of X -> f * X: Sum_c lmul(f(c)) X Delta_c, where
    Delta_c[c2, k] = Delta[(c, c2), k]."""
    dc = coalgebra.dim
    comul = coalgebra.comul.data
    return linear_operator([
        (algebra.lmul(f_mat.col(c)),
         Matrix(algebra.field, dc, dc, comul[c * dc * dc:(c + 1) * dc * dc]))
        for c in range(dc)])


def convolution_inverse(algebra, coalgebra, f_mat):
    """Two-sided convolution inverse of f.

    Solves f * g = eta eps linearly, then verifies g * f = eta eps (a
    one-sided inverse in a finite-dimensional algebra is two-sided, but we
    check rather than assume).  Raises NotInvertible, or its subclass
    OneSidedInverse when only the right inverse exists.
    """
    unit = convolution_unit(algebra, coalgebra)
    try:
        sol = convolution_operator(algebra, coalgebra, f_mat).solve(unit.data)
    except NoSolution as exc:
        raise NotInvertible("no right convolution inverse") from exc
    g_mat = Matrix(algebra.field, algebra.dim, coalgebra.dim, sol)
    if convolve(algebra, coalgebra, g_mat, f_mat) != unit:
        raise OneSidedInverse("right inverse is not two-sided")
    return g_mat


# -- generators ------------------------------------------------------------


def _check_group_table(cayley):
    n = len(cayley)
    for row in cayley:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise NotAGroup("table entries out of range")
    identity = None
    for e in range(n):
        if all(cayley[e][j] == j and cayley[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if cayley[i][j] == identity and cayley[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise NotAGroup(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cayley[cayley[i][j]][k] != cayley[i][cayley[j][k]]:
                    raise NotAGroup(f"associativity fails at {(i, j, k)}")
    return identity, inverse


def group_algebra(field, cayley, labels=None):
    """The group algebra kG of a finite group given by its Cayley table."""
    identity, inverse = _check_group_table(cayley)
    n = len(cayley)
    mul = Matrix.zeros(field, n, n * n)
    for i in range(n):
        for j in range(n):
            mul.data[cayley[i][j] * n * n + i * n + j] = field.one
    unit = basis_vec(field, n, identity)
    comul = Matrix.zeros(field, n * n, n)
    for i in range(n):
        comul.data[(i * n + i) * n + i] = field.one
    counit = Matrix(field, 1, n, [field.one] * n)
    antipode = Matrix.zeros(field, n, n)
    for i in range(n):
        antipode.data[inverse[i] * n + i] = field.one
    alg = StructureConstantAlgebra(field, n, mul, unit, labels)
    coalg = CoalgebraData(field, n, comul, counit)
    return HopfAlgebraData(alg, coalg, antipode, antipode.invert())


def dual_group_algebra(field, cayley, labels=None):
    """The dual (kG)^*: idempotent basis, comultiplication from the table."""
    identity, inverse = _check_group_table(cayley)
    n = len(cayley)
    mul = Matrix.zeros(field, n, n * n)
    for i in range(n):
        mul.data[i * n * n + i * n + i] = field.one
    unit = [field.one] * n
    comul = Matrix.zeros(field, n * n, n)
    for a in range(n):
        for b in range(n):
            comul.data[(a * n + b) * n + cayley[a][b]] = field.one
    counit = Matrix.zeros(field, 1, n)
    counit.data[identity] = field.one
    antipode = Matrix.zeros(field, n, n)
    for i in range(n):
        antipode.data[inverse[i] * n + i] = field.one
    alg = StructureConstantAlgebra(field, n, mul, unit, labels)
    coalg = CoalgebraData(field, n, comul, counit)
    return HopfAlgebraData(alg, coalg, antipode, antipode.invert())


def cyclic_cayley(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def sweedler_h4(field):
    """The 4-dimensional Taft/Sweedler Hopf algebra, char(k) != 2.

    Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx.
    """
    if field.kind == "Fp" and field.p == 2:
        raise BadCharacteristic("needs char != 2")
    one, zero = field.one, field.zero
    n = 4
    labels = ["1", "g", "x", "gx"]
    # exponent form: index <-> (a, b) with element g^a x^b
    to_idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    from_idx = {v: k for k, v in to_idx.items()}
    mul = Matrix.zeros(field, n, n * n)
    for i in range(n):
        ai, bi = from_idx[i]
        for j in range(n):
            aj, bj = from_idx[j]
            if bi + bj >= 2:
                continue  # x^2 = 0
            sign = one if (bi * aj) % 2 == 0 else field.neg(one)
            k = to_idx[((ai + aj) % 2, bi + bj)]
            mul.data[k * n * n + i * n + j] = sign
    unit = basis_vec(field, n, 0)
    comul = Matrix.zeros(field, n * n, n)

    def set_comul(i, pairs):
        for (a, b), c in pairs:
            comul.data[(a * n + b) * n + i] = c

    set_comul(0, [((0, 0), one)])
    set_comul(1, [((1, 1), one)])
    set_comul(2, [((2, 0), one), ((1, 2), one)])          # x (x) 1 + g (x) x
    set_comul(3, [((3, 1), one), ((0, 3), one)])          # gx (x) g + 1 (x) gx
    counit = Matrix(field, 1, n, [one, one, zero, zero])
    antipode = Matrix.zeros(field, n, n)
    antipode.data[0 * n + 0] = one
    antipode.data[1 * n + 1] = one
    antipode.data[3 * n + 2] = field.neg(one)             # S(x) = -gx
    antipode.data[2 * n + 3] = one                        # S(gx) = x
    alg = StructureConstantAlgebra(field, n, mul, unit, labels)
    coalg = CoalgebraData(field, n, comul, counit)
    return HopfAlgebraData(alg, coalg, antipode, antipode.invert())
