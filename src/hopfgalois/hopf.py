"""Finite-dimensional algebras, coalgebras and Hopf algebras by structure
constants, with exact axiom validation and a few built-in generators.

Conventions (inherited by every other module):
  * m, Delta and every right coaction rho: V -> V (x) H are held only as
    sparse tables: mul_table[i*dim + j] lists (r, c) with e_i e_j =
    Sum c e_r, comul_table[c] lists (c1, c2, x) with Delta(e_c) =
    Sum x e_c1 (x) e_c2, and a coaction_table[v] lists (v0, h, x) with
    rho(e_v) = Sum x e_v0 (x) e_h.  The constructors (here and in comodule)
    take the tables and normalise them with _table, the one normalisation
    point: each list is sorted ascending, its duplicate keys merged, its
    coefficients reduced and its zeros dropped, so equal tensors have equal
    tables;
  * an action of B (basis b_k) on V is held as its action_table[v], the
    (r, k, x) with e_v . b_k = Sum x e_r: the B*-coaction e_v -> Sum_k
    (e_v . b_k) (x) b_k^* (Montgomery 1993, 1.6), so B-linear is colinear
    for the two action tables, one check for both;
  * tensor factors are flattened lexicographically with the LEFT leg major,
    so _columns of a dense A (x) A -> A matrix is a mul_table and
    _leg_columns of a dense H -> H (x) H (or V -> V (x) H) matrix is a
    comul_table (or a coaction_table).

The axiom audits read the tables too: each axiom is a first_failure over
basis tuples, its two sides summed raw and reduced once (_agree), so no audit
forms a Kronecker product and each witness is the first failing tuple.
"""

import functools
import itertools
import math

from .linalg import (Factorization, Matrix, NotInvertible, _columns,
                     _nonzero, _terms, basis_vec, reduced, summed,
                     summed_columns)


class DimensionMismatch(ValueError):
    pass


class NotAGroup(ValueError):
    pass


class BadCharacteristic(ValueError):
    pass


class ValidationReport:
    """Outcome of a check: pass, fail, inconclusive or degenerate.

    Each failure is (check name, witness); the witness is a tuple of basis
    indices locating the first offending instance, or None when the failure
    is structural (e.g. a dimension clash).  inconclusive holds the checks
    that a sampled search left undecided and degenerate those that are
    vacuous on the input, both as (check name, witness) too.  details holds
    what a check measured besides its verdict (dimensions, counts, sizes).
    """

    def __init__(self):
        self.failures = []
        self.inconclusive = []
        self.degenerate = []
        self.details = {}

    def fail(self, axiom, witness=None):
        self.failures.append((axiom, witness))

    def fail_at(self, axiom, witness):
        """Record axiom as failing at witness, unless witness is None."""
        if witness is not None:
            self.fail(axiom, witness)

    def miss(self, check, found, witness=None):
        """Record a search for check that found nothing: an exhaustive
        search.NotFound is a proof and fails check, a sampled one leaves it
        inconclusive."""
        (self.failures if found.exhaustive else self.inconclusive).append(
            (check, witness))

    @property
    def passed(self):
        return not self.failures and not self.inconclusive

    def __repr__(self):
        status = "pass" if self.passed else (
            f"fail({self.failures!r}, inconclusive={self.inconclusive!r})")
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
        return (t_mat.apply(src.basis_product(i, j))
                == dst.product(images[x], images[y]))

    return first_failure(holds, n, n)


def _agree(field, lhs, rhs):
    """Whether two elements given as (key, raw coefficient) terms are equal:
    the terms of lhs - rhs are summed per key in one dict, reduced once."""
    acc = {}
    for key, x in lhs:
        acc[key] = acc.get(key, 0) + x
    for key, x in rhs:
        acc[key] = acc.get(key, 0) - x
    return not any(reduced(field, list(acc.values())))


def _colinear_defect(cols, x_co, y_co, x):
    """The raw terms ((y, h), c) of y_co(mat e_x) - (mat (x) id)(x_co e_x),
    for mat given by its _columns cols."""
    yield from (((y0, h), z * c) for y, z in cols[x] for y0, h, c in y_co[y])
    yield from (((y, h), -c * z) for x0, h, c in x_co[x] for y, z in cols[x0])


def colinear_witness(field, cols, x_co, y_co):
    """First column x with y_co(X e_x) != (X (x) id)(x_co e_x), or None,
    for the map X with the _columns cols and x_co and y_co given by their
    coaction tables: the check that X is a comodule map (a module map, for
    action tables), column by column from the nonzero entries."""
    return first_failure(lambda x: _agree(
        field, _colinear_defect(cols, x_co, y_co, x), ()), len(cols))


def linear_witness(field, cols, x_act, y_act):
    """(k,) for the least k with X(e_x . b_k) != X(e_x) . b_k at some x, or
    None, for the map X with the _columns cols and actions given by their
    action tables."""
    return min(((k,) for x in range(len(cols)) for (_, k), _ in _terms(
        field, _colinear_defect(cols, x_act, y_act, x))), default=None)


def tensor_algebra_map(report, prefix, alg, table, left, right):
    """Record where t: alg -> left (x) right, given by its _leg_columns table,
    is no algebra map for the legwise product: prefix + "multiplicative" at
    the first (i, j) with t(e_i e_j) != t(e_i) t(e_j), prefix + "unit"."""
    f, n, dl, dr = alg.field, alg.dim, left.dim, right.dim
    lm, rm = left.mul_table, right.mul_table
    report.fail_at(prefix + "multiplicative", first_failure(
        lambda i, j: _agree(
            f, (((a, b), c * x) for r, c in alg.mul_table[i * n + j]
                for a, b, x in table[r]),
            (((r, s), x * y * z * w) for a1, b1, x in table[i]
             for a2, b2, y in table[j] for r, z in lm[a1 * dl + a2]
             for s, w in rm[b1 * dr + b2])), n, n))
    if not _agree(f, (((a, b), u * x) for k, u in enumerate(alg.unit)
                      for a, b, x in table[k]),
                  (((a, b), u * v) for a, u in enumerate(left.unit)
                   for b, v in enumerate(right.unit))):
        report.fail(prefix + "unit")


def _table(field, table, size, what):
    """table with each entry list summed by _terms (keys ascending,
    duplicate keys merged, coefficients reduced, zeros dropped), after
    checking that it has size entries."""
    if len(table) != size:
        raise DimensionMismatch(what)
    return [[(*k, x) for k, x in _terms(field, ((t[:-1], t[-1]) for t in e))]
            for e in table]


class StructureConstantAlgebra:
    """Associative unital algebra given by its mul_table (module doc); unit
    is the coordinate vector of 1."""

    def __init__(self, field, dim, mul_table, unit, labels=None):
        if len(unit) != dim:
            raise DimensionMismatch("algebra tensor shapes")
        self.field = field
        self.dim = dim
        self.mul_table = _table(field, mul_table, dim * dim,
                                "algebra tensor shapes")
        self.unit = list(unit)
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]

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
        return summed_columns(self.field, self.dim,
                              self.mul_columns(_nonzero(v), True))

    def rmul(self, v):
        return summed_columns(self.field, self.dim,
                              self.mul_columns(_nonzero(v), False))

    def mul_columns(self, vs, left):
        """The raw terms of column j, v e_j (left) or e_j v, from the mul
        table, for v given by its raw terms vs."""
        n, table = self.dim, self.mul_table
        return [[(r, c * a) for i, a in vs
                 for r, c in table[i * n + j if left else j * n + i]]
                for j in range(n)]

    def element_inverse(self, v):
        """Two-sided inverse of v, or None."""
        (w,), (ok,) = Factorization(self.field, self.mul_columns(
            _nonzero(v), True)).solve_columns([_nonzero(self.unit)])
        w = summed_columns(self.field, self.dim, [w]).data
        if not ok or self.product(w, v) != self.unit:
            return None
        return w

    def basis_product(self, i, j):
        """e_i e_j as a coordinate vector, from the mul table."""
        out = [self.field.zero] * self.dim
        for r, c in self.mul_table[i * self.dim + j]:
            out[r] = c
        return out

    def is_commutative(self):
        n, table = self.dim, self.mul_table
        return all(table[i * n + j] == table[j * n + i]
                   for i in range(n) for j in range(i))

    def validate(self, report=None):
        report = report if report is not None else ValidationReport()
        f, n, table = self.field, self.dim, self.mul_table
        idn = Matrix.identity(f, n)
        report.fail_at("algebra.associativity", first_failure(
            lambda i, j, k: _agree(           # (e_i e_j) e_k = e_i (e_j e_k)
                f, ((s, a * b) for r, a in table[i * n + j]
                    for s, b in table[r * n + k]),
                ((s, a * b) for r, a in table[j * n + k]
                 for s, b in table[i * n + r])), n, n, n))
        for name, op in (("algebra.left-unit", self.lmul(self.unit)),
                         ("algebra.right-unit", self.rmul(self.unit))):
            report.fail_at(name, first_failure(
                lambda i: op.col(i) == idn.col(i), n))
        return report


class CoalgebraData:
    """Coalgebra: Delta by its comul_table (module doc) plus the counit
    H -> k as a 1 x dim matrix."""

    def __init__(self, field, dim, comul_table, counit):
        if counit.cols != dim:
            raise DimensionMismatch("coalgebra tensor shapes")
        self.field = field
        self.dim = dim
        self.comul_table = _table(field, comul_table, dim,
                                  "coalgebra tensor shapes")
        self.counit = counit

    def validate(self, report=None):
        report = report if report is not None else ValidationReport()
        f, table, eps = self.field, self.comul_table, self.counit.data
        report.fail_at("coalgebra.coassociativity", first_failure(
            lambda c: _agree(                 # (Delta (x) id) = (id (x) Delta)
                f, (((a, b, c2), x * y) for c1, c2, x in table[c]
                    for a, b, y in table[c1]),
                (((c1, a, b), x * y) for c1, c2, x in table[c]
                 for a, b, y in table[c2])), self.dim))
        report.fail_at("coalgebra.left-counit", first_failure(
            lambda c: _agree(f, ((c2, eps[c1] * x) for c1, c2, x in table[c]),
                             [(c, f.one)]), self.dim))
        report.fail_at("coalgebra.right-counit", first_failure(
            lambda c: _agree(f, ((c1, eps[c2] * x) for c1, c2, x in table[c]),
                             [(c, f.one)]), self.dim))
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
    mul, comul = h.algebra.mul_table, h.coalgebra.comul_table
    eps, unit = h.coalgebra.counit.data, h.algebra.unit
    ones = [(k, u) for k, u in enumerate(unit) if u != f.zero]
    s_cols, inv_cols = _columns(h.antipode), _columns(h.antipode_inv)

    # Delta and eps are algebra maps
    tensor_algebra_map(report, "bialgebra.comul-", h.algebra, comul,
                       h.algebra, h.algebra)
    report.fail_at("bialgebra.counit-multiplicative", first_failure(
        lambda i, j: _agree(f, ((0, eps[r] * a) for r, a in mul[i * n + j]),
                            [(0, eps[i] * eps[j])]), n, n))
    if not _agree(f, ((0, eps[c] * u) for c, u in ones), [(0, f.one)]):
        report.fail("bialgebra.counit-unit")

    # S(c1) c2 = c1 S(c2) = eps(c) 1, and S S^-1 = S^-1 S = id, by column
    for name, left in (("antipode.left", True), ("antipode.right", False)):
        report.fail_at(name, first_failure(
            lambda c: _agree(
                f, ((t, x * y * m) for c1, c2, x in comul[c]
                    for r, y in s_cols[c1 if left else c2]
                    for t, m in mul[r * n + c2 if left else c1 * n + r]),
                ((k, eps[c] * u) for k, u in ones)), n))
    for name, first, then in (("antipode.inverse-left", inv_cols, s_cols),
                              ("antipode.inverse-right", s_cols, inv_cols)):
        report.fail_at(name, first_failure(
            lambda c: _agree(f, ((t, x * y) for r, x in first[c]
                                 for t, y in then[r]), [(c, f.one)]), n))
    return report


def comul_terms(coalgebra, c, arity):
    """c_(1) (x) ... (x) c_(arity) by left-nested comultiplication (Delta
    applied to the first leg each time), as the terms (legs, x), legs
    ascending, x reduced and nonzero."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    f, table = coalgebra.field, coalgebra.comul_table
    terms = [((c,), f.one)]
    for _ in range(arity - 1):
        terms = _terms(f, (((c1, c2, *rest), x * y) for (first, *rest), x
                           in terms for c1, c2, y in table[first]))
    return terms


def comul_on(coalgebra, d):
    """I_d (x) Delta, the coaction of k^d (x) C, as its coaction_table:
    e_i (x) e_c -> Sum x (e_i (x) e_c1) (x) e_c2 at index i * dim + c."""
    n = coalgebra.dim
    return [[(i * n + c1, c2, x) for c1, c2, x in terms]
            for i in range(d) for terms in coalgebra.comul_table]


def is_cocommutative(h):
    return all(sorted((c2, c1, x) for c1, c2, x in terms) == terms
               for terms in h.coalgebra.comul_table)


# -- the convolution algebra Hom(C, A) -------------------------------------


class OneSidedInverse(NotInvertible):
    """A right convolution inverse exists but is not a left inverse."""


def convolve(algebra, coalgebra, g_mat, f_mat):
    """(g * f)(c) = Sum x g(c1) f(c2) over the Delta table of c, each product
    from the mul table; maps C -> A as dim A x dim C matrices."""
    return summed_columns(algebra.field, algebra.dim, convolution_terms(
        algebra, coalgebra, _columns(g_mat), _columns(f_mat)))


def convolution_terms(algebra, coalgebra, gs, fs):
    """The raw terms (r, x) of each column of g * f, for g and f given by
    their _columns: what convolve sums, and what a caller that solves
    against the convolution takes as it is."""
    da, table = algebra.dim, algebra.mul_table
    return [[(r, m * x * a * b) for c1, c2, x in terms for i, a in gs[c1]
             for j, b in fs[c2] for r, m in table[i * da + j]]
            for terms in coalgebra.comul_table]


def convolution_unit(algebra, coalgebra):
    """eta_A o eps_C, the unit of Hom(C, A)."""
    return Matrix.from_cols(algebra.field, [algebra.unit]) @ coalgebra.counit


def is_convolution_inverse(algebra, coalgebra, f_mat, g_mat):
    """f * g = g * f = eta eps in Hom(C, A)."""
    unit = convolution_unit(algebra, coalgebra)
    return (convolve(algebra, coalgebra, f_mat, g_mat) == unit
            and convolve(algebra, coalgebra, g_mat, f_mat) == unit)


def convolution_columns(algebra, coalgebra, fs):
    """The raw terms of column a * dC + c2 of the operator X -> f * X on
    vec(X), for f given by its _columns fs: (f * X)(c) = Sum x f(c1) X(c2)
    over the Delta table of c, each product from the mul table."""
    da, dc = algebra.dim, coalgebra.dim
    cols = [[] for _ in range(da * dc)]
    for c, terms in enumerate(coalgebra.comul_table):
        for c1, c2, x in terms:
            for i, y in fs[c1]:
                for a in range(da):
                    for r, m in algebra.mul_table[i * da + a]:
                        cols[a * dc + c2].append((r * dc + c, x * y * m))
    return cols


def convolution_inverse(algebra, coalgebra, f_mat):
    """Two-sided convolution inverse of f.

    Solves f * g = eta eps linearly, then verifies g * f = eta eps (a
    one-sided inverse in a finite-dimensional algebra is two-sided, but we
    check rather than assume).  Raises NotInvertible, or its subclass
    OneSidedInverse when only the right inverse exists.
    """
    unit = convolution_unit(algebra, coalgebra)
    (g,), (ok,) = Factorization(algebra.field, convolution_columns(
        algebra, coalgebra, _columns(f_mat))).solve_columns(
            [_nonzero(unit.data)])
    if not ok:
        raise NotInvertible("no right convolution inverse")
    g_mat = summed(algebra.field, algebra.dim, coalgebra.dim, g)
    if convolve(algebra, coalgebra, g_mat, f_mat) != unit:
        raise OneSidedInverse("right inverse is not two-sided")
    return g_mat


# -- generators ------------------------------------------------------------


def _group_table(field, cayley):
    """Identity of a checked Cayley table, and S(e_g) = e_g^-1 (kG, kG^*)."""
    n = len(cayley)
    if any(len(row) != n or any(not (0 <= v < n) for v in row)
           for row in cayley):
        raise NotAGroup("table entries out of range")
    identity = next((e for e in range(n) if all(
        cayley[e][j] == j == cayley[j][e] for j in range(n))), None)
    if identity is None:
        raise NotAGroup("no identity element")
    inverse = [next((j for j in range(n)
                     if cayley[i][j] == identity == cayley[j][i]), None)
               for i in range(n)]
    if None in inverse:
        raise NotAGroup(f"element {inverse.index(None)} has no inverse")
    witness = first_failure(lambda i, j, k: cayley[cayley[i][j]][k]
                            == cayley[i][cayley[j][k]], n, n, n)
    if witness is not None:
        raise NotAGroup(f"associativity fails at {witness}")
    return identity, Matrix.from_cols(field, [basis_vec(field, n, k)
                                              for k in inverse])


def group_algebra(field, cayley, labels=None):
    """The group algebra kG of a finite group given by its Cayley table."""
    identity, antipode = _group_table(field, cayley)
    n, one = len(cayley), field.one
    alg = StructureConstantAlgebra(
        field, n, [[(cayley[i][j], one)] for i in range(n) for j in range(n)],
        basis_vec(field, n, identity), labels)
    coalg = CoalgebraData(field, n, [[(i, i, one)] for i in range(n)],
                          Matrix(field, 1, n, [one] * n))
    return HopfAlgebraData(alg, coalg, antipode, antipode.invert())


def dual_group_algebra(field, cayley, labels=None):
    """The dual (kG)^*: idempotent basis, comultiplication from the table."""
    identity, antipode = _group_table(field, cayley)
    n, one = len(cayley), field.one
    alg = StructureConstantAlgebra(
        field, n, [[(i, one)] if i == j else [] for i in range(n)
                   for j in range(n)], [one] * n, labels)
    coalg = CoalgebraData(
        field, n, [[(a, b, one) for a in range(n) for b in range(n)
                    if cayley[a][b] == c] for c in range(n)],
        Matrix(field, 1, n, basis_vec(field, n, identity)))
    return HopfAlgebraData(alg, coalg, antipode, antipode.invert())


def cyclic_cayley(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def taft(field, n):
    """The Taft algebra T_n (Taft 1971), n >= 2 dividing p - 1 or n = 2 over
    Q: basis g^a x^b at index a + n*b, g^n = 1, x^n = 0, xg = q gx for q the
    least primitive n-th root of unity (-1 over Q), g grouplike,
    Delta(g^a x^b) = Sum_k [b, k]_q g^(a+k) x^(b-k) (x) g^a x^k, and S the
    anti-algebra map with S(g) = g^(n-1), S(x) = -g^(n-1) x."""
    p = field.p
    if n < 2 or (p is None and n != 2) or (p is not None and (p - 1) % n):
        raise BadCharacteristic(
            f"T_{n} needs n >= 2 dividing p - 1, or n = 2 over Q")
    if p is None:
        q = -1
    else:       # some y^((p-1)/n) has order n; q is its least primitive power
        r = next(r for r in (pow(y, (p - 1) // n, p) for y in range(2, p))
                 if all(pow(r, d, p) != 1 for d in range(1, n)))
        q = min(pow(r, k, p) for k in range(1, n) if math.gcd(k, n) == 1)
    qp = [field.from_int(q ** k) for k in range(n)]
    binom = [[field.one]]                         # [b, k]_q, q-Pascal rule
    for b in range(1, n):
        row = binom[-1] + [field.zero]
        binom.append([field.one] + [field.add(row[k - 1], qp[k] * row[k])
                                    for k in range(1, b + 1)])
    dim = n * n
    basis = list(itertools.product(range(n), repeat=2))     # (b, a) at a + n*b
    # g^a x^b g^c x^d = q^(bc) g^(a+c) x^(b+d), zero when b + d >= n
    mul = [[((a + c) % n + n * (b + d), qp[b * c % n])] if b + d < n else []
           for b, a in basis for d, c in basis]
    comul = [[((a + k) % n + n * (b - k), a + n * k, binom[b][k])
              for k in range(b + 1)] for b, a in basis]
    counit = Matrix(field, 1, dim, [field.one] * n + [field.zero] * (dim - n))
    labels = [("" if a == 0 else "g" if a == 1 else f"g^{a}")
              + ("" if b == 0 else "x" if b == 1 else f"x^{b}") or "1"
              for b in range(n) for a in range(n)]
    alg = StructureConstantAlgebra(field, dim, mul, basis_vec(field, dim, 0),
                                   labels)
    s_g = basis_vec(field, dim, n - 1)
    s_x = [field.neg(v) for v in basis_vec(field, dim, 2 * n - 1)]
    antipode = Matrix.from_cols(field, [         # S(g^a x^b) = S(x)^b S(g)^a
        functools.reduce(alg.product, [s_x] * b + [s_g] * a, alg.unit)
        for b in range(n) for a in range(n)])
    coalg = CoalgebraData(field, dim, comul, counit)
    return HopfAlgebraData(alg, coalg, antipode, antipode.invert())


def sweedler_h4(field):
    """The 4-dimensional Sweedler Hopf algebra T_2, basis 1, g, x, gx."""
    return taft(field, 2)
