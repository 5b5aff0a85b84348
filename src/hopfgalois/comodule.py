"""Comodule algebras, coinvariants, relative Hopf modules and the quotient
construction M (x)_B A, together with the adjunction unit.

A coaction is held only as its coaction_table and a module action only as
its action_table (see hopf).  Every identity "in M (x)_B A" is checked in
quotient coordinates: the QuotientSpace fixes a deterministic
projection/section pair, and equality of classes is equality of projected
coordinates, never of representatives.  The pair is held as index maps
(QuotientSpace), through which tensor_over_B builds the action and
coaction tables from the action table of M, mul_table and rho's table,
with no Kronecker product, checking well-definedness relation by relation.
"""

import itertools

from .hopf import (DimensionMismatch, StructureConstantAlgebra,
                   ValidationReport, _agree, _table, first_failure,
                   tensor_algebra_map)
from .linalg import (Factorization, Matrix, _columns, _nonzero, _pair,
                     _terms, colinearity_operator, eliminate, sparse_kernel,
                     summed, summed_columns)


class InternalInvariant(RuntimeError):
    """A structural consequence that must hold for validated input failed."""


class IllDefinedStructure(RuntimeError):
    """An induced map does not vanish on the defining relations."""


class ComoduleAlgebraData:
    """Right H-comodule algebra: algebra A plus coaction rho: A -> A (x) H,
    given by its coaction_table (hopf module doc)."""

    def __init__(self, hopf, algebra, coaction_table):
        if algebra.field != hopf.field:
            raise DimensionMismatch("field mismatch")
        self.hopf = hopf
        self.algebra = algebra
        self.coaction_table = _table(algebra.field, coaction_table,
                                     algebra.dim, "coaction shape")
        self._coinv = None

    @property
    def field(self):
        return self.algebra.field

    def validate(self):
        rho = self.coaction_table
        report = ValidationReport()
        self.algebra.validate(report)
        _coaction_laws(report, "comodule", self.hopf, rho)
        # rho is an algebra map, for the componentwise product on A (x) H
        tensor_algebra_map(report, "comodule.", self.algebra, rho,
                           self.algebra, self.hopf.algebra)
        return report

    def coinvariants(self):
        if self._coinv is None:
            self._coinv = _coinvariant_subalgebra(self)
        return self._coinv


def comodule_coinvariant_basis(field, dim, coaction_table, hopf_unit):
    """Kernel of (rho - ((-) (x) 1)) as a dim x c matrix of column vectors:
    the colinear maps from k, with 1 -> 1 (x) 1_H, into (k^dim, rho)."""
    unit = [[(0, h, u) for h, u in enumerate(hopf_unit) if u]]
    kernel = sparse_kernel(field, dim, colinearity_operator(
        field, 1, dim, unit, coaction_table, len(hopf_unit)))
    return Matrix.from_cols(field, kernel, nrows=dim)


class SubalgebraEmbedding:
    """B -> A: inclusion matrix plus the induced algebra structure on B."""

    def __init__(self, ambient, inclusion, algebra, factored):
        self.ambient = ambient
        self.inclusion = inclusion
        self.algebra = algebra
        self.factored = factored        # Factorization of the inclusion

    @property
    def dim(self):
        return self.algebra.dim

    def to_ambient(self, v):
        return self.inclusion.apply(v)

    def coords(self, cols):
        """(x_cols, bad): x_cols[j] holds the coordinates in B of the
        ambient vector with the raw terms cols[j], in the layout of
        _columns, from one solve, and bad is the first j outside B, or
        None."""
        x, ok = self.factored.solve_columns(cols)
        return x, next((j for j, good in enumerate(ok) if not good), None)


def _coinvariant_subalgebra(ca):
    f, alg = ca.field, ca.algebra
    incl = comodule_coinvariant_basis(f, alg.dim, ca.coaction_table,
                                      ca.hopf.algebra.unit)
    cols = _columns(incl)
    factored = Factorization(f, cols)
    # 1_A is always coinvariant; mul is B's mul_table as solved
    (unit, *mul), ok = factored.solve_columns(
        [_nonzero(alg.unit)] + [list(_pair(alg.mul_table, alg.dim, ci, cj))
                                for ci in cols for cj in cols])
    if not all(ok):
        raise InternalInvariant("coinvariants not closed under product")
    db = incl.cols
    b_alg = StructureConstantAlgebra(f, db, mul,
                                     summed_columns(f, db, [unit]).data,
                                     [f"b{i}" for i in range(db)])
    return SubalgebraEmbedding(alg, incl, b_alg, factored)


class BModule:
    """Right module over the coinvariant subalgebra B, by its action_table:
    entry m lists (r, k, x) with e_m . b_k = Sum x e_r (hopf module doc)."""

    def __init__(self, base, dim, action_table):
        self.base = base
        self.dim = dim
        self.action_table = _table(base.algebra.field, action_table, dim,
                                   "action shape")

    def validate(self):
        report = ValidationReport()
        check_right_action(report, self.base.algebra, self.action_table,
                           "bmodule.unit", "bmodule.associativity")
        return report


def _slices(table, n):
    """out[m][k] lists the (r, x) of e_m . b_k, from the action table."""
    out = [[[] for _ in range(n)] for _ in table]
    for m, terms in enumerate(table):
        for r, k, x in terms:
            out[m][k].append((r, x))
    return out


def associativity_failures(alg, table):
    """The (i, j), in lexicographic order, with m.(a_i a_j) != (m.a_i).a_j
    at some basis vector m, for the action table of a right alg-action."""
    f, n, mul = alg.field, alg.dim, alg.mul_table
    acts = _slices(table, n)
    return ((i, j) for i, j in itertools.product(range(n), repeat=2)
            if first_failure(lambda m: _agree(
                f, ((r, c * x) for s, c in mul[i * n + j]
                    for r, x in acts[m][s]),
                ((t, x * y) for r, x in acts[m][i] for t, y in acts[r][j])),
                len(table)) is not None)


def check_right_action(report, alg, table, unit_name, assoc_name):
    """Record where the action table fails to be a right alg-module: m.1 = m
    under unit_name at the first failing (m,), associativity under
    assoc_name at every failing (i, j)."""
    f, unit = alg.field, alg.unit
    report.fail_at(unit_name, first_failure(lambda m: _agree(
        f, ((r, unit[k] * x) for r, k, x in table[m]), [(m, f.one)]),
        len(table)))
    for witness in associativity_failures(alg, table):
        report.fail(assoc_name, witness)


def _coaction_laws(report, prefix, hopf, rho):
    """Record where the coaction table rho fails coassociativity and the
    counit law, each with witness (column,)."""
    f, dim = hopf.field, len(rho)
    comul, eps = hopf.coalgebra.comul_table, hopf.coalgebra.counit.data
    report.fail_at(f"{prefix}.coassociativity", first_failure(
        lambda k: _agree(                     # (rho (x) id) = (id (x) Delta)
            f, (((a2, h2, h), x * y) for a, h, x in rho[k]
                for a2, h2, y in rho[a]),
            (((a, h1, h2), x * y) for a, h, x in rho[k]
             for h1, h2, y in comul[h])), dim))
    report.fail_at(f"{prefix}.counit", first_failure(
        lambda k: _agree(f, ((a, x * eps[h]) for a, h, x in rho[k]),
                         [(k, f.one)]), dim))


def regular_bmodule(ca):
    """B as a right module over itself: e_m . b_k from B's mul_table."""
    b = ca.coinvariants()
    n, mul = b.dim, b.algebra.mul_table
    return BModule(b, n, [[(r, k, c) for k in range(n)
                           for r, c in mul[m * n + k]] for m in range(n)])


def algebra_as_bmodule(ca):
    """A as a right B-module by right multiplication through the inclusion:
    e_a . b_k = Sum y e_a e_t over the column (t, y) of b_k."""
    b = ca.coinvariants()
    da, mul = ca.algebra.dim, ca.algebra.mul_table
    return BModule(b, da, [[(s, k, y * c)
                            for k, col in enumerate(_columns(b.inclusion))
                            for t, y in col for s, c in mul[a * da + t]]
                           for a in range(da)])


class RelativeHopfModuleData:
    """Right A-module + right H-comodule with the compatibility relation;
    the action is given by its action_table and the coaction by its
    coaction_table (hopf module doc)."""

    def __init__(self, field, dim, action_table, coaction_table):
        self.field = field
        self.dim = dim
        self.action_table = _table(field, action_table, dim, "action shape")
        self.coaction_table = _table(field, coaction_table, dim,
                                     "coaction shape")

    def coinvariant_basis(self, ca):
        return comodule_coinvariant_basis(ca.field, self.dim,
                                          self.coaction_table,
                                          ca.hopf.algebra.unit)

    def validate(self, ca):
        f, dh, dm = ca.field, ca.hopf.dim, self.dim
        h_mul = ca.hopf.algebra.mul_table
        report = ValidationReport()
        check_right_action(report, ca.algebra, self.action_table,
                           "hopfmodule.action-unit",
                           "hopfmodule.action-associativity")
        rho = self.coaction_table
        _coaction_laws(report, "hopfmodule", ca.hopf, rho)
        # rho(m a) = m_[0] a_[0] (x) m_[1] a_[1], on each pair (e_m, e_a)
        rho_a, acts = ca.coaction_table, _slices(self.action_table,
                                                 ca.algebra.dim)
        for a in range(ca.algebra.dim):
            if first_failure(lambda m: _agree(
                    f, (((k, h), y * x) for r, y in acts[m][a]
                        for k, h, x in rho[r]),
                    (((r, s), c * x * y * z) for i, j, c in rho_a[a]
                     for k, h, x in rho[m] for r, y in acts[k][i]
                     for s, z in h_mul[h * dh + j])), dm) is not None:
                report.fail("hopfmodule.compatibility", (a,))
        return report


class QuotientSpace:
    """Coordinatized quotient of a plain tensor product by the span of
    relations (sparse rows: lists of raw (ambient index, x)), as index maps.

    The free (non-pivot) columns of the row-reduced relations, in increasing
    order, index the quotient basis: the section sends q to ambient e_free[q],
    so amb @ section is a column gather.  columns[j] lists the nonzero
    (q, x) of the projection of e_j: (q, 1) at j = free[q], the negated
    reduced relation row at a pivot.  The projection kills exactly the
    relations, and projection . section is the identity.
    """

    def __init__(self, field, ambient_dim, relations):
        self.field = field
        piv = eliminate(field, (dict(_terms(field, rel))
                                for rel in relations))[0]
        self.free = [j for j in range(ambient_dim) if j not in piv]
        self.dim = len(self.free)
        self.columns = [[] for _ in range(ambient_dim)]
        for q, j in enumerate(self.free):
            self.columns[j] = [(q, field.one)]
        q_of = {j: q for q, j in enumerate(self.free)}
        for pc, prow in piv.items():   # the RREF row is zero at other pivots
            self.columns[pc] = [(q_of[j], field.neg(x))
                                for j, x in sorted(prow.items()) if j != pc]

    def classes(self, terms):
        """The terms ((q, k), x y) of the class of Sum x e_j (x) e_k, given
        as raw terms (j, k, x) with j ambient: the first leg projected."""
        cols = self.columns
        return (((q, k), x * y) for j, k, x in terms for q, y in cols[j])

    def induced(self, image):
        """projection . g . section for the ambient map g with g(e_j) =
        Sum x e_i over the raw terms (i, 0, x) of image(j): a dim x dim
        matrix."""
        n = self.dim
        return summed(self.field, n, n, (
            (r * n + q, x) for q, j in enumerate(self.free)
            for (r, _), x in self.classes(image(j))))


class InducedModule:
    """M (x)_B A as a relative Hopf module, with its quotient presentation."""

    def __init__(self, ca, bmodule, quotient, module):
        self.ca = ca
        self.bmodule = bmodule
        self.quotient = quotient
        self.module = module

    def induced_map(self, g):
        """g (x)_B A on quotient coordinates, for g: M -> M B-linear."""
        da, g_cols = self.ca.algebra.dim, _columns(g)
        return self.quotient.induced(lambda j: (
            (r * da + j % da, 0, x) for r, x in g_cols[j // da]))


def tensor_over_B(m, ca):
    """The induction M (x)_B A with verified induced action and coaction.

    Ambient index i * dA + a stands for e_i (x) e_a.  The relations
    e_i.b_k (x) e_a - e_i (x) b_k e_a, the action (x) a_j and the coaction
    id (x) rho are read from the action table of M, mul_table and rho's
    table; each relation is checked here against each a_j and against rho.
    The induced action and coaction tables are the classes of the section's
    e_free[q] . a_j and (id (x) rho)(e_free[q]).
    """
    f = ca.field
    b = ca.coinvariants()
    da, dm = ca.algebra.dim, m.dim
    mul, rho = ca.algebra.mul_table, ca.coaction_table
    acts, b_cols = _slices(m.action_table, b.dim), _columns(b.inclusion)
    relations = [[(r * da + a, x) for r, x in acts[i][k]]
                 + [(i * da + s, -y * c) for t, y in b_cols[k]
                    for s, c in mul[t * da + a]]
                 for i in range(dm) for k in range(b.dim) for a in range(da)]
    quot = QuotientSpace(f, dm * da, relations)

    def times(terms):                    # (Sum x e_i (x) e_a) . a_j, all j
        return [(i - i % da + r, j, x * c) for i, x in terms
                for j in range(da) for r, c in mul[i % da * da + j]]

    def coact(terms):                    # (id (x) rho)(Sum x e_i (x) e_a)
        return [(i - i % da + a0, h, x * y) for i, x in terms
                for a0, h, y in rho[i % da]]

    for image, what in ((times, "A-action"), (coact, "coaction")):
        if not all(_agree(f, quot.classes(image(rel)), ()) for rel in relations):
            raise IllDefinedStructure(f"{what} does not respect the relations")
    module = RelativeHopfModuleData(f, quot.dim, *(
        [[(*key, x) for key, x in quot.classes(image([(j, f.one)]))]
         for j in quot.free] for image in (times, coact)))
    return InducedModule(ca, m, quot, module)


def adjunction_unit(m, ca, induced=None):
    """eta_M(m) = class of m (x) 1, with a bijectivity verdict onto
    (M (x)_B A)^{co H}.

    Returns (eta, coords, bijective): eta maps M into quotient coordinates;
    coords expresses eta through the computed coinvariant basis.
    """
    ind = induced if induced is not None else tensor_over_B(m, ca)
    f, quot = ca.field, ind.quotient
    unit, da = _nonzero(ca.algebra.unit), ca.algebra.dim
    eta_cols = [[(q, u * y) for a, u in unit
                 for q, y in quot.columns[i * da + a]] for i in range(m.dim)]
    coinv = ind.module.coinvariant_basis(ca)
    x, ok = Factorization(f, _columns(coinv)).solve_columns(eta_cols)
    if not all(ok):
        raise InternalInvariant("eta does not land in the coinvariants")
    coords = summed_columns(f, coinv.cols, x)
    eta = summed_columns(f, quot.dim, eta_cols)
    return eta, coords, coords.is_invertible()
