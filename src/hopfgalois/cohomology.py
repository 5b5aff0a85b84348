"""Sweedler first cohomology for cocommutative H acting on commutative B:
Z^1, B^1, H^1, the set Omega_A of colinear algebra maps, the equivalence ~,
the groupoid X_A (Thm 5.6), the bijection F (Prop 5.7), and Lemma 5.5.

Cocycles v: H -> B are db x dh matrices; the module-algebra action is a
db x (dh*db) matrix with left-leg-major flattening, as in module cleft,
read through its columns (columns[h * db + i] lists h . b_i).  The cocycle
law, the module-algebra audit and f_b are summed from those columns and the
tables, and the linear-in-b conditions of ~ (cohomologous,
omega_equivalence) are {column: x} rows for sparse_kernel; no basis vector
is applied.
"""

import itertools
from functools import cached_property, partial

from . import cleft, convcat, search
from .comodule import InternalInvariant
from .hopf import (ValidationReport, _agree, convolution_columns,
                   convolution_inverse, convolution_terms, convolution_unit,
                   convolve, first_failure, is_cocommutative)
from .linalg import (Matrix, NotInvertible, OperatorSpan, _columns, _nonzero,
                     _pair, _terms, sparse_kernel, summed, summed_columns)
from .search import NotFound, SearchInconclusive


class HypothesisViolated(RuntimeError):
    pass


def _units(field, rows, cols):
    """The _columns of the rows x cols matrix units E_i, row-major."""
    return [[[(r, field.one)] if j == c else [] for j in range(cols)]
            for r in range(rows) for c in range(cols)]


def _sparse_rows(n, terms):
    """The n rows, {column: x} dicts of raw sums, of the raw terms
    ((row, column), x): an operator for sparse_kernel."""
    rows = [{} for _ in range(n)]
    for (i, j), x in terms:
        rows[i][j] = rows[i].get(j, 0) + x
    return rows


class HModuleAlgebraAction:
    """Left H-module algebra action on B (the untwisted case of Lemma 5.5),
    read through the columns of the action: columns[h * dim B + i] lists
    h . b_i, the mul_table layout of cleft."""

    def __init__(self, hopf, base, action):
        self.hopf = hopf
        self.base = base            # StructureConstantAlgebra
        self.action = action        # db x (dh * db)
        self.columns = _columns(action)

    @property
    def field(self):
        return self.base.field

    @cached_property
    def cocycle_law(self):
        """v(e_h e_k) = sum c (e_h1 . v(e_k)) v(e_h2) over Delta(e_h), compiled
        once as one (linear, quadratic) pair per (h, k, r) in that order: the
        terms (i, a) of v(e_h e_k)_r and the aggregated terms (i, j, c) of
        the right side's r-th coordinate, i and j indexing v.data."""
        f, base, hopf, om = self.field, self.base, self.hopf, self.columns
        db, dh, bmul = base.dim, hopf.dim, base.mul_table
        law = []
        for h, k in itertools.product(range(dh), repeat=2):
            # (e_h1 . e_s) e_t, with v(e_k) = sum_s v[s][k] e_s
            quad = [[] for _ in range(db)]
            for (r, i, j), c in _terms(f, (
                    ((r, s * dh + k, t * dh + h2), c * x * y)
                    for h1, h2, c in hopf.coalgebra.comul_table[h]
                    for s in range(db) for a, x in om[h1 * db + s]
                    for t in range(db) for r, y in bmul[a * db + t])):
                quad[r].append((i, j, c))
            hk = hopf.algebra.mul_table[h * dh + k]
            law += [([(r * dh + j, x) for j, x in hk], quad[r])
                    for r in range(db)]
        return law

    @cached_property
    def unit_rows_last(self):
        """cocycle_law, the rows of e_h = 1_H last if 1_H is a basis vector:
        they hold once v(1) = 1 under a unital action, so other rows reject
        sooner; none is dropped, so a non-unital action still fails."""
        f, law, one = self.field, self.cocycle_law, self.hopf.algebra.unit
        if one.count(f.zero) != len(one) - 1 or f.one not in one:
            return law
        block = len(law) // len(one)
        lo = one.index(f.one) * block
        return law[:lo] + law[lo + block:] + law[lo:lo + block]

    @cached_property
    def conv_span(self):
        """OperatorSpan of L(E_i), E_i the row-major matrix units of
        Hom(H, B): convolution by v is its combination at v.data."""
        n = self.base.dim * self.hopf.dim
        return OperatorSpan(self.field, [convolution_columns(
            self.base, self.hopf.coalgebra, e)
            for e in _units(self.field, self.base.dim, self.hopf.dim)], n, n)

    def validate(self):
        f, om, hmul = self.field, self.columns, self.hopf.algebra.mul_table
        db, dh = self.base.dim, self.hopf.dim
        report = ValidationReport()
        report.fail_at("1.b=b", cleft.unit_witness(self.hopf, self.base, om))
        for name, witness in zip(("h.1=eps(h)1", "h.(bc)=(h1.b)(h2.c)"),
                                 cleft.measuring_witnesses(
                                     self.hopf, self.base, om)):
            report.fail_at(name, witness)
        report.fail_at("h.(k.b)=(hk).b", first_failure(
            lambda h, k, i: _agree(
                f, ((s, x * y) for r, x in om[k * db + i]
                    for s, y in om[h * db + r]),
                ((s, c * y) for t, c in hmul[h * dh + k]
                 for s, y in om[t * db + i])), dh, dh, db))
        return report


def trivial_action(hopf, base):
    """h.b = eps(h) b."""
    db, n = base.dim, hopf.dim * base.dim
    return HModuleAlgebraAction(hopf, base, summed(base.field, db, n, (
        (i * n + h * db + i, e)
        for h, e in enumerate(hopf.coalgebra.counit.data)
        for i in range(db))))


def action_from_cleft(ca, datum):
    """omega_t on B = A^{co H}, per Eq. (omega) of Thm 5.2's proof."""
    b = ca.coinvariants()
    omega, bad = b.coords(cleft.omega_t(ca, datum.t, datum.u))
    if bad is not None:
        raise InternalInvariant("vector not in the subalgebra")
    return HModuleAlgebraAction(ca.hopf, b.algebra,
                                summed_columns(ca.field, b.dim, omega))


def _gate(hopf, base):
    if not is_cocommutative(hopf):
        raise HypothesisViolated("H is not cocommutative")
    if not base.is_commutative():
        raise HypothesisViolated("B is not commutative")


# -- Lemma 5.5 ---------------------------------------------------------------


def lemma55_check(ca, datum1, datum2):
    """omega_t is datum-independent and a module-algebra action on B."""
    b = ca.coinvariants()
    _gate(ca.hopf, b.algebra)
    act1 = action_from_cleft(ca, datum1)
    act2 = action_from_cleft(ca, datum2)
    report = ValidationReport()
    if act1.action != act2.action:
        report.fail("omega-datum-dependent")
    inner = act1.validate()
    for failure in inner.failures:
        report.fail(*failure)
    return report


# -- Z^1, B^1, H^1 -----------------------------------------------------------


def z1_membership(act, v_mat):
    """Normalized cocycle (Sweedler 1968), first failure wins: v(1) = 1; then
    v(hk) = (h1.v(k))v(h2) as the equations act.cocycle_law, cheap and
    rejecting early, in the order act.unit_rows_last; then convolution
    invertibility by the rank of act.conv_span at v.data (no inverse is
    formed)."""
    f, v = act.field, v_mat.data
    if v_mat.apply(act.hopf.algebra.unit) != act.base.unit:
        return False
    for lin, quad in act.unit_rows_last:
        x = 0
        for i, a in lin:
            x += a * v[i]
        for i, j, c in quad:
            x -= c * v[i] * v[j]
        if x and (f.p is None or x % f.p):
            return False
    return act.conv_span.full_rank_at(v)


def b1_element(act, b_vec):
    """f_b(h) = (h.b) b^{-1}; raises ValueError for non-invertible b."""
    f, base, dh = act.field, act.base, act.hopf.dim
    b_inv = base.element_inverse(b_vec)
    if b_inv is None:
        raise ValueError("b is not invertible in B")
    db = base.dim
    return summed(f, db, dh, ((r * dh + h, x) for h in range(dh) for r, x in
                              _pair(base.mul_table, db, _pair(
                                  act.columns, db, [(h, f.one)],
                                  _nonzero(b_vec)), _nonzero(b_inv))))


def _invertible_element(base, kernel_vecs, seed):
    """An invertible element of B in span(kernel_vecs), found as an
    invertible lmul(b), or NotFound."""
    op = search.invertible(base.field, [base.mul_columns(v, True)
                                        for v in kernel_vecs],
                           base.dim, base.dim, seed)
    if isinstance(op, NotFound):
        return op
    b = op.apply(base.unit)
    if base.element_inverse(b) is None:
        raise InternalInvariant("lmul(b) has full rank but b has no inverse")
    return b


def cohomologous(act, v_mat, v1_mat, seed=0):
    """v ~ v1 iff v = f_b * v1 for invertible b; linearized per the identity
    (v * v1^{-1})(h) . b = h . b, solved in b and sampled for invertibility."""
    f = act.field
    base, hopf = act.base, act.hopf
    db, dh = base.dim, hopf.dim
    try:
        v1_inv = convolution_inverse(base, hopf.coalgebra, v1_mat)
    except NotInvertible as exc:
        raise ValueError("v1 is not convolution invertible") from exc
    w = convolution_terms(base, hopf.coalgebra, _columns(v_mat),
                          _columns(v1_inv))
    times = partial(_pair, base.mul_table, db)
    # w(h) b - h . b = 0 in row h * db + r, column i the coordinate b_i:
    # both sides linear in b
    kernel = sparse_kernel(f, db, _sparse_rows(dh * db, (
        ((h * db + r, i), x) for h in range(dh) for i in range(db)
        for r, x in itertools.chain(
            times(w[h], [(i, f.one)]),
            ((r, -x) for r, x in act.columns[h * db + i])))))
    b = _invertible_element(base, kernel, seed)
    if not search.found(b, "invertible b with v = f_b * v1"):
        return False
    return v_mat == convolve(base, hopf.coalgebra, b1_element(act, b), v1_mat)


def h1_classes(act, candidates, seed=0):
    """Partition a list of cocycles into cohomology classes."""
    return search.classes(candidates,
                          lambda v, r: cohomologous(act, v, r, seed=seed))


def z1_enumerate(act):
    """All of Z^1(H, B) from the unit rows v(1) = 1 and act.cocycle_law:
    exhaustive on their unital slice over F_p, an exact solve over Q."""
    f = act.field
    base, hopf = act.base, act.hopf
    db, dh = base.dim, hopf.dim
    n = db * dh
    # v(1) = 1: coordinate i = r * dh + j adds 1_H[j] v[r, j] to row r
    unit = ([[hopf.algebra.unit[i % dh] if r == i // dh else f.zero
              for r in range(db)] for i in range(n)], base.unit)

    def cocycle_at(entries):
        v = Matrix(f, db, dh, list(entries))
        return v if z1_membership(act, v) else None

    if f.kind == "Fp":
        return search.every(f, n, cocycle_at, unit)

    def equations(v, prod):         # v[j]: the image of e_j
        x = [v[i % dh][i // dh] for i in range(n)]
        yield from (sum(img[r] * xi for img, xi in zip(unit[0], x)) - b
                    for r, b in enumerate(base.unit))
        for lin, quad in act.cocycle_law:
            yield (sum(a * x[i] for i, a in lin)
                   - sum(c * x[i] * x[j] for i, j, c in quad))

    out = []
    for v in search.rational_points(
            base, _units(f, db, dh), equations, cocycle_at,
            refuse="Z^1 has a positive-dimensional family"):
        if v not in out:
            out.append(v)
    return out


# -- Omega_A -----------------------------------------------------------------


def omega_membership(ca, t_mat):
    """t in Omega_A: H-colinear algebra map."""
    return (convcat.membership(ca, _columns(t_mat), (2, 1), "C")
            and cleft.is_algebra_map(ca, t_mat))


def omega_equivalence(ca, t1_mat, t2_mat, seed=0):
    """t1 ~ t2 iff b t1(h) = t2(h) b for some invertible b in B (linear in b)."""
    b = ca.coinvariants()
    da, db, dh = ca.algebra.dim, b.dim, ca.hopf.dim
    times = partial(_pair, ca.algebra.mul_table, da)
    incl, t1, t2 = _columns(b.inclusion), _columns(t1_mat), _columns(t2_mat)
    # b t1(h) - t2(h) b = 0 in row h * da + r, column i the coordinate b_i
    kernel = sparse_kernel(ca.field, db, _sparse_rows(dh * da, (
        ((h * da + r, i), x) for h in range(dh) for i, col in enumerate(incl)
        for r, x in itertools.chain(
            times(col, t1[h]), ((r, -x) for r, x in times(t2[h], col))))))
    return search.found(_invertible_element(b.algebra, kernel, seed),
                        "invertible b with b t1(h) = t2(h) b")


def omega_classes(ca, candidates, seed=0):
    return search.classes(candidates,
                          lambda t, r: omega_equivalence(ca, t, r, seed=seed))


def _embed_v(ca, b, v_mat):
    """iota o v: H -> A for a B-valued map v."""
    return b.inclusion @ v_mat


def omega_enumerate(ca, act=None, base_point=None, seed=0):
    """All of Omega_A: exhaustive over F_p within cap; over Q generated as
    {v * t0 | v in Z^1} from a base point (complete by Prop 5.7).  The
    candidates span Hom^H(H, A), so only the algebra-map test is made."""
    f = ca.field
    b = ca.coinvariants()
    ops = [el.cols for el in convcat.hom_space(ca, (2, 1), "C").elements]
    d = len(ops)
    unit = cleft.unit_condition(ca, ops)
    if search.enumerable(f, d, unit):
        return search.every(f, d, partial(cleft._algebra_map_at, ca, ops),
                            unit)
    if base_point is None:
        base_point = cleft._algebra_map_search(ca, ops, seed=seed)
        if isinstance(base_point, NotFound):
            if base_point.exhaustive:
                return []
            raise SearchInconclusive("no Omega_A base point found")
    if act is None:
        datum = cleft.CleftingDatum(base_point, base_point @ ca.hopf.antipode,
                                    normalized=True)
        act = action_from_cleft(ca, datum)
    out = []
    for v in z1_enumerate(act):
        t = convcat.convolve_matrices(ca, _embed_v(ca, b, v), base_point, "C")
        if not omega_membership(ca, t):
            raise InternalInvariant("v * t0 left Omega_A (Thm 5.6 item 2)")
        if t not in out:
            out.append(t)
    return out


# -- Theorem 5.6: the groupoid X_A -------------------------------------------


def groupoid_xa_check(ca, seed=0):
    """All six closure items of Thm 5.6 plus invertibility of every morphism;
    details holds the sizes of Z^1, Omega_A, X22 and X12, and vacuous is
    true when Omega_A is empty."""
    b = ca.coinvariants()
    _gate(ca.hopf, b.algebra)
    f = ca.field
    hopf = ca.hopf
    s = hopf.antipode
    datum = cleft.find_cleft(ca, seed=seed)
    if isinstance(datum, cleft.NotFound):
        raise HypothesisViolated(f"A is not cleft: {datum!r}")
    act = action_from_cleft(ca, datum)
    report = ValidationReport()
    z1 = z1_enumerate(act)
    omega = omega_enumerate(ca, act=act, seed=seed)
    x22 = [v @ hopf.antipode_inv for v in z1]     # w with w o S in Z^1
    x12 = [t @ s for t in omega]
    report.details.update(vacuous=not omega, sizes={
        "Z1": len(z1), "Omega": len(omega), "X22": len(x22), "X12": len(x12)})

    def conv_terms(g, t):
        """The raw terms of each column of g * t, for in_b."""
        return convolution_terms(ca.algebra, hopf.coalgebra, _columns(g),
                                 _columns(t))

    def in_b(cols):
        """An A-valued map, by the raw terms of its columns, as a B-valued
        one, or None if a value leaves B."""
        x, bad = b.coords(cols)
        return None if bad is not None else summed_columns(f, b.dim, x)

    def in_z1_ambient(cols):
        v = in_b(cols)
        return v is not None and z1_membership(act, v)

    def in_x22_ambient(cols):
        w = in_b(cols)
        return w is not None and z1_membership(act, w @ s)

    def in_x12(m):
        return omega_membership(ca, m @ hopf.antipode_inv)

    def inverse_in_z1(v):
        try:
            return z1_membership(
                act, convolution_inverse(act.base, hopf.coalgebra, v))
        except NotInvertible:
            return False

    def invertible(m):
        try:
            convcat.convolution_inverse_matrix(ca, m, "C")
        except NotInvertible:
            return False
        return True

    def closed(name, left, right, conv, member):
        """member(conv(l, r)) for every l in left and r in right."""
        report.fail_at(name, first_failure(
            lambda i, j: member(conv(left[i], right[j])),
            len(left), len(right)))

    # Z^1 group structure
    unit_b = convolution_unit(act.base, hopf.coalgebra)
    if z1 and not z1_membership(act, unit_b):
        report.fail("Z1-unit")
    report.fail_at("Z1-inverse",
                   first_failure(lambda i: inverse_in_z1(z1[i]), len(z1)))
    closed("Z1-closure", z1, z1, partial(convolve, act.base, hopf.coalgebra),
           partial(z1_membership, act))
    if not omega:
        return report

    z1_a = [_embed_v(ca, b, v) for v in z1]
    x22_a = [_embed_v(ca, b, w) for w in x22]
    conv_a = partial(convcat.convolve_matrices, ca)
    in_omega = partial(omega_membership, ca)
    closed("closure-1 t*u1 in Z1", omega, x12, conv_terms, in_z1_ambient)
    closed("closure-2 v*t in Omega", z1_a, omega, conv_a, in_omega)
    closed("closure-3 t*w in Omega", omega, x22_a, conv_a, in_omega)
    closed("closure-4 u*t1 in X22", x12, omega, conv_terms, in_x22_ambient)
    closed("closure-5 w*u in X12", x22_a, x12, conv_a, in_x12)
    closed("closure-6 u*v in X12", x12, z1_a, conv_a, in_x12)
    # groupoid: every morphism is convolution invertible
    for name, fam in (("Z1", z1_a), ("Omega", omega), ("X22", x22_a),
                      ("X12", x12)):
        report.fail_at(f"{name}-morphism-not-invertible", first_failure(
            lambda i: invertible(fam[i]), len(fam)))
    return report


# -- Proposition 5.7 ---------------------------------------------------------


def prop57_check(ca, t0=None, seed=0):
    """F(v) = v * t0 is a bijection Z^1 -> Omega_A preserving/reflecting ~;
    details holds h1_count and omega_bar_count once both are counted."""
    b = ca.coinvariants()
    _gate(ca.hopf, b.algebra)
    f = ca.field
    hopf = ca.hopf
    report = ValidationReport()
    report.details.update(h1_count=None, omega_bar_count=None)
    omega = omega_enumerate(ca, seed=seed)
    if t0 is None:
        if not omega:
            report.fail("Omega-empty-no-base-point")
            return report
        t0 = omega[0]
    if not omega_membership(ca, t0):
        report.fail("t0-not-in-Omega")
        return report
    u0 = t0 @ hopf.antipode
    datum = cleft.CleftingDatum(t0, u0, normalized=True)
    act = action_from_cleft(ca, datum)
    z1 = z1_enumerate(act)

    def F(v):
        return convcat.convolve_matrices(ca, _embed_v(ca, b, v), t0, "C")

    u0_cols = _columns(u0)

    def F_inv(t):
        x, bad = b.coords(convolution_terms(ca.algebra, hopf.coalgebra,
                                            _columns(t), u0_cols))
        if bad is not None:
            raise InternalInvariant("vector not in the subalgebra")
        return summed_columns(f, b.dim, x)

    for i, v in enumerate(z1):
        t = F(v)
        if not omega_membership(ca, t):
            report.fail("F-image-not-in-Omega", (i,))
            continue
        if F_inv(t) != v:
            report.fail("Finv-F-not-id", (i,))
    for i, t in enumerate(omega):
        v = F_inv(t)
        if not z1_membership(act, v):
            report.fail("Finv-image-not-in-Z1", (i,))
            continue
        if F(v) != t:
            report.fail("F-Finv-not-id", (i,))
    if len(z1) != len(omega):
        report.fail("not-bijective", (len(z1), len(omega)))
    # ~ preserved and reflected, pairwise
    for i in range(len(z1)):
        for j in range(len(z1)):
            lhs = cohomologous(act, z1[i], z1[j], seed=seed)
            rhs = omega_equivalence(ca, F(z1[i]), F(z1[j]), seed=seed)
            if lhs != rhs:
                report.fail("equivalence-not-transported", (i, j))
    counts = (len(h1_classes(act, z1, seed=seed)),
              len(omega_classes(ca, omega, seed=seed)))
    report.details.update(h1_count=counts[0], omega_bar_count=counts[1])
    if counts[0] != counts[1]:
        report.fail("class-count-mismatch", counts)
    return report
