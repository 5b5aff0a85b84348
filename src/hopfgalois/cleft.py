"""Cleft extensions and crossed products: clefting data t, u, the measuring
omega_t and cocycle sigma of Thm 5.2's proof, B#_sigma H (Prop 5.1), the
closed-form canonical inverse and translation map of Remark 5.3, the
Structure Theorem 5.2 round-trip, and the smash-product case (Thm 5.4).

Representations: omega: H (x) B -> B as a db x (dh*db) matrix, sigma,
sigmabar: H (x) H -> B as db x dh^2 matrices, all with left-leg-major
flattening.  They are read through their columns, taken once, in the
mul_table layout (the one io_json emits): _columns(omega)[h * db + i]
lists h . b_i and _columns(sigma)[h * dh + k] lists sigma(h (x) k).  So
are t, u, S, the inclusion of B and can^-1.  Each identity is compared
by _agree per basis tuple, its two sides raw terms summed from those
columns and the tables (linalg._pair), and the Prop 5.1 audit reports the
first failing tuple of each condition; every map built here is summed
from raw terms.  No basis vector is applied and no vector is tensored.
The assembled B#_sigma H lives on B (x) H with flat index b*dh + h and
coaction id_B (x) Delta.
"""

import itertools
from functools import partial

from . import convcat, search
from .comodule import ComoduleAlgebraData, InternalInvariant
from .galois import canonical_map, translation_map
from .hopf import (CoalgebraData, OneSidedInverse, StructureConstantAlgebra,
                   ValidationReport, _agree, colinear_witness, comul_on,
                   comul_terms, convolution_columns, convolution_inverse,
                   convolution_terms, convolution_unit, first_failure,
                   is_convolution_inverse, linear_witness,
                   multiplicative_witness)
from .linalg import (Matrix, NotInvertible, OperatorSpan, _columns, _nonzero,
                     _pair, _terms, intertwiners, lin_comb, reduced, summed,
                     summed_columns)
from .search import EXHAUSTIVE_CAP, NotFound


class InvariantFailure(RuntimeError):
    pass


class InvalidCrossedData(ValueError):
    def __init__(self, condition, witness=None):
        super().__init__(f"crossed-product condition violated: {condition}"
                         + (f" at {witness}" if witness is not None else ""))
        self.condition = condition
        self.witness = witness


class CleftingDatum:
    """Convolution invertible t in Hom^H(H, A) with inverse u, normalized."""

    def __init__(self, t, u, normalized):
        self.t = t                  # dim A x dim H matrix, class (2, 1)
        self.u = u                  # class (1, 2)
        self.normalized = normalized


# -- clefting search ---------------------------------------------------------


def _normalize(ca, t_mat, u_mat):
    """t' = u(1) t with inverse u t(1); verified before returning."""
    one_h = ca.hopf.algebra.unit
    alg = ca.algebra
    tp = alg.lmul(u_mat.apply(one_h)) @ t_mat
    up = alg.rmul(t_mat.apply(one_h)) @ u_mat
    if tp.apply(one_h) != alg.unit:
        raise InternalInvariant("normalization failed: t(1) != 1")
    if not is_convolution_inverse(alg, ca.hopf.coalgebra, tp, up):
        raise InternalInvariant("normalization broke the convolution inverse")
    if not convcat.membership(ca, _columns(tp), (2, 1), "C"):
        raise InternalInvariant("normalized t lost colinearity")
    return CleftingDatum(tp, up, normalized=True)


def _attempt(ca, span, ops, coeffs):
    if span.full_rank_at(coeffs) is None:
        return None
    t_mat = lin_comb(ca.field, ca.algebra.dim, ops, coeffs)
    u_mat = convcat.convolution_inverse_matrix(ca, t_mat, "C")
    return _normalize(ca, t_mat, u_mat)


def find_cleft(ca, seed=0, tries=500, enumerate_cap=EXHAUSTIVE_CAP):
    """Search for a normalized clefting datum on ca.

    Over F_p the search is exhaustive (a proof on failure) whenever
    p^dim(Hom^H(H,A)) <= enumerate_cap; otherwise, and over Q, it samples
    `tries` seeded small-coefficient combinations.
    """
    ops = [el.cols for el in convcat.hom_space(ca, (2, 1), "C").elements]
    if not ops:
        return NotFound(True, 0, 0, "Hom^H(H,A) = 0")
    n = ca.algebra.dim * ca.hopf.dim
    span = OperatorSpan(ca.field, [convolution_columns(
        ca.algebra, ca.hopf.coalgebra, op) for op in ops], n, n)
    return search.first(ca.field, len(ops),
                        lambda coeffs: _attempt(ca, span, ops, coeffs),
                        seed, tries, enumerate_cap, degree=span.degree)


# -- crossed-product data ----------------------------------------------------


class CrossedProductData:
    """Measuring omega, cocycle sigma (with sigmabar) and B#_sigma H."""

    def __init__(self, base, hopf, omega, sigma, sigma_bar, algebra):
        self.base = base            # StructureConstantAlgebra B
        self.hopf = hopf
        self.omega = omega          # db x (dh*db)
        self.sigma = sigma          # db x dh^2
        self.sigma_bar = sigma_bar
        self.algebra = algebra      # ComoduleAlgebraData on B (x) H


def _hh_coalgebra(hopf):
    """H (x) H with Delta(h (x) k) = Sum (h1 (x) k1) (x) (h2 (x) k2)."""
    f, dh, co = hopf.field, hopf.dim, hopf.coalgebra
    eps, table = co.counit.data, co.comul_table
    comul = [[(h1 * dh + k1, h2 * dh + k2, f.mul(x, y))
              for h1, h2, x in table[h] for k1, k2, y in table[k]]
             for h in range(dh) for k in range(dh)]
    return CoalgebraData(f, dh * dh, comul,
                         Matrix(f, 1, dh * dh, [f.mul(a, b) for a in eps
                                                for b in eps]))


def unit_witness(hopf, base, om):
    """First (i,) with 1_H . b_i != b_i, or None, for the action with
    columns om (om[h * dim B + i] = h . b_i)."""
    f, db = base.field, base.dim
    return first_failure(lambda i: _agree(f, _pair(
        om, db, _nonzero(hopf.algebra.unit), [(i, f.one)]), [(i, f.one)]), db)


def measuring_witnesses(hopf, base, om):
    """First witness, or None, of h.1 = eps(h)1 and of h.(bc) = (h1.b)(h2.c)
    for the action with columns om (om[h * dim B + i] = h . b_i)."""
    f, db, dh = base.field, base.dim, hopf.dim
    comul, eps = hopf.coalgebra.comul_table, hopf.coalgebra.counit.data
    bmul, ones = base.mul_table, _nonzero(base.unit)
    return (first_failure(lambda h: _agree(
                f, _pair(om, db, [(h, f.one)], ones),
                ((k, eps[h] * u) for k, u in ones)), dh),
            first_failure(lambda h, i, j: _agree(
                f, _pair(om, db, [(h, f.one)], bmul[i * db + j]),
                ((r, z * x) for h1, h2, z in comul[h] for r, x in _pair(
                    bmul, db, om[h1 * db + i], om[h2 * db + j]))),
                dh, db, db))


def _prop51_violations(base, hopf, omega, sigma, sigma_bar):
    """All Prop 5.1 conditions; returns [(condition, witness), ...].  Each
    is a first_failure over basis tuples, its two sides summed raw from the
    columns of omega, sigma and sigmabar and the tables of B and H."""
    f, one = base.field, base.field.one
    db, dh = base.dim, hopf.dim
    eps, dl = hopf.coalgebra.counit.data, hopf.coalgebra.comul_table
    dl3 = [comul_terms(hopf.coalgebra, h, 3) for h in range(dh)]
    hmul, ones_h = hopf.algebra.mul_table, _nonzero(hopf.algebra.unit)
    om, sg, sgb = _columns(omega), _columns(sigma), _columns(sigma_bar)
    times = partial(_pair, base.mul_table, db)
    act, coc = partial(_pair, om, db), partial(_pair, sg, dh)
    report = ValidationReport()
    for name, witness in zip(("measuring h.1=eps(h)1",
                              "measuring h.(bc)=(h1.b)(h2.c)"),
                             measuring_witnesses(hopf, base, om)):
        report.fail_at(name, witness)

    # twisted module (5.1.2): h.(k.b) = sigma(h1,k1) (h2k2.b) sigmabar(h3,k3)
    def twisted(h, k, i):
        return _agree(
            f, act([(h, one)], om[k * db + i]),
            ((r, c1 * c2 * x) for (h1, h2, h3), c1 in dl3[h]
             for (k1, k2, k3), c2 in dl3[k] for r, x in times(
                 sg[h1 * dh + k1], times(act(hmul[h2 * dh + k2], [(i, one)]),
                                         sgb[h3 * dh + k3]))))

    # normalized cocycle: sigma(h (x) 1) = sigma(1 (x) h) = eps(h) 1
    def normalized(h):
        e = [(r, eps[h] * u) for r, u in _nonzero(base.unit)]
        return (_agree(f, coc([(h, one)], ones_h), e)
                and _agree(f, coc(ones_h, [(h, one)]), e))

    # cocycle condition (5.1.3)
    def cocycle(h, k, l):
        return _agree(
            f, ((r, c1 * c2 * c3 * x) for h1, h2, c1 in dl[h]
                for k1, k2, c2 in dl[k] for l1, l2, c3 in dl[l]
                for r, x in times(act([(h1, one)], sg[k1 * dh + l1]),
                                  coc([(h2, one)], hmul[k2 * dh + l2]))),
            ((r, c1 * c2 * x) for h1, h2, c1 in dl[h] for k1, k2, c2 in dl[k]
             for r, x in times(sg[h1 * dh + k1],
                               coc(hmul[h2 * dh + k2], [(l, one)]))))

    report.fail_at("twisted-module 1.b=b", unit_witness(hopf, base, om))
    report.fail_at("(5.1.2)", first_failure(twisted, dh, dh, db))
    report.fail_at("normalization sigma(h,1)=sigma(1,h)=eps(h)1",
                   first_failure(normalized, dh))
    report.fail_at("(5.1.3)", first_failure(cocycle, dh, dh, dh))
    return report.failures


def build_crossed_product(base, hopf, omega, sigma, sigma_bar=None):
    """Assemble B#_sigma H per (5.1.1) after validating Prop 5.1's conditions.

    Raises InvalidCrossedData naming the violated condition; the returned
    CrossedProductData carries the comodule algebra with coaction
    id_B (x) Delta, whose coinvariants are verified to be B # 1.
    """
    f = base.field
    db, dh = base.dim, hopf.dim
    hh = _hh_coalgebra(hopf)
    if sigma_bar is None:
        try:
            sigma_bar = convolution_inverse(base, hh, sigma)
        except OneSidedInverse as exc:
            raise InvalidCrossedData("sigma inverse is one-sided only") from exc
        except NotInvertible as exc:
            raise InvalidCrossedData("sigma not convolution invertible") from exc
    elif not is_convolution_inverse(base, hh, sigma, sigma_bar):
        raise InvalidCrossedData("sigma_bar is not the convolution inverse")
    violations = _prop51_violations(base, hopf, omega, sigma, sigma_bar)
    if violations:
        raise InvalidCrossedData(*violations[0])
    n, hunit = db * dh, hopf.algebra.unit
    om, sg, hmul = _columns(omega), _columns(sigma), hopf.algebra.mul_table
    times = partial(_pair, base.mul_table, db)
    dl, dl3 = hopf.coalgebra.comul_table, [
        comul_terms(hopf.coalgebra, h, 3) for h in range(dh)]
    # entry x * n + y lists e_x e_y, x = bi * dh + hi: (b#h)(c#k) =
    # Sum b (h1.c) sigma(h2, k1) # h3 k2
    mul = [[(r * dh + t, c1 * c2 * x * z)
            for (h1, h2, h3), c1 in dl3[hi] for k1, k2, c2 in dl[kj]
            for r, x in times([(bi, f.one)], times(
                om[h1 * db + cj], sg[h2 * dh + k1]))
            for t, z in hmul[h3 * dh + k2]]
           for bi in range(db) for hi in range(dh)
           for cj in range(db) for kj in range(dh)]
    unit = reduced(f, [x * y for x in base.unit for y in hunit])
    labels = [f"{bl}#{hl}" for bl in base.labels for hl in hopf.labels]
    alg = StructureConstantAlgebra(f, n, mul, unit, labels)
    rep = alg.validate()
    if not rep.passed:
        raise InternalInvariant(
            f"Prop 5.1 held but B#H not associative/unital: {rep.failures[0]}")
    ca = ComoduleAlgebraData(hopf, alg, comul_on(hopf.coalgebra, db))
    rep = ca.validate()
    if not rep.passed:
        raise InternalInvariant(f"B#H comodule axioms failed: {rep.failures[0]}")
    coinv = ca.coinvariants()
    # the columns b_i # 1 of B # 1 lie in the coinvariants
    if coinv.dim != db or coinv.coords(
            [[(i * dh + h, u) for h, u in _nonzero(hunit)]
             for i in range(db)])[1] is not None:
        raise InternalInvariant("coinvariants of B#H are not B # 1")
    return CrossedProductData(base, hopf, omega, sigma, sigma_bar, ca)


def omega_t(ca, t_mat, u_mat):
    """The raw terms (r, x) of each column h * dim B + i of omega_t, where
    omega_t(h (x) b_i) = t(h1) b_i u(h2) in A."""
    alg, b = ca.algebra, ca.coinvariants()
    ts, us, b_cols = _columns(t_mat), _columns(u_mat), _columns(b.inclusion)
    times = partial(_pair, alg.mul_table, alg.dim)
    return [[(r, x * y) for h1, h2, x in terms
             for r, y in times(times(ts[h1], col), us[h2])]
            for terms in ca.hopf.coalgebra.comul_table for col in b_cols]


def extract_crossed_data(datum, ca):
    """omega_t, sigma, sigmabar from a normalized clefting datum (Thm 5.2)."""
    if not datum.normalized:
        raise InvariantFailure("clefting datum must be normalized first")
    f = ca.field
    alg = ca.algebra
    hopf = ca.hopf
    b = ca.coinvariants()
    da, dh = alg.dim, hopf.dim
    hmul = hopf.algebra.mul_table
    hh = _hh_coalgebra(hopf)
    ts, us = _columns(datum.t), _columns(datum.u)
    times = partial(_pair, alg.mul_table, da)

    def on_hh(value):           # the columns of h (x) k -> value(h, k)
        return [_terms(f, value(h, k)) for h in range(dh) for k in range(dh)]

    def of_hk(cols):            # h (x) k -> cols(h k)
        return on_hh(lambda h, k: ((r, x * y) for t, x in hmul[h * dh + k]
                                   for r, y in cols[t]))

    def in_b(amb, what, width):     # amb: the raw terms of each column
        coords, bad = b.coords(amb)
        if bad is not None:
            raise InvariantFailure(f"{what} at {divmod(bad, width)} "
                                   "is not coinvariant")
        return summed_columns(f, b.dim, coords)

    omega = in_b(omega_t(ca, datum.t, datum.u),
                 "omega_t value", b.dim)
    # sigma(h (x) k) = t(h1) t(k1) u(h2 k2)
    t_t = on_hh(lambda h, k: times(ts[h], ts[k]))
    sigma = in_b(convolution_terms(alg, hh, t_t, of_hk(us)), "sigma value",
                 dh)
    # sigmabar(h (x) k) = t(h1 k1) u(k2) u(h2)
    u_flip = on_hh(lambda h, k: times(us[k], us[h]))
    sigma_bar = in_b(convolution_terms(alg, hh, of_hk(ts), u_flip),
                     "sigmabar value", dh)
    try:
        return build_crossed_product(b.algebra, hopf, omega, sigma, sigma_bar)
    except InvalidCrossedData as exc:
        raise InvariantFailure(str(exc)) from exc


# -- Remark 5.3 / closed-form canonical inverse ------------------------------


def crossed_canonical_inverse(cp):
    """Thm 5.2 (2)=>(3): the closed-form can^{-1} and Remark 5.3's gamma.

    Verifies entry-for-entry that the displayed inverse
    can^{-1}(b (x) h (x) k) = b sigmabar(h1 S(k2) (x) k3) (x) h2 S(k1) (x) k4
    equals the computed one, and that Remark 5.3's l_i (x) r_i, t and u
    reproduce the computed translation map.  Both sides are summed raw from
    the columns of sigmabar, S, can^{-1} and gamma, an element of
    A (x)_B A projected term by term.
    """
    f, base, hopf = cp.base.field, cp.base, cp.hopf
    db, dh = base.dim, hopf.dim
    n = db * dh
    ca = cp.algebra
    can = canonical_map(ca)
    result = ValidationReport()
    if not can.galois:
        result.fail("can-not-bijective")
        return result
    quot = can.induced.quotient
    hmul, dl = hopf.algebra.mul_table, hopf.coalgebra.comul_table
    s_cols, sgb = _columns(hopf.antipode), _columns(cp.sigma_bar)
    ones = _nonzero(base.unit)
    dl4 = [comul_terms(hopf.coalgebra, h, 4) for h in range(dh)]

    def h_s(h, k):              # h S(k) in H
        return _pair(hmul, dh, [(h, f.one)], s_cols[k])

    def u_of(h1, h2, h3):       # sigmabar(S(h2) (x) h3) # S(h1) in B#H
        return ((a * dh + s, x * y) for a, x in _pair(
            sgb, dh, s_cols[h2], [(h3, f.one)]) for s, y in s_cols[h1])

    def over_b(left, k):        # the class of left (x)_B (1_B # k)
        return quot.classes((l * n + j * dh + k, 0, x * u)
                            for l, x in left for j, u in ones)

    # closed-form inverse, compared column by column against can^-1's rows
    for bi, hi, ki in itertools.product(range(db), range(dh), range(dh)):
        i = (bi * dh + hi) * dh + ki
        if not _agree(f, (
                (key, c1 * c2 * x) for h1, h2, c1 in dl[hi]
                for (k1, k2, k3, k4), c2 in dl4[ki]
                for key, x in over_b((
                    (a * dh + t2, y * z * w) for t, y in h_s(h1, k2)
                    for a, z in _pair(base.mul_table, db, [(bi, f.one)],
                                      sgb[t * dh + k3])
                    for t2, w in h_s(h2, k1)), k4)),
                (((q, 0), row[i]) for q, row in enumerate(can.inverse)
                 if i in row)):
            result.fail("closed-form-inverse", (bi, hi, ki))
    gamma = _columns(translation_map(ca, can).gamma)
    # Remark 5.3: Sum l_i(h) (x) r_i(h)
    #   = (sigmabar(S(h2) (x) h3) 1_B # S(h1)) (x)_B (1_B # h4)
    for hi in range(dh):
        if not _agree(f, ((key, c * x) for (h1, h2, h3, h4), c in dl4[hi]
                          for key, x in over_b(u_of(h1, h2, h3), h4)),
                      (((q, 0), x) for q, x in gamma[hi])):
            result.fail("remark-5.3-gamma", (hi,))
    # Remark 5.3: t(h) = 1 # h, u(h) = sigmabar(S(h2) (x) h3) # S(h1)
    t_mat = summed(f, n, dh, (((j * dh + h) * dh + h, u) for h in range(dh)
                              for j, u in ones))
    u_mat = summed(f, n, dh, (
        (r * dh + h, c * x) for h in range(dh)
        for (h1, h2, h3), c in comul_terms(hopf.coalgebra, h, 3)
        for r, x in u_of(h1, h2, h3)))
    if not convcat.membership(ca, _columns(t_mat), (2, 1), "C"):
        result.fail("remark-5.3-t-colinear")
    if not is_convolution_inverse(ca.algebra, hopf.coalgebra, t_mat, u_mat):
        result.fail("remark-5.3-u-inverse")
    return result


# -- Theorem 5.2 round trip --------------------------------------------------


class StructureTheoremReport:
    """One ValidationReport per leg; a leg left undecided by a sampled search
    is recorded in inconclusive (leg -> NotFound) instead, and then the
    report has not passed."""

    def __init__(self):
        self.legs = {}
        self.inconclusive = {}
        self.datum = None
        self.crossed = None

    def miss(self, leg, failure, result):
        """A search miss on leg: an exhaustive one fails it, a sampled one
        leaves it inconclusive."""
        if result.exhaustive:
            self.legs[leg].fail(failure, repr(result))
        else:
            self.inconclusive[leg] = result

    @property
    def passed(self):
        return not self.inconclusive and all(
            leg.passed for leg in self.legs.values())

    @property
    def all_failed(self):
        return all(not leg.passed for leg in self.legs.values())


def _psi_matrix(ca, b, t_mat):
    """psi(b (x) h) = b t(h) as a matrix B (x) H -> A."""
    alg, dh = ca.algebra, ca.hopf.dim
    n, ts = b.dim * dh, _columns(t_mat)
    return summed(ca.field, alg.dim, n, (
        (r * n + i * dh + h, x) for i, col in enumerate(_columns(b.inclusion))
        for h in range(dh)
        for r, x in _pair(alg.mul_table, alg.dim, col, ts[h])))


def _varphi_matrix(ca, b, u_mat):
    """varphi(a) = a_[0] u(a_[1]) (x) a_[2] as a matrix A -> B (x) H."""
    f, alg = ca.field, ca.algebra
    da, dh, db = alg.dim, ca.hopf.dim, b.dim
    rho, comul, us = ca.coaction_table, ca.hopf.coalgebra.comul_table, \
        _columns(u_mat)
    # column a * dh + a2 groups by the a_[2] leg: only Sum a_[0] u(a_[1])
    # is coinvariant
    part, bad = b.coords([[
        (r, x * y * z) for a0, h, x in rho[a] for a1, k, y in comul[h]
        if k == a2 for r, z in _pair(alg.mul_table, da, [(a0, f.one)], us[a1])]
        for a in range(da) for a2 in range(dh)])
    if bad is not None:
        raise InternalInvariant("vector not in the subalgebra")
    return summed(f, db * dh, da, (
        ((i * dh + j % dh) * da + j // dh, x)
        for j, col in enumerate(part) for i, x in col))


def _left_b_actions(ca, b):
    """The left B-actions b_k . (e_j (x) e_h) = (b_k e_j) (x) e_h on B (x) H
    and b_k . e_a on A, as action tables (hopf module doc)."""
    db, dh, da = b.dim, ca.hopf.dim, ca.algebra.dim
    bmul, amul, incl = b.algebra.mul_table, ca.algebra.mul_table, \
        _columns(b.inclusion)
    return ([sorted((r * dh + h, k, c) for k in range(db)
                    for r, c in bmul[k * db + j])
             for j in range(db) for h in range(dh)],
            [[(*key, x) for key, x in _terms(ca.field, (
                ((s, k), y * c) for k, col in enumerate(incl)
                for t, y in col for s, c in amul[t * da + a]))]
             for a in range(da)])


def _check_bh_iso(ca, b, psi, leg):
    """psi: B (x) H -> A must be a B-linear H-colinear bijection."""
    f = ca.field
    if not psi.is_invertible():
        leg.fail("psi-not-bijective")
        return
    cols = _columns(psi)
    leg.fail_at("psi-not-B-linear",
                linear_witness(f, cols, *_left_b_actions(ca, b)))
    if colinear_witness(f, cols, comul_on(ca.hopf.coalgebra, b.dim),
                        ca.coaction_table) is not None:
        leg.fail("psi-not-colinear")


def _find_bh_iso(ca, b, seed, tries):
    """An invertible B-linear colinear map B (x) H -> A, or NotFound."""
    f = ca.field
    da, db, dh = ca.algebra.dim, b.dim, ca.hopf.dim
    if da != db * dh:
        return NotFound(True, 0, 0, "dim A != dim B * dim H")
    ops = intertwiners(f, da, da, (*_left_b_actions(ca, b), db),
                       (comul_on(ca.hopf.coalgebra, db), ca.coaction_table,
                        dh))
    if not ops:
        return NotFound(True, 0, 0, "no B-linear colinear map")
    span = OperatorSpan(f, ops, da, da)
    return search.first(f, len(ops), span.full_rank_at, seed, tries,
                        degree=span.degree)


def _transport_witness(ca, psi, back, cp):
    """First (x, y) with back(psi(e_x) psi(e_y)) != e_x e_y in B#_sigma H
    (5.1.1), or None: psi carries the product of A to that of cp."""
    alg = cp.algebra.algebra
    n = alg.dim
    images = [psi.col(x) for x in range(n)]
    return first_failure(
        lambda x, y: back.apply(ca.algebra.product(images[x], images[y]))
        == alg.basis_product(x, y), n, n)


def structure_theorem_check(ca, seed=0, tries=500):
    """Thm 5.2 (1)=>(2)=>(3)=>(1), each leg reported independently."""
    f = ca.field
    b = ca.coinvariants()
    db, dh = b.dim, ca.hopf.dim
    report = StructureTheoremReport()

    leg1 = ValidationReport()
    report.legs["1->2"] = leg1
    datum = find_cleft(ca, seed=seed, tries=tries)
    if isinstance(datum, NotFound):
        report.miss("1->2", "not-cleft", datum)
    else:
        report.datum = datum
        try:
            cp = extract_crossed_data(datum, ca)
        except InvariantFailure as exc:
            cp = None
            leg1.fail("extraction", str(exc))
        if cp is not None:
            report.crossed = cp
            psi = _psi_matrix(ca, b, datum.t)
            varphi = _varphi_matrix(ca, b, datum.u)
            if psi @ varphi != Matrix.identity(f, ca.algebra.dim):
                leg1.fail("psi-varphi-not-id")
            if varphi @ psi != Matrix.identity(f, db * dh):
                leg1.fail("varphi-psi-not-id")
            _check_bh_iso(ca, b, psi, leg1)
            leg1.fail_at("transported-mult-vs-5.1.1",
                         _transport_witness(ca, psi, varphi, cp))

    leg2 = ValidationReport()
    report.legs["2->3"] = leg2
    if "1->2" in report.inconclusive:
        # nothing to check until leg (1) is decided
        report.inconclusive["2->3"] = report.inconclusive["1->2"]
    elif report.crossed is None:
        leg2.fail("no-crossed-product", "leg (1) produced no B#H")
    else:
        res = crossed_canonical_inverse(report.crossed)
        for what, witness in res.failures:
            leg2.fail(what, witness)
        smash_ca = report.crossed.algebra
        if smash_ca.algebra.dim != db * dh:
            leg2.fail("shape", "dim B#H != dim B * dim H")

    leg3 = ValidationReport()
    report.legs["3->1"] = leg3
    psi3 = _find_bh_iso(ca, b, seed, tries)
    if isinstance(psi3, NotFound):
        report.miss("3->1", "no-BH-isomorphism", psi3)
    else:
        # t(h) = psi3(1_B (x) h)
        p3 = _columns(psi3)
        t_mat = summed(f, ca.algebra.dim, dh, (
            (r * dh + h, u * x) for h in range(dh)
            for k, u in _nonzero(b.algebra.unit) for r, x in p3[k * dh + h]))
        if not convcat.membership(ca, _columns(t_mat), (2, 1), "C"):
            leg3.fail("t-not-colinear")
        try:
            convcat.convolution_inverse_matrix(ca, t_mat, "C")
        except NotInvertible:
            leg3.fail("t-not-convolution-invertible")
    return report


# -- Theorem 5.4: smash products ---------------------------------------------


class SmashReport:
    def __init__(self):
        self.status = "inconclusive"    # found | none | inconclusive
        self.t = None
        self.sigma_trivial = None
        self.iso_ok = None
        self.detail = ""

    @property
    def passed(self):
        return self.status == "found" and self.sigma_trivial and self.iso_ok


def is_algebra_map(ca, t_mat):
    """t: H -> A has t(1) = 1 and t(hk) = t(h) t(k)."""
    return (t_mat.apply(ca.hopf.algebra.unit) == ca.algebra.unit
            and multiplicative_witness(ca.hopf.algebra, ca.algebra,
                                       t_mat) is None)


def unit_condition(ca, ops):
    """t(1) = 1 for t = Sum_k c_k ops[k], ops given by their _columns, as
    search's `unit`."""
    ones = _nonzero(ca.hopf.algebra.unit)
    return [summed_columns(ca.field, ca.algebra.dim, [[
        (r, x * u) for h, u in ones for r, x in op[h]]]).data
            for op in ops], ca.algebra.unit


def _algebra_map_at(ca, ops, coeffs):
    """t = Sum coeffs[k] ops[k] if it is an algebra map, else None."""
    t_mat = lin_comb(ca.field, ca.algebra.dim, ops, coeffs)
    return t_mat if is_algebra_map(ca, t_mat) else None


def _algebra_map_search(ca, ops, seed=0, tries=500,
                        enumerate_cap=EXHAUSTIVE_CAP):
    """Find an algebra map in span(ops); returns (t_mat or None, status)."""
    f = ca.field
    if not ops:
        return None, "none"
    h_alg, alg = ca.hopf.algebra, ca.algebra
    n = h_alg.dim
    algebra_map_at = partial(_algebra_map_at, ca, ops)
    if f.kind == "Fp":
        got = search.first(f, len(ops), algebra_map_at, seed, tries,
                           enumerate_cap, unit=unit_condition(ca, ops))
        if isinstance(got, NotFound):
            return None, "none" if got.exhaustive else "inconclusive"
        return got, "found"

    # over Q: the conditions are quadratic in the coefficients; solve
    # exactly, t[j] being the image of e_j
    def equations(t, prod):
        def image(terms):       # t(Sum x e_j) for the terms (j, x)
            return [sum(x * t[j][r] for j, x in terms)
                    for r in range(alg.dim)]

        yield from (v - u for v, u in zip(image(_nonzero(h_alg.unit)),
                                          alg.unit))
        for i, j in itertools.product(range(n), repeat=2):
            yield from (l - r for l, r in zip(
                image(h_alg.mul_table[i * n + j]), prod(t[i], t[j])))

    try:
        for t_mat in search.rational_points(alg, ops, equations,
                                            algebra_map_at):
            return t_mat, "found"
    except search.SearchInconclusive:
        return None, "inconclusive"
    return None, "none"


def smash_check(ca, seed=0, tries=500, enumerate_cap=EXHAUSTIVE_CAP):
    """Thm 5.4: search for a colinear algebra map t; on success verify the
    extracted sigma is trivial and A is isomorphic to the smash product B#H."""
    report = SmashReport()
    ops = [el.cols for el in convcat.hom_space(ca, (2, 1), "C").elements]
    t_mat, status = _algebra_map_search(ca, ops, seed=seed, tries=tries,
                                        enumerate_cap=enumerate_cap)
    report.status = status
    if t_mat is None:
        report.detail = ("no colinear algebra map exists"
                         if status == "none" else "search inconclusive")
        return report
    report.t = t_mat
    # t is invertible with inverse t o S (verified, not assumed)
    u_mat = t_mat @ ca.hopf.antipode
    if not is_convolution_inverse(ca.algebra, ca.hopf.coalgebra, t_mat, u_mat):
        report.status = "found"
        report.sigma_trivial = False
        report.detail = "t o S is not the convolution inverse"
        return report
    datum = CleftingDatum(t_mat, u_mat, normalized=True)
    cp = extract_crossed_data(datum, ca)
    report.sigma_trivial = cp.sigma == convolution_unit(
        cp.base, _hh_coalgebra(ca.hopf))
    b = ca.coinvariants()
    psi = _psi_matrix(ca, b, t_mat)
    leg = ValidationReport()
    _check_bh_iso(ca, b, psi, leg)
    if leg.passed:
        leg.fail_at("smash-mult",
                    _transport_witness(ca, psi, psi.invert(), cp))
    report.iso_ok = leg.passed
    if not leg.passed:
        report.detail = str(leg.failures[0])
    return report
