"""The Militaru-Stefan lifting correspondence (§6): right-A-action candidates
phi on M versus colinear (algebra) maps t: H -> E, stability (Prop 6.1),
unitality (Prop 6.2), associativity (Prop 6.3), the lifting theorem (Thm 6.4),
and the classification Omega_E-bar = Lambda_M-bar = H^1(H, End_B(M)).

phi is a dm x dim(M (x)_B A) matrix in quotient coordinates; t lives in
E-coordinates as in module maintheorem.  Both are search candidates, held as
matrices, and cross into maintheorem's maps as their _columns.
"""

from . import cleft, cohomology, convcat, maintheorem, search
from .comodule import associativity_failures
from .hopf import (ValidationReport, _agree, first_failure,
                   is_cocommutative, linear_witness, multiplicative_witness)
from .linalg import (Matrix, OperatorSpan, _columns, _combination, _composed,
                     _flat, _terms, intertwiners, lin_comb, sparse_kernel,
                     summed, summed_columns)
from .search import EXHAUSTIVE_CAP, NotFound, SearchInconclusive


class NotLinear(ValueError):
    pass


class ActionCandidate:
    """B-linear phi: M (x)_B A -> M with derived action m.a = phi(pi(m (x) a)),
    held as its action_table: entry m lists (r, a, x) with m.e_a = Sum x e_r,
    summed from the projection's columns and phi's."""

    def __init__(self, ctx, phi):
        self.ctx = ctx
        self.phi = phi
        self.cols = phi_cols = _columns(phi)
        w = linear_witness(ctx.field, phi_cols, ctx.x2_actions,
                           ctx.m.action_table)
        if w is not None:
            raise NotLinear(f"phi is not B-linear at b_{w[0]}")
        da, cols = ctx.ca.algebra.dim, ctx.quot.columns
        self.action_table = [[(*key, x) for key, x in _terms(ctx.field, (
            ((r, a), y * z) for a in range(da) for q, y in cols[m * da + a]
            for r, z in phi_cols[q]))] for m in range(ctx.m.dim)]


class LiftingPair:
    """phi together with t = alpha^_12(phi) and u' = t o Sbar."""

    def __init__(self, ctx, candidate, t_coords):
        self.ctx = ctx
        self.candidate = candidate
        self.t = t_coords                           # e.dim x dh matrix
        self.u_prime = t_coords @ ctx.ca.hopf.antipode_inv
        self.u = t_coords @ ctx.ca.hopf.antipode


def _check_621(ctx, candidate, u_prime):
    """First (m, a) where (6.2.1) m.a (x)_B 1 = u'(a_[1]) (m (x)_B a_[0])
    fails, or None; m (x)_B a is the projection's column m * dA + a."""
    da, cols, rho = ctx.ca.algebra.dim, ctx.quot.columns, ctx.ca.coaction_table
    phi, ev = candidate.cols, maintheorem._ev(ctx, _columns(u_prime))
    return first_failure(lambda m, a: _agree(
        ctx.field, ((r, y * z * w) for q, y in cols[m * da + a]
                    for s, z in phi[q] for r, w in ctx.eta_cols[s]),
        ((r, c * y * z) for a0, h, c in rho[a] for p, y in cols[m * da + a0]
         for r, z in ev(h, p))), ctx.m.dim, da)


def _check_622(ctx, candidate, t_coords):
    """First (h, m, a) where (6.2.2) t(h)(m (x) a) = Sum_i phi(m (x) l_i(h))
    (x) r_i(h) a fails, or None."""
    da, cols, mul = ctx.ca.algebra.dim, ctx.quot.columns, \
        ctx.ca.algebra.mul_table
    phi, ev = candidate.cols, maintheorem._ev(ctx, _columns(t_coords))
    return first_failure(lambda h, m, a: _agree(
        ctx.field, ((r, y * z) for q, y in cols[m * da + a]
                    for r, z in ev(h, q)),
        ((q2, c * y * z * w * v) for l, r, c in ctx.rep[h]
         for q, y in cols[m * da + l] for s, z in phi[q]
         for t, w in mul[r * da + a] for q2, v in cols[s * da + t])),
        ctx.ca.hopf.dim, ctx.m.dim, da)


def phi_to_t(ctx, phi):
    """Lift phi to t = alpha^_12(phi); verifies colinearity + (6.2.1)/(6.2.2)."""
    candidate = phi if isinstance(phi, ActionCandidate) else ActionCandidate(ctx, phi)
    t_cols = maintheorem.alpha12_hat(ctx, candidate.cols)
    if not convcat.membership(ctx.e.ca, t_cols, (2, 1), "C"):
        raise maintheorem.MembershipViolation("t = alpha^_12(phi) not colinear")
    t_coords = summed_columns(ctx.field, ctx.e.dim, t_cols)
    pair = LiftingPair(ctx, candidate, t_coords)
    w = _check_621(ctx, candidate, pair.u_prime)
    if w is not None:
        raise maintheorem.MembershipViolation(f"(6.2.1) fails at {w}")
    w = _check_622(ctx, candidate, t_coords)
    if w is not None:
        raise maintheorem.MembershipViolation(f"(6.2.2) fails at {w}")
    return pair


def t_to_phi(ctx, t_coords):
    """Inverse lift: phi = beta~_12(t o Sbar), per (6.2.1)."""
    phi = maintheorem.beta12_tilde(ctx, _composed(_columns(t_coords),
                                                  ctx.sbar_cols))
    return ActionCandidate(ctx, summed_columns(ctx.field, ctx.m.dim, phi))


class EquivalenceVerdict:
    def __init__(self, flags, names):
        self.flags = tuple(flags)
        self.names = tuple(names)

    @property
    def equivalent(self):
        return len(set(self.flags)) == 1

    @property
    def all_true(self):
        return all(self.flags)

    def __repr__(self):
        body = ", ".join(f"{n}={v}" for n, v in zip(self.names, self.flags))
        return f"EquivalenceVerdict({body})"


def _unital(ctx, phi):
    """phi o eta = id: the action m.1 = m."""
    return phi @ ctx.eta == Matrix.identity(ctx.field, ctx.m.dim)


def check_unitality(pair):
    """Prop 6.2: t(1)=1, u'(1)=1, m.1=m (the paper's 'm.1=1' is a typo)."""
    ctx = pair.ctx
    one_h = ctx.ca.hopf.algebra.unit
    unit_e = ctx.e.ca.algebra.unit
    c1 = pair.t.apply(one_h) == unit_e
    c2 = pair.u_prime.apply(one_h) == unit_e
    c3 = _unital(ctx, pair.candidate.phi)
    return EquivalenceVerdict((c1, c2, c3), ("t(1)=1", "u'(1)=1", "m.1=m"))


def check_associativity(pair):
    """Prop 6.3: t multiplicative, u anti-multiplicative, action associative."""
    h_alg, e_alg = pair.ctx.ca.hopf.algebra, pair.ctx.e.ca.algebra
    return EquivalenceVerdict(
        (multiplicative_witness(h_alg, e_alg, pair.t) is None,
         multiplicative_witness(h_alg, e_alg, pair.u, anti=True) is None,
         not any(associativity_failures(pair.ctx.ca.algebra,
                                        pair.candidate.action_table))),
        ("t multiplicative", "u anti-multiplicative", "action associative"))


def lifting_theorem_check(pair):
    """Thm 6.4: t algebra map <=> u anti-algebra map <=> phi gives an A-module
    extending the B-action (the statement's 'B-module' is a typo)."""
    unital = check_unitality(pair)
    assoc = check_associativity(pair)
    flags = tuple(u and a for u, a in zip(unital.flags, assoc.flags))
    return EquivalenceVerdict(
        flags, ("t algebra map", "u anti-algebra map", "A-module structure"))


# -- Proposition 6.1: stability ----------------------------------------------


class StabilityReport:
    def __init__(self):
        self.degenerate = False
        self.stable = None
        self.side_iso = None        # found intertwiner M (x) H -> M (x)_B A
        self.side_cleft = None      # clefting datum on E or NotFound
        self.witness = None
        self.detail = ""


def _invertible_in_matrix_span(field, ops, rows, cols, seed=0, tries=200,
                               enumerate_cap=EXHAUSTIVE_CAP):
    """An invertible element of the span of the rows x cols maps with the
    _columns ops, or NotFound."""
    d = len(ops)
    if d == 0 or rows != cols:
        return NotFound(True, 0, d)
    span = OperatorSpan(field, ops, rows, cols)
    return search.first(field, d, span.full_rank_at, seed, tries,
                        enumerate_cap, degree=span.degree)


def stability_check(ca, m, seed=0, tries=200, enumerate_cap=EXHAUSTIVE_CAP):
    """Prop 6.1: M is H-stable iff E = END_A(M (x)_B A) is cleft."""
    report = StabilityReport()
    if m.dim == 0:
        report.degenerate = True
        report.detail = "M = 0: every statement of §6 is vacuous"
        return report
    ctx = maintheorem.TheoremContext(ca, m)
    # side A: invertible element of Hom_B^H(M (x) H, M (x)_B A)
    got = _invertible_in_matrix_span(ctx.field, ctx.dm_hom_space(1, 2),
                                     ctx.x2_dim, ctx.x1_dim,
                                     seed=seed, tries=tries,
                                     enumerate_cap=enumerate_cap)
    iso = None if isinstance(got, NotFound) else got
    conclusive_a = iso is not None or got.exhaustive
    report.side_iso = iso
    # side B: find_cleft on E
    datum = cleft.find_cleft(ctx.e.ca, seed=seed, tries=tries,
                             enumerate_cap=enumerate_cap)
    cleft_found = not isinstance(datum, cleft.NotFound)
    conclusive_b = cleft_found or datum.exhaustive
    report.side_cleft = datum
    side_a = iso is not None
    if side_a != cleft_found:
        if not conclusive_a and cleft_found:
            raise SearchInconclusive("E is cleft but no intertwiner was "
                                     "found in the sampled span")
        if not conclusive_b and side_a:
            raise SearchInconclusive("intertwiner found but the clefting "
                                     "search on E was not exhaustive")
        report.stable = False
        report.detail = "sides disagree conclusively (Prop 6.1 violated)"
        return report
    report.stable = side_a
    if side_a and cleft_found:
        # transport witnesses through Lemma 3.5: u in C_E(1,2) gives the
        # intertwiner alpha_21(u) = beta21(u o Sbar), and back via beta21_bar
        w_cols = maintheorem.alpha(ctx, (1, 2), _columns(datum.u))
        w = summed_columns(ctx.field, ctx.x2_dim, w_cols)
        if not ctx.dm_membership(w_cols, 1, 2):
            report.detail = "transported witness left Hom_B^H"
            report.stable = None
        elif not w.is_invertible():
            report.detail = "transported witness is not invertible"
        else:
            report.witness = w
        back = maintheorem.alpha_inverse(ctx, (1, 2), _columns(iso))
        if not convcat.membership(ctx.e.ca, back, (1, 2), "C"):
            report.detail += "; beta21_bar transport left C_E(1,2)"
            report.stable = None
    return report


# -- Proposition 6.5: classification -----------------------------------------


def _b_linear_space(ctx):
    """Basis of all B-linear maps M (x)_B A -> M."""
    return intertwiners(ctx.field, ctx.quot.dim, ctx.m.dim, (
        ctx.x2_actions, ctx.m.action_table, ctx.b.dim))


def _is_action(ctx, phi):
    """phi in Lambda_M: unital + associative (the Thm 6.4 filter)."""
    try:
        cand = ActionCandidate(ctx, phi)
    except NotLinear:
        return False
    return _unital(ctx, phi) and not any(
        associativity_failures(ctx.ca.algebra, cand.action_table))


def lambda_enumerate(ctx, seed=0, enumerate_cap=EXHAUSTIVE_CAP,
                     candidates=None):
    """All of Lambda_M: exhaustive over F_p within cap; over Q transported
    from Omega_E through the bijection alpha^_12 (Thm 6.4), or filtered from
    supplied candidates when Omega_E is not enumerable."""
    f = ctx.field
    if candidates is not None:
        return [phi for phi in candidates if _is_action(ctx, phi)]
    space, dm = _b_linear_space(ctx), ctx.m.dim
    d = len(space)
    unit = ([summed(f, dm, dm, _flat(_composed(phi, ctx.eta_cols))).data
             for phi in space], Matrix.identity(f, dm).data)
    if search.enumerable(f, d, enumerate_cap, unit):
        def action_at(coeffs):
            phi = lin_comb(f, dm, space, coeffs)
            return phi if _is_action(ctx, phi) else None
        return search.every(f, d, action_at, enumerate_cap, unit) if d else []
    omega = cohomology.omega_enumerate(ctx.e.ca, seed=seed,
                                       enumerate_cap=enumerate_cap)
    out = []
    for t in omega:
        phi = t_to_phi(ctx, t).phi
        if not _is_action(ctx, phi):
            raise maintheorem.MembershipViolation(
                "t in Omega_E but phi = t_to_phi(t) not an action (Thm 6.4)")
        if phi not in out:
            out.append(phi)
    return out


def _endb_conjugation_kernel(ctx, t1, t2):
    """Solutions f in End_B(M) of (6.5.1): t1(h)(f (x) A) = (f (x) A)t2(h)."""
    f, dh, dq = ctx.field, ctx.ca.hopf.dim, ctx.quot.dim
    endb = intertwiners(f, ctx.m.dim, ctx.m.dim, (
        ctx.m.action_table, ctx.m.action_table, ctx.b.dim))
    if not endb:
        return [], endb
    t12 = [[summed_columns(f, dq, _combination(ctx.e.basis, t[h], dq))
            for t in (t1, t2)] for h in range(dh)]    # t(h) in End_A
    rows = {}           # row (h, entry) of the operator on span(endb)
    for k, g in enumerate(map(ctx.induced.induced_map, endb)):
        for h, (t1h, t2h) in enumerate(t12):
            for e, x in enumerate((t1h @ g - g @ t2h).data):
                if x:
                    rows.setdefault((h, e), {})[k] = x
    return [[_terms(f, col) for col in _combination(endb, v, ctx.m.dim)]
            for v in sparse_kernel(f, len(endb), rows.values())], endb


def phi_equivalence(ctx, phi1, phi2, seed=0, enumerate_cap=EXHAUSTIVE_CAP):
    """phi1 ~ phi2: invertible f in End_B(M) with f(m.2 a) = f(m).1 a.

    Decided through (6.5.1) on t1, t2 and cross-checked against the direct
    module-isomorphism condition.
    """
    f, dm = ctx.field, ctx.m.dim
    t1 = maintheorem.alpha12_hat(ctx, _columns(phi1))
    t2 = maintheorem.alpha12_hat(ctx, _columns(phi2))
    sols, _ = _endb_conjugation_kernel(ctx, t1, t2)
    via_651 = search.found(
        _invertible_in_matrix_span(f, sols, dm, dm, seed=seed,
                                   enumerate_cap=enumerate_cap),
        "invertible f in End_B(M) solving (6.5.1)")
    # independent check: f A-linear between the two induced module structures
    direct_sols = intertwiners(f, dm, dm, (
        ActionCandidate(ctx, phi2).action_table,
        ActionCandidate(ctx, phi1).action_table, ctx.ca.algebra.dim))
    direct = search.found(
        _invertible_in_matrix_span(f, direct_sols, dm, dm, seed=seed,
                                   enumerate_cap=enumerate_cap),
        "invertible A-linear f between the two actions")
    if via_651 != direct:
        raise maintheorem.MembershipViolation(
            "(6.5.1) verdict disagrees with direct module isomorphism")
    return via_651


def classify_actions(ca, m, seed=0, enumerate_cap=EXHAUSTIVE_CAP,
                     candidates=None):
    """Prop 6.5 + final remark: |Lambda_M-bar| = |Omega_E-bar| (= |H^1|).

    When `candidates` is supplied (required over Q whenever Omega_E is not
    finitely enumerable), the classification runs on the supplied family and
    its alpha^_12 transport; completeness claims are then relative to it.
    details holds lambda_count, lambda_classes, omega_count, omega_classes
    and h1_count, which stays None when |H^1| is not computed.
    """
    ctx = maintheorem.TheoremContext(ca, m)
    report = ValidationReport()
    lams = lambda_enumerate(ctx, seed=seed, enumerate_cap=enumerate_cap,
                            candidates=candidates)
    # round trips phi <-> t on everything enumerated
    ts = []
    for phi in lams:
        pair = phi_to_t(ctx, phi)
        verdict = lifting_theorem_check(pair)
        if not (verdict.equivalent and verdict.all_true):
            report.fail("lifting-theorem", verdict)
        if t_to_phi(ctx, pair.t).phi != phi:
            report.fail("round-trip-phi")
        ts.append(pair.t)
    for t in ts:
        if maintheorem.alpha12_hat(ctx, t_to_phi(ctx, t).cols) != _columns(t):
            report.fail("round-trip-t")
    if candidates is not None:
        omega = ts
    else:
        omega = cohomology.omega_enumerate(ctx.e.ca, seed=seed,
                                           enumerate_cap=enumerate_cap)
    if len(lams) != len(omega):
        report.fail("lambda-omega-count", (len(lams), len(omega)))
    # classes on both sides
    lambda_classes = len(search.classes(
        lams, lambda phi, r: phi_equivalence(ctx, phi, r, seed=seed,
                                             enumerate_cap=enumerate_cap)))
    omega_classes = len(cohomology.omega_classes(ctx.e.ca, omega, seed=seed))
    report.details.update(lambda_count=len(lams), omega_count=len(omega),
                          lambda_classes=lambda_classes,
                          omega_classes=omega_classes, h1_count=None)
    if lambda_classes != omega_classes:
        report.fail("class-count", (lambda_classes, omega_classes))
    # cohomological description when the §5 hypotheses hold
    endb = ctx.e.ca.coinvariants()
    if (omega and is_cocommutative(ca.hopf)
            and endb.algebra.is_commutative()):
        t0 = omega[0]
        datum = cleft.CleftingDatum(t0, t0 @ ca.hopf.antipode,
                                    normalized=True)
        act = cohomology.action_from_cleft(ctx.e.ca, datum)
        try:
            z1 = cohomology.z1_enumerate(act, enumerate_cap=enumerate_cap)
        except SearchInconclusive:
            z1 = None       # |H^1| not computable; leave h1_count unset
        if z1 is not None:
            h1_count = len(cohomology.h1_classes(act, z1, seed=seed))
            report.details["h1_count"] = h1_count
            if candidates is None and h1_count != lambda_classes:
                report.fail("h1-count", (h1_count, lambda_classes))
    return report
