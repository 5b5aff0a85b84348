"""Canonical maps can / can', the comparison Phi, the Galois verdict, the
translation map gamma_A(h) = can^{-1}(1 (x) h) and identities (1.2.1)-(1.2.7).

A (x)_B A is only the QuotientSpace of comodule.quotient_over_B; identities
in it are checked on projected coordinates.  can and can' are summed into
sparse columns from mul_table and rho's table and factored once.  Each is
one-sided A-linear and 1 (x) H generates A (x) H, so it is bijective iff
dim A (x)_B A = dim A * dim H and every 1 (x) h is in its image: the verdict
is that test and dim H solves, whose solutions for can are gamma's columns.
can^-1 is never formed, and gamma's representatives l_i(h) (x) r_i(h) are
its columns through the section.  No map here forms a Kronecker product or
applies a basis vector.
"""

from .comodule import algebra_as_bmodule, quotient_over_B
from .hopf import ValidationReport, _agree, first_failure
from .linalg import Factorization, _columns, _nonzero, summed


class NotGalois(RuntimeError):
    pass


class CanonicalMapData:
    def __init__(self, quotient, columns, gamma):
        self.quotient = quotient      # A (x)_B A
        self.columns = columns        # per q the raw (r * dim H + h, x)
        self.gamma = gamma            # per h the (q, x) sent to 1 (x) h,
                                      # None unless bijective

    @property
    def galois(self):
        return self.gamma is not None


def _canonical(ca, prime):
    """can, or can' when prime: column q is the image of the section's
    a (x) a' = e_{free[q]}, read from mul_table and the columns of rho;
    when it is bijective, the preimages of the 1 (x) h come from one
    Factorization of the columns."""
    quot = quotient_over_B(algebra_as_bmodule(ca), ca)[1]
    da, dh = ca.algebra.dim, ca.hopf.dim
    mul, rho = ca.algebra.mul_table, ca.coaction_table
    columns = []
    for j in quot.free:
        a, a2 = divmod(j, da)
        columns.append([(r * dh + h, x * c) for a0, h, x in rho[
            a if prime else a2] for r, c in mul[
                a0 * da + a2 if prime else a * da + a0]])
    gamma = None
    if da * dh == quot.dim:
        unit = _nonzero(ca.algebra.unit)
        x, ok = Factorization(ca.field, columns).solve_columns(
            [(a * dh + h, u) for a, u in unit] for h in range(dh))
        gamma = x if all(ok) else None
    return CanonicalMapData(quot, columns, gamma)


def canonical_map(ca):
    """can(a (x)_B a') = a a'_[0] (x) a'_[1], in quotient coordinates."""
    return _canonical(ca, False)


def canonical_map_prime(ca):
    """can'(a (x)_B a') = a_[0] a' (x) a_[1]; its solutions are
    can'^-1(1 (x) h), not gamma."""
    return _canonical(ca, True)


def phi_comparison(ca):
    """Phi(a (x) h) = a_[0] (x) a_[1]S(h) on A (x) H, with its inverse.

    The inverse multiplies Sbar(h) on the LEFT: Phi^{-1}(a (x) h) =
    a_[0] (x) Sbar(h) a_[1].  (Right multiplication fails for
    noncommutative H; the counit collapse needs a_(1)S(a_(2)) adjacent.)
    """
    f, dh, n = ca.field, ca.hopf.dim, ca.algebra.dim * ca.hopf.dim
    rho, hmul = ca.coaction_table, ca.hopf.algebra.mul_table

    def phi_with(s_mat, left):      # a_[0] (x) a_[1] S(h), or S(h) a_[1]
        s = _columns(s_mat)
        return summed(f, n, n, (
            ((a0 * dh + t) * n + a * dh + h, x * y * m)
            for a, terms in enumerate(rho) for a0, h1, x in terms
            for h in range(dh) for r, y in s[h]
            for t, m in hmul[r * dh + h1 if left else h1 * dh + r]))

    return (phi_with(ca.hopf.antipode, False),
            phi_with(ca.hopf.antipode_inv, True))


def translation_map(ca, can=None):
    """gamma_A's representatives Sum_i l_i(h) (x) r_i(h) in A (x) A, the
    columns of gamma through the section: per h the (l, r, x)."""
    can = can if can is not None else canonical_map(ca)
    if not can.galois:
        raise NotGalois("translation map needs an invertible can")
    da, free = ca.algebra.dim, can.quotient.free
    return [[(*divmod(free[q], da), x) for q, x in col] for col in can.gamma]


def verify_translation_identities(ca, can=None):
    """Exact check of (1.2.1)-(1.2.7), each a first_failure over basis
    tuples: both sides sum raw products of table entries, of the columns
    of gamma and of the representatives l_i(h) (x) r_i(h), a side in
    A (x)_B A projected term by term, and are compared after one reduction."""
    can = can if can is not None else canonical_map(ca)
    rep = translation_map(ca, can)                  # h -> (l, r, x)
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    mul, unit, hopf = ca.algebra.mul_table, ca.algebra.unit, ca.hopf
    comul, hmul = hopf.coalgebra.comul_table, hopf.algebra.mul_table
    eps = hopf.coalgebra.counit.data
    rho = ca.coaction_table
    gam = can.gamma
    s_cols, sbar_cols = _columns(hopf.antipode), _columns(hopf.antipode_inv)
    b_cols = _columns(ca.coinvariants().inclusion)
    cls = can.quotient.classes
    report = ValidationReport()

    # (1.2.1)  Sum l_i(h) r_i(h)_[0] (x) r_i(h)_[1] = 1 (x) h
    report.fail_at("1.2.1", first_failure(lambda h: _agree(
        f, (((s, k), x * y * c) for l, r, x in rep[h]
            for r0, k, y in rho[r] for s, c in mul[l * da + r0]),
        (((a, h), u) for a, u in enumerate(unit))), dh))

    # (1.2.2)  gamma(h) is B-central: b l_i (x)_B r_i = l_i (x)_B r_i b
    report.fail_at("1.2.2", first_failure(lambda k, h: _agree(
        f, cls((s * da + r, 0, x * y * c) for l, r, x in rep[h]
               for t, y in b_cols[k] for s, c in mul[t * da + l]),
        cls((l * da + s, 0, x * y * c) for l, r, x in rep[h]
            for t, y in b_cols[k] for s, c in mul[r * da + t])),
        len(b_cols), dh))

    # (1.2.3)  gamma(h_(1)) (x) h_(2) = Sum l_i (x)_B r_i_[0] (x) r_i_[1]
    report.fail_at("1.2.3", first_failure(lambda h: _agree(
        f, (((q, h2), x * y) for h1, h2, x in comul[h] for q, y in gam[h1]),
        cls((l * da + r0, k, x * y) for l, r, x in rep[h]
            for r0, k, y in rho[r])), dh))

    # (1.2.4)  gamma(h_(2)) (x) S(h_(1)) = Sum l_i_[0] (x)_B r_i (x) l_i_[1]
    report.fail_at("1.2.4", first_failure(lambda h: _agree(
        f, (((q, t), x * y * z) for h1, h2, x in comul[h]
            for q, y in gam[h2] for t, z in s_cols[h1]),
        cls((l0 * da + r, k, x * y) for l, r, x in rep[h]
            for l0, k, y in rho[l])), dh))

    # (1.2.5)  Sum l_i(h) r_i(h) = eps(h) 1
    report.fail_at("1.2.5", first_failure(lambda h: _agree(
        f, ((s, x * c) for l, r, x in rep[h] for s, c in mul[l * da + r]),
        ((a, eps[h] * u) for a, u in enumerate(unit))), dh))

    # (1.2.6)  Sum a_[0] l_i(a_[1]) (x)_B r_i(a_[1]) = 1 (x)_B a
    report.fail_at("1.2.6", first_failure(lambda a: _agree(
        f, cls((s * da + r, 0, c * x * y) for a0, h, c in rho[a]
               for l, r, x in rep[h] for s, y in mul[a0 * da + l]),
        cls((u * da + a, 0, x) for u, x in enumerate(unit))), da))

    # (1.2.6a) Sum l_i(Sbar(a_[1])) (x)_B r_i(Sbar(a_[1])) a_[0] = a (x)_B 1
    report.fail_at("1.2.6a", first_failure(lambda a: _agree(
        f, cls((l * da + s, 0, c * z * x * y) for a0, h, c in rho[a]
               for h2, z in sbar_cols[h] for l, r, x in rep[h2]
               for s, y in mul[r * da + a0]),
        cls((a * da + u, 0, x) for u, x in enumerate(unit))), da))

    # (1.2.7)  gamma(h h') = Sum l_i(h') l_j(h) (x)_B r_j(h) r_i(h')
    report.fail_at("1.2.7", first_failure(lambda h, h2: _agree(
        f, (((q, 0), c * y) for t, c in hmul[h * dh + h2] for q, y in gam[t]),
        cls((s * da + t, 0, x * y * c * z) for l1, r1, x in rep[h]
            for l2, r2, y in rep[h2] for s, c in mul[l2 * da + l1]
            for t, z in mul[r1 * da + r2])), dh, dh))
    return report
