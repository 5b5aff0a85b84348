"""Canonical maps can / can', the comparison Phi, the Galois verdict, the
translation map gamma_A(h) = can^{-1}(1 (x) h) and identities (1.2.1)-(1.2.7).

A (x)_B A is realized through comodule.tensor_over_B with A as a right
B-module; every identity stated in the quotient is checked on projected
coordinates, never on representatives.
"""

from .comodule import algebra_as_bmodule, tensor_over_B
from .hopf import ValidationReport
from .linalg import (Matrix, basis_vec, gather_legs, kron_vec, scatter_legs,
                     tensor_entries, vec_add, vec_scale)


class NotGalois(RuntimeError):
    pass


class CanonicalMapData:
    def __init__(self, matrix, inverse, galois, induced):
        self.matrix = matrix          # quotient coords of A (x)_B A -> A (x) H
        self.inverse = inverse        # None when not galois
        self.galois = galois
        self.induced = induced        # the A (x)_B A presentation


def _a_tensor_a(ca):
    return tensor_over_B(algebra_as_bmodule(ca), ca)


def _can_ambient(ca):
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    ida = Matrix.identity(f, da)
    idh = Matrix.identity(f, dh)
    return ca.algebra.mul.kron(idh) @ ida.kron(ca.coaction)


def _can_prime_ambient(ca):
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    idh = Matrix.identity(f, dh)
    ida = Matrix.identity(f, da)
    # a_[0] (x) a_[1] (x) a' -> a_[0] (x) a' (x) a_[1]
    moved = scatter_legs(ca.coaction.kron(ida), (da, dh, da), (0, 2, 1))
    return ca.algebra.mul.kron(idh) @ moved


def canonical_map(ca, induced=None):
    """can(a (x)_B a') = a a'_[0] (x) a'_[1], in quotient coordinates."""
    ind = induced if induced is not None else _a_tensor_a(ca)
    mat = _can_ambient(ca) @ ind.quotient.section
    galois = mat.is_invertible()
    inverse = mat.invert() if galois else None
    return CanonicalMapData(mat, inverse, galois, ind)


def canonical_map_prime(ca, induced=None):
    """can'(a (x)_B a') = a_[0] a' (x) a_[1]."""
    ind = induced if induced is not None else _a_tensor_a(ca)
    mat = _can_prime_ambient(ca) @ ind.quotient.section
    galois = mat.is_invertible()
    inverse = mat.invert() if galois else None
    return CanonicalMapData(mat, inverse, galois, ind)


def phi_comparison(ca):
    """Phi(a (x) h) = a_[0] (x) a_[1]S(h) on A (x) H, with its inverse.

    The inverse multiplies Sbar(h) on the LEFT: Phi^{-1}(a (x) h) =
    a_[0] (x) Sbar(h) a_[1].  (Right multiplication fails for
    noncommutative H; the counit collapse needs a_(1)S(a_(2)) adjacent.)
    """
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    ida = Matrix.identity(f, da)
    hmul = ca.hopf.algebra.mul
    phi = ida.kron(hmul) @ ca.coaction.kron(ca.hopf.antipode)
    phi_inv = (ida.kron(gather_legs(hmul, (dh, dh), (1, 0)))
               @ ca.coaction.kron(ca.hopf.antipode_inv))
    return phi, phi_inv


class TranslationMap:
    """gamma_A as a matrix H -> (A (x)_B A) plus chosen representatives."""

    def __init__(self, ca, can_data):
        if not can_data.galois:
            raise NotGalois("translation map needs an invertible can")
        f = ca.field
        da, dh = ca.algebra.dim, ca.hopf.dim
        self.ca = ca
        self.can = can_data
        self.induced = can_data.induced
        cols = [can_data.inverse.apply(
            kron_vec(f, ca.algebra.unit, basis_vec(f, dh, j)))
            for j in range(dh)]
        self.gamma = Matrix.from_cols(f, cols, nrows=can_data.induced.quotient.dim)
        # representative Sum_i l_i(h) (x) r_i(h) in A (x) A, via the section
        self.representative = can_data.induced.quotient.section @ self.gamma

    def value(self, h_vec):
        """Quotient coordinates of gamma_A(h)."""
        return self.gamma.apply(h_vec)

    def rep(self, h_vec):
        """The chosen representative in A (x) A (flat, left leg major)."""
        return self.representative.apply(h_vec)


def translation_map(ca, can_data=None):
    can_data = can_data if can_data is not None else canonical_map(ca)
    return TranslationMap(ca, can_data)


def verify_translation_identities(ca, tmap=None):
    """Exact check of (1.2.1)-(1.2.7) over all basis tuples."""
    tmap = tmap if tmap is not None else translation_map(ca)
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    alg, hopf = ca.algebra, ca.hopf
    quot = tmap.induced.quotient
    pi, sect = quot.projection, quot.section
    ida = Matrix.identity(f, da)
    idh = Matrix.identity(f, dh)
    rep = tmap.representative          # H -> A (x) A
    gamma = tmap.gamma
    report = ValidationReport()

    # (1.2.1)  Sum l_i(h) r_i(h)_[0] (x) r_i(h)_[1] = 1 (x) h
    lhs = _can_ambient(ca) @ rep
    rhs = Matrix.from_cols(
        f, [kron_vec(f, alg.unit, basis_vec(f, dh, j)) for j in range(dh)],
        nrows=da * dh)
    if lhs != rhs:
        report.fail("1.2.1", _first_col_diff(lhs, rhs))

    # (1.2.2)  gamma(h) is B-central in A (x)_B A
    b = ca.coinvariants()
    for k in range(b.dim):
        bv = b.inclusion.col(k)
        left = pi @ alg.lmul(bv).kron(ida) @ rep
        right = pi @ ida.kron(alg.rmul(bv)) @ rep
        if left != right:
            report.fail("1.2.2", (k,) + (_first_col_diff(left, right) or ()))
            break

    # (1.2.3)  gamma(h_(1)) (x) h_(2) = Sum l_i (x)_B r_i_[0] (x) r_i_[1]
    lhs = gamma.kron(idh) @ hopf.coalgebra.comul
    rhs = pi.kron(idh) @ ida.kron(ca.coaction) @ rep
    if lhs != rhs:
        report.fail("1.2.3", _first_col_diff(lhs, rhs))

    # (1.2.4)  gamma(h_(2)) (x) S(h_(1)) = Sum l_i_[0] (x)_B r_i (x) l_i_[1]
    lhs = gamma.kron(hopf.antipode) @ scatter_legs(hopf.coalgebra.comul,
                                                   (dh, dh), (1, 0))
    rhs = pi.kron(idh) @ scatter_legs(ca.coaction.kron(ida) @ rep,
                                      (da, dh, da), (0, 2, 1))
    if lhs != rhs:
        report.fail("1.2.4", _first_col_diff(lhs, rhs))

    # (1.2.5)  Sum l_i(h) r_i(h) = eps(h) 1
    lhs = alg.mul @ rep
    rhs = Matrix.from_cols(f, [alg.unit]) @ hopf.coalgebra.counit
    if lhs != rhs:
        report.fail("1.2.5", _first_col_diff(lhs, rhs))

    # (1.2.6)  Sum a_[0] l_i(a_[1]) (x)_B r_i(a_[1]) = 1 (x)_B a
    for a_idx in range(da):
        acc = [f.zero] * quot.dim
        for (i, j), c in tensor_entries(f, ca.coaction.apply(basis_vec(f, da, a_idx)),
                                        (da, dh)):
            term = pi @ alg.lmul(basis_vec(f, da, i)).kron(ida)
            acc = vec_add(f, acc, vec_scale(f, c, term.apply(
                rep.apply(basis_vec(f, dh, j)))))
        if acc != quot.project(kron_vec(f, alg.unit, basis_vec(f, da, a_idx))):
            report.fail("1.2.6", (a_idx,))
            break

    # (1.2.6a) Sum l_i(Sbar(a_[1])) (x)_B r_i(Sbar(a_[1])) a_[0] = a (x)_B 1
    for a_idx in range(da):
        acc = [f.zero] * quot.dim
        for (i, j), c in tensor_entries(f, ca.coaction.apply(basis_vec(f, da, a_idx)),
                                        (da, dh)):
            v = rep.apply(hopf.antipode_inv.apply(basis_vec(f, dh, j)))
            term = pi @ ida.kron(alg.rmul(basis_vec(f, da, i)))
            acc = vec_add(f, acc, vec_scale(f, c, term.apply(v)))
        if acc != quot.project(kron_vec(f, basis_vec(f, da, a_idx), alg.unit)):
            report.fail("1.2.6a", (a_idx,))
            break

    # (1.2.7)  gamma(h h') = Sum l_i(h') l_j(h) (x)_B r_j(h) r_i(h')
    combine = pi @ gather_legs(alg.mul.kron(alg.mul), (da,) * 4, (0, 2, 3, 1))
    for hi in range(dh):
        x = rep.apply(basis_vec(f, dh, hi))          # legs (l_j(h), r_j(h))
        for hj in range(dh):
            y = rep.apply(basis_vec(f, dh, hj))      # legs (l_i(h'), r_i(h'))
            lhs_v = gamma.apply(hopf.algebra.basis_product(hi, hj))
            rhs_v = combine.apply(kron_vec(f, y, x))
            if lhs_v != rhs_v:
                report.fail("1.2.7", (hi, hj))
                break
        else:
            continue
        break
    return report


def _first_col_diff(lhs, rhs):
    diff = lhs - rhs
    for i, x in enumerate(diff.data):
        if x != diff.field.zero:
            return (i % diff.cols,)
    return None
