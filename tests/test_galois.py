import pytest

from hopfgalois.fields import QQ
from hopfgalois.galois import (NotGalois, canonical_map, canonical_map_prime,
                               phi_comparison, translation_map,
                               verify_translation_identities)
from hopfgalois.linalg import Matrix, basis_vec

from conftest import kron_vec


def test_canonical_map_dims_m2(m2_q):
    can = canonical_map(m2_q)
    assert can.galois
    assert can.induced.quotient.dim == len(can.rows) == len(can.inverse) == 8


def test_canonical_prime_equivalent(m2_q, h4_q):
    for ca in (m2_q, h4_q):
        can = canonical_map(ca)
        can_p = canonical_map_prime(ca, can.induced)
        assert can.galois == can_p.galois


def test_trivial_coaction_not_galois(kxk_q):
    can = canonical_map(kxk_q)
    assert not can.galois
    with pytest.raises(NotGalois):
        translation_map(kxk_q, can)


def test_phi_comparison_inverse(h4_q):
    phi, phi_inv = phi_comparison(h4_q)
    n = h4_q.algebra.dim * h4_q.hopf.dim
    assert phi @ phi_inv == Matrix.identity(QQ, n)
    assert phi_inv @ phi == Matrix.identity(QQ, n)


def test_translation_map_kc2_oracle(kc2_q):
    # hand oracle: gamma(1) = 1 (x) 1, gamma(g) = g (x) g (g^{-1} = g)
    tmap = translation_map(kc2_q)
    rep = tmap.representative.apply(basis_vec(QQ, 2, 1))
    expected = kron_vec(QQ, basis_vec(QQ, 2, 1), basis_vec(QQ, 2, 1))
    assert rep == expected


def test_translation_identities_all_fixtures(kc2_q, h4_q, m2_q, cp_minus1):
    for ca in (kc2_q, h4_q, m2_q, cp_minus1):
        report = verify_translation_identities(ca)
        assert report.passed, report.failures


def test_translation_identities_f5(h4_f5):
    assert verify_translation_identities(h4_f5).passed


def test_identity_witness_on_corruption(h4_q):
    """Each failing identity is witnessed by its first failing basis tuple,
    in lexicographic order."""
    tmap = translation_map(h4_q)
    gamma, rep = tmap.gamma, tmap.representative
    # gamma scaled by 2 everywhere: the identities linear in gamma fail at 1
    tmap.gamma = gamma.scale(QQ.from_int(2))
    tmap.representative = rep.scale(QQ.from_int(2))
    assert verify_translation_identities(h4_q, tmap).failures == [
        ("1.2.1", (0,)), ("1.2.5", (0,)), ("1.2.6", (0,)), ("1.2.6a", (0,)),
        ("1.2.7", (0, 0))]

    # only gamma(x) = g (x) x - gx (x) 1 scaled by 2 (basis 1, g, x, gx):
    # (1.2.5) holds as eps(x) = 0, (1.2.6a) first meets Sbar(gx) = -x at
    # a = gx, and (1.2.7) holds at (1, x), failing first at (g, x)
    def scale_x(mat):
        return Matrix(QQ, mat.rows, mat.cols,
                      [x * 2 if i % mat.cols == 2 else x
                       for i, x in enumerate(mat.data)])

    tmap.gamma, tmap.representative = scale_x(gamma), scale_x(rep)
    assert verify_translation_identities(h4_q, tmap).failures == [
        ("1.2.1", (2,)), ("1.2.3", (2,)), ("1.2.4", (2,)), ("1.2.6", (2,)),
        ("1.2.6a", (3,)), ("1.2.7", (1, 2))]
