import pytest

from hopfgalois.fields import QQ, PrimeField
from hopfgalois.hopf import (BadCharacteristic, NotAGroup, cyclic_cayley,
                             comul_terms, dual_group_algebra,
                             group_algebra, is_cocommutative, sweedler_h4,
                             validate_hopf)
from hopfgalois.linalg import Matrix, basis_vec


def test_group_algebra_axioms():
    for n in (2, 3, 4):
        h = group_algebra(QQ, cyclic_cayley(n))
        assert validate_hopf(h).passed


def test_dual_group_algebra_axioms():
    h = dual_group_algebra(QQ, cyclic_cayley(3))
    assert validate_hopf(h).passed
    # orthogonal idempotents: p_i p_j = delta_ij p_i
    v = h.algebra.product(basis_vec(QQ, 3, 0), basis_vec(QQ, 3, 1))
    assert all(x == QQ.zero for x in v)


def test_sweedler_h4():
    h = sweedler_h4(QQ)
    assert validate_hopf(h).passed
    assert not is_cocommutative(h)
    # S has order 4: S^2 = conjugation by g, S^4 = id
    s2 = h.antipode @ h.antipode
    assert s2 != Matrix.identity(QQ, 4)
    assert s2 @ s2 == Matrix.identity(QQ, 4)


def test_sweedler_needs_odd_characteristic():
    with pytest.raises(BadCharacteristic):
        sweedler_h4(PrimeField(2))


def test_group_algebra_cocommutative():
    assert is_cocommutative(group_algebra(QQ, cyclic_cayley(4)))


def test_bad_cayley_table():
    with pytest.raises(NotAGroup):
        group_algebra(QQ, [[0, 1], [1, 1]])


def test_comul_iterated():
    h = group_algebra(QQ, cyclic_cayley(2))
    # Delta^2(g) = g (x) g (x) g, one term
    assert comul_terms(h.coalgebra, 1, 3) == [((1, 1, 1), QQ.one)]


def test_corrupted_antipode_fails_named_axiom():
    # S = id is wrong for H4 (its antipode has order 4)
    h4 = sweedler_h4(QQ)
    broken = Matrix.identity(QQ, 4)
    from hopfgalois.hopf import HopfAlgebraData
    cand = HopfAlgebraData(h4.algebra, h4.coalgebra, broken, broken)
    report = validate_hopf(cand)
    assert not report.passed
    assert any(name.startswith("antipode") for name, _ in report.failures)


def test_validation_witness_is_basis_tuple():
    h4 = sweedler_h4(QQ)
    from hopfgalois.hopf import HopfAlgebraData
    bad = Matrix.identity(QQ, 4)
    report = validate_hopf(HopfAlgebraData(h4.algebra, h4.coalgebra, bad, bad))
    name, witness = report.failures[0]
    assert witness is None or all(isinstance(i, int) for i in witness)
