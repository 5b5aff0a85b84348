from math import gcd

import pytest

from hopfgalois import cleft, cohomology
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import cyclic_cayley, group_algebra

F3 = PrimeField(3)


def _trivial_act(ca):
    b = ca.coinvariants()
    return cohomology.trivial_action(ca.hopf, b.algebra)


def test_h1_kc2_trivial_q(kc2_q):
    act = _trivial_act(kc2_q)
    z1 = cohomology.z1_enumerate(act)
    # oracle: v(g) in {1, -1}, so |Z^1| = 2 and nothing is a coboundary
    assert len(z1) == 2
    assert len(cohomology.h1_classes(act, z1)) == 2


def test_h1_kc2_trivial_f3(kc2_f3):
    act = _trivial_act(kc2_f3)
    z1 = cohomology.z1_enumerate(act)
    assert len(z1) == 2
    assert len(cohomology.h1_classes(act, z1)) == 2


def test_h1_m2_f3_from_cleft(m2_f3):
    datum = cleft.find_cleft(m2_f3)
    act = cohomology.action_from_cleft(m2_f3, datum)
    assert act.validate().passed
    z1 = cohomology.z1_enumerate(act)
    # oracle from exhaustive search: |Z^1| = 2, both cohomologous
    assert len(z1) == 2
    assert len(cohomology.h1_classes(act, z1)) == 1


def test_z1_membership_and_coboundaries(m2_f3):
    datum = cleft.find_cleft(m2_f3)
    act = cohomology.action_from_cleft(m2_f3, datum)
    for v in cohomology.z1_enumerate(act):
        assert cohomology.z1_membership(act, v)
    fb = cohomology.b1_element(act, [F3.one, F3.from_int(2)])
    assert fb is not None and cohomology.z1_membership(act, fb)


def test_hypothesis_gate_h4(h4_q):
    b = h4_q.coinvariants()
    with pytest.raises(cohomology.HypothesisViolated):
        cohomology._gate(h4_q.hopf, b.algebra)


def test_z1_positive_dimensional_over_q(m2_q):
    datum = cleft.find_cleft(m2_q)
    act = cohomology.action_from_cleft(m2_q, datum)
    with pytest.raises(cohomology.SearchInconclusive):
        cohomology.z1_enumerate(act)


def test_lemma55_seed_independence(m2_f3):
    d1 = cleft.find_cleft(m2_f3, seed=0)
    d2 = cleft.find_cleft(m2_f3, seed=7)
    assert cohomology.lemma55_check(m2_f3, d1, d2)


def test_omega_enumeration_m2_f3(m2_f3):
    omega = cohomology.omega_enumerate(m2_f3)
    assert len(omega) == 2
    assert len(cohomology.omega_classes(m2_f3, omega)) == 1
    for t in omega:
        assert cohomology.omega_membership(m2_f3, t)


def test_groupoid_closures(m2_f3, kc2_q):
    for ca in (m2_f3, kc2_q):
        report = cohomology.groupoid_xa_check(ca)
        assert report.passed, report.failures
        assert not report.details["vacuous"]
        assert report.details["sizes"]["Z1"] == 2


def test_groupoid_vacuous_cp2(cp2):
    report = cohomology.groupoid_xa_check(cp2)
    assert report.passed
    assert report.details["vacuous"]     # Omega_A empty: no colinear algebra map over Q


def test_prop57(m2_f3, kc2_q):
    r = cohomology.prop57_check(m2_f3)
    assert r.passed, r.failures
    assert r.details["h1_count"] == r.details["omega_bar_count"] == 1
    r = cohomology.prop57_check(kc2_q)
    assert r.passed, r.failures
    assert r.details["h1_count"] == r.details["omega_bar_count"] == 2


def test_h1_of_cyclic_groups_is_gcd():
    # Z^1(kC_n, F_p) under the trivial action is Hom(C_n, F_p^x), of order
    # gcd(n, p - 1), and it has no coboundaries; the unital slice has
    # p^(n - 1) points
    k = lambda f: group_algebra(f, cyclic_cayley(1)).algebra
    for n in range(1, 7):
        for p in (2, 3, 5, 7, 11, 13):
            if p ** (n - 1) > 2 * 10 ** 4:
                continue
            f = PrimeField(p)
            act = cohomology.trivial_action(
                group_algebra(f, cyclic_cayley(n)), k(f))
            z1 = cohomology.z1_enumerate(act)
            assert len(cohomology.h1_classes(act, z1)) == gcd(n, p - 1), \
                (n, p)
