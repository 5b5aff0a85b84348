import pytest

from hopfgalois import cleft, convcat
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import cyclic_cayley, group_algebra
from hopfgalois.hopf import OneSidedInverse
from hopfgalois.linalg import Matrix, basis_vec

F3 = PrimeField(3)


def test_find_cleft_kc2_regular(kc2_q):
    datum = cleft.find_cleft(kc2_q)
    assert isinstance(datum, cleft.CleftingDatum)
    # t = id is a normalized clefting map for A = H
    assert datum.t == Matrix.identity(QQ, 2)


def test_find_cleft_m2_f3_exhaustive_oracle(m2_f3):
    # hand oracle: t(1) = I, t(g) = e12 + e21 (verified by hand against the
    # colinearity and convolution-invertibility conditions)
    datum = cleft.find_cleft(m2_f3)
    t = datum.t
    assert t.col(0) == [F3.one, F3.zero, F3.zero, F3.one]
    assert t.col(1) == [F3.zero, F3.one, F3.one, F3.zero]


def test_find_cleft_negative_proof(kxk_f3):
    got = cleft.find_cleft(kxk_f3)
    assert isinstance(got, cleft.NotFound)
    assert got.exhaustive and got.searched == 9


def test_find_cleft_negative_inconclusive_over_q(kxk_q):
    got = cleft.find_cleft(kxk_q, tries=50)
    assert isinstance(got, cleft.NotFound)
    assert not got.exhaustive


def test_extract_crossed_data_m2(m2_q):
    datum = cleft.find_cleft(m2_q)
    cp = cleft.extract_crossed_data(datum, m2_q)
    # omega(g (x) -) swaps the two diagonal coordinates of B: the column
    # g * dim B + 0 of omega is g . b_0 = b_1
    assert cp.omega.col(1 * 2 + 0) == [QQ.zero, QQ.one]


def test_build_crossed_product_cp_minus1():
    # B = k, sigma(g,g) = -1 assembles to k[x]/(x^2 + 1)
    h = group_algebra(QQ, cyclic_cayley(2), ["1", "g"])
    base = group_algebra(QQ, cyclic_cayley(1), ["1"]).algebra
    omega = Matrix(QQ, 1, 2, [QQ.one, QQ.one])
    sigma = Matrix(QQ, 1, 4, [QQ.one, QQ.one, QQ.one, QQ.from_int(-1)])
    cp = cleft.build_crossed_product(base, h, omega, sigma)
    x = basis_vec(QQ, 2, 1)           # 1#g
    assert cp.algebra.algebra.product(x, x) == [QQ.from_int(-1), QQ.zero]
    assert cp.algebra.validate().passed


def test_build_crossed_product_rejects_bad_normalization():
    h = group_algebra(QQ, cyclic_cayley(2))
    base = group_algebra(QQ, cyclic_cayley(1)).algebra
    omega = Matrix(QQ, 1, 2, [QQ.one, QQ.one])
    # convolution-invertible (all values nonzero) but sigma(1,g) = 2 != eps
    sigma = Matrix(QQ, 1, 4, [QQ.one, QQ.from_int(2), QQ.one, QQ.one])
    with pytest.raises(cleft.InvalidCrossedData) as exc:
        cleft.build_crossed_product(base, h, omega, sigma)
    assert "normalization" in exc.value.condition


def test_build_crossed_product_rejects_bad_measuring():
    h = group_algebra(QQ, cyclic_cayley(2))
    base = group_algebra(QQ, cyclic_cayley(1)).algebra
    omega = Matrix(QQ, 1, 2, [QQ.one, QQ.from_int(2)])   # g.1 != eps(g)1
    sigma = Matrix(QQ, 1, 4, [QQ.one, QQ.one, QQ.one, QQ.one])
    with pytest.raises(cleft.InvalidCrossedData) as exc:
        cleft.build_crossed_product(base, h, omega, sigma)
    assert "measuring" in exc.value.condition


def test_build_crossed_product_sigma_inverse_conditions(monkeypatch):
    h = group_algebra(QQ, cyclic_cayley(2))
    base = group_algebra(QQ, cyclic_cayley(1)).algebra
    omega = Matrix(QQ, 1, 2, [QQ.one, QQ.one])
    with pytest.raises(cleft.InvalidCrossedData) as exc:
        cleft.build_crossed_product(base, h, omega, Matrix.zeros(QQ, 1, 4))
    assert exc.value.condition == "sigma not convolution invertible"

    def one_sided(*args):
        raise OneSidedInverse("right inverse is not two-sided")

    # cannot happen in finite dimension, so the condition is forced
    monkeypatch.setattr(cleft, "convolution_inverse", one_sided)
    with pytest.raises(cleft.InvalidCrossedData) as exc:
        cleft.build_crossed_product(base, h, omega,
                                    Matrix(QQ, 1, 4, [QQ.one] * 4))
    assert exc.value.condition == "sigma inverse is one-sided only"


def test_structure_theorem_m2_f3(m2_f3):
    report = cleft.structure_theorem_check(m2_f3)
    assert report.passed, {k: v.failures for k, v in report.legs.items()}


def test_structure_theorem_cp_minus1(cp_minus1):
    assert cleft.structure_theorem_check(cp_minus1).passed


def test_structure_theorem_all_legs_fail_on_non_cleft(kxk_f3):
    report = cleft.structure_theorem_check(kxk_f3)
    assert report.all_failed


def test_structure_theorem_sampled_miss_is_inconclusive(kxk_q):
    # over Q find_cleft only samples, so its miss proves nothing
    report = cleft.structure_theorem_check(kxk_q)
    miss = report.inconclusive["1->2"]
    assert isinstance(miss, cleft.NotFound) and not miss.exhaustive
    assert repr(miss).startswith("NotFound(sampled, ")
    assert report.legs["1->2"].passed
    assert not report.passed


def test_structure_theorem_inconclusive_leg_blocks_pass(m2_f3, monkeypatch):
    # legs (1) and (2) undecided, leg (3) proven: not passed, nothing failed
    miss = cleft.NotFound(False, 503, 2)
    monkeypatch.setattr(cleft, "find_cleft", lambda *args, **kw: miss)
    report = cleft.structure_theorem_check(m2_f3)
    assert report.inconclusive == {"1->2": miss, "2->3": miss}
    assert all(leg.passed for leg in report.legs.values())
    assert not report.passed


def test_remark_53_closed_formulas(cp_minus1, cp2, cp4):
    # t(h) = 1#h entrywise and u given by the sigma-bar formula, certified by
    # t*u = u*t = eta o eps
    for ca in (cp_minus1, cp2, cp4):
        datum = cleft.find_cleft(ca)
        cp = cleft.extract_crossed_data(datum, ca)
        result = cleft.crossed_canonical_inverse(cp)
        assert not result.failures


def test_smash_statuses(cp2, cp4, m2_q, kc2_q):
    assert cleft.smash_check(cp4).passed
    assert cleft.smash_check(m2_q).passed
    assert cleft.smash_check(kc2_q).passed
    report = cleft.smash_check(cp2)
    assert report.status == "none"      # certified: no rational sqrt of 2


def test_smash_h4(h4_q):
    assert cleft.smash_check(h4_q).passed
