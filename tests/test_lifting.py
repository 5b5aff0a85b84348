import pathlib

import pytest

from hopfgalois import cli, cohomology, convcat, io_json, lifting, maintheorem
from hopfgalois.linalg import _columns

from conftest import dense, module_b, module_k


def _ctx(ca, m):
    return maintheorem.TheoremContext(ca, m)


def test_lambda_enumeration_m2_f3(m2_f3):
    ctx = _ctx(m2_f3, module_b(m2_f3))
    lams = lifting.lambda_enumerate(ctx)
    assert len(lams) == 2


def test_three_way_equivalence_joint(m2_f3):
    ctx = _ctx(m2_f3, module_b(m2_f3))
    for phi in lifting.lambda_enumerate(ctx):
        pair = lifting.phi_to_t(ctx, phi)
        verdict = lifting.lifting_theorem_check(pair)
        assert verdict.passed, verdict.failures


def test_failed_621_raises_the_membership_violation(m2_f3, monkeypatch):
    # every membership check of the lifting raises convcat's violation
    ctx = _ctx(m2_f3, module_b(m2_f3))
    phi = lifting.lambda_enumerate(ctx)[0]
    monkeypatch.setattr(lifting, "_check_621", lambda *args: (0, 0, 0))
    with pytest.raises(convcat.MembershipViolation, match="6.2.1"):
        lifting.phi_to_t(ctx, phi)


def test_round_trips(m2_f3):
    ctx = _ctx(m2_f3, module_b(m2_f3))
    for phi in lifting.lambda_enumerate(ctx):
        pair = lifting.phi_to_t(ctx, phi)
        assert lifting.t_to_phi(ctx, pair.t).phi == phi
        assert maintheorem.alpha12_hat(ctx, _columns(
            lifting.t_to_phi(ctx, pair.t).phi)) == _columns(pair.t)


def test_stability_m2_f3_regular(m2_f3):
    report = lifting.stability_check(m2_f3, module_b(m2_f3))
    assert not report.degenerate
    assert report.passed
    assert report.details["witness"] is not None


def test_point_module_not_stable(m2_f3):
    # M = k over B = k x k: E = k carries no clefting, M (x)_B A not free
    report = lifting.stability_check(m2_f3, module_k(m2_f3))
    assert report.failures == [("stable", None)]


def test_classify_m2_f3(m2_f3):
    report = lifting.classify_actions(m2_f3, module_b(m2_f3))
    assert report.passed, report.failures
    d = report.details
    assert d["lambda_count"] == d["omega_count"] == 2
    assert d["lambda_classes"] == d["omega_classes"] == 1
    assert d["h1_count"] == 1


def test_classify_point_module(m2_f3):
    report = lifting.classify_actions(m2_f3, module_k(m2_f3))
    assert report.passed, report.failures
    # M = k is not stable (E = k has no clefting): no lift exists, and the
    # count equality |Lambda| = |Omega_E| holds vacuously at 0 = 0
    assert report.details["lambda_count"] == report.details["omega_count"] == 0


def test_classify_kc2_regular_q(kc2_q):
    report = lifting.classify_actions(kc2_q, module_b(kc2_q))
    assert report.passed, report.failures
    assert report.details["lambda_classes"] == 2 == report.details["h1_count"]


def test_classify_q_needs_candidates(m2_q):
    with pytest.raises((lifting.SearchInconclusive,
                        cohomology.SearchInconclusive)):
        lifting.classify_actions(m2_q, module_b(m2_q))


def _small_candidates(ctx, span=(-1, 0, 1)):
    """Exhaustive small-coefficient search over the B-linear space; used to
    seed classification over Q, where Omega_E is not finitely enumerable."""
    import itertools

    from hopfgalois.lifting import _b_linear_space
    from hopfgalois.linalg import Matrix
    f = ctx.field
    mats = [dense(f, ctx.m.dim, phi) for phi in _b_linear_space(ctx)]
    coeffs = [f.from_int(i) for i in span]
    out = []
    for combo in itertools.product(coeffs, repeat=len(mats)):
        cand = Matrix.zeros(f, mats[0].rows, mats[0].cols)
        for c, m in zip(combo, mats):
            if c != f.zero:
                cand = cand + m.scale(c)
        out.append(cand)
    return out


def test_classify_q_with_candidates(m2_q):
    ctx = _ctx(m2_q, module_b(m2_q))
    cands = _small_candidates(ctx)
    report = lifting.classify_actions(m2_q, module_b(m2_q), candidates=cands)
    assert report.passed, report.failures
    d = report.details
    assert d["lambda_count"] == 2 and d["lambda_classes"] == 1
    assert d["h1_count"] is None      # not computable from candidates alone


# -- Lemma 3.5 transports are isomorphisms: a failed one is an internal error


M2_F3 = str(pathlib.Path(io_json.__file__).parent / "fixtures"
            / "m2_graded_f3.json")


def test_a_singular_transported_witness_exits_4(monkeypatch, capsys):
    # alpha is an isomorphism of categories, so alpha_21(u) is invertible
    monkeypatch.setattr(maintheorem, "alpha", lambda ctx, cls, cols: [
        [] for _ in range(ctx.x1_dim)])
    assert cli.main(["lift", M2_F3, "--module", "regular"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "not invertible" in err


def test_a_transport_that_leaves_c_e_exits_4(monkeypatch, capsys):
    # alpha^-1 maps Hom_B^H(M (x) H, M (x)_B A) into C_E(1, 2)
    monkeypatch.setattr(maintheorem, "alpha_inverse", lambda ctx, cls, cols: [
        [(0, ctx.field.one)] for _ in range(ctx.ca.hopf.dim)])
    assert cli.main(["lift", M2_F3, "--module", "regular"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "C_E(1,2)" in err
