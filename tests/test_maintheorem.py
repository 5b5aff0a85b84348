import pytest

from hopfgalois import convcat, maintheorem

from conftest import module_b, module_k


def test_theorem31_m2_regular(m2_q):
    report = maintheorem.verify_theorem31(m2_q, module_b(m2_q))
    assert report.passed, report.failures
    for cls in convcat.CLASSES:
        assert report.details[f"dim C{cls}"] == report.details[f"dim D{cls}"]


def test_theorem31_m2_point(m2_q):
    report = maintheorem.verify_theorem31(m2_q, module_k(m2_q))
    assert report.passed, report.failures


def test_theorem31_h4_point(h4_q):
    report = maintheorem.verify_theorem31(h4_q, module_k(h4_q))
    assert report.passed, report.failures


def test_alpha_beta_individual(m2_q):
    ctx = maintheorem.TheoremContext(m2_q, module_b(m2_q))
    for cls in convcat.CLASSES:
        for el in convcat.hom_space(ctx.e.ca, cls, "C").elements:
            img = maintheorem.alpha(ctx, cls, el.matrix)
            assert ctx.dm_membership(img, *cls)
            back = maintheorem.alpha_inverse(ctx, cls, img)
            assert back == el.matrix


def test_negative_control_corrupt_gamma(h4_q):
    # omitting S-bar in gamma_12 must break pattern (12b) with a witness;
    # needs a fixture with S-bar != id, hence H4
    report = maintheorem.verify_theorem31(h4_q, module_b(h4_q),
                                          corrupt_gamma=True)
    assert not report.passed
    failed = {name for name, _ in report.failures}
    assert "12b" in failed
    witness = dict(report.failures)["12b"]
    assert witness is not None


def test_corrupt_gamma_harmless_when_antipode_trivial(kc2_q):
    # on kC2 the antipode is the identity, so the corruption is a no-op
    report = maintheorem.verify_theorem31(kc2_q, module_b(kc2_q),
                                          corrupt_gamma=True)
    assert report.passed


def test_pattern_labels_cover_eight():
    assert len(maintheorem.PATTERN_LABELS) == 8
    assert maintheorem.PATTERN_LABELS[(2, 1, 1)] == "12b"
    assert maintheorem.PATTERN_LABELS[(1, 1, 2)] == "21a"


@pytest.mark.parametrize("name", ["kc2_q", "kc2_f3", "m2_q", "m2_f3",
                                  "h4_q", "h4_f5"])
def test_linear_alpha_matches_direct(name, request):
    # alpha(g * f) from the basis images equals alpha evaluated on g * f
    ca = request.getfixturevalue(name)
    ctx = maintheorem.TheoremContext(ca, module_b(ca))
    spaces = {cls: convcat.hom_space(ctx.e.ca, cls, "C")
              for cls in convcat.CLASSES}
    lin = maintheorem.LinearAlpha(ctx, spaces)
    for cls, space in spaces.items():
        lin.keep(cls, [maintheorem.alpha(ctx, cls, el.matrix)
                       for el in space.elements])
    composed = 0
    for i, j, k in maintheorem.PATTERN_LABELS:
        for f_el in spaces[(i, j)].elements:
            for g_el in spaces[(j, k)].elements:
                comp = convcat.convolve_matrices(ctx.e.ca, g_el.matrix,
                                                 f_el.matrix)
                assert lin((i, k), comp) == maintheorem.alpha(ctx, (i, k),
                                                              comp)
                composed += 1
    assert composed > 0


class _DirectAlpha(maintheorem.LinearAlpha):
    """The direct path: alpha evaluated afresh on every input."""

    def at(self, cls, n):
        return maintheorem.alpha(self.ctx, cls,
                                 self.c_spaces[cls].elements[n].matrix)

    def __call__(self, cls, mat):
        return maintheorem.alpha(self.ctx, cls, mat)


@pytest.mark.parametrize("name", ["h4_q", "h4_f5"])
def test_corrupt_gamma_failures_match_direct(name, request, monkeypatch):
    ca = request.getfixturevalue(name)
    linear = maintheorem.verify_theorem31(ca, module_b(ca),
                                          corrupt_gamma=True)
    monkeypatch.setattr(maintheorem, "LinearAlpha", _DirectAlpha)
    direct = maintheorem.verify_theorem31(ca, module_b(ca),
                                          corrupt_gamma=True)
    assert linear.failures == direct.failures
    assert dict(linear.failures)["12b"] is not None
