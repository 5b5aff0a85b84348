import itertools
import random

import pytest

from hopfgalois import convcat, maintheorem
from hopfgalois.linalg import (Matrix, NoSolution, _columns, _nonzero, _terms,
                               summed)

from conftest import dense, dense_lin_comb, module_b, module_k
from test_linalg import rref_solve


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
            img = maintheorem.alpha(ctx, cls, el.cols)
            assert ctx.dm_membership(img, *cls)
            back = maintheorem.alpha_inverse(ctx, cls, img)
            assert back == el.cols


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
    composed = 0
    for i, j, k in maintheorem.PATTERN_LABELS:
        for f_el in spaces[(i, j)].elements:
            for g_el in spaces[(j, k)].elements:
                comp = convcat.convolve_matrices(
                    ctx.e.ca, c_matrix(ctx, g_el), c_matrix(ctx, f_el))
                direct = image_matrix(ctx, (i, k), maintheorem.alpha(
                    ctx, (i, k), _columns(comp)))
                assert as_matrix(lin.terms((i, k), [_nonzero(comp.data)])[0],
                                 direct) == direct
                composed += 1
    assert composed > 0


def c_matrix(ctx, el):
    """The dim E x dim H matrix of a C_E element."""
    return dense(ctx.field, ctx.e.dim, el.cols)


def image_matrix(ctx, cls, cols):
    """The matrix of the D_M arrow alpha_ji(f), f in C(cls), with the
    _columns cols, or None."""
    if cols is None:
        return None
    return dense(ctx.field, ctx.object_data(cls[1])[0], cols)


def as_matrix(terms, like):
    """The matrix shaped like like with the raw terms terms, or None."""
    if terms is None:
        return None
    return summed(like.field, like.rows, like.cols, terms)


class _DirectAlpha(maintheorem.LinearAlpha):
    """The direct path: alpha evaluated afresh on every input, membership
    in C(cls) by convcat.membership and coordinates by the dense RREF."""

    def _mats(self, maps):
        e_ca = self.ctx.e.ca
        return [summed(self.ctx.field, e_ca.algebra.dim, e_ca.hopf.dim, m)
                for m in maps]

    def coords(self, cls, maps):
        e_ca, els = self.ctx.e.ca, self.c_spaces[cls].elements
        coords, ok = [], []
        for mat in self._mats(maps):
            ok.append(convcat.membership(e_ca, _columns(mat), cls, "C"))
            coords.append(_nonzero(rref_solve(Matrix.from_cols(
                self.ctx.field, [c_matrix(self.ctx, el).data for el in els],
                nrows=len(mat.data)), mat.data)) if ok[-1] else [])
        return coords, ok

    def terms(self, cls, maps):
        e_ca, out = self.ctx.e.ca, []
        for mat in self._mats(maps):
            try:
                cols = _columns(mat)
                out.append(_nonzero(image_matrix(self.ctx, cls, maintheorem
                                                 .alpha(self.ctx, cls, cols))
                                    .data)
                           if convcat.membership(e_ca, cols, cls, "C")
                           else None)
            except NoSolution:
                out.append(None)
        return out


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


# -- the blocked pattern loop against the per-pair loop -----------------------


def per_pair_patterns(lin, pair_cap=8, sample=64, seed=0):
    """The eight composition patterns checked one pair at a time, with
    alpha(g * f) from its own coordinate solve: the loop verify_theorem31
    ran before its right-hand sides were solved in blocks."""
    ctx, spaces = lin.ctx, lin.c_spaces
    e_ca = ctx.e.ca

    def at(cls, n):
        img = lin.images[cls][n]
        if img is None:
            raise NoSolution()
        return image_matrix(ctx, cls, img)

    def lhs_of(cls, mat):
        if not lin.images[cls] or None in lin.images[cls]:
            return image_matrix(ctx, cls, maintheorem.alpha(
                ctx, cls, _columns(mat)))
        coords = rref_solve(Matrix.from_cols(
            ctx.field, [c_matrix(ctx, el).data
                        for el in spaces[cls].elements],
            nrows=len(mat.data)), mat.data)
        return dense_lin_comb([at(cls, n) for n in range(spaces[cls].dim)],
                              coords)

    failures = []
    rng = random.Random(seed)
    for i, j in itertools.product((1, 2), repeat=2):
        for k in (1, 2):
            fs, gs = spaces[(i, j)].elements, spaces[(j, k)].elements
            pairs = [(fi, gi) for fi in range(len(fs))
                     for gi in range(len(gs))]
            if max(len(fs), len(gs)) > pair_cap and len(pairs) > sample:
                pairs = rng.sample(pairs, sample)
            for fi, gi in pairs:
                try:
                    comp = convcat.convolve_matrices(
                        e_ca, c_matrix(ctx, gs[gi]), c_matrix(ctx, fs[fi]),
                        "C")
                    lhs = lhs_of((i, k), comp)
                    equal = lhs == at((j, k), gi) @ at((i, j), fi)
                except NoSolution:
                    equal = False
                if not equal:
                    failures.append((maintheorem.PATTERN_LABELS[(i, j, k)],
                                     (i, j, k, fi, gi)))
                    break
    return failures


def run_recorded(ca, m, monkeypatch, base=maintheorem.LinearAlpha, **kw):
    """verify_theorem31 with the LinearAlpha it built, made from base."""
    made = []

    class Recorded(base):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(maintheorem, "LinearAlpha", Recorded)
    report = maintheorem.verify_theorem31(ca, m, **kw)
    return report, made[0]


def pattern_failures(report):
    labels = set(maintheorem.PATTERN_LABELS.values())
    return [fail for fail in report.failures if fail[0] in labels]


@pytest.mark.parametrize("name", ["kc2_q", "kc2_f3", "m2_q", "m2_f3",
                                  "h4_q", "h4_f5"])
@pytest.mark.parametrize("module", [module_b, module_k])
def test_blocked_patterns_match_per_pair(name, module, request, monkeypatch):
    ca = request.getfixturevalue(name)
    report, lin = run_recorded(ca, module(ca), monkeypatch)
    assert report.passed, report.failures
    assert per_pair_patterns(lin) == []


@pytest.mark.parametrize("name", ["m2_f3", "h4_q"])
def test_many_marks_non_members(name, request, monkeypatch):
    # one block of basis elements and maps outside C(cls): the former get
    # their kept images, the latter None, as a solve of their own gives
    ca = request.getfixturevalue(name)
    _, lin = run_recorded(ca, module_b(ca), monkeypatch)
    field, e_ca = ca.field, lin.ctx.e.ca
    rng = random.Random(4)
    outside = 0
    for cls, space in lin.c_spaces.items():
        others = [Matrix(field, e_ca.algebra.dim, e_ca.hopf.dim,
                         [field.from_int(rng.randint(-2, 2))
                          for _ in range(e_ca.algebra.dim * e_ca.hopf.dim)])
                  for _ in range(3)]
        mats = [c_matrix(lin.ctx, el) for el in space.elements] + others
        got = lin.terms(cls, [_nonzero(mat.data) for mat in mats])
        images = [image_matrix(lin.ctx, cls, img) for img in lin.images[cls]]
        assert [as_matrix(terms, img) for terms, img in zip(
            got[:space.dim], images)] == images
        for mat, terms in zip(others, got[space.dim:]):
            if convcat.membership(e_ca, _columns(mat), cls, "C"):
                direct = image_matrix(lin.ctx, cls, maintheorem.alpha(
                    lin.ctx, cls, _columns(mat)))
                assert as_matrix(terms, direct) == direct
            else:
                assert terms is None
                outside += 1
                assert lin.terms(cls, [_nonzero(mat.data)]) == [None]
    assert outside > 0


@pytest.mark.parametrize("name", ["h4_q", "h4_f5"])
def test_blocked_patterns_corrupt_gamma(name, request, monkeypatch):
    ca = request.getfixturevalue(name)
    report, lin = run_recorded(ca, module_b(ca), monkeypatch,
                               corrupt_gamma=True)
    found = pattern_failures(report)
    assert found == per_pair_patterns(lin)
    assert dict(found)["12b"] is not None


class _CorruptOneImage(maintheorem.LinearAlpha):
    """Keeps a wrong alpha for the last C(1, 2) basis element: its entry
    (0, 0) moved by 1."""

    def __init__(self, *args):
        super().__init__(*args)
        f, images = self.ctx.field, self.images[(1, 2)]
        bad = images[-1]
        images[-1] = [_terms(f, [*bad[0], (0, f.one)])] + bad[1:]


def test_every_pattern_reports_its_own_first_failure(m2_q, monkeypatch):
    # one corrupted alpha image of C(1, 2) on graded M_2 over Q breaks 11
    # (f in C(1, 2)) and 21b (g in C(1, 2)) alike: the failure of 11 no
    # longer hides 21b
    report, _ = run_recorded(m2_q, module_b(m2_q), monkeypatch,
                             base=_CorruptOneImage)
    found = dict(pattern_failures(report))
    assert found["21b"] == (1, 2, 2, 3, 0)
    assert "11" in found


@pytest.mark.parametrize("name", ["m2_q", "m2_f3", "h4_q", "h4_f5"])
def test_blocked_patterns_corrupt_image(name, request, monkeypatch):
    ca = request.getfixturevalue(name)
    report, lin = run_recorded(ca, module_b(ca), monkeypatch,
                               base=_CorruptOneImage)
    found = pattern_failures(report)
    assert found, report.failures
    assert found == per_pair_patterns(lin)


# -- membership: the ok flags of the coordinate solves ------------------------


def perturbed(mats, rng, copies=2):
    """copies of each matrix with one entry moved by a nonzero scalar."""
    out = []
    for mat in mats:
        f = mat.field
        for _ in range(copies):
            data = list(mat.data)
            k = rng.randrange(len(data))
            data[k] = f.add(data[k], f.from_int(rng.randint(1, 3)))
            out.append(Matrix(f, mat.rows, mat.cols, data))
    return out


@pytest.mark.parametrize("name", ["kc2_q", "kc2_f3", "m2_q", "m2_f3",
                                  "h4_q", "h4_f5"])
@pytest.mark.parametrize("module", [module_b, module_k])
@pytest.mark.parametrize("corrupt", [False, True])
def test_solve_flags_equal_membership(name, module, corrupt, request):
    # verify_theorem31 decides membership in D_M by dm_coords' ok flags and
    # membership in C by LinearAlpha's: each flag must be the colinearity
    # check's verdict, on alpha images, gamma images and perturbations
    ca = request.getfixturevalue(name)
    ctx = maintheorem.TheoremContext(ca, module(ca), corrupt_gamma=corrupt)
    e_ca, rng = ctx.e.ca, random.Random(11)
    spaces = {cls: convcat.hom_space(e_ca, cls, "C")
              for cls in convcat.CLASSES}
    lin = maintheorem.LinearAlpha(ctx, spaces)
    direct = _DirectAlpha(ctx, spaces)
    seen = set()
    for cls, space in spaces.items():
        imgs = []
        for el in space.elements:
            try:
                imgs.append(image_matrix(ctx, cls, maintheorem.alpha(
                    ctx, cls, el.cols)))
            except NoSolution:
                pass
        mats = [_columns(mat) for mat in imgs + perturbed(imgs, rng)]
        _, ok = ctx.dm_coords(mats, *cls)
        assert ok == [ctx.dm_membership(mat, *cls) for mat in mats]
        seen.update(("D", flag) for flag in ok)
        maps = [c_matrix(ctx, el) for el in space.elements] + [
            c_matrix(ctx, el) @ e_ca.hopf.antipode
            for el in convcat.hom_space(e_ca, cls, "Cprime").elements]
        raw = [_nonzero(mat.data) for mat in maps + perturbed(maps, rng)]
        got, want = lin.coords(cls, raw), direct.coords(cls, raw)
        assert got[1] == want[1]
        assert ([x for x, good in zip(*got) if good]
                == [x for x, good in zip(*want) if good])
        seen.update(("C", flag) for flag in got[1])
    assert seen == {("D", True), ("D", False), ("C", True), ("C", False)}


def test_alpha_runs_once_per_basis_element_under_corrupt_gamma(h4_f5,
                                                               monkeypatch):
    # a class that fails alpha-membership has its basis images evaluated
    # once, like a kept class: the membership step, the pattern loop and
    # the round trip all read the same images
    calls = []
    alpha = maintheorem.alpha

    def counted(ctx, cls, cols):
        calls.append(cls)
        return alpha(ctx, cls, cols)

    monkeypatch.setattr(maintheorem, "alpha", counted)
    report = maintheorem.verify_theorem31(h4_f5, module_b(h4_f5),
                                          corrupt_gamma=True)
    assert ("alpha-membership", (2, 1)) in report.failures
    assert len(calls) == sum(report.details[f"dim C{cls}"]
                             for cls in convcat.CLASSES)
