import pytest

from hopfgalois import convcat
from hopfgalois.fields import QQ
from hopfgalois.linalg import Matrix, _columns

from conftest import dense


def matrix(ca, el):
    """The dim A x dim H matrix of a hom-space element."""
    return dense(ca.field, ca.algebra.dim, el.cols)


def test_hom_space_dims_m2(m2_q):
    # all four classes have dimension 4 on the graded M2 fixture
    for cls in convcat.CLASSES:
        for variant in ("C", "Cprime"):
            assert convcat.hom_space(m2_q, cls, variant).dim == 4


def test_unit_element_membership(m2_q):
    for cls in ((1, 1), (2, 2)):
        el = convcat.unit_element(m2_q, cls)
        assert convcat.membership(m2_q, el.cols, cls, "C")


def test_convolution_unit_law(m2_q):
    unit_el = convcat.unit_element(m2_q, (1, 1))
    unit = matrix(m2_q, unit_el)
    space = convcat.hom_space(m2_q, (1, 1), "C")
    for el in space.elements:
        mat = matrix(m2_q, el)
        assert convcat.convolve_matrices(m2_q, mat, unit, "C") == mat
        assert convcat.convolve_matrices(m2_q, unit, mat, "C") == mat
        assert convcat.convolve(m2_q, el, unit_el) == el
        assert convcat.convolve(m2_q, unit_el, el) == el


def test_composition_stays_in_class(m2_q):
    f_sp = convcat.hom_space(m2_q, (1, 2), "C")
    g_sp = convcat.hom_space(m2_q, (2, 1), "C")
    for f in f_sp.elements:
        for g in g_sp.elements:
            comp = convcat.convolve_matrices(m2_q, matrix(m2_q, g),
                                             matrix(m2_q, f), "C")
            assert convcat.membership(m2_q, _columns(comp), (1, 1), "C")
            assert convcat.convolve(m2_q, g, f).cols == _columns(comp)


def test_not_composable(m2_q):
    f = convcat.hom_space(m2_q, (1, 1), "C").elements[0]
    g = convcat.hom_space(m2_q, (2, 1), "C").elements[0]
    with pytest.raises(convcat.NotComposable):
        convcat.convolve(m2_q, g, f)   # middle objects 1 vs 2 mismatch


def test_gamma_functor_lands_in_C(h4_q):
    # gamma: C'(i,j) -> C(i,j), f' -> f' o S; uses S so H4 exercises S != id
    for cls in convcat.CLASSES:
        for el in convcat.hom_space(h4_q, cls, "Cprime").elements:
            image = convcat.gamma_functor(h4_q, el)
            assert convcat.membership(h4_q, image.cols, cls, "C")
            assert image.cols == _columns(matrix(h4_q, el)
                                          @ h4_q.hopf.antipode)


def test_gamma_gammabar_inverse(h4_q):
    for cls in convcat.CLASSES:
        for el in convcat.hom_space(h4_q, cls, "C").elements:
            back = convcat.gamma_functor(h4_q, convcat.gamma_bar(h4_q, el))
            assert back.cols == el.cols


def test_convolution_inverse_two_sided(m2_q):
    unit = matrix(m2_q, convcat.unit_element(m2_q, (1, 1)))
    for el in convcat.hom_space(m2_q, (1, 1), "C").elements:
        cand = matrix(m2_q, el) + unit  # generically invertible perturbation
        inv = convcat.convolution_inverse_matrix(m2_q, cand, "C")
        if inv is None:
            continue
        assert convcat.convolve_matrices(m2_q, cand, inv, "C") == unit
        assert convcat.convolve_matrices(m2_q, inv, cand, "C") == unit


def test_membership_violation_detected(m2_q):
    # a random non-colinear map should fail (2,1) membership
    bad = Matrix.zeros(QQ, 4, 2)
    bad.data[0 * 2 + 1] = QQ.one   # h -> e11 component only
    assert not convcat.membership(m2_q, _columns(bad), (2, 1), "C")
