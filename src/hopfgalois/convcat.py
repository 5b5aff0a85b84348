"""The two-object categories C_A and C'_A of colinear maps H -> A.

A hom element of class (i, j) is an arrow i -> j; the eight colinearity
constraint shapes are materialized as linear operators on vec(f) and the
hom-spaces as their nullspaces.  Composition of f: i -> j and g: j -> k is
the convolution g * f (outer factor g), matching the functoriality identity
alpha_kj(g) o alpha_ji(f) = alpha_ki(g * f) of the main theorem; in C'_A
the cop-convolution (g ? f)(h) = g(h_(2)) f(h_(1)) is used instead.
"""

from . import hopf
from .hopf import CoalgebraData
from .linalg import Matrix, kron_terms, linear_operator, scatter_legs

CLASSES = ((1, 1), (2, 1), (1, 2), (2, 2))


class NotComposable(ValueError):
    pass


class MembershipViolation(RuntimeError):
    pass


class HomSpaceElement:
    """A map H -> A as a dim(A) x dim(H) matrix, tagged with its class."""

    def __init__(self, matrix, cls, variant):
        self.matrix = matrix
        self.cls = cls
        self.variant = variant          # "C" or "Cprime"

    def __eq__(self, other):
        return (isinstance(other, HomSpaceElement) and self.matrix == other.matrix
                and self.cls == other.cls and self.variant == other.variant)

    def __repr__(self):
        return f"HomSpaceElement({self.cls}, {self.variant})"


class HomSpaceBasis:
    def __init__(self, cls, variant, elements):
        self.cls = cls
        self.variant = variant
        self.elements = elements

    @property
    def dim(self):
        return len(self.elements)

    def coordinate_matrix(self, field, da, dh):
        return Matrix.from_cols(field, [e.matrix.data for e in self.elements],
                                nrows=da * dh)


def _constraint(ca, cls, variant):
    """(G, D) such that class (cls, variant) requires rho o f = (f (x) G) D."""
    field = ca.field
    dh = ca.hopf.dim
    comul = ca.hopf.coalgebra.comul
    idh = Matrix.identity(field, dh)
    s, sbar = ca.hopf.antipode, ca.hopf.antipode_inv
    hmul = ca.hopf.algebra.mul
    if cls == (1, 1):
        # f(h) (x) 1
        return Matrix.from_cols(field, [ca.hopf.algebra.unit]), idh
    if (cls, variant) in (((2, 1), "C"), ((1, 2), "Cprime")):
        # t(h_(1)) (x) h_(2)
        return idh, comul
    if (cls, variant) == ((1, 2), "C"):
        # u(h_(2)) (x) S(h_(1))
        return s, scatter_legs(comul, (dh, dh), (1, 0))
    if (cls, variant) == ((2, 1), "Cprime"):
        # u'(h_(2)) (x) Sbar(h_(1))
        return sbar, scatter_legs(comul, (dh, dh), (1, 0))
    comul3 = idh.kron(comul) @ comul      # h_(1) (x) h_(2) (x) h_(3)
    if (cls, variant) == ((2, 2), "C"):
        # w(h_(2)) (x) S(h_(1)) h_(3)
        return (hmul @ s.kron(idh),
                scatter_legs(comul3, (dh, dh, dh), (1, 0, 2)))
    if (cls, variant) == ((2, 2), "Cprime"):
        # w'(h_(2)) (x) h_(3) Sbar(h_(1))
        return (hmul @ idh.kron(sbar),
                scatter_legs(comul3, (dh, dh, dh), (1, 2, 0)))
    raise ValueError(f"unknown constraint {cls}/{variant}")


def constraint_rhs(ca, f_mat, cls, variant):
    """The required value of rho o f for the given constraint class."""
    g, d = _constraint(ca, cls, variant)
    return f_mat.kron(g) @ d


def constraint_defect(ca, f_mat, cls, variant):
    return ca.coaction @ f_mat - constraint_rhs(ca, f_mat, cls, variant)


def membership(ca, f_mat, cls, variant):
    return constraint_defect(ca, f_mat, cls, variant).is_zero()


def constraint_operator(ca, cls, variant):
    """Matrix of f -> constraint_defect(ca, f, cls, variant) on vec(f)."""
    g, d = _constraint(ca, cls, variant)
    idh = Matrix.identity(ca.field, ca.hopf.dim)
    return linear_operator([(ca.coaction, idh)]
                           + [(a, -b) for a, b in
                              kron_terms(ca.algebra.dim, g, d)])


def hom_space(ca, cls, variant):
    """Nullspace basis of the colinearity constraint (deterministic order)."""
    field = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    elems = [HomSpaceElement(Matrix(field, da, dh, v), cls, variant)
             for v in constraint_operator(ca, cls, variant).kernel()]
    return HomSpaceBasis(cls, variant, elems)


def variant_coalgebra(ca, variant="C"):
    """H for C_A; H^cop for C'_A, whose convolution is g(h_(2)) f(h_(1))."""
    co = ca.hopf.coalgebra
    if variant == "Cprime":
        co = CoalgebraData(ca.field, co.dim,
                           scatter_legs(co.comul, (co.dim, co.dim), (1, 0)),
                           co.counit)
    return co


def unit_element(ca, cls=(1, 1), variant="C"):
    """eta_A o eps_H, the convolution unit (identity morphism)."""
    mat = hopf.convolution_unit(ca.algebra, ca.hopf.coalgebra)
    return HomSpaceElement(mat, cls, variant)


def convolve_matrices(ca, g_mat, f_mat, variant="C"):
    """(g * f)(h) = g(h_(1)) f(h_(2)); cop order for variant C'."""
    return hopf.convolve(ca.algebra, variant_coalgebra(ca, variant),
                         g_mat, f_mat)


def convolve(ca, g, f):
    """Composition of arrows f: i -> j then g: j -> k, i.e. g * f."""
    if g.variant != f.variant:
        raise NotComposable("mixed variants")
    if f.cls[1] != g.cls[0]:
        raise NotComposable(f"{g.cls} after {f.cls}")
    cls = (f.cls[0], g.cls[1])
    mat = convolve_matrices(ca, g.matrix, f.matrix, g.variant)
    out = HomSpaceElement(mat, cls, g.variant)
    if not membership(ca, mat, cls, g.variant):
        raise MembershipViolation(f"convolution left class {cls}")
    return out


def gamma_functor(ca, f_prime):
    """gamma(f') = f' o S: C'_A(i, j) -> C_A(i, j)."""
    if f_prime.variant != "Cprime":
        raise ValueError("gamma takes C'_A elements")
    mat = f_prime.matrix @ ca.hopf.antipode
    out = HomSpaceElement(mat, f_prime.cls, "C")
    if not membership(ca, mat, f_prime.cls, "C"):
        raise MembershipViolation(
            f"gamma image fails C_A{f_prime.cls} membership")
    return out


def gamma_bar(ca, f):
    """gammabar(f) = f o Sbar: C_A(i, j) -> C'_A(i, j)."""
    if f.variant != "C":
        raise ValueError("gammabar takes C_A elements")
    mat = f.matrix @ ca.hopf.antipode_inv
    out = HomSpaceElement(mat, f.cls, "Cprime")
    if not membership(ca, mat, f.cls, "Cprime"):
        raise MembershipViolation(
            f"gammabar image fails C'_A{f.cls} membership")
    return out


def convolution_inverse_matrix(ca, f_mat, variant="C"):
    """Two-sided convolution inverse of f, or raise NotInvertible."""
    return hopf.convolution_inverse(ca.algebra, variant_coalgebra(ca, variant),
                                    f_mat)


def convolution_inverse(ca, f):
    """Inverse morphism: f: i -> j invertible gives f^{-1}: j -> i."""
    mat = convolution_inverse_matrix(ca, f.matrix, f.variant)
    cls = (f.cls[1], f.cls[0])
    out = HomSpaceElement(mat, cls, f.variant)
    if not membership(ca, mat, cls, f.variant):
        raise MembershipViolation(
            f"convolution inverse fails {f.variant}{cls} membership")
    return out
