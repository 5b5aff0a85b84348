"""The two-object categories C_A and C'_A of colinear maps H -> A.

A hom element of class (i, j) is an arrow i -> j.  Each of the eight
colinearity constraint shapes is a table of terms per basis vector h of H,
read from comul_table, mul_table and the columns of S or Sbar; membership
checks it column by column and the hom-spaces are the nullspaces of the
operators written from it.  Composition of f: i -> j and g: j -> k is
the convolution g * f (outer factor g), matching the functoriality identity
alpha_kj(g) o alpha_ji(f) = alpha_ki(g * f) of the main theorem; in C'_A
the cop-convolution (g ? f)(h) = g(h_(2)) f(h_(1)) is used instead.
"""

from . import hopf
from .hopf import CoalgebraData, colinear_witness
from .linalg import Matrix, _columns, colinearity_operator, sparse_kernel

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


def _constraint_terms(ca, cls, variant):
    """terms[h]: the raw (h2, k, c) with which class (cls, variant) requires
    rho(f(e_h)) = Sum c f(e_h2) (x) e_k, read from the tables of H."""
    hopf = ca.hopf
    dh, comul, hmul = hopf.dim, hopf.coalgebra.comul_table, hopf.algebra.mul_table
    s = _columns(hopf.antipode if variant == "C" else hopf.antipode_inv)
    if cls not in CLASSES or variant not in ("C", "Cprime"):
        raise ValueError(f"unknown constraint {cls}/{variant}")
    if cls == (1, 1):                   # f(h) (x) 1
        return [[(h, k, u) for k, u in enumerate(hopf.algebra.unit) if u]
                for h in range(dh)]
    if (cls, variant) in (((2, 1), "C"), ((1, 2), "Cprime")):
        return comul                    # t(h_(1)) (x) h_(2)
    if cls != (2, 2):       # u(h_(2)) (x) S(h_(1)), u'(h_(2)) (x) Sbar(h_(1))
        return [[(h2, t, x * y) for h1, h2, x in comul[h] for t, y in s[h1]]
                for h in range(dh)]
    # w(h_(2)) (x) S(h_(1)) h_(3), w'(h_(2)) (x) h_(3) Sbar(h_(1)), with
    # h_(1) (x) h_(2) (x) h_(3) = (id (x) Delta) Delta(h)
    return [[(h2, r, x * y * z * m) for h1, c, x in comul[h]
             for h2, h3, y in comul[c] for t, z in s[h1]
             for r, m in hmul[t * dh + h3 if variant == "C" else h3 * dh + t]]
            for h in range(dh)]


def membership(ca, f_mat, cls, variant):
    """Whether f satisfies the constraint of class (cls, variant), checked
    at each basis vector of H from the columns of f and rho."""
    terms = _constraint_terms(ca, cls, variant)
    return colinear_witness(ca.field, f_mat, terms, ca.coaction_table) is None


def constraint_operator(ca, cls, variant):
    """The rows of the operator on vec(f) of f -> rho o f - (f (x) I_H) D,
    for D the coaction on H whose table is the constraint terms."""
    dh = ca.hopf.dim
    return colinearity_operator(ca.field, dh, ca.algebra.dim,
                                _constraint_terms(ca, cls, variant),
                                ca.coaction_table, dh)


def hom_space(ca, cls, variant):
    """Nullspace basis of the colinearity constraint (deterministic order)."""
    field = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    elems = [HomSpaceElement(Matrix(field, da, dh, v), cls, variant)
             for v in sparse_kernel(field, da * dh,
                                    constraint_operator(ca, cls, variant))]
    return HomSpaceBasis(cls, variant, elems)


def variant_coalgebra(ca, variant="C"):
    """H for C_A; H^cop for C'_A, whose convolution is g(h_(2)) f(h_(1))."""
    co = ca.hopf.coalgebra
    if variant == "Cprime":
        co = CoalgebraData(ca.field, co.dim, [[
            (c2, c1, x) for c1, c2, x in terms] for terms in co.comul_table],
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

