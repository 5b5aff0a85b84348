"""Rational endomorphisms: Hom_A(P,Q), the Eq. (14) coaction, the comodule
algebra E = END_A(M (x)_B A) and the identification F = E^{co H} = End_B(M).

At finite dimension every A-linear endomorphism is rational; the coaction
solver below still verifies rationality instance by instance instead of
assuming it.
"""

from .comodule import ComoduleAlgebraData, InternalInvariant, adjunction_unit
from .hopf import StructureConstantAlgebra
from .linalg import (Factorization, Matrix, NoSolution, basis_vec,
                     intertwiners, lin_comb)


class NotRational(RuntimeError):
    pass


def end_A(ca, module):
    """Basis of A-linear endomorphisms of a relative Hopf module."""
    return intertwiners(ca.field, module.dim, module.dim, module.actions,
                        module.actions)


def rational_coaction_matrix(ca, module, f_mat):
    """The map rho(f): P -> P (x) H, rho(f)(p) = f(p_[0])_[0] (x) f(p_[0])_[1] S(p_[1])."""
    field = ca.field
    dh = ca.hopf.dim
    idp = Matrix.identity(field, module.dim)
    hmul = ca.hopf.algebra.mul
    rho = module.coaction
    return (idp.kron(hmul) @ rho.kron(ca.hopf.antipode)
            @ f_mat.kron(Matrix.identity(field, dh)) @ rho)


def rational_coaction(ca, module, basis):
    """The coaction of span(basis) as a dim(E)*dim(H) x dim(E) matrix.

    Column i holds the coefficients c of rho(basis_i) = Sum_{k,h}
    c[k*dim(H) + h] basis_k (x) e_h; raises NotRational if one is absent.
    """
    field = ca.field
    dh = ca.hopf.dim
    rows = module.dim * dh * module.dim
    e_cols = [Matrix(field, dh, 1, basis_vec(field, dh, j)) for j in range(dh)]
    op = Matrix.from_cols(field, [b.kron(e).data for b in basis
                                  for e in e_cols], nrows=rows)
    targets = Matrix.from_cols(
        field, [rational_coaction_matrix(ca, module, b).data for b in basis],
        nrows=rows)
    try:
        return op.solve_matrix(targets)
    except NoSolution as exc:
        raise NotRational("rho(f) is not in End_A (x) H") from exc


class EndComoduleAlgebra:
    """E = END_A(M (x)_B A) realized on a concrete endomorphism basis."""

    def __init__(self, ca, induced, basis, comodule_algebra, coords):
        self.base = ca                  # the underlying comodule algebra A
        self.induced = induced          # the module M (x)_B A
        self.basis = basis              # endomorphism matrices
        self.ca = comodule_algebra      # E as a ComoduleAlgebraData over H
        self._coords = coords           # Factorization of the basis

    @property
    def dim(self):
        return len(self.basis)

    def to_matrix(self, coords):
        """Endomorphism matrix of an element given in E-coordinates."""
        return lin_comb(self.basis, coords)

    def to_coords(self, mat):
        return self.coords_matrix([mat]).data

    def coords_matrix(self, mats):
        """E-coordinates of the endomorphisms mats, one column each."""
        n = self._coords.a.rows
        try:
            return self._coords.solve_matrix(Matrix.from_cols(
                self.base.field, [m.data for m in mats], nrows=n))
        except NoSolution as exc:
            raise InternalInvariant("matrix not A-linear") from exc


def build_E(ca, induced):
    """Assemble E with multiplication = composition and the Eq. (14) coaction."""
    field = ca.field
    module = induced.module
    dq = module.dim
    basis = end_A(ca, module)
    n = len(basis)
    coords = Factorization(Matrix.from_cols(field, [b.data for b in basis],
                                            nrows=dq * dq))
    mul = coords.solve_matrix(Matrix.from_cols(
        field, [(bi @ bj).data for bi in basis for bj in basis],
        nrows=dq * dq))
    unit = coords.solve(Matrix.identity(field, dq).data)
    alg = StructureConstantAlgebra(field, n, mul, unit,
                                   [f"f{i}" for i in range(n)])
    coaction = rational_coaction(ca, module, basis)
    e_ca = ComoduleAlgebraData(ca.hopf, alg, coaction)
    return EndComoduleAlgebra(ca, induced, basis, e_ca, coords)


def verify_eq14(e):
    """Eq. (14): rho(f(p)) = f_[0](p_[0]) (x) f_[1] p_[1], on all basis f."""
    ca = e.base
    field = ca.field
    module = e.induced.module
    dh = ca.hopf.dim
    rho = module.coaction
    hmul = ca.hopf.algebra
    for i in range(e.dim):
        lhs = rho @ e.basis[i]
        rhs = Matrix.zeros(field, module.dim * dh, module.dim)
        rho_f = e.ca.coaction.apply(basis_vec(field, e.dim, i))
        for flat, c in enumerate(rho_f):
            if c != field.zero:
                k, j = flat // dh, flat % dh
                term = e.basis[k].kron(hmul.lmul(basis_vec(field, dh, j))) @ rho
                rhs = rhs + term.scale(c)
        if lhs != rhs:
            return False, i
    return True, None


class CoinvariantIdentification:
    """F = E^{co H} together with the isomorphism onto End_B(M)."""

    def __init__(self, e, embedding, restrict, extend, endb_basis):
        self.e = e
        self.embedding = embedding      # SubalgebraEmbedding F -> E
        self.restrict = restrict        # F-coords -> End_B(M) matrix
        self.extend = extend            # End_B(M) matrix -> F-coords
        self.endb_basis = endb_basis


def build_F(ca, m, e):
    """F = coinvariants(E) with the mutually inverse maps to End_B(M)."""
    field = ca.field
    emb = e.ca.coinvariants()
    eta, _, bij = adjunction_unit(m, ca, e.induced)
    if not bij:
        raise InternalInvariant("eta_M not bijective; extension not Galois")
    endb_basis = intertwiners(field, m.dim, m.dim, m.actions, m.actions)
    eta_fac = Factorization(eta)

    def restrict(coords_f):
        phi = e.to_matrix(emb.inclusion.apply(coords_f))
        return eta_fac.solve_matrix(phi @ eta)   # g with eta g = phi eta

    def extend(g_mat):
        return emb.from_ambient(e.to_coords(e.induced.induced_map(g_mat)))

    return CoinvariantIdentification(e, emb, restrict, extend, endb_basis)


def verify_F_iso(ca, m, ident):
    """Both composites identity + multiplicativity, on basis elements."""
    field = ca.field
    emb = ident.embedding
    for k in range(emb.dim):
        coords = basis_vec(field, emb.dim, k)
        g = ident.restrict(coords)
        if ident.extend(g) != coords:
            return False
    for g in ident.endb_basis:
        if ident.restrict(ident.extend(g)) != g:
            return False
    # algebra map: restrict(x y) = restrict(x) restrict(y)
    for i in range(emb.dim):
        for j in range(emb.dim):
            prod = emb.algebra.basis_product(i, j)
            lhs = ident.restrict(prod)
            rhs = ident.restrict(basis_vec(field, emb.dim, i)) \
                @ ident.restrict(basis_vec(field, emb.dim, j))
            if lhs != rhs:
                return False
    return True
