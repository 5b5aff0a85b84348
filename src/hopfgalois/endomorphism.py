"""Rational endomorphisms: Hom_A(P,Q), the Eq. (14) coaction, the comodule
algebra E = END_A(M (x)_B A) and the identification F = E^{co H} = End_B(M).

At finite dimension every A-linear endomorphism is rational; the coaction
solver below still verifies rationality instance by instance instead of
assuming it.  E's basis is held as the _columns of its endomorphisms, read
off the kernel's terms; E's products and coaction are summed from them, the
columns of rho and of S and mul_table, and solved against the one
factorization of the basis, whose columns are their vecs.
"""

from .comodule import ComoduleAlgebraData, InternalInvariant, adjunction_unit
from .hopf import StructureConstantAlgebra, _agree, first_failure
from .linalg import (Factorization, _columns, _combination, _composed, _flat,
                     _nonzero, basis_vec, intertwiners, summed_columns)


class NotRational(RuntimeError):
    pass


def end_A(ca, module):
    """Basis of A-linear endomorphisms of a relative Hopf module, each as
    its _columns."""
    table = module.action_table
    return intertwiners(ca.field, module.dim, module.dim,
                        (table, table, ca.algebra.dim))


def rational_coaction(ca, module, basis, coords):
    """The coaction table of span(basis): entry i lists (k, h, c) with
    rho(basis_i) = Sum c basis_k (x) e_h.

    rho(f)(e_p) = Sum f(p_[0])_[0] (x) f(p_[0])_[1] S(p_[1]) is summed from
    the tables of rho, f, S and mul_table, for basis given by the _columns
    of its maps; its slice at each e_h is solved against coords, the basis
    factored.  Raises NotRational if a slice is outside span(basis).
    """
    dh, dq, n = ca.hopf.dim, module.dim, len(basis)
    hmul, rho = ca.hopf.algebra.mul_table, module.coaction_table
    s = _columns(ca.hopf.antipode)
    hs = [[(t, y * m) for r, y in s[h0] for t, m in hmul[h1 * dh + r]]
          for h1 in range(dh) for h0 in range(dh)]     # e_h1 S(e_h0)
    cols = []                               # raw; row (r0, p), column (i, h)
    for b_cols in basis:
        out = [[] for _ in range(dh)]
        for p in range(dq):
            for p0, h0, x in rho[p]:
                for r, z in b_cols[p0]:
                    for r0, h1, y in rho[r]:
                        for t, m in hs[h1 * dh + h0]:
                            out[t].append((r0 * dq + p, x * z * y * m))
        cols += out
    x, ok = coords.solve_columns(cols)
    if not all(ok):
        raise NotRational("rho(f) is not in End_A (x) H")
    return [sorted((k, h, c) for h in range(dh) for k, c in x[i * dh + h])
            for i in range(n)]


class EndComoduleAlgebra:
    """E = END_A(M (x)_B A) realized on a concrete endomorphism basis."""

    def __init__(self, ca, induced, basis, comodule_algebra, coords):
        self.base = ca                  # the underlying comodule algebra A
        self.induced = induced          # the module M (x)_B A
        self.basis = basis              # the _columns of each endomorphism
        self.ca = comodule_algebra      # E as a ComoduleAlgebraData over H
        self._coords = coords           # Factorization of the basis

    @property
    def dim(self):
        return len(self.basis)

    def coords_columns(self, cols):
        """E-coordinates, in the layout of _columns, of the endomorphisms
        with the raw row-major terms cols."""
        x, ok = self._coords.solve_columns(cols)
        if not all(ok):
            raise InternalInvariant("matrix not A-linear")
        return x


def build_E(ca, induced):
    """Assemble E with multiplication = composition and the Eq. (14) coaction."""
    field = ca.field
    module = induced.module
    dq = module.dim
    basis = end_A(ca, module)
    n = len(basis)
    coords = Factorization(field, [_flat(b) for b in basis])
    # the identity, then vec(b_i b_j) in column i*n + j, raw: mul is E's
    # mul_table as solved
    (unit, *mul), ok = coords.solve_columns(
        [[(v * dq + v, field.one) for v in range(dq)]]
        + [[(u * dq + v, y * z) for v, terms in enumerate(cj)
            for w, z in terms for u, y in ci[w]]
           for ci in basis for cj in basis])
    if not all(ok):
        raise InternalInvariant("End_A not closed under composition")
    alg = StructureConstantAlgebra(field, n, mul,
                                   summed_columns(field, n, [unit]).data,
                                   [f"f{i}" for i in range(n)])
    e_ca = ComoduleAlgebraData(ca.hopf, alg,
                               rational_coaction(ca, module, basis, coords))
    return EndComoduleAlgebra(ca, induced, basis, e_ca, coords)


def verify_eq14(e):
    """Eq. (14): rho(f(p)) = f_[0](p_[0]) (x) f_[1] p_[1], on all basis f
    and basis p, from the tables of rho, of E's coaction and of H's
    product.  Returns (True, None), or (False, i) for the first failing f_i."""
    ca, module = e.base, e.induced.module
    dh, hmul = ca.hopf.dim, ca.hopf.algebra.mul_table
    rho, e_rho, cols = module.coaction_table, e.ca.coaction_table, e.basis
    witness = first_failure(lambda i, p: _agree(
        ca.field, (((r0, h), z * y) for r, z in cols[i][p]
                   for r0, h, y in rho[r]),
        (((r, t), c * x * z * m) for k, j, c in e_rho[i]
         for p0, h, x in rho[p] for r, z in cols[k][p0]
         for t, m in hmul[j * dh + h])), e.dim, module.dim)
    return (True, None) if witness is None else (False, witness[0])


class CoinvariantIdentification:
    """F = E^{co H} together with the isomorphism onto End_B(M)."""

    def __init__(self, e, embedding, restrict, extend, endb_basis):
        self.e = e
        self.embedding = embedding      # SubalgebraEmbedding F -> E
        self.restrict = restrict        # F-coords -> _columns in End_B(M)
        self.extend = extend            # _columns in End_B(M) -> F-coords
        self.endb_basis = endb_basis    # the _columns of each basis map


def build_F(ca, m, e):
    """F = coinvariants(E) with the mutually inverse maps to End_B(M)."""
    field = ca.field
    emb = e.ca.coinvariants()
    eta, _, bij = adjunction_unit(m, ca, e.induced)
    if not bij:
        raise InternalInvariant("eta_M not bijective; extension not Galois")
    endb_basis = intertwiners(field, m.dim, m.dim, (
        m.action_table, m.action_table, m.base.dim))
    eta_cols = _columns(eta)
    eta_fac = Factorization(field, eta_cols)

    def restrict(coords_f):
        phi = _combination(e.basis, _nonzero(emb.inclusion.apply(coords_f)),
                           e.induced.module.dim)
        g, ok = eta_fac.solve_columns(_composed(phi, eta_cols))
        if not all(ok):                                 # eta g = phi eta
            raise InternalInvariant("phi eta leaves the image of eta")
        return g

    def extend(g_cols):
        x, bad = emb.coords(e.coords_columns(
            [_nonzero(e.induced.induced_map(g_cols).data)]))
        if bad is not None:
            raise InternalInvariant("vector not in the subalgebra")
        return summed_columns(field, emb.dim, x).data

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
            if not _agree(field, _flat(ident.restrict(prod)), _flat(_composed(
                    ident.restrict(basis_vec(field, emb.dim, i)),
                    ident.restrict(basis_vec(field, emb.dim, j))))):
                return False
    return True
