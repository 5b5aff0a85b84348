"""Theorem 3.1: the category D_M with objects M (x) H and M (x)_B A, the
delta/beta/alpha maps of Lemmas 3.2-3.8, and the full verification of the
commutative triangle C'_E -> C_E -> D_M with the functoriality identities
(3.9.1) and (21a)-(22).

Composition-of-arrows is convolution in the order alpha_kj(g) o alpha_ji(f)
= alpha_ki(g * f); this is the orientation the proofs of (21a)-(22) use
(the statement displays swap the factors in places).

Both objects hold their B-action and coaction as tables (hopf module doc),
so D_M membership and hom spaces are colinearity checks.  The verifier
decides membership with the coordinate solves it makes anyway: an arrow
lies in D_M(i, j), or a map H -> A in C(i, j), exactly when its column
in the solve against that hom space's kernel basis is ok.  The B-actions,
I_M (x) Delta and the maps of Lemmas 3.3-3.8 are summed from M's action
table, comul_table, the quotient's index maps, mul_table, rho's table and
the columns of eta, of E's basis and of gamma's representative: no basis
vector is applied and no Kronecker product is formed.
"""

import random

from . import convcat
from .comodule import adjunction_unit, tensor_over_B
from .endomorphism import build_E
from .galois import NotGalois, canonical_map, translation_map
from .hopf import (ValidationReport, _agree, colinear_witness, comul_on,
                   convolution_terms)
from .linalg import (Factorization, NoSolution, _columns, _leg_columns,
                     _nonzero, _terms, intertwiners, summed, summed_columns)


class TheoremContext:
    """Everything Theorem 3.1 needs for one (A, M) instance."""

    def __init__(self, ca, m, corrupt_gamma=False):
        self.ca = ca
        self.m = m
        self.field = ca.field
        self.b = ca.coinvariants()
        self.induced = tensor_over_B(m, ca)
        self.quot = self.induced.quotient
        self.e = build_E(ca, self.induced)
        self.eta, _, eta_bij = adjunction_unit(m, ca, self.induced)
        if not eta_bij:
            raise NotGalois("eta_M is not bijective")
        can = canonical_map(ca)
        if not can.galois:
            raise NotGalois("canonical map not invertible")
        self.tmap = translation_map(ca, can)
        # When corrupt_gamma is set, gamma_12^{-1} "forgets" Sbar — the
        # deliberate negative control of identity (12b).
        self.corrupt_gamma = corrupt_gamma
        dh, dm, da = ca.hopf.dim, m.dim, ca.algebra.dim
        # the tables the D_M maps are summed from
        self.eta_cols = _columns(self.eta)
        self._eta = Factorization(self.field, self.eta_cols)
        self.e_cols = [_columns(b) for b in self.e.basis]
        self.rep = _leg_columns(self.tmap.representative, da)  # h -> (l, r, x)
        # object 1: M (x) H, (e_r (x) e_h) . b_k = (e_r . b_k) (x) e_h
        self.x1_dim = dm * dh
        self.x1_actions = [[(r * dh + h, k, x) for r, k, x in terms]
                           for terms in m.action_table for h in range(dh)]
        self.x1_coaction = comul_on(ca.hopf.coalgebra, dm)
        # object 2: M (x)_B A in quotient coordinates, e_free[q] . b_k
        self.x2_dim = self.quot.dim
        b_cols = _columns(self.b.inclusion)
        self.x2_actions = [[(*key, x) for key, x in _terms(self.field, _times(
            self, ((j, a, k, x) for k, col in enumerate(b_cols)
                   for a, x in col)))] for j in self.quot.free]
        self.x2_coaction = self.induced.module.coaction_table
        self._dm_cache = {}

    # -- evaluation helpers ------------------------------------------------

    def eta_inv(self, cols):
        """The columns of X with eta X = Y, for the raw terms cols of the
        columns of Y, from one solve; raises NoSolution."""
        x, ok = self._eta.solve_columns(cols)
        if not all(ok):
            raise NoSolution()
        return x

    def object_data(self, i):
        if i == 1:
            return self.x1_dim, self.x1_actions, self.x1_coaction
        return self.x2_dim, self.x2_actions, self.x2_coaction

    # -- D_M hom spaces ----------------------------------------------------

    def dm_hom_space(self, i, j):
        """Basis of Hom_B^H(alpha(i), alpha(j)), by direct linear solve."""
        if (i, j) in self._dm_cache:
            return self._dm_cache[(i, j)]
        dx, x_actions, x_co = self.object_data(i)
        dy, y_actions, y_co = self.object_data(j)
        basis = intertwiners(self.field, dx, dy,
                             (x_actions, y_actions, self.b.dim),
                             (x_co, y_co, self.ca.hopf.dim))
        self._dm_cache[(i, j)] = basis
        return basis

    def dm_membership(self, mat, i, j):
        _, x_actions, x_co = self.object_data(i)
        _, y_actions, y_co = self.object_data(j)
        return (colinear_witness(self.field, mat, x_actions, y_actions) is None
                and colinear_witness(self.field, mat, x_co, y_co) is None)

    def dm_coords(self, mats, i, j):
        """(x_cols, ok): the coordinates of the arrows mats in
        dm_hom_space(i, j), one sparse column each, from one solve.  The
        hom space is the kernel of the constraints dm_membership checks, so
        ok[n] says whether mats[n] lies in D_M(i, j)."""
        basis = self.dm_hom_space(i, j)
        return Factorization(self.field, [_nonzero(b.data) for b in basis]) \
            .solve_columns([_nonzero(m.data) for m in mats])


# -- Lemma 3.2 -------------------------------------------------------------


def _tensor_h(ctx, mat, i):
    """(mat (x) I_H) rho_i for the coaction rho_i of object i, summed from
    the columns of mat and the table of rho_i."""
    dh, cols, co = ctx.ca.hopf.dim, _columns(mat), ctx.object_data(i)[2]
    return summed(ctx.field, mat.rows * dh, len(co), (
        ((r * dh + h) * len(co) + q, c * z) for q, terms in enumerate(co)
        for q0, h, c in terms for r, z in cols[q0]))


def delta1(ctx, phi):
    """Hom_B(M (x)_B A, M) -> Hom_B^H(M (x)_B A, M (x) H)."""
    return _tensor_h(ctx, phi, 2)


def delta2(ctx, theta_small):
    """Hom_B(M (x) H, M) -> End_B^H(M (x) H)."""
    return _tensor_h(ctx, theta_small, 1)


def delta_bar(ctx, mat):
    """delta1_bar and delta2_bar: (I_M (x) eps) mat, for mat with rows
    M (x) H, summed from the columns of mat and the counit."""
    dh, eps = ctx.ca.hopf.dim, ctx.ca.hopf.coalgebra.counit.data
    return summed_columns(ctx.field, mat.rows // dh, [
        [(r // dh, eps[r % dh] * x) for r, x in col] for col in _columns(mat)])


# -- the D_M maps, summed from the tables -----------------------------------


def _vec(cols, terms):
    """The raw terms (row * cols + col, x) of the row-major entries of the
    matrix with cols columns and the raw terms ((row, col), x)."""
    return [(r * cols + c, x) for (r, c), x in terms]


def _times(ctx, terms):
    """The raw terms ((q, k), x) of the class of Sum x (e_j . e_a) over the
    raw terms (j, a, k, x), j = m * dA + a' an ambient index: the action
    read from mul_table, the class from the projection's columns."""
    da, mul, cols = ctx.ca.algebra.dim, ctx.ca.algebra.mul_table, \
        ctx.quot.columns
    return (((q, k), x * c * y) for j, a, k, x in terms
            for r, c in mul[j % da * da + a] for q, y in cols[j - j % da + r])


def _ev(ctx, hom):
    """ev(h, p): the raw terms (r, x) of column p of the endomorphism at h
    of the map hom: H -> E, whose column h holds E-coordinates."""
    cols, e_cols = _columns(hom), ctx.e_cols
    return lambda h, p: ((r, x * z) for i, x in cols[h]
                         for r, z in e_cols[i][p])


def _on_eta(ctx, hom):
    """The raw terms of column mi * dH + h: the endomorphism at h of hom
    applied to eta(m_i), the class of m_i (x) 1."""
    ev, dh = _ev(ctx, hom), ctx.ca.hopf.dim
    return [[(r, y * z) for p, y in col for r, z in ev(h, p)]
            for col in ctx.eta_cols for h in range(dh)]


def _translated(ctx, h):
    """The raw terms (q, p, s, x) of Sum_i [m (x) l_i(h)] (x) r_i(h) a at
    the section's e_m (x) e_a = e_free[q], as x e_p (x) e_s with p a
    quotient index and s an index of A."""
    da, mul, cols = ctx.ca.algebra.dim, ctx.ca.algebra.mul_table, \
        ctx.quot.columns
    return ((q, p, s, c * y * w) for q, j in enumerate(ctx.quot.free)
            for l, r, c in ctx.rep[h] for p, y in cols[j - j % da + l]
            for s, w in mul[r * da + j % da])


# -- Lemma 3.3 / Corollary 3.4 ---------------------------------------------


def beta11_tilde(ctx, v_prime_mat):
    return summed_columns(ctx.field, ctx.m.dim,
                          ctx.eta_inv(_on_eta(ctx, v_prime_mat)))


def beta11_hat(ctx, theta_small):
    """Inverse direction: Hom_B(M (x) H, M) -> Hom(H, F) (coords in E):
    theta(- (x) h) (x)_B A for each h."""
    dh, da, cols = ctx.ca.hopf.dim, ctx.ca.algebra.dim, _columns(theta_small)
    free = ctx.quot.free
    return ctx.e.coords_matrix([_vec(len(free), ctx.quot.classes(
        (r * da + j % da, q, x) for q, j in enumerate(free)
        for r, x in cols[j // da * dh + h])) for h in range(dh)])


def beta11(ctx, v_prime_mat):
    return delta2(ctx, beta11_tilde(ctx, v_prime_mat))


# -- Lemma 3.5 -------------------------------------------------------------


def beta21(ctx, t_prime_mat):
    return summed_columns(ctx.field, ctx.quot.dim, _on_eta(ctx, t_prime_mat))


def beta21_bar(ctx, psi):
    """psi(m (x) h) . a at the section's e_m (x) e_a, for each h."""
    dh, da, free = ctx.ca.hopf.dim, ctx.ca.algebra.dim, ctx.quot.free
    cols = _columns(psi)
    return ctx.e.coords_matrix([_vec(len(free), _times(ctx, (
        (free[q1], j % da, q, x) for q, j in enumerate(free)
        for q1, x in cols[j // da * dh + h]))) for h in range(dh)])


# -- Lemma 3.6 / Corollary 3.7 ---------------------------------------------


def beta12_tilde(ctx, u_prime_mat):
    """eta^{-1} of Sum u'(a_[1])(m (x) a_[0]) at each ambient m (x) a, then
    the section's columns."""
    da, rho, cols = ctx.ca.algebra.dim, ctx.ca.coaction_table, \
        ctx.quot.columns
    ev, n = _ev(ctx, u_prime_mat), ctx.m.dim * da
    amb = [[(r, c * y * z) for a0, h, c in rho[j % da]
            for p, y in cols[j - j % da + a0] for r, z in ev(h, p)]
           for j in range(n)]
    # only the full sums are coinvariant; invert eta after summing
    x = ctx.eta_inv(amb)
    return summed_columns(ctx.field, ctx.m.dim, [x[j] for j in ctx.quot.free])


def alpha12_hat(ctx, phi):
    """Eq. (AA): (alpha^_12(phi)(h))(m (x) a) = Sum phi(m (x) l_i(h)) (x) r_i(h) a."""
    dh, da, cols = ctx.ca.hopf.dim, ctx.ca.algebra.dim, _columns(phi)
    return ctx.e.coords_matrix([_vec(ctx.quot.dim, ctx.quot.classes(
        (m * da + s, q, x * z) for q, p, s, x in _translated(ctx, h)
        for m, z in cols[p])) for h in range(dh)])


def beta12(ctx, u_prime_mat):
    return delta1(ctx, beta12_tilde(ctx, u_prime_mat))


# -- Lemma 3.8 -------------------------------------------------------------


def beta22(ctx, w_prime_mat):
    ev, n = _ev(ctx, w_prime_mat), ctx.quot.dim
    return summed(ctx.field, n, n, _vec(n, (
        ((r, q), c * z) for q, terms in enumerate(ctx.x2_coaction)
        for qi, h, c in terms for r, z in ev(h, qi))))


def alpha22_bar(ctx, kappa):
    """Sum kappa(m (x) l_i(h)) . (r_i(h) a) at the section's e_m (x) e_a."""
    dh, free, cols = ctx.ca.hopf.dim, ctx.quot.free, _columns(kappa)
    return ctx.e.coords_matrix([_vec(len(free), _times(ctx, (
        (free[q1], s, q, x * z) for q, p, s, x in _translated(ctx, h)
        for q1, z in cols[p]))) for h in range(dh)])


# -- the alpha functor ------------------------------------------------------


def _gamma12_inv(ctx, mat):
    if ctx.corrupt_gamma:
        return mat          # negative control: forgets Sbar
    return mat @ ctx.ca.hopf.antipode_inv


def alpha(ctx, cls, mat):
    """alpha_ji on C_E(i, j), as a matrix between the D_M objects."""
    if cls == (1, 1):
        return beta11(ctx, mat @ ctx.ca.hopf.antipode_inv)
    if cls == (1, 2):
        return beta21(ctx, mat @ ctx.ca.hopf.antipode_inv)
    if cls == (2, 1):
        return beta12(ctx, _gamma12_inv(ctx, mat))
    if cls == (2, 2):
        return beta22(ctx, mat @ ctx.ca.hopf.antipode_inv)
    raise ValueError(cls)


def beta(ctx, cls, mat):
    """beta_ji on C'_E(i, j)."""
    if cls == (1, 1):
        return beta11(ctx, mat)
    if cls == (1, 2):
        return beta21(ctx, mat)
    if cls == (2, 1):
        return beta12(ctx, mat)
    if cls == (2, 2):
        return beta22(ctx, mat)
    raise ValueError(cls)


def alpha_inverse(ctx, cls, dm_mat):
    """The inverse map D_M hom -> C_E(i, j)."""
    if cls == (1, 1):
        return beta11_hat(ctx, delta_bar(ctx, dm_mat)) @ ctx.ca.hopf.antipode
    if cls == (1, 2):
        return beta21_bar(ctx, dm_mat) @ ctx.ca.hopf.antipode
    if cls == (2, 1):
        return alpha12_hat(ctx, delta_bar(ctx, dm_mat))
    if cls == (2, 2):
        return alpha22_bar(ctx, dm_mat)
    raise ValueError(cls)


class LinearAlpha:
    """alpha_ji kept on the C_E(i, j) basis and extended by linearity.

    Each C(cls) basis is factored once, for every class, so a map's
    coordinate column both decides its membership in C(cls) and sums its
    image.  A class enters through keep() once alpha of every basis
    element is known and lies in D_M; any other class (a failed
    membership, as under corrupt_gamma) has its basis images evaluated
    directly, once.
    """

    def __init__(self, ctx, c_spaces):
        self.ctx = ctx
        self.c_spaces = c_spaces
        self.images = {}
        self._coords = {cls: Factorization(ctx.field, [
            _nonzero(el.matrix.data) for el in space.elements])
            for cls, space in c_spaces.items()}
        self._cols = {}             # cls -> _columns(alpha(b_k)) per k

    def keep(self, cls, images):
        self.images[cls] = images
        self._cols[cls] = [_columns(img) for img in images]

    def at(self, cls, n):
        """alpha of the n-th C(cls) basis element."""
        if cls in self.images:
            return self.images[cls][n]
        return alpha(self.ctx, cls, self.c_spaces[cls].elements[n].matrix)

    def columns(self, cls):
        """The _columns of alpha(b_k) for each C(cls) basis element b_k:
        the kept images', else alpha evaluated directly, with None where it
        raises NoSolution."""
        if cls not in self._cols:
            cols = self._cols[cls] = []
            for n in range(self.c_spaces[cls].dim):
                try:
                    cols.append(_columns(self.at(cls, n)))
                except NoSolution:
                    cols.append(None)
        return self._cols[cls]

    def coords(self, cls, maps):
        """(coords, ok) for the maps H -> A given by their raw terms
        (r * dim H + c, x): their coordinates in the C(cls) basis, one
        sparse column each, from one solve, and whether each lies in
        C(cls) at all (the basis spans the kernel of the constraint that
        convcat.membership checks)."""
        return self._coords[cls].solve_columns(maps)

    def terms(self, cls, maps):
        """alpha(ctx, cls, map) for each map, given as in coords, as the raw
        terms (r * n + c, x) of the matrix with n columns: for map =
        Sum_k c_k b_k, alpha(map) = Sum_k c_k alpha(b_k).  None for a map
        outside C(cls), or whose combination uses an image that raised
        NoSolution."""
        coords, ok = self.coords(cls, maps)
        images, n = self.columns(cls), self.ctx.object_data(cls[0])[0]
        return [[(r * n + j, c * x) for k, c in col
                 for j, terms in enumerate(images[k]) for r, x in terms]
                if good and all(images[k] is not None for k, _ in col)
                else None for col, good in zip(coords, ok)]


def _composed(g_cols, f_cols):
    """The raw terms (r * n + c, x) of the n-column matrix g o f, for g and
    f given by their _columns."""
    n = len(f_cols)
    return ((r * n + c, y * x) for c, col in enumerate(f_cols)
            for m, x in col for r, y in g_cols[m])


# -- full verification ------------------------------------------------------


def verify_theorem31(ca, m, corrupt_gamma=False, pair_cap=8, sample=64,
                     seed=0):
    """Dimension equalities, bijectivity, alpha o gamma = beta, and all
    eight composition patterns of (3.9.1)/(21a)-(22).  Each pattern
    reports its own first failing pair.

    Membership is the ok flag of a coordinate solve: an alpha image lies in
    D_M(i, j) when its column against dm_hom_space(i, j) solves, and a map
    H -> A (gamma(f') = f' o S, or a composite g * f) lies in C(i, j) when
    its column against the C(i, j) basis solves (LinearAlpha.terms)."""
    ctx = TheoremContext(ca, m, corrupt_gamma=corrupt_gamma)
    e_ca, f = ctx.e.ca, ctx.field
    report = ValidationReport()
    c_spaces, cp_spaces, d_spaces = {}, {}, {}
    for cls in convcat.CLASSES:
        c_spaces[cls] = convcat.hom_space(e_ca, cls, "C")
        cp_spaces[cls] = convcat.hom_space(e_ca, cls, "Cprime")
        d_spaces[cls] = ctx.dm_hom_space(cls[0], cls[1])
        report.details[f"dim C{cls}"] = c_spaces[cls].dim
        report.details[f"dim D{cls}"] = len(d_spaces[cls])
        if c_spaces[cls].dim != len(d_spaces[cls]):
            report.fail("dimension-equality", cls)

    # bijectivity of alpha_ji and membership of images; alpha is evaluated
    # once per basis element and kept for the checks below
    lin = LinearAlpha(ctx, c_spaces)
    for cls in convcat.CLASSES:
        try:
            imgs = [alpha(ctx, cls, el.matrix)
                    for el in c_spaces[cls].elements]
        except NoSolution:
            report.fail("alpha-membership", cls)
            continue
        coords, ok = ctx.dm_coords(imgs, *cls)
        if not all(ok):
            report.fail("alpha-membership", cls)
            continue
        lin.keep(cls, imgs)
        if not summed_columns(f, len(d_spaces[cls]), coords).is_invertible():
            report.fail("alpha-bijective", cls)

    # alpha o gamma = beta on every C' basis element; gamma(f') = f' o S
    # is in C(cls) when its coordinate column solves
    s = e_ca.hopf.antipode
    for cls in convcat.CLASSES:
        els = cp_spaces[cls].elements
        lhs = lin.terms(cls, [_nonzero((el.matrix @ s).data) for el in els])
        for el, terms in zip(els, lhs):
            try:
                equal = terms is not None and _agree(
                    f, terms, _nonzero(beta(ctx, cls, el.matrix).data))
            except NoSolution:
                equal = False
            if not equal:
                report.fail("alpha-gamma-beta", cls)
                break

    # round trips alpha_inverse o alpha = id on hom bases
    for cls in convcat.CLASSES:
        for n, el in enumerate(c_spaces[cls].elements):
            try:
                back = alpha_inverse(ctx, cls, lin.at(cls, n))
                equal = back == el.matrix
            except NoSolution:
                equal = False
            if not equal:
                report.fail("alpha-round-trip", cls)
                break

    # the eight composition patterns (3.9.1) incl. (21a)-(22): g * f summed
    # raw from the tables and the basis columns, read once; alpha(g * f) of
    # all pairs from one solve, compared raw with alpha(g) o alpha(f)
    cols = {cls: [_columns(el.matrix) for el in c_spaces[cls].elements]
            for cls in convcat.CLASSES}
    alg, co, dh = e_ca.algebra, e_ca.hopf.coalgebra, e_ca.hopf.dim
    rng = random.Random(seed)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                label = PATTERN_LABELS[(i, j, k)]
                fs = c_spaces[(i, j)].elements
                gs = c_spaces[(j, k)].elements
                pairs = [(fi, gi) for fi in range(len(fs))
                         for gi in range(len(gs))]
                if max(len(fs), len(gs)) > pair_cap and len(pairs) > sample:
                    pairs = rng.sample(pairs, sample)
                lhs = lin.terms((i, k), [[
                    (r * dh + c, x) for c, col in enumerate(convolution_terms(
                        alg, co, cols[(j, k)][gi], cols[(i, j)][fi]))
                    for r, x in col] for fi, gi in pairs])
                g_imgs, f_imgs = lin.columns((j, k)), lin.columns((i, j))
                for (fi, gi), terms in zip(pairs, lhs):
                    g_img, f_img = g_imgs[gi], f_imgs[fi]
                    if (terms is None or g_img is None or f_img is None
                            or not _agree(f, terms, _composed(g_img, f_img))):
                        report.fail(label, (i, j, k, fi, gi))
                        break
    return report


# arrows f: i -> j, g: j -> k; names follow the displayed identity list
PATTERN_LABELS = {
    (1, 1, 1): "3.9.1-111",
    (1, 1, 2): "21a",       # psi o theta
    (1, 2, 2): "21b",       # kappa o psi
    (1, 2, 1): "11",        # phi o psi
    (2, 2, 1): "12a",       # phi o kappa
    (2, 1, 1): "12b",       # theta o phi
    (2, 1, 2): "22",        # psi o phi
    (2, 2, 2): "3.9.1-222",
}
