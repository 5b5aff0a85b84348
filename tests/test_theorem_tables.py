"""Differential tests for the Theorem 3.1 layer read from the sparse tables.

E's multiplication and its Eq. (14) coaction, the colinearity constraints of
C_A and C'_A, the coaction of M (x) H, the D_M membership test, the delta
maps of Lemma 3.2, the eight D_M maps of Lemmas 3.3-3.8 and the B-actions
on M (x)_B A are computed from mul_table, comul_table, the coaction tables,
the projection's columns and the nonzero columns of S and Sbar, and every
kernel from sparse_kernel's elimination of sparse rows.  Each must equal
the former dense formula (Kronecker products, basis vectors applied one at
a time, the full RREF), which lives on here only, as the oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfgalois import cleft, convcat, maintheorem
from hopfgalois.comodule import (BModule, InternalInvariant, regular_bmodule,
                                 tensor_over_B)
from hopfgalois.endomorphism import NotRational, build_E, rational_coaction
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.galois import NotGalois, canonical_map, canonical_map_prime
from hopfgalois.hopf import ValidationReport
from hopfgalois.maintheorem import (TheoremContext, delta1, delta2,
                                    delta_bar)
from hopfgalois.linalg import (Factorization, Matrix, NoSolution, _columns,
                               _flat, _leg_columns, _nonzero, _terms,
                               basis_vec, reduced, sparse_kernel)

from conftest import (action_table, dense, dense_actions, dense_can,
                      dense_comul, dense_lin_comb, dense_mul, dense_rho,
                      dense_rows, endomorphism, kernel_of, kron_vec,
                      nonzero_rows, project, scatter_legs)
from test_linalg import dense_kernel, dense_solve
from test_quotient import (F7, RUNGS, dense_section, fixture_cases,
                           relabelled)

VARIANTS = [(cls, variant) for cls in convcat.CLASSES
            for variant in ("C", "Cprime")]


# -- the oracles -------------------------------------------------------------


def dense_rational_coaction_matrix(ca, module, f_mat):
    """rho(f)(p) = f(p_[0])_[0] (x) f(p_[0])_[1] S(p_[1]) by Kronecker
    products."""
    field, dh = ca.field, ca.hopf.dim
    rho = dense_rho(field, module.coaction_table, dh)
    return (Matrix.identity(field, module.dim).kron(
        dense_mul(ca.hopf.algebra)) @ rho.kron(ca.hopf.antipode)
            @ f_mat.kron(Matrix.identity(field, dh)) @ rho)


def dense_rational_coaction(ca, module, basis):
    """The former rational_coaction; raises NoSolution where it raised
    NotRational."""
    field, dh = ca.field, ca.hopf.dim
    rows = module.dim * dh * module.dim
    basis = [dense(field, module.dim, b) for b in basis]
    units = [Matrix(field, dh, 1, basis_vec(field, dh, j)) for j in range(dh)]
    op = Matrix.from_cols(field, [b.kron(e).data for b in basis for e in units],
                          nrows=rows)
    return dense_solve(op, Matrix.from_cols(
        field, [dense_rational_coaction_matrix(ca, module, b).data
                for b in basis], nrows=rows))


def dense_e_mul(field, basis, dq):
    """E's structure constants from the products b_i b_j, solved."""
    basis = [dense(field, dq, b) for b in basis]
    coords = Matrix.from_cols(field, [b.data for b in basis], nrows=dq * dq)
    return dense_solve(coords, Matrix.from_cols(
        field, [(bi @ bj).data for bi in basis for bj in basis],
        nrows=dq * dq))


def dense_constraint(ca, cls, variant):
    """The former convcat._constraint: (G, D) with rho o f = (f (x) G) D."""
    field, dh = ca.field, ca.hopf.dim
    comul = dense_comul(ca.hopf.coalgebra)
    idh = Matrix.identity(field, dh)
    s, sbar = ca.hopf.antipode, ca.hopf.antipode_inv
    hmul = dense_mul(ca.hopf.algebra)
    if cls == (1, 1):
        return Matrix.from_cols(field, [ca.hopf.algebra.unit]), idh
    if (cls, variant) in (((2, 1), "C"), ((1, 2), "Cprime")):
        return idh, comul
    if (cls, variant) == ((1, 2), "C"):
        return s, scatter_legs(comul, (dh, dh), (1, 0))
    if (cls, variant) == ((2, 1), "Cprime"):
        return sbar, scatter_legs(comul, (dh, dh), (1, 0))
    comul3 = idh.kron(comul) @ comul
    if variant == "C":
        return (hmul @ s.kron(idh),
                scatter_legs(comul3, (dh, dh, dh), (1, 0, 2)))
    return (hmul @ idh.kron(sbar),
            scatter_legs(comul3, (dh, dh, dh), (1, 2, 0)))


def dense_defect(ca, f_mat, cls, variant, gd=None):
    """The former convcat.constraint_defect; gd is dense_constraint's value
    when it is already known."""
    g, d = gd or dense_constraint(ca, cls, variant)
    rho = dense_rho(ca.field, ca.coaction_table, ca.hopf.dim)
    return rho @ f_mat - f_mat.kron(g) @ d


def dense_x1_coaction(ctx):
    return Matrix.identity(ctx.field, ctx.m.dim).kron(
        dense_comul(ctx.ca.hopf.coalgebra))


def dense_object(ctx, i):
    """object_data with dense actions and coactions: the Kronecker coaction
    of M (x) H."""
    f, db = ctx.field, ctx.b.dim
    if i == 1:
        return (ctx.x1_dim, dense_actions(f, ctx.x1_actions, db),
                dense_x1_coaction(ctx))
    dq, actions, co = ctx.object_data(2)
    return (dq, dense_actions(f, actions, db),
            dense_rho(f, co, ctx.ca.hopf.dim))


def dense_dm_membership(ctx, mat, i, j):
    """The former TheoremContext.dm_membership."""
    _, x_actions, x_co = dense_object(ctx, i)
    _, y_actions, y_co = dense_object(ctx, j)
    for xa, ya in zip(x_actions, y_actions):
        if not (mat @ xa - ya @ mat).is_zero():
            return False
    idh = Matrix.identity(ctx.field, ctx.ca.hopf.dim)
    return (y_co @ mat - mat.kron(idh) @ x_co).is_zero()


def dense_delta(ctx, mat, i):
    """delta1 (i = 2) and delta2 (i = 1): (mat (x) I_H) rho_i."""
    idh = Matrix.identity(ctx.field, ctx.ca.hopf.dim)
    return mat.kron(idh) @ dense_object(ctx, i)[2]


def dense_delta_bar(ctx, mat):
    return Matrix.identity(ctx.field, ctx.m.dim).kron(
        ctx.ca.hopf.coalgebra.counit) @ mat


def e_coords(ctx, endos):
    """EndComoduleAlgebra.coords_matrix on dense matrices, by the dense
    solve: the E-coordinates of the endomorphisms endos, one column each;
    raises InternalInvariant outside E."""
    f, dq = ctx.field, ctx.quot.dim
    try:
        return dense_solve(Matrix.from_cols(f, [dense(f, dq, b).data
                                                for b in ctx.e.basis]),
                           Matrix.from_cols(f, [m.data for m in endos]))
    except NoSolution as exc:
        raise InternalInvariant("matrix not A-linear") from exc


def ev(ctx, hom_mat, h_vec):
    """The former TheoremContext.ev: the endomorphism at h of hom_mat."""
    return endomorphism(ctx, _nonzero(hom_mat.apply(h_vec)))


def old_beta11_tilde(ctx, v_prime_mat):
    f, dm, dh = ctx.field, ctx.m.dim, ctx.ca.hopf.dim
    evs = [ev(ctx, v_prime_mat, basis_vec(f, dh, hj)) for hj in range(dh)]
    cols = [ev.apply(ctx.eta.col(mi))               # class of m (x) 1
            for mi in range(dm) for ev in evs]
    return dense_solve(ctx.eta, Matrix.from_cols(f, cols, nrows=ctx.quot.dim))


def old_beta11_hat(ctx, theta_small):
    f, dm, dh = ctx.field, ctx.m.dim, ctx.ca.hopf.dim
    endos = []
    for hj in range(dh):
        th_h = Matrix.from_cols(
            f, [theta_small.apply(kron_vec(f, basis_vec(f, dm, mi),
                                           basis_vec(f, dh, hj)))
                for mi in range(dm)], nrows=dm)
        endos.append(ctx.induced.induced_map(_columns(th_h)))
    return e_coords(ctx, endos)


def old_beta21(ctx, t_prime_mat):
    f, dm, dh = ctx.field, ctx.m.dim, ctx.ca.hopf.dim
    evs = [ev(ctx, t_prime_mat, basis_vec(f, dh, hj)) for hj in range(dh)]
    cols = [ev.apply(ctx.eta.col(mi)) for mi in range(dm) for ev in evs]
    return Matrix.from_cols(f, cols, nrows=ctx.quot.dim)


def old_beta21_bar(ctx, psi):
    f, dm, dh, da = ctx.field, ctx.m.dim, ctx.ca.hopf.dim, ctx.ca.algebra.dim
    endos, acts = [], dense_actions(f, ctx.induced.module.action_table, da)
    for hj in range(dh):
        bases = [psi.apply(kron_vec(f, basis_vec(f, dm, mi),
                                    basis_vec(f, dh, hj))) for mi in range(dm)]
        endos.append(Matrix.from_cols(
            f, [acts[j % da].apply(bases[j // da])
                for j in ctx.quot.free], nrows=ctx.quot.dim))
    return e_coords(ctx, endos)


def old_beta12_tilde(ctx, u_prime_mat):
    f, dm, dh, da = ctx.field, ctx.m.dim, ctx.ca.hopf.dim, ctx.ca.algebra.dim
    evs = [ev(ctx, u_prime_mat, basis_vec(f, dh, h)) for h in range(dh)]
    amb_cols = []
    for mi in range(dm):
        for aj in range(da):
            acc = [f.zero] * ctx.quot.dim
            for a0, h, c in ctx.ca.coaction_table[aj]:
                p = project(ctx.quot, kron_vec(f, basis_vec(f, dm, mi),
                                              basis_vec(f, da, a0)))
                w = evs[h].apply(p)
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, w)]
            amb_cols.append(acc)
    amb = Matrix.from_cols(f, amb_cols, nrows=ctx.quot.dim)
    return dense_solve(ctx.eta, amb) @ dense_section(ctx.quot)


def old_alpha12_hat(ctx, phi):
    f, dm, dh, da = ctx.field, ctx.m.dim, ctx.ca.hopf.dim, ctx.ca.algebra.dim
    endos = []
    for hj in range(dh):
        amb_cols = []
        for mi, aj in (divmod(j, da) for j in ctx.quot.free):
            acc = [f.zero] * ctx.quot.dim
            for l, r, c in ctx.rep[hj]:
                mv = phi.apply(project(ctx.quot, 
                    kron_vec(f, basis_vec(f, dm, mi), basis_vec(f, da, l))))
                av = ctx.ca.algebra.basis_product(r, aj)
                term = project(ctx.quot, kron_vec(f, mv, av))
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, term)]
            amb_cols.append(acc)
        endos.append(Matrix.from_cols(f, amb_cols, nrows=ctx.quot.dim))
    return e_coords(ctx, endos)


def old_beta22(ctx, w_prime_mat):
    f, dh, n = ctx.field, ctx.ca.hopf.dim, ctx.quot.dim
    evs = [ev(ctx, w_prime_mat, basis_vec(f, dh, h)) for h in range(dh)]
    cols = []
    for q in range(n):
        acc = [f.zero] * n
        for qi, h, c in ctx.x2_coaction[q]:
            acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, evs[h].col(qi))]
        cols.append(acc)
    return Matrix.from_cols(f, cols, nrows=n)


def old_alpha22_bar(ctx, kappa):
    f, dm, dh, da = ctx.field, ctx.m.dim, ctx.ca.hopf.dim, ctx.ca.algebra.dim
    mul = ctx.ca.algebra.mul_table
    acts = dense_actions(f, ctx.induced.module.action_table, da)
    endos = []
    for hj in range(dh):
        amb_cols = []
        for mi, aj in (divmod(j, da) for j in ctx.quot.free):
            acc = [f.zero] * ctx.quot.dim
            for l, r, c in ctx.rep[hj]:
                base = kappa.apply(project(ctx.quot, 
                    kron_vec(f, basis_vec(f, dm, mi), basis_vec(f, da, l))))
                for s, y in mul[r * da + aj]:
                    acc = [x + c * y * z
                           for x, z in zip(acc, acts[s].apply(base))]
            amb_cols.append(reduced(f, acc))
        endos.append(Matrix.from_cols(f, amb_cols, nrows=ctx.quot.dim))
    return e_coords(ctx, endos)


def old_x2_actions(ctx):
    """The former TheoremContext.induced_action of each b_k: the dense
    actions of A combined by b_k's coordinates."""
    acts = dense_actions(ctx.field, ctx.induced.module.action_table,
                         ctx.ca.algebra.dim)
    return [dense_lin_comb(acts, ctx.b.inclusion.col(k))
            for k in range(ctx.b.dim)]


# the maps on Hom(H, E) (dim E x dim H, E-coordinates) and on D_M arrows
E_MAPS = [("beta11_tilde", old_beta11_tilde, (1, 1)),
          ("beta21", old_beta21, (1, 2)),
          ("beta12_tilde", old_beta12_tilde, (2, 1)),
          ("beta22", old_beta22, (2, 2))]
DM_MAPS = [("beta11_hat", old_beta11_hat, (1, 1)),
           ("beta21_bar", old_beta21_bar, (1, 2)),
           ("alpha12_hat", old_alpha12_hat, (2, 1)),
           ("alpha22_bar", old_alpha22_bar, (2, 2))]


# -- the cases ---------------------------------------------------------------


def mixed_double(ca):
    """B (+) B in a basis that mixes every coordinate."""
    b, f = ca.coinvariants(), ca.field
    n = 2 * b.dim
    mix = Matrix(f, n, n, [f.one if c >= r else f.zero
                           for r in range(n) for c in range(n)])
    double = BModule(b, n, action_table([mix @ Matrix.identity(f, 2).kron(
        b.algebra.rmul(basis_vec(f, b.dim, k))) @ mix.invert()
        for k in range(b.dim)]))
    assert double.validate().passed
    return double


def cases():
    """(label, ca, module): every fixture comodule algebra and crossed
    product with each of its modules and B; the regular and trivial rungs
    over F_7 relabelled by a random permutation, with B and, up to
    dim A = 4, with B (+) B in a mixing basis."""
    for stem, name, ca, mods in fixture_cases():
        for k, m in enumerate(mods + [regular_bmodule(ca)]):
            yield f"{stem}:{name}:{k}", ca, m
    for name in sorted(RUNGS):
        ca = relabelled(RUNGS[name](), 1)
        yield f"{name}:B", ca, regular_bmodule(ca)
        if ca.algebra.dim <= 4:
            yield f"{name}:BB", ca, mixed_double(ca)


CASES = list(cases())
IDS = [label for label, _, _ in CASES]


def bumped(mat, rng):
    """mat with one entry moved by a nonzero scalar."""
    f = mat.field
    data = list(mat.data)
    k = rng.randrange(len(data))
    data[k] = f.add(data[k], f.from_int(rng.randint(1, 3)))
    return Matrix(f, mat.rows, mat.cols, data)


def random_matrix(field, rows, cols, rng):
    return Matrix(field, rows, cols, [field.from_int(rng.randint(-2, 2))
                                      for _ in range(rows * cols)])


# -- E: multiplication and the Eq. (14) coaction -----------------------------


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_E_equals_the_dense_oracle(case):
    _, ca, m = case
    ind = tensor_over_B(m, ca)
    e = build_E(ca, ind)
    dq, dh = ind.module.dim, ca.hopf.dim
    assert dense_mul(e.ca.algebra) == dense_e_mul(ca.field, e.basis, dq)
    assert e.ca.coaction_table == _leg_columns(
        dense_rational_coaction(ca, ind.module, e.basis), dh)
    # a sub-basis whose span rho leaves raises where the oracle has no
    # solution, and agrees where it has one
    for k in sorted({1, e.dim // 2, e.dim - 1} - {0, e.dim}):
        sub = e.basis[:k]
        coords = Factorization(ca.field, [_flat(b) for b in sub])
        try:
            want = dense_rational_coaction(ca, ind.module, sub)
        except NoSolution:
            with pytest.raises(NotRational):
                rational_coaction(ca, ind.module, sub, coords)
        else:
            assert rational_coaction(ca, ind.module, sub, coords) == \
                _leg_columns(want, dh)


def test_some_sub_basis_is_not_rational():
    """The NotRational branch above is reached: on the regular H4 over F_7
    span(f0) of E is not a subcomodule."""
    ca = RUNGS["T2"]()
    ind = tensor_over_B(regular_bmodule(ca), ca)
    e = build_E(ca, ind)
    with pytest.raises(NoSolution):
        dense_rational_coaction(ca, ind.module, e.basis[:1])
    with pytest.raises(NotRational):
        rational_coaction(ca, ind.module, e.basis[:1], Factorization(
            ca.field, [_flat(e.basis[0])]))


# -- the colinearity constraints of C_A and C'_A -----------------------------


def check_constraints(ca, rng, full):
    """The constraint operators against the dense defects: with full, the
    whole operator, whose rows are the oracle's nonzero rows in order
    (colinearity_operator drops the rows no term reaches); else 4 sampled
    columns, on those rows, and the kernel against the oracle's."""
    f, da, dh = ca.field, ca.algebra.dim, ca.hopf.dim
    for cls, variant in VARIANTS:
        gd = dense_constraint(ca, cls, variant)
        rows = list(convcat.constraint_operator(ca, cls, variant))
        assert all(rows)
        op = dense_rows(f, rows, da * dh)
        picks = (range(da * dh) if full
                 else rng.sample(range(da * dh), min(4, da * dh)))
        defects = [dense_defect(ca, Matrix(f, da, dh, basis_vec(
            f, da * dh, j)), cls, variant, gd).data for j in picks]
        want = nonzero_rows(Matrix.from_cols(f, defects))
        got = Matrix.from_cols(f, [op.col(j) for j in picks],
                               nrows=op.rows)
        assert nonzero_rows(got) == want
        space = convcat.hom_space(ca, cls, variant)
        maps = [dense(f, da, el.cols) for el in space.elements]
        if full:
            assert maps == [Matrix(f, da, dh, v) for v in kernel_of(
                Matrix.from_cols(f, defects))]
        assert all(convcat.membership(ca, el.cols, cls, variant)
                   for el in space.elements)
        maps = [bumped(mat, rng) for mat in maps[:3]]
        maps.append(random_matrix(f, da, dh, rng))
        for mat in maps:
            assert (convcat.membership(ca, _columns(mat), cls, variant)
                    == dense_defect(ca, mat, cls, variant, gd).is_zero())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_constraints_equal_the_dense_oracle(case):
    """On A itself and on E = END_A(M (x)_B A), whose basis is not monomial
    when M is B (+) B in a mixing basis."""
    _, ca, m = case
    rng = random.Random(5)
    check_constraints(ca, rng, True)
    check_constraints(build_E(ca, tensor_over_B(m, ca)).ca, rng, False)


def test_bumped_maps_fail_in_every_shape():
    """A one-entry bump of a colinear map fails its constraint in each of
    the 8 shapes, and membership says so at a basis vector h > 0."""
    ca = RUNGS["T2"]()
    f, dh = ca.field, ca.hopf.dim
    for cls, variant in VARIANTS:
        el = dense(f, ca.algebra.dim,
                   convcat.hom_space(ca, cls, variant).elements[0].cols)
        bad = None
        for r in range(el.rows):
            for h in range(1, dh):      # only columns h > 0 are bumped
                data = list(el.data)
                data[r * dh + h] = f.add(data[r * dh + h], f.one)
                cand = Matrix(f, el.rows, dh, data)
                if bad is None and not dense_defect(ca, cand, cls,
                                                    variant).is_zero():
                    bad = cand
        assert bad is not None
        assert not convcat.membership(ca, _columns(bad), cls, variant)


# -- the D_M objects: M (x) H, membership and the delta maps -----------------


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_dm_objects_equal_the_dense_oracle(case):
    _, ca, m = case
    try:
        ctx = TheoremContext(ca, m)
    except NotGalois:
        return
    f, rng = ctx.field, random.Random(7)
    assert ctx.x1_coaction == _leg_columns(dense_x1_coaction(ctx),
                                           ca.hopf.dim)
    for i, j in convcat.CLASSES:
        dx, dy = ctx.object_data(i)[0], ctx.object_data(j)[0]
        mats = [dense(f, dy, b) for b in ctx.dm_hom_space(i, j)]
        mats = mats + [bumped(mat, rng) for mat in mats[:4]]
        mats.append(random_matrix(f, dy, dx, rng))
        for mat in mats:
            assert (ctx.dm_membership(_columns(mat), i, j)
                    == dense_dm_membership(ctx, mat, i, j))
        assert all(ctx.dm_membership(mat, i, j)
                   for mat in ctx.dm_hom_space(i, j))
    dm, dq, dh = ctx.m.dim, ctx.quot.dim, ca.hopf.dim
    for _ in range(3):
        phi = random_matrix(f, dm, dq, rng)
        theta = random_matrix(f, dm, dm * dh, rng)
        assert canonical(f, delta1(ctx, _columns(phi))) == \
            _columns(dense_delta(ctx, phi, 2))
        assert canonical(f, delta2(ctx, _columns(theta))) == \
            _columns(dense_delta(ctx, theta, 1))
        for mat in (random_matrix(f, dm * dh, dq, rng),
                    random_matrix(f, dm * dh, dm * dh, rng)):
            assert canonical(f, delta_bar(ctx, _columns(mat))) == \
                _columns(dense_delta_bar(ctx, mat))


def canonical(f, got):
    """A list of columns with each column's raw terms summed by _terms
    (keys ascending, reduced, nonzero), so that the package's columns
    compare with a dense result's _columns; anything else as it is."""
    return [_terms(f, col) for col in got] if isinstance(got, list) else got


def outcome(fn, *args):
    """fn(*args), or the class of the NoSolution or InternalInvariant it
    raised; a dense result as its _columns."""
    try:
        got = fn(*args)
    except (NoSolution, InternalInvariant) as exc:
        return type(exc)
    return _columns(got) if isinstance(got, Matrix) else got


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_dm_maps_equal_the_dense_oracle(case):
    """The eight maps of Lemmas 3.3-3.8 and the B-actions on M (x)_B A.
    Each map is fed what alpha or alpha_inverse feeds it on the C_E or D_M
    hom basis (it must succeed there), a bumped basis element and a random
    matrix (where both may raise, they raise the same)."""
    _, ca, m = case
    try:
        ctx = TheoremContext(ca, m)
    except NotGalois:
        return
    f, rng, sbar = ctx.field, random.Random(11), ca.hopf.antipode_inv
    assert dense_actions(f, ctx.x2_actions, ctx.b.dim) == old_x2_actions(ctx)
    for name, old, cls in E_MAPS:
        new = getattr(maintheorem, name)
        basis = [dense(f, ctx.e.dim, el.cols) @ sbar for el in
                 convcat.hom_space(ctx.e.ca, cls, "C").elements]
        for k, mat in enumerate(basis + [bumped(mat, rng) for mat in
                                         basis[:1]]
                                + [random_matrix(f, ctx.e.dim, ca.hopf.dim,
                                                 rng)]):
            got = canonical(f, outcome(new, ctx, _columns(mat)))
            assert got == outcome(old, ctx, mat), (name, k)
            assert isinstance(got, list) or k >= len(basis)
    for name, old, (i, j) in DM_MAPS:
        new = getattr(maintheorem, name)
        dx, dy = ctx.object_data(i)[0], ctx.object_data(j)[0]
        basis = [dense(f, dy, b) for b in ctx.dm_hom_space(i, j)]
        for k, mat in enumerate(basis + [bumped(mat, rng) for mat in
                                         basis[:1]]
                                + [random_matrix(f, dy, dx, rng)]):
            if j == 1:
                mat = dense_delta_bar(ctx, mat)
            got = canonical(f, outcome(new, ctx, _columns(mat)))
            assert got == outcome(old, ctx, mat), (name, k)
            assert isinstance(got, list) or k >= len(basis)


def test_bh_iso_colinearity_equals_the_dense_check():
    """cleft._check_bh_iso's colinearity test on psi: k (x) H -> A for the
    regular kC_3: the identity passes, a cyclic shift fails."""
    ca = RUNGS["kC3"]()
    f, b = ca.field, ca.coinvariants()
    x_co = Matrix.identity(f, b.dim).kron(dense_comul(ca.hopf.coalgebra))
    for shift in (0, 1):
        psi = Matrix(f, 3, 3, [f.one if r == (c + shift) % 3 else f.zero
                               for r in range(3) for c in range(3)])
        leg = ValidationReport()
        cleft._check_bh_iso(ca, b, psi, leg)
        dense = (dense_rho(f, ca.coaction_table, 3) @ psi
                 == psi.kron(Matrix.identity(f, 3)) @ x_co)
        assert dense == (shift == 0)
        assert (("psi-not-colinear", None) in leg.failures) == (not dense)


# -- kernels by sparse elimination -------------------------------------------


@st.composite
def padded_matrices(draw):
    """A matrix whose rows are drawn from a few base rows, with forced zero
    rows and repeats, over F_2, F_7, F_(2^61 - 1) or Q."""
    field = draw(st.sampled_from([PrimeField(2), F7, PrimeField(2 ** 61 - 1),
                                  QQ]))
    cols = draw(st.integers(1, 7))
    entries = st.integers(-3, 3).map(field.from_int)
    base = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=5))
    base.append([field.zero] * cols)
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=len(base),
                          max_size=3 * len(base)))
    rows = [base[k] for k in picks] + [base[-1], base[0], base[0]]
    draw(st.randoms()).shuffle(rows)
    return Matrix.from_rows(field, rows)


@settings(max_examples=150, deadline=None)
@given(padded_matrices())
def test_kernel_on_distinct_rows_equals_the_full_rref_kernel(mat):
    assert kernel_of(mat) == dense_kernel(mat)


@st.composite
def sparse_systems(draw):
    """(field, n, rows): sparse rows of raw integers (unreduced, negative
    or explicit zeros included) drawn from a few base rows that vanish left
    of a column lead, repeated and shuffled, then a last row whose leading
    column lies left of every pivot found before it."""
    field = draw(st.sampled_from([PrimeField(2), F7, PrimeField(2 ** 61 - 1),
                                  QQ]))
    n = draw(st.integers(2, 8))
    lead = draw(st.integers(1, n - 1))
    raw = st.integers(-20, 20)
    base = draw(st.lists(st.dictionaries(st.integers(lead, n - 1), raw,
                                         max_size=n), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                          max_size=3 * len(base)))
    rows = [dict(base[k]) for k in picks] + [dict(base[0])]
    draw(st.randoms()).shuffle(rows)
    last = draw(st.dictionaries(st.integers(0, n - 1), raw, max_size=n))
    last[draw(st.integers(0, lead - 1))] = draw(st.sampled_from([1, -1, 3]))
    return field, n, rows + [last]


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_sparse_kernel_equals_the_full_rref_kernel(system):
    field, n, rows = system
    before = [dict(row) for row in rows]
    mat = Matrix.from_rows(field, [[field.from_int(row.get(j, 0))
                                    for j in range(n)] for row in rows])
    want = dense_kernel(mat)
    got = sparse_kernel(field, n, rows)
    assert [dense(field, n, [v]).data for v in got] == want
    assert all(x and [i for i, _ in v] == sorted({i for i, _ in v})
               for v in got for _, x in v)      # nonzero terms, ascending
    assert rows == before                       # the input is not changed
    assert kernel_of(mat) == want


def test_kernel_of_empty_and_zero_matrices():
    for field in (QQ, F7):
        for rows in (0, 3):
            mat = Matrix.zeros(field, rows, 4)
            assert kernel_of(mat) == dense_kernel(mat) == [
                basis_vec(field, 4, j) for j in range(4)]


# -- can' is not inverted ------------------------------------------------------


def test_only_can_is_inverted():
    ca = RUNGS["T3"]()
    can = canonical_map(ca)
    can_p = canonical_map_prime(ca, can.induced)
    assert can.galois and can_p.galois
    mat, inv = dense_can(can)
    assert mat @ inv == inv @ mat == Matrix.identity(F7, len(can.rows))
    assert can_p.inverse is None
