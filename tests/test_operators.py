"""Differential tests for the linear-map layer of linalg.

Every operator built in closed form must equal, entry for entry, the
operator probed column by column with matrix units, and the gather/scatter
helpers must equal products with a dense permutation matrix.  The probe
loop, the dense permutation and the old defect formulas live on here only,
as the oracle.
"""

import random

import pytest

from hopfgalois import cleft, convcat, endomorphism, linalg, maintheorem
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra,
                                 graded_m2, group_algebra, regular_comodule,
                                 sweedler_h4)
from hopfgalois.hopf import comul_on, convolve
from hopfgalois.lifting import ActionCandidate, _b_linear_space
from hopfgalois.linalg import (Matrix, basis_vec, colinearity_operator,
                               sparse_kernel)

from conftest import (action_table, convolution_operator, dense, dense_act,
                      dense_actions, dense_comul, dense_mul, dense_rho,
                      dense_rows, gather_legs, kron_vec, module_b, module_k,
                      nonzero_rows, scatter_legs, tensor_entries, vec_add,
                      vec_scale, vstack)
from test_linalg import dense_kernel

F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)

FIXTURES = {
    "h4_q": lambda: regular_comodule(sweedler_h4(QQ)),
    "h4_f5": lambda: regular_comodule(sweedler_h4(F5)),
    "kc2_f3": lambda: regular_comodule(group_algebra(F3, cyclic_cayley(2))),
    "m2_q": lambda: graded_m2(QQ),
    "m2_f3": lambda: graded_m2(F3),
    "dual_kc3_f7": lambda: regular_comodule(
        dual_group_algebra(F7, cyclic_cayley(3))),
}
VARIANTS = [(cls, variant) for cls in convcat.CLASSES
            for variant in ("C", "Cprime")]


# -- the oracle --------------------------------------------------------------


def dense_perm(field, dims, perm):
    """Permutation matrix reordering tensor legs: output leg j carries
    source leg perm[j]."""
    k = len(dims)
    out_dims = [dims[perm[j]] for j in range(k)]
    size = 1
    for d in dims:
        size *= d
    mat = Matrix.zeros(field, size, size)
    idx = [0] * k
    for flat in range(size):
        rem = flat
        for leg in reversed(range(k)):
            idx[leg] = rem % dims[leg]
            rem //= dims[leg]
        tflat = 0
        for j in range(k):
            tflat = tflat * out_dims[j] + idx[perm[j]]
        mat.data[tflat * size + flat] = field.one
    return mat


def probe_operator(field, rows, cols, defect):
    """Column j is defect(E_j), a flat list, for the j-th matrix unit E_j."""
    nunk = rows * cols
    columns = []
    for flat in range(nunk):
        probe = Matrix(field, rows, cols,
                       [field.one if i == flat else field.zero
                        for i in range(nunk)])
        columns.append(defect(probe))
    return Matrix.from_cols(field, columns, nrows=len(columns[0]))


def old_constraint_rhs(ca, f_mat, cls, variant):
    field = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    comul = dense_comul(ca.hopf.coalgebra)
    idh = Matrix.identity(field, dh)
    s, sbar = ca.hopf.antipode, ca.hopf.antipode_inv
    hmul = dense_mul(ca.hopf.algebra)
    sw = dense_perm(field, (dh, dh), (1, 0))
    if cls == (1, 1):
        embed = Matrix.from_cols(
            field, [kron_vec(field, basis_vec(field, da, j),
                             ca.hopf.algebra.unit) for j in range(da)],
            nrows=da * dh)
        return embed @ f_mat
    if (cls, variant) in (((2, 1), "C"), ((1, 2), "Cprime")):
        return f_mat.kron(idh) @ comul
    if (cls, variant) == ((1, 2), "C"):
        return f_mat.kron(s) @ sw @ comul
    if (cls, variant) == ((2, 1), "Cprime"):
        return f_mat.kron(sbar) @ sw @ comul
    comul3 = idh.kron(comul) @ comul
    if (cls, variant) == ((2, 2), "C"):
        move = dense_perm(field, (dh, dh, dh), (1, 0, 2))
        return f_mat.kron(hmul @ s.kron(idh)) @ move @ comul3
    move = dense_perm(field, (dh, dh, dh), (1, 2, 0))
    return f_mat.kron(hmul @ idh.kron(sbar)) @ move @ comul3


def old_convolve(ca, g_mat, f_mat, variant):
    comul = dense_comul(ca.hopf.coalgebra)
    if variant == "Cprime":
        dh = ca.hopf.dim
        comul = dense_perm(ca.field, (dh, dh), (1, 0)) @ comul
    return dense_mul(ca.algebra) @ g_mat.kron(f_mat) @ comul


def old_conv2(base, hopf, s1, s2):
    """Convolution on Hom(H (x) H, B): s1(h1 (x) k1) s2(h2 (x) k2)."""
    f = base.field
    dh, comul = hopf.dim, dense_comul(hopf.coalgebra)
    cols = []
    for h in range(dh):
        dlh = list(tensor_entries(f, comul.apply(basis_vec(f, dh, h)),
                                  (dh, dh)))
        for k in range(dh):
            dlk = list(tensor_entries(f, comul.apply(basis_vec(f, dh, k)),
                                      (dh, dh)))
            acc = [f.zero] * base.dim
            for (h1, h2), c1 in dlh:
                for (k1, k2), c2 in dlk:
                    v = base.product(
                        s1.apply(kron_vec(f, basis_vec(f, dh, h1),
                                          basis_vec(f, dh, k1))),
                        s2.apply(kron_vec(f, basis_vec(f, dh, h2),
                                          basis_vec(f, dh, k2))))
                    acc = vec_add(f, acc, vec_scale(f, f.mul(c1, c2), v))
            cols.append(acc)
    return Matrix.from_cols(f, cols, nrows=base.dim)


def action_defect(x_maps, y_maps, coactions=None):
    """The probe-loop defect of an intertwiner (the removed loop bodies)."""

    def defect(probe):
        out = []
        for xa, ya in zip(x_maps, y_maps):
            out.extend((probe @ xa - ya @ probe).data)
        if coactions is not None:
            x_co, y_co = coactions
            idh = Matrix.identity(probe.field, y_co.rows // probe.rows)
            out.extend((y_co @ probe - probe.kron(idh) @ x_co).data)
        return out

    return defect


def random_matrix(field, rows, cols, rng):
    return Matrix(field, rows, cols,
                  [field.from_int(rng.randint(-3, 3))
                   for _ in range(rows * cols)])


# -- leg permutations --------------------------------------------------------


def test_gather_scatter_match_dense_permutation():
    rng = random.Random(0)
    for field in (QQ, F7):
        for _ in range(40):
            k = rng.randint(2, 4)
            dims = [rng.randint(1, 3) for _ in range(k)]
            perm = list(range(k))
            rng.shuffle(perm)
            p = dense_perm(field, dims, perm)
            x = random_matrix(field, 2, p.rows, rng)
            y = random_matrix(field, p.rows, 3, rng)
            assert gather_legs(x, dims, perm) == x @ p
            assert scatter_legs(y, dims, perm) == p @ y


# -- the eight former probe sites, plus hom_A ---------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_hom_space_operator(name):
    ca = FIXTURES[name]()
    da, dh = ca.algebra.dim, ca.hopf.dim
    rho = dense_rho(ca.field, ca.coaction_table, dh)
    for cls, variant in VARIANTS:
        oracle = probe_operator(
            ca.field, da, dh,
            lambda x: (rho @ x
                       - old_constraint_rhs(ca, x, cls, variant)).data)
        assert written_rows(ca.field, convcat.constraint_operator(
            ca, cls, variant), da * dh) == nonzero_rows(oracle)


def test_hom_space_operator_on_E():
    ca = graded_m2(F3)
    e_ca = maintheorem.TheoremContext(ca, module_k(ca)).e.ca
    de, dh = e_ca.algebra.dim, e_ca.hopf.dim
    rho = dense_rho(ca.field, e_ca.coaction_table, dh)
    for cls, variant in VARIANTS:
        oracle = probe_operator(
            ca.field, de, dh,
            lambda x: (rho @ x
                       - old_constraint_rhs(e_ca, x, cls, variant)).data)
        assert written_rows(ca.field, convcat.constraint_operator(
            e_ca, cls, variant), de * dh) == nonzero_rows(oracle)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_convolution_operator(name):
    """convcat.convolution_inverse_matrix and cohomology's inverse on Hom(H, B)."""
    ca = FIXTURES[name]()
    rng = random.Random(1)
    da, dh = ca.algebra.dim, ca.hopf.dim
    f_mat = random_matrix(ca.field, da, dh, rng)
    for variant in ("C", "Cprime"):
        oracle = probe_operator(
            ca.field, da, dh,
            lambda x: old_convolve(ca, f_mat, x, variant).data)
        assert convolution_operator(
            ca.algebra, convcat.variant_coalgebra(ca, variant),
            f_mat) == oracle
    b = ca.coinvariants()
    v = random_matrix(ca.field, b.dim, dh, rng)
    oracle = probe_operator(
        ca.field, b.dim, dh,
        lambda x: (dense_mul(b.algebra) @ v.kron(x)
                   @ dense_comul(ca.hopf.coalgebra)).data)
    assert convolution_operator(b.algebra, ca.hopf.coalgebra, v) == oracle


def convolution_cases(field):
    """(A, C) pairs: H over itself, over H^cop and over H (x) H, for kC_3,
    H4 and (kC_3)^*, and the graded M_2 over kC_2 (dim A != dim C)."""
    for h in (group_algebra(field, cyclic_cayley(3)), sweedler_h4(field),
              dual_group_algebra(field, cyclic_cayley(3))):
        yield h.algebra, h.coalgebra
        yield h.algebra, convcat.variant_coalgebra(regular_comodule(h),
                                                   "Cprime")
        yield h.algebra, cleft._hh_coalgebra(h)
    m2 = graded_m2(field)
    yield m2.algebra, m2.hopf.coalgebra


@pytest.mark.parametrize("field", [QQ, F7])
def test_convolve_matches_dense_kron(field):
    """hopf.convolve against mul @ ((g (x) f) @ Delta) with g (x) f dense."""
    rng = random.Random(3)
    cases = 0
    for alg, co in convolution_cases(field):
        for _ in range(3):
            g = random_matrix(field, alg.dim, co.dim, rng)
            f = random_matrix(field, alg.dim, co.dim, rng)
            assert convolve(alg, co, g, f) == dense_mul(alg) @ (
                g.kron(f) @ dense_comul(co))
            cases += 1
    assert cases == 30


@pytest.mark.parametrize("field", [QQ, F7])
def test_sigma_convolution_operator(field):
    """cleft's inverse on Hom(H (x) H, B), on a cocycle extracted from the
    graded M_2 and on a random map."""
    ca = graded_m2(field)
    cp = cleft.extract_crossed_data(cleft.find_cleft(ca), ca)
    base, hopf = cp.base, cp.hopf
    rng = random.Random(2)
    for sigma in (cp.sigma, random_matrix(field, base.dim, hopf.dim ** 2,
                                          rng)):
        oracle = probe_operator(
            field, base.dim, hopf.dim ** 2,
            lambda x: old_conv2(base, hopf, sigma, x).data)
        assert convolution_operator(base, cleft._hh_coalgebra(hopf),
                                    sigma) == oracle


def written_rows(f, rows, n):
    """The nonzero rows, in order, of the operator with the n-column sparse
    rows rows, none of them empty.  colinearity_operator leaves out the
    rows that no term reaches, so these are the nonzero rows of the full
    operator."""
    rows = list(rows)
    assert all(rows)
    return nonzero_rows(dense_rows(f, rows, n))


def action_rows(f, dx, dy, x_act, y_act, d):
    """written_rows of colinearity_operator on two action tables over a
    d-dimensional algebra."""
    return written_rows(f, colinearity_operator(f, dx, dy, x_act, y_act, d),
                        dy * dx)


def former_order(f, old, dx, dy, d):
    """The nonzero rows of the former stacked operator of X x_k - y_k X,
    negated and reordered as colinearity_operator's rows: old row
    (k dy + y) dx + c is new row (y d + k) dx + c."""
    return nonzero_rows(Matrix.from_rows(f, [
        [f.neg(v) for v in old.row((k * dy + y) * dx + c)]
        for y in range(dy) for k in range(d) for c in range(dx)]))


@pytest.mark.parametrize("name,module",
                         [("m2_q", module_k), ("m2_f3", module_b),
                          ("h4_f5", module_k)])
def test_dm_hom_space_operator(name, module):
    ca = FIXTURES[name]()
    ctx = maintheorem.TheoremContext(ca, module(ca))
    f, dh, db = ctx.field, ca.hopf.dim, ctx.b.dim
    for i, j in convcat.CLASSES:
        dx, x_actions, x_co = ctx.object_data(i)
        dy, y_actions, y_co = ctx.object_data(j)
        oracle = probe_operator(
            f, dy, dx, action_defect(dense_actions(f, x_actions, db),
                                     dense_actions(f, y_actions, db)))
        assert action_rows(f, dx, dy, x_actions, y_actions, db) == \
            former_order(f, oracle, dx, dy, db)
        oracle = probe_operator(f, dy, dx, action_defect(
            [], [], (dense_rho(f, x_co, dh), dense_rho(f, y_co, dh))))
        assert written_rows(f, colinearity_operator(
            f, dx, dy, x_co, y_co, dh), dy * dx) == nonzero_rows(oracle)


@pytest.mark.parametrize("name", ["m2_q", "m2_f3", "h4_f5"])
def test_bh_iso_operator(name):
    ca = FIXTURES[name]()
    f = ca.field
    b = ca.coinvariants()
    da, db, dh = ca.algebra.dim, b.dim, ca.hopf.dim
    idh = Matrix.identity(f, dh)
    x_co = Matrix.identity(f, db).kron(dense_comul(ca.hopf.coalgebra))
    x_acts = [b.algebra.lmul(basis_vec(f, db, i)).kron(idh)
              for i in range(db)]
    a_acts = [ca.algebra.lmul(b.to_ambient(basis_vec(f, db, i)))
              for i in range(db)]
    on_bh, on_a = cleft._left_b_actions(ca, b)
    assert (on_bh, on_a) == (action_table(x_acts), action_table(a_acts))
    assert action_rows(f, da, da, on_bh, on_a, db) == former_order(
        f, probe_operator(f, da, da, action_defect(x_acts, a_acts)), da, da,
        db)
    rho = dense_rho(f, ca.coaction_table, dh)
    assert written_rows(f, colinearity_operator(
        f, da, da, comul_on(ca.hopf.coalgebra, db), ca.coaction_table, dh),
        da * da) == nonzero_rows(probe_operator(
            f, da, da, action_defect([], [], (x_co, rho))))


@pytest.mark.parametrize("name", ["m2_q", "m2_f3"])
def test_lifting_operators(name):
    """lifting._b_linear_space and the direct check of phi_equivalence."""
    ca = FIXTURES[name]()
    ctx = maintheorem.TheoremContext(ca, module_b(ca))
    f, dm, dq, db = ctx.field, ctx.m.dim, ctx.quot.dim, ctx.b.dim
    oracle = probe_operator(f, dm, dq, action_defect(
        dense_actions(f, ctx.x2_actions, db),
        dense_actions(f, ctx.m.action_table, db)))
    assert action_rows(f, dq, dm, ctx.x2_actions, ctx.m.action_table,
                       db) == former_order(f, oracle, dq, dm, db)
    space = [dense(f, dm, phi) for phi in _b_linear_space(ctx)]
    c1 = ActionCandidate(ctx, space[0])
    c2 = ActionCandidate(ctx, space[-1] + space[0])
    da = ca.algebra.dim
    acts1 = [dense_act(ctx, c1.phi, basis_vec(f, da, i)) for i in range(da)]
    acts2 = [dense_act(ctx, c2.phi, basis_vec(f, da, i)) for i in range(da)]
    assert (c1.action_table, c2.action_table) == (action_table(acts1),
                                                  action_table(acts2))
    oracle = probe_operator(f, dm, dm, action_defect(acts2, acts1))
    assert action_rows(f, dm, dm, c2.action_table, c1.action_table,
                       da) == former_order(f, oracle, dm, dm, da)


@pytest.mark.parametrize("name", ["m2_q", "h4_f5"])
def test_hom_A_operator(name):
    """The Kronecker formula hom_A used, for End_A of M (x)_B A."""
    ca = FIXTURES[name]()
    ctx = maintheorem.TheoremContext(ca, module_b(ca))
    f, n, da = ctx.field, ctx.quot.dim, ca.algebra.dim
    table = ctx.induced.module.action_table
    actions = dense_actions(f, table, da)
    idn = Matrix.identity(f, n)
    old = vstack([idn.kron(a.transpose()) - a.kron(idn) for a in actions])
    assert action_rows(f, n, n, table, table, da) == \
        former_order(f, old, n, n, da)
    assert old == probe_operator(f, n, n, action_defect(actions, actions))


@pytest.mark.parametrize("name", ["kc2_f3", "h4_f5", "m2_q"])
def test_hom_space_operators_hold_only_written_rows(name, monkeypatch):
    """Every operator that hom_space, intertwiners and dm_hom_space build
    for Theorem 3.1 on the regular M, and build_F's End_B(M), has no empty
    row, and its kernel is the dense oracle's: the probed X ->
    y_co X - (X (x) I) x_co, for coaction and action tables alike."""
    ca = FIXTURES[name]()
    f, seen = ca.field, []
    build = linalg.colinearity_operator

    def spy(field, dx, dy, x_co, y_co, dh):
        rows = list(build(field, dx, dy, x_co, y_co, dh))
        seen.append(((dx, dy, x_co, y_co, dh), rows))
        return rows

    monkeypatch.setattr(linalg, "colinearity_operator", spy)
    monkeypatch.setattr(convcat, "colinearity_operator", spy)
    m = module_b(ca)
    assert maintheorem.verify_theorem31(ca, m).passed
    ctx = maintheorem.TheoremContext(ca, m)
    endomorphism.build_F(ca, m, ctx.e)
    assert len(seen) >= 17      # 8 hom spaces, 4 D_M hom spaces x 2, End_A
    for (dx, dy, x_co, y_co, dh), rows in seen:
        assert rows and all(rows)
        oracle = probe_operator(f, dy, dx, action_defect([], [], (
            dense_rho(f, x_co, dh), dense_rho(f, y_co, dh))))
        assert [dense(f, dy * dx, [v]).data for v in sparse_kernel(
            f, dy * dx, rows)] == dense_kernel(oracle)
