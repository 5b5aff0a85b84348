"""Differential tests for the module actions held as action tables.

BModule, RelativeHopfModuleData, the objects of D_M, lifting's action
candidates and cleft's left B-actions hold an action of an algebra B as
its action_table, laid out like a coaction table: entry m lists (r, k, x)
with e_m . b_k = Sum x e_r.  B-linearity is then colinearity for the two
action tables.  The oracles here are the former dense forms: one action
matrix per basis element of B (rmul, Kronecker products with I_H, the
quotient's induced matrices), the unit and associativity checks by
lin_comb and @, B-linearity as X xa == ya X, hom spaces as the kernel of
the stacked operator I (x) xa^T - ya (x) I, by a full RREF, and the
lifting identities (6.2.1) and (6.2.2) on projected basis vectors.
"""

import json
import random

import pytest

from hopfgalois import cleft, io_json, lifting, maintheorem
from hopfgalois.comodule import (algebra_as_bmodule, check_right_action,
                                 regular_bmodule, tensor_over_B)
from hopfgalois.endomorphism import end_A
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cyclic_cayley, graded_m2, group_algebra,
                                 regular_comodule, sweedler_h4, taft,
                                 trivial_coaction)
from hopfgalois.galois import NotGalois, translation_map
from hopfgalois.hopf import (ValidationReport, colinear_witness,
                             first_failure, linear_witness)
from hopfgalois.linalg import (Matrix, _columns, _nonzero, basis_vec,
                               intertwiners)

from conftest import (action_table, dense, dense_act, dense_actions,
                      dense_lin_comb, dense_rho, endomorphism, kron_vec,
                      module_b, module_k, project, tensor_entries, vec_add,
                      vec_scale, vstack)
from test_audits import dense_right_action
from test_linalg import dense_kernel
from test_operators import action_defect, probe_operator
from test_quotient import F7, FIXTURES
from test_theorem_tables import (CASES, IDS, bumped, old_x2_actions,
                                 random_matrix)

F5 = PrimeField(5)


def context(ca, m):
    try:
        return maintheorem.TheoremContext(ca, m)
    except NotGalois:
        return None


def stacked_kernel(f, dx, dy, x_maps, y_maps, coactions=None):
    """The former intertwiners: the kernel, by a full RREF, of the stacked
    I_dy (x) xa^T - ya (x) I_dx, then the dense colinearity rows."""
    blocks = [Matrix.identity(f, dy).kron(xa.transpose())
              - ya.kron(Matrix.identity(f, dx))
              for xa, ya in zip(x_maps, y_maps)]
    if coactions is not None:
        blocks.append(probe_operator(f, dy, dx,
                                     action_defect([], [], coactions)))
    return [Matrix(f, dy, dx, v) for v in dense_kernel(vstack(blocks))]


def dense_maps(field, rows, maps):
    """The rows x n matrices of the n-column maps given by their
    _columns."""
    return [dense(field, rows, cols) for cols in maps]


def dense_linear_witness(mat, x_maps, y_maps):
    """The former per-k test: the first k with mat xa_k != ya_k mat."""
    return next(((k,) for k, (xa, ya) in enumerate(zip(x_maps, y_maps))
                 if mat @ xa != ya @ mat), None)


# -- the tables equal the former dense matrices -----------------------------


def raw_actions(field, record, dim):
    """The action matrices of a JSON module record, parsed independently:
    the last of duplicate entries wins."""
    out = []
    for entries in record["actions"]:
        mat = Matrix.zeros(field, dim, dim)
        for i, j, c in entries:
            mat.data[i * dim + j] = field.parse(c)
        out.append(mat)
    return out


def test_fixture_modules_hold_their_matrices_as_tables():
    seen = 0
    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.load(open(path))
        bundle = io_json.load_bundle(path)
        for name, m in sorted(bundle.modules.items()):
            mats = raw_actions(bundle.field, raw["modules"][name], m.dim)
            assert dense_actions(bundle.field, m.action_table,
                                 m.base.dim) == mats
            assert m.action_table == action_table(mats)
            assert io_json.emit_module(bundle.field, m, m.ca_name)[
                "actions"] == [io_json._emit_matrix(bundle.field, a)
                               for a in mats]       # the former emitter
            seen += 1
    assert seen == 2


def test_non_symmetric_actions_load_and_emit_unchanged(tmp_path):
    """b_0 acting as the idempotent P = [[1, 1], [0, 0]] and b_1 as 1 - P:
    not symmetric, so a transposed reading or writing shows."""
    raw = json.load(open(FIXTURES / "m2_graded.json"))
    raw["modules"]["skew"] = {
        "comodule_algebra": "m2_graded", "dim": 2,
        "actions": [[[0, 0, "1"], [0, 1, "1"]], [[0, 1, "-1"], [1, 1, "1"]]]}
    p = tmp_path / "skew.json"
    json.dump(raw, open(p, "w"))
    bundle = io_json.load_bundle(p)
    m = bundle.modules["skew"]
    mats = raw_actions(bundle.field, raw["modules"]["skew"], 2)
    assert m.action_table == action_table(mats) == [
        [(0, 0, 1)], [(0, 0, 1), (0, 1, -1), (1, 1, 1)]]
    assert io_json.emit_bundle(bundle)["modules"]["skew"] == \
        raw["modules"]["skew"]


def test_duplicate_entry_wins_and_explicit_zero_overwrites(tmp_path):
    raw = json.load(open(FIXTURES / "m2_graded.json"))
    actions = raw["modules"]["b_regular"]["actions"]
    actions[0] += [[1, 1, "5"], [1, 1, "0"]]      # b_0 kills e_1 after all
    actions[1] += [[0, 0, "3"], [0, 0, "0"], [1, 1, "1"]]
    p = tmp_path / "dup.json"
    json.dump(raw, open(p, "w"))
    m = io_json.load_bundle(p).modules["b_regular"]
    assert m.action_table == [[(0, 0, 1)], [(1, 1, 1)]]


def noncommutative_case():
    """B noncommutative: the trivial kC_2-coaction on the algebra of H4."""
    ca = trivial_coaction(group_algebra(F7, cyclic_cayley(2)),
                          sweedler_h4(F7).algebra)
    return "H4-trivial:B", ca, regular_bmodule(ca)


WIDE = CASES + [noncommutative_case()]
WIDE_IDS = [label for label, _, _ in WIDE]


@pytest.mark.parametrize("case", WIDE, ids=WIDE_IDS)
def test_module_tables_equal_the_former_matrices(case):
    """regular_bmodule, algebra_as_bmodule and the induced module M (x)_B A
    against rmul and the quotient's induced matrices."""
    _, ca, m = case
    f, b = ca.field, ca.coinvariants()
    da, mul = ca.algebra.dim, ca.algebra.mul_table
    assert dense_actions(f, regular_bmodule(ca).action_table, b.dim) == [
        b.algebra.rmul(basis_vec(f, b.dim, k)) for k in range(b.dim)]
    assert dense_actions(f, algebra_as_bmodule(ca).action_table, b.dim) == [
        ca.algebra.rmul(b.inclusion.col(k)) for k in range(b.dim)]
    ind = tensor_over_B(m, ca)
    assert dense_actions(f, ind.module.action_table, da) == [
        ind.quotient.induced(lambda i, j=j: (
            (i - i % da + r, 0, c) for r, c in mul[i % da * da + j]))
        for j in range(da)]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_object_tables_equal_the_former_matrices(case):
    """x1_actions against act (x) I_H, x2_actions against the A-actions of
    M (x)_B A combined by b_k's coordinates."""
    _, ca, m = case
    ctx = context(ca, m)
    if ctx is None:
        return
    f, db, dh = ctx.field, ctx.b.dim, ca.hopf.dim
    idh = Matrix.identity(f, dh)
    assert dense_actions(f, ctx.x1_actions, db) == [
        act.kron(idh) for act in dense_actions(f, m.action_table, db)]
    assert dense_actions(f, ctx.x2_actions, db) == old_x2_actions(ctx)


@pytest.mark.parametrize("case", WIDE, ids=WIDE_IDS)
def test_cleft_left_actions_equal_the_former_matrices(case):
    _, ca, _ = case
    f, b, dh = ca.field, ca.coinvariants(), ca.hopf.dim
    on_bh, on_a = cleft._left_b_actions(ca, b)
    idh = Matrix.identity(f, dh)
    assert dense_actions(f, on_bh, b.dim) == [
        b.algebra.lmul(basis_vec(f, b.dim, k)).kron(idh)
        for k in range(b.dim)]
    assert dense_actions(f, on_a, b.dim) == [
        ca.algebra.lmul(b.inclusion.col(k)) for k in range(b.dim)]


# -- check_right_action against lin_comb and @ ------------------------------


@pytest.mark.parametrize("case", CASES[::3], ids=IDS[::3])
def test_bumped_action_fails_where_the_dense_oracle_fails(case):
    """Each entry of each action matrix of M, and of the induced A-action on
    M (x)_B A for small cases, moved by 1 in turn: the same first unit
    column and the same full list of failing (i, j)."""
    _, ca, m = case
    f = ca.field
    targets = [(m.base.algebra, dense_actions(f, m.action_table,
                                              m.base.dim))]
    ind = tensor_over_B(m, ca)
    if ind.module.dim <= 8:
        targets.append((ca.algebra, dense_actions(
            f, ind.module.action_table, ca.algebra.dim)))
    failing = 0
    for alg, mats in targets:
        dim = mats[0].rows
        for k, mat in enumerate(mats):
            for pos in range(len(mat.data)):
                data = list(mat.data)
                data[pos] = f.add(data[pos], f.one)
                moved = list(mats)
                moved[k] = Matrix(f, dim, dim, data)
                report = ValidationReport()
                check_right_action(report, alg, action_table(moved),
                                   "unit", "associativity")
                assert report.failures == dense_right_action(
                    alg, moved, dim, "unit", "associativity")
                failing += bool(report.failures)
    assert failing


# -- hom spaces: the kernel of the former stacked operator -------------------


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_hom_spaces_equal_the_former_kernels(case):
    """End_B(M), End_A(M (x)_B A), the four D_M hom spaces and
    lifting._b_linear_space."""
    _, ca, m = case
    f, db = ca.field, m.base.dim
    mats = dense_actions(f, m.action_table, db)
    table = m.action_table
    assert dense_maps(f, m.dim, intertwiners(f, m.dim, m.dim, (
        table, table, db))) == stacked_kernel(f, m.dim, m.dim, mats, mats)
    module = tensor_over_B(m, ca).module
    if module.dim <= 12:
        acts = dense_actions(f, module.action_table, ca.algebra.dim)
        assert dense_maps(f, module.dim, end_A(ca, module)) == \
            stacked_kernel(f, module.dim, module.dim, acts, acts)
    ctx = context(ca, m)
    if ctx is None or ctx.x1_dim * ctx.x2_dim > 144:
        return
    dh = ca.hopf.dim
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        dx, x_act, x_co = ctx.object_data(i)
        dy, y_act, y_co = ctx.object_data(j)
        assert dense_maps(f, dy, ctx.dm_hom_space(i, j)) == stacked_kernel(
            f, dx, dy, dense_actions(f, x_act, db),
            dense_actions(f, y_act, db),
            (dense_rho(f, x_co, dh), dense_rho(f, y_co, dh)))
    assert dense_maps(f, m.dim, lifting._b_linear_space(ctx)) == \
        stacked_kernel(
        f, ctx.x2_dim, m.dim, dense_actions(f, ctx.x2_actions, db), mats)


# -- colinearity on action tables is X xa == ya X ----------------------------


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_colinearity_on_action_tables_is_b_linearity(case):
    """On hom-space basis elements, bumped ones and random matrices:
    colinear_witness on the action tables is None exactly when X xa == ya X
    for every k, and linear_witness is the first failing k."""
    _, ca, m = case
    ctx = context(ca, m)
    if ctx is None:
        return
    f, db, rng = ctx.field, ctx.b.dim, random.Random(9)
    checked = 0
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        dx, x_act, _ = ctx.object_data(i)
        dy, y_act, _ = ctx.object_data(j)
        xs, ys = dense_actions(f, x_act, db), dense_actions(f, y_act, db)
        basis = dense_maps(f, dy, ctx.dm_hom_space(i, j))
        for mat in (basis[:2] + [bumped(b, rng) for b in basis[:2]]
                    + [random_matrix(f, dy, dx, rng)]):
            want = dense_linear_witness(mat, xs, ys)
            cols = _columns(mat)
            assert linear_witness(f, cols, x_act, y_act) == want
            assert (colinear_witness(f, cols, x_act, y_act) is None) == \
                (want is None)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("case", CASES[::2], ids=IDS[::2])
def test_action_candidates_hold_the_former_act_matrices(case):
    """ActionCandidate's table against the former act_matrix, and its
    B-linearity check against the former per-k products."""
    _, ca, m = case
    ctx = context(ca, m)
    if ctx is None:
        return
    f, da, db, rng = ctx.field, ca.algebra.dim, ctx.b.dim, random.Random(3)
    xs = dense_actions(f, ctx.x2_actions, db)
    ys = dense_actions(f, m.action_table, db)
    space = dense_maps(f, m.dim, lifting._b_linear_space(ctx))
    for phi in space[:3] + [bumped(phi, rng) for phi in space[:2]]:
        want = dense_linear_witness(phi, xs, ys)
        try:
            cand = lifting.ActionCandidate(ctx, phi)
        except lifting.NotLinear as exc:
            assert str(exc) == f"phi is not B-linear at b_{want[0]}"
            continue
        assert want is None
        assert dense_actions(f, cand.action_table, da) == [
            dense_act(ctx, phi, basis_vec(f, da, a)) for a in range(da)]


# -- (6.2.1) and (6.2.2) summed from the tables ------------------------------


def dense_check_621(ctx, phi, u_prime):
    """The former lifting._check_621, on projected basis vectors."""
    f, dm, da = ctx.field, ctx.m.dim, ctx.ca.algebra.dim
    u_h = [endomorphism(ctx, _nonzero(u_prime.col(h)))
           for h in range(ctx.ca.hopf.dim)]

    def holds(mi, aj):
        em = basis_vec(f, dm, mi)
        x = project(ctx.quot, kron_vec(f, em, basis_vec(f, da, aj)))
        rhs = [f.zero] * ctx.quot.dim
        for a0, h, c in ctx.ca.coaction_table[aj]:
            p = project(ctx.quot, kron_vec(f, em, basis_vec(f, da, a0)))
            rhs = vec_add(f, rhs, vec_scale(f, c, u_h[h].apply(p)))
        return ctx.eta.apply(phi.apply(x)) == rhs

    return first_failure(holds, dm, da)


def dense_check_622(ctx, phi, t_coords):
    """The former lifting._check_622, on projected basis vectors."""
    f, dm, da, dh = ctx.field, ctx.m.dim, ctx.ca.algebra.dim, ctx.ca.hopf.dim
    t_h = [endomorphism(ctx, _nonzero(t_coords.col(h))) for h in range(dh)]
    rep = translation_map(ctx.ca).representative
    reps = [list(tensor_entries(f, rep.apply(basis_vec(f, dh, h)), (da, da)))
            for h in range(dh)]

    def holds(hj, mi, aj):
        em = basis_vec(f, dm, mi)
        x = project(ctx.quot, kron_vec(f, em, basis_vec(f, da, aj)))
        rhs = [f.zero] * ctx.quot.dim
        for (l, r), c in reps[hj]:
            mv = phi.apply(project(ctx.quot, kron_vec(f, em,
                                                     basis_vec(f, da, l))))
            av = ctx.ca.algebra.basis_product(r, aj)
            rhs = vec_add(f, rhs, vec_scale(
                f, c, project(ctx.quot, kron_vec(f, mv, av))))
        return t_h[hj].apply(x) == rhs

    return first_failure(holds, dh, dm, da)


@pytest.mark.parametrize("make, module", [
    (lambda: graded_m2(QQ), module_b), (lambda: graded_m2(F7), module_b),
    (lambda: regular_comodule(sweedler_h4(F5)), module_k),
    (lambda: regular_comodule(taft(F7, 3)), module_k)],
    ids=["M2Q", "M2F7", "H4F5", "T3F7"])
def test_lifting_identities_fail_where_the_dense_oracle_fails(make, module):
    """(6.2.1) and (6.2.2) on alpha^_12 of B-linear phi (two basis elements
    and a mixed one), on bumped t and u' and on random ones: the same first
    failing tuple.  T_3's Delta has q-binomial coefficients, so a dropped
    coefficient shows."""
    ca = make()
    ctx = maintheorem.TheoremContext(ca, module(ca))
    f, rng = ctx.field, random.Random(5)
    sbar = ca.hopf.antipode_inv
    outcomes = set()
    space = dense_maps(f, ctx.m.dim, lifting._b_linear_space(ctx))
    mixed = dense_lin_comb(space, [f.from_int(rng.randint(1, 4))
                                   for _ in space])
    for phi in space[:2] + [mixed]:
        cand = lifting.ActionCandidate(ctx, phi)
        t = dense(f, ctx.e.dim, maintheorem.alpha12_hat(ctx, _columns(phi)))
        for t in [t, bumped(t, rng), bumped(t, rng),
                  random_matrix(f, t.rows, t.cols, rng)]:
            want = dense_check_621(ctx, phi, t @ sbar)
            assert lifting._check_621(ctx, cand, t @ sbar) == want
            outcomes.add(want is None)
            want = dense_check_622(ctx, phi, t)
            assert lifting._check_622(ctx, cand, t) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}
