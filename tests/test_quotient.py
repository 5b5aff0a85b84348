"""Differential tests for the index-map quotient M (x)_B A.

tensor_over_B, the canonical maps can and can', the representatives of
gamma_A and the translation identities (1.2.1)-(1.2.7) read mul_table,
rho's table and the QuotientSpace index maps (free, columns).  Each must
equal the former dense construction: Kronecker products, a dense
projection/section pair and the matrix forms of the identities.  Those
dense bodies live on here only, as the oracles.  The identity oracle
reports, per identity, the first failing basis tuple (the first failing
column of lhs - rhs), the convention of the pointwise checks.
"""

import random
from pathlib import Path

import pytest

from hopfgalois import cleft, galois, io_json
from hopfgalois.comodule import (BModule, ComoduleAlgebraData,
                                 IllDefinedStructure, algebra_as_bmodule,
                                 regular_bmodule, tensor_over_B)
from hopfgalois.fields import PrimeField
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra,
                                 graded_m2, group_algebra, regular_comodule,
                                 taft, trivial_coaction)
from hopfgalois.galois import (canonical_map, canonical_map_prime,
                               translation_map, verify_translation_identities)
from hopfgalois.hopf import (CoalgebraData, HopfAlgebraData,
                             StructureConstantAlgebra, validate_hopf)
from hopfgalois.linalg import (Matrix, _columns, _leg_columns, basis_vec,
                               intertwiners, summed)

from conftest import (action_table, dense, dense_actions, dense_can,
                      dense_comul, dense_gamma, dense_mul, dense_rho,
                      gather_legs, kron_vec, scatter_legs, tensor_entries,
                      vec_add, vec_scale)
from test_linalg import dense_rref

F5, F7 = PrimeField(5), PrimeField(7)
FIXTURES = Path(__file__).resolve().parents[1] / "src" / "hopfgalois" / "fixtures"


# -- the oracles -------------------------------------------------------------


def vec_is_zero(field, v):
    return all(a == field.zero for a in v)


def rho_of(ca):
    """The coaction of ca as a dense (dim A * dim H) x dim A matrix."""
    return dense_rho(ca.field, ca.coaction_table, ca.hopf.dim)


class DenseQuotient:
    """The former QuotientSpace: a dense projection/section pair."""

    def __init__(self, field, ambient_dim, relations):
        self.field = field
        self.relations = relations
        if relations:
            red, pivots = dense_rref(Matrix.from_rows(field, relations))
        else:
            red, pivots = Matrix.zeros(field, 0, ambient_dim), []
        pivot_set = set(pivots)
        free = [j for j in range(ambient_dim) if j not in pivot_set]
        self.dim = len(free)
        proj = Matrix.zeros(field, self.dim, ambient_dim)
        sect = Matrix.zeros(field, ambient_dim, self.dim)
        for qi, fc in enumerate(free):
            proj.data[qi * ambient_dim + fc] = field.one
            sect.data[fc * self.dim + qi] = field.one
        for r, pc in enumerate(pivots):
            for qi, fc in enumerate(free):
                proj.data[qi * ambient_dim + pc] = field.neg(red.get(r, fc))
        self.projection = proj
        self.section = sect

    def check_welldefined(self, ambient_map):
        """True iff projection . ambient_map kills every relation."""
        return all(vec_is_zero(self.field, self.projection.apply(
            ambient_map.apply(rel))) for rel in self.relations)


def dense_tensor_over_B(m, ca):
    """The former tensor_over_B: (quotient, actions, coaction)."""
    f = ca.field
    b = ca.coinvariants()
    da, dh, dm = ca.algebra.dim, ca.hopf.dim, m.dim
    relations, m_acts = [], dense_actions(f, m.action_table, b.dim)
    for i in range(dm):
        em = basis_vec(f, dm, i)
        for k in range(b.dim):
            mb = m_acts[k].apply(em)
            lb = ca.algebra.lmul(b.inclusion.col(k))
            for j in range(da):
                ea = basis_vec(f, da, j)
                rel = [f.sub(x, y) for x, y in
                       zip(kron_vec(f, mb, ea), kron_vec(f, em, lb.apply(ea)))]
                if not vec_is_zero(f, rel):
                    relations.append(rel)
    quot = DenseQuotient(f, dm * da, relations)
    idm = Matrix.identity(f, dm)
    actions = []
    for j in range(da):
        amb = idm.kron(ca.algebra.rmul(basis_vec(f, da, j)))
        if not quot.check_welldefined(amb):
            raise IllDefinedStructure("A-action does not respect the relations")
        actions.append(quot.projection @ amb @ quot.section)
    amb_rho = idm.kron(rho_of(ca))
    pi_h = quot.projection.kron(Matrix.identity(f, dh))
    for rel in quot.relations:
        if not vec_is_zero(f, (pi_h @ amb_rho).apply(rel)):
            raise IllDefinedStructure("coaction does not respect the relations")
    return quot, actions, pi_h @ amb_rho @ quot.section


def dense_can_ambient(ca):
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    return (dense_mul(ca.algebra).kron(Matrix.identity(f, dh))
            @ Matrix.identity(f, da).kron(rho_of(ca)))


def dense_can_prime_ambient(ca):
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    # a_[0] (x) a_[1] (x) a' -> a_[0] (x) a' (x) a_[1]
    moved = scatter_legs(rho_of(ca).kron(Matrix.identity(f, da)),
                         (da, dh, da), (0, 2, 1))
    return dense_mul(ca.algebra).kron(Matrix.identity(f, dh)) @ moved


def first_col(lhs, rhs):
    return next(((c,) for c in range(lhs.cols) if lhs.col(c) != rhs.col(c)),
                None)


def dense_identities(ca, gamma, rep, quot):
    """The former matrix forms of (1.2.1)-(1.2.7): [(name, first failing
    basis tuple)] for those that fail, for gamma and its representatives
    rep as dense matrices, quot a DenseQuotient of A (x)_B A."""
    f = ca.field
    da, dh = ca.algebra.dim, ca.hopf.dim
    alg, hopf = ca.algebra, ca.hopf
    pi, rho = quot.projection, rho_of(ca)
    ida, idh = Matrix.identity(f, da), Matrix.identity(f, dh)
    out = []

    def record(name, witness):
        if witness is not None:
            out.append((name, witness))

    # (1.2.1)
    record("1.2.1", first_col(dense_can_ambient(ca) @ rep, Matrix.from_cols(
        f, [kron_vec(f, alg.unit, basis_vec(f, dh, j)) for j in range(dh)],
        nrows=da * dh)))
    # (1.2.2)
    b = ca.coinvariants()
    record("1.2.2", next(
        ((k,) + w for k in range(b.dim) for w in [first_col(
            pi @ alg.lmul(b.inclusion.col(k)).kron(ida) @ rep,
            pi @ ida.kron(alg.rmul(b.inclusion.col(k))) @ rep)]
         if w is not None), None))
    # (1.2.3)
    record("1.2.3", first_col(
        gamma.kron(idh) @ dense_comul(hopf.coalgebra),
        pi.kron(idh) @ ida.kron(rho) @ rep))
    # (1.2.4)
    record("1.2.4", first_col(
        gamma.kron(hopf.antipode) @ scatter_legs(dense_comul(hopf.coalgebra),
                                                 (dh, dh), (1, 0)),
        pi.kron(idh) @ scatter_legs(rho.kron(ida) @ rep,
                                    (da, dh, da), (0, 2, 1))))
    # (1.2.5)
    record("1.2.5", first_col(dense_mul(alg) @ rep, Matrix.from_cols(
        f, [alg.unit]) @ hopf.coalgebra.counit))
    # (1.2.6) and (1.2.6a), column a by column a
    lhs6, lhs6a = [], []
    for a_idx in range(da):
        acc, acc_a = [f.zero] * quot.dim, [f.zero] * quot.dim
        for (i, j), c in tensor_entries(
                f, rho.apply(basis_vec(f, da, a_idx)), (da, dh)):
            term = pi @ alg.lmul(basis_vec(f, da, i)).kron(ida)
            acc = vec_add(f, acc, vec_scale(f, c, term.apply(
                rep.apply(basis_vec(f, dh, j)))))
            v = rep.apply(hopf.antipode_inv.apply(basis_vec(f, dh, j)))
            term = pi @ ida.kron(alg.rmul(basis_vec(f, da, i)))
            acc_a = vec_add(f, acc_a, vec_scale(f, c, term.apply(v)))
        lhs6.append(acc)
        lhs6a.append(acc_a)
    one_a = Matrix.from_cols(f, [kron_vec(f, alg.unit, basis_vec(f, da, a))
                                 for a in range(da)])
    a_one = Matrix.from_cols(f, [kron_vec(f, basis_vec(f, da, a), alg.unit)
                                 for a in range(da)])
    record("1.2.6", first_col(Matrix.from_cols(f, lhs6), pi @ one_a))
    record("1.2.6a", first_col(Matrix.from_cols(f, lhs6a), pi @ a_one))
    # (1.2.7)
    mul = dense_mul(alg)
    combine = pi @ gather_legs(mul.kron(mul), (da,) * 4, (0, 2, 3, 1))
    record("1.2.7", next(
        ((hi, hj) for hi in range(dh) for hj in range(dh)
         if gamma.apply(hopf.algebra.basis_product(hi, hj))
         != combine.apply(kron_vec(f, rep.apply(basis_vec(f, dh, hj)),
                                   rep.apply(basis_vec(f, dh, hi))))),
        None))
    return out


def dense_projection(quot):
    """The projection of an index-map QuotientSpace as a matrix."""
    f, n = quot.field, len(quot.columns)
    proj = Matrix.zeros(f, quot.dim, n)
    for j, col in enumerate(quot.columns):
        for q, x in col:
            proj.data[q * n + j] = x
    return proj


def dense_section(quot):
    f, n = quot.field, len(quot.columns)
    sect = Matrix.zeros(f, n, quot.dim)
    for q, j in enumerate(quot.free):
        sect.data[j * quot.dim + q] = f.one
    return sect


# -- comparisons -------------------------------------------------------------


def check_induction(m, ca, rng):
    """tensor_over_B(m, ca) and the QuotientSpace view against the oracle."""
    ind = tensor_over_B(m, ca)
    quot, actions, coaction = dense_tensor_over_B(m, ca)
    q, f = ind.quotient, ca.field
    proj, sect = dense_projection(q), dense_section(q)
    assert (q.dim, proj, sect) == (quot.dim, quot.projection, quot.section)
    assert proj @ sect == Matrix.identity(f, q.dim)
    assert dense_actions(f, ind.module.action_table, ca.algebra.dim) == actions
    assert ind.module.coaction_table == _leg_columns(coaction, ca.hopf.dim)
    n = len(q.columns)
    amb = Matrix(f, 3, n, [f.from_int(rng.randint(-2, 2)) for _ in range(3 * n)])
    for c in range(3):      # the classes of a row, summed, are its image
        assert summed(f, q.dim, 1, (
            (k, x) for (k, _), x in q.classes(
                (j, 0, x) for j, x in enumerate(amb.row(c))))).data \
            == proj.apply(amb.row(c))
    ida = Matrix.identity(f, ca.algebra.dim)
    table = m.action_table
    for g in intertwiners(f, m.dim, m.dim, (table, table, m.base.dim)):
        assert ind.induced_map(g) == \
            proj @ dense(f, m.dim, g).kron(ida) @ sect
    return ind, quot


def dense_translation(ca, can):
    """gamma and its representatives, from their columns, as dense
    (dim A (x)_B A) x dim H and (dim A)^2 x dim H matrices."""
    f, da = ca.field, ca.algebra.dim
    return dense(f, can.quotient.dim, can.gamma), dense(f, da * da, [
        [(l * da + r, x) for l, r, x in col]
        for col in translation_map(ca, can)])


def check_galois(ca, rng):
    """A (x)_B A, can, can', their solutions at 1 (x) H, gamma's
    representatives and the identities."""
    _, quot = check_induction(algebra_as_bmodule(ca), ca, rng)
    can, can_p = canonical_map(ca), canonical_map_prime(ca)
    for got, ambient in ((can, dense_can_ambient), (can_p,
                                                    dense_can_prime_ambient)):
        mat = dense_can(ca, got)[0]
        assert mat == ambient(ca) @ quot.section
        assert got.galois == (len(dense_rref(mat)[1]) == mat.rows == mat.cols)
        if got.galois:
            assert dense(ca.field, quot.dim, got.gamma) == dense_gamma(ca, got)
    if not can.galois:
        return None
    mat, inv = dense_can(ca, can)
    assert mat @ inv == inv @ mat == Matrix.identity(ca.field, mat.rows)
    gamma, rep = dense_translation(ca, can)
    assert rep == quot.section @ gamma
    report = verify_translation_identities(ca, can)
    assert report.passed, report.failures
    assert dense_identities(ca, gamma, rep, quot) == []
    return can, quot


def fixture_cases():
    for path in sorted(FIXTURES.glob("*.json")):
        bundle = io_json.load_bundle(path)
        for name, ca in sorted(bundle.comodule_algebras.items()):
            mods = [m for m in bundle.modules.values() if m.ca_name == name]
            yield path.stem, name, ca, mods
        for name in sorted(bundle.crossed_products):
            cp = cleft.build_crossed_product(
                *bundle.crossed_products[name][:5])
            yield path.stem, name, cp.algebra, []


@pytest.mark.parametrize("case", list(fixture_cases()),
                         ids=lambda c: f"{c[0]}:{c[1]}")
def test_fixture_constructions_equal_the_dense_oracle(case):
    _, _, ca, modules = case
    rng = random.Random(1)
    check_galois(ca, rng)
    for m in modules + [regular_bmodule(ca)]:
        check_induction(m, ca, rng)


def relabelled(ca, seed):
    """ca with the bases of H and of A permuted at random, independently:
    an isomorphic comodule algebra with other pivots."""
    rng = random.Random(seed)
    f, h, alg = ca.field, ca.hopf, ca.algebra
    s, t = rng.sample(range(h.dim), h.dim), rng.sample(range(alg.dim), alg.dim)

    def flat(legs):                     # new flat index of each old one
        to = [0]
        for p in legs:
            to = [x * len(p) + p[i] for x in to for i in range(len(p))]
        return to

    def move(mat, row_legs, col_legs):
        out, rows, cols = Matrix.zeros(f, mat.rows, mat.cols), flat(row_legs), flat(col_legs)
        for r in range(mat.rows):
            for c in range(mat.cols):
                out.data[rows[r] * mat.cols + cols[c]] = mat.get(r, c)
        return out

    def algebra(a, p):
        return StructureConstantAlgebra(
            f, a.dim, _columns(move(dense_mul(a), [p], [p, p])),
            move(Matrix(f, a.dim, 1, a.unit), [p], []).data)

    hopf = HopfAlgebraData(
        algebra(h.algebra, s),
        CoalgebraData(f, h.dim, _leg_columns(
            move(dense_comul(h.coalgebra), [s, s], [s]), h.dim),
                      move(h.coalgebra.counit, [], [s])),
        move(h.antipode, [s], [s]), move(h.antipode_inv, [s], [s]))
    out = ComoduleAlgebraData(hopf, algebra(alg, t), _leg_columns(
        move(rho_of(ca), [t, s], [t]), h.dim))
    assert validate_hopf(hopf).passed and out.validate().passed
    return out


RUNGS = {
    "kC3": lambda: regular_comodule(group_algebra(F7, cyclic_cayley(3))),
    "kC4": lambda: regular_comodule(group_algebra(F7, cyclic_cayley(4))),
    "(kC4)^*": lambda: regular_comodule(dual_group_algebra(F7, cyclic_cayley(4))),
    "T2": lambda: regular_comodule(taft(F7, 2)),
    "T3": lambda: regular_comodule(taft(F7, 3)),
    "M2": lambda: graded_m2(F7),
    "kC3-trivial": lambda: trivial_coaction(
        group_algebra(F7, cyclic_cayley(2)),
        group_algebra(F7, cyclic_cayley(3)).algebra),
    "k4-trivial": lambda: trivial_coaction(
        group_algebra(F7, cyclic_cayley(2)),
        dual_group_algebra(F7, cyclic_cayley(4)).algebra),
}


@pytest.mark.parametrize("name", sorted(RUNGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelled_rungs_equal_the_dense_oracle(name, seed):
    """Seed 0 is the rung as built (the regular T_2, T_3 over F_7 among them)."""
    ca = RUNGS[name]()
    ca = relabelled(ca, seed) if seed else ca
    rng = random.Random(seed)
    check_galois(ca, rng)
    check_induction(regular_bmodule(ca), ca, rng)
    b = ca.coinvariants()
    # B (+) B in a basis that mixes every coordinate: its relations are not
    # monomial, so the projection has nonzero entries at the pivots
    n = 2 * b.dim
    mix = Matrix(F7, n, n, [F7.one if c >= r else F7.zero
                            for r in range(n) for c in range(n)])
    twice = BModule(b, n, action_table([mix @ Matrix.identity(F7, 2).kron(
        b.algebra.rmul(basis_vec(F7, b.dim, k))) @ mix.invert()
        for k in range(b.dim)]))
    assert twice.validate().passed
    check_induction(twice, ca, rng)


# -- corrupted translation maps: the witnesses --------------------------------


def corruptions(gamma, rep, quot, rng):
    """(label, gamma, representative) pairs, each a small corruption."""
    f = gamma.field

    def bump(mat, r, c, x):
        data = list(mat.data)
        data[r * mat.cols + c] = f.add(data[r * mat.cols + c], x)
        return Matrix(f, mat.rows, mat.cols, data)

    yield "scaled", gamma.scale(f.from_int(2)), rep.scale(f.from_int(2))
    for _ in range(4):
        q, h = rng.randrange(gamma.rows), rng.randrange(gamma.cols)
        j = rng.randrange(rep.rows)
        yield "both", bump(gamma, q, h, f.one), quot.section @ bump(gamma, q, h, f.one)
        yield "gamma", bump(gamma, q, h, f.one), rep
        yield "rep", gamma, bump(rep, j, h, f.one)


@pytest.mark.parametrize("name", ["T2", "kC3", "(kC4)^*", "M2"])
def test_identity_witnesses_equal_the_dense_oracle(name, monkeypatch):
    """gamma is set on the canonical map and the representatives are
    patched in, so that each can be corrupted alone."""
    ca = relabelled(RUNGS[name](), 3)
    rng = random.Random(4)
    can, quot = check_galois(ca, rng)
    failing = 0
    for label, g, r in corruptions(*dense_translation(ca, can), quot, rng):
        can.gamma = _columns(g)
        monkeypatch.setattr(galois, "translation_map", lambda ca, can, r=r:
                            _leg_columns(r, ca.algebra.dim))
        got = verify_translation_identities(ca, can).failures
        assert got == dense_identities(ca, g, r, quot), label
        failing += bool(got)
    assert failing >= 10


@pytest.mark.parametrize("n,p", [(2, 7), (3, 7), (4, 5), (5, 11)])
def test_gamma_is_the_eliminated_can_inverse_on_the_taft_rungs(n, p):
    """The solutions of can and can' at 1 (x) H against dense_gamma's
    full elimination, on the regular T_2 to T_5."""
    ca = regular_comodule(taft(PrimeField(p), n))
    for can in (canonical_map(ca), canonical_map_prime(ca)):
        assert can.galois
        assert dense(ca.field, can.quotient.dim, can.gamma) \
            == dense_gamma(ca, can)


# -- ill-defined inductions ----------------------------------------------------


def test_non_associative_algebra_has_no_induced_action():
    """A = span(1, u, v, w) graded by C_2 (u even, v, w odd) with u v = w and
    w v = 1, so (u v) v = 1 but u (v v) = 0; B = span(1, u), M = k with u
    acting as 0.  The relation 1 (x) u v = 1 (x) w, times v, is
    1 (x) w v = 1 (x) 1, which no relation reaches."""
    h = group_algebra(F5, cyclic_cayley(2))
    mul = Matrix.zeros(F5, 4, 16)
    for i, j, k in [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 1),
                    (2, 0, 2), (3, 0, 3), (1, 2, 3), (3, 2, 0)]:
        mul.data[k * 16 + i * 4 + j] = 1
    rho = Matrix.zeros(F5, 8, 4)
    for a, deg in enumerate([0, 0, 1, 1]):
        rho.data[(a * 2 + deg) * 4 + a] = 1
    ca = ComoduleAlgebraData(h, StructureConstantAlgebra(
        F5, 4, _columns(mul), [1, 0, 0, 0]), _leg_columns(rho, 2))
    assert ca.validate().failures == [("algebra.associativity", (1, 2, 2))]
    m = BModule(ca.coinvariants(), 1,
                action_table([Matrix(F5, 1, 1, [x]) for x in (1, 0)]))
    for build in (tensor_over_B, dense_tensor_over_B):
        with pytest.raises(IllDefinedStructure, match="A-action"):
            build(m, ca)


def test_coaction_not_linear_over_the_coinvariants_is_refused():
    """A = k^3 (idempotents e_0, e_1, e_2) over kC_2 with rho(e_0) = e_0 (x) 1
    and rho(e_1), rho(e_2) = e_{1,2} (x) 1 +- (e_0 - e_2) (x) (g - 1): B =
    span(e_0, e_1 + e_2), and rho(e_0 e_1) = 0 but e_0 rho(e_1) =
    e_0 (x) (g - 1)."""
    h = group_algebra(F5, cyclic_cayley(2))
    rho = Matrix.zeros(F5, 6, 3)
    for a in range(3):
        rho.data[(a * 2) * 3 + a] = 1
    for sign, col in ((1, 1), (-1, 2)):
        for a, hh, x in ((0, 1, sign), (0, 0, -sign), (2, 1, -sign), (2, 0, sign)):
            rho.data[(a * 2 + hh) * 3 + col] = (rho.data[(a * 2 + hh) * 3 + col] + x) % 5
    k3 = dual_group_algebra(F5, cyclic_cayley(3)).algebra
    ca = ComoduleAlgebraData(h, k3, _leg_columns(rho, 2))
    assert ca.coinvariants().dim == 2
    assert ca.validate().failures == [("comodule.multiplicative", (0, 1))]
    for build in (tensor_over_B, dense_tensor_over_B):
        with pytest.raises(IllDefinedStructure, match="coaction"):
            build(regular_bmodule(ca), ca)
