"""Differential tests for the pointwise axiom audits, and the Taft algebras.

validate_hopf, the algebra, coalgebra and comodule-algebra validators,
check_right_action and RelativeHopfModuleData.validate check every axiom
with first_failure on the sparse tables.  The dense Kronecker formulas they
replaced live on here only, as oracles: an audit must fail exactly the
axioms, in the same order, whose two dense sides differ, and each witness
is the lexicographically first column of lhs - rhs that is not zero.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hopfgalois.comodule import (ComoduleAlgebraData, RelativeHopfModuleData,
                                 regular_bmodule, tensor_over_B)
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra,
                                 graded_m2, group_algebra, regular_comodule,
                                 sweedler_h4, taft)
from hopfgalois.hopf import (BadCharacteristic, CoalgebraData,
                             HopfAlgebraData, StructureConstantAlgebra,
                             is_cocommutative, validate_hopf)
from hopfgalois.linalg import Matrix, _columns, _leg_columns, lin_comb

from conftest import (action_table, dense_actions, dense_comul, dense_mul,
                      dense_rho, gather_legs, kron_vec)

F2, F5, F7, F11 = (PrimeField(p) for p in (2, 5, 7, 11))


# -- the oracles -------------------------------------------------------------


def first_column(lhs, rhs, dims):
    """The index tuple of the first column where lhs and rhs differ."""
    diff = lhs - rhs
    flat = next((j for j in range(diff.cols) if any(diff.col(j))), None)
    if flat is None:
        return None
    return next(itertools.islice(itertools.product(*map(range, dims)),
                                 flat, None))


def dense_failures(checks):
    """(axiom, witness) for each failing (axiom, lhs, rhs, dims) check; dims
    None marks a check without a witness, whose sides are vectors."""
    out = []
    for axiom, lhs, rhs, dims in checks:
        if dims is None:
            if lhs != rhs:
                out.append((axiom, None))
        elif (witness := first_column(lhs, rhs, dims)) is not None:
            out.append((axiom, witness))
    return out


def dense_algebra(alg):
    f, n, mul = alg.field, alg.dim, dense_mul(alg)
    idn, u = Matrix.identity(f, n), Matrix.from_cols(f, [alg.unit])
    return [("algebra.associativity", mul @ mul.kron(idn), mul @ idn.kron(mul),
             (n, n, n)),
            ("algebra.left-unit", mul @ u.kron(idn), idn, (n,)),
            ("algebra.right-unit", mul @ idn.kron(u), idn, (n,))]


def dense_coalgebra(co):
    f, n, comul, counit = co.field, co.dim, dense_comul(co), co.counit
    idn = Matrix.identity(f, n)
    return [("coalgebra.coassociativity", comul.kron(idn) @ comul,
             idn.kron(comul) @ comul, (n,)),
            ("coalgebra.left-counit", counit.kron(idn) @ comul, idn, (n,)),
            ("coalgebra.right-counit", idn.kron(counit) @ comul, idn, (n,))]


def dense_hopf(h):
    f, n = h.field, h.dim
    idn = Matrix.identity(f, n)
    mul, comul = dense_mul(h.algebra), dense_comul(h.coalgebra)
    counit, unit = h.coalgebra.counit, h.algebra.unit
    mul2 = gather_legs(mul.kron(mul), (n,) * 4, (0, 2, 1, 3))  # on H (x) H
    eta_eps = Matrix.from_cols(f, [unit]) @ counit
    s, s_inv = h.antipode, h.antipode_inv
    return dense_algebra(h.algebra) + dense_coalgebra(h.coalgebra) + [
        ("bialgebra.comul-multiplicative", comul @ mul,
         mul2 @ comul.kron(comul), (n, n)),
        ("bialgebra.comul-unit", comul.apply(unit), kron_vec(f, unit, unit),
         None),
        ("bialgebra.counit-multiplicative", counit @ mul,
         counit.kron(counit), (n, n)),
        ("bialgebra.counit-unit", counit.apply(unit), [f.one], None),
        ("antipode.left", mul @ s.kron(idn) @ comul, eta_eps, (n,)),
        ("antipode.right", mul @ idn.kron(s) @ comul, eta_eps, (n,)),
        ("antipode.inverse-left", s @ s_inv, idn, (n,)),
        ("antipode.inverse-right", s_inv @ s, idn, (n,))]


def dense_coaction(prefix, hopf, rho, dim):
    f, idv = hopf.field, Matrix.identity(hopf.field, dim)
    idh = Matrix.identity(f, hopf.dim)
    return [(f"{prefix}.coassociativity", rho.kron(idh) @ rho,
             idv.kron(dense_comul(hopf.coalgebra)) @ rho, (dim,)),
            (f"{prefix}.counit", idv.kron(hopf.coalgebra.counit) @ rho, idv,
             (dim,))]


def dense_comodule(ca):
    f, da, dh = ca.field, ca.algebra.dim, ca.hopf.dim
    rho, a_mul = dense_rho(f, ca.coaction_table, dh), dense_mul(ca.algebra)
    mul2 = gather_legs(a_mul.kron(dense_mul(ca.hopf.algebra)),
                       (da, dh, da, dh), (0, 2, 1, 3))    # on A (x) H
    return dense_algebra(ca.algebra) + dense_coaction(
        "comodule", ca.hopf, rho, da) + [
        ("comodule.multiplicative", rho @ a_mul, mul2 @ rho.kron(rho),
         (da, da)),
        ("comodule.unit", rho.apply(ca.algebra.unit),
         kron_vec(f, ca.algebra.unit, ca.hopf.algebra.unit), None)]


def dense_right_action(alg, actions, dim, unit_name, assoc_name):
    """The former check_right_action on dense action matrices: the unit
    check as a dense identity, then every failing (i, j) of the lin_comb /
    @ associativity loop."""
    out = dense_failures([(unit_name, lin_comb(actions, alg.unit),
                           Matrix.identity(alg.field, dim), (dim,))])
    f, n = alg.field, alg.dim
    for i, j in itertools.product(range(n), repeat=2):
        prod = alg.product(*(Matrix.identity(f, n).col(k) for k in (i, j)))
        if lin_comb(actions, prod) != actions[j] @ actions[i]:
            out.append((assoc_name, (i, j)))
    return out


def dense_hopf_module(module, ca):
    """The former RelativeHopfModuleData.validate."""
    f, da, dh, dm = ca.field, ca.algebra.dim, ca.hopf.dim, module.dim
    rho = dense_rho(f, module.coaction_table, dh)
    actions = dense_actions(f, module.action_table, da)
    out = dense_right_action(ca.algebra, actions, dm,
                             "hopfmodule.action-unit",
                             "hopfmodule.action-associativity")
    out += dense_failures(dense_coaction("hopfmodule", ca.hopf, rho, dm))
    for a in range(da):
        rhs = Matrix.zeros(f, dm * dh, dm)
        rho_a = dense_rho(f, ca.coaction_table, dh).col(a)
        for flat, c in enumerate(rho_a):
            if c != f.zero:
                i, j = divmod(flat, dh)
                e_j = Matrix.identity(f, dh).col(j)
                term = (actions[i].kron(ca.hopf.algebra.rmul(e_j))
                        @ rho)
                rhs = rhs + term.scale(c)
        if rho @ actions[a] != rhs:
            out.append(("hopfmodule.compatibility", (a,)))
    return out


# -- the audits against the oracles -------------------------------------------


CASES = {
    "H4/F5": regular_comodule(sweedler_h4(F5)),
    "H4/F7": regular_comodule(sweedler_h4(F7)),
    "kC3/F5": regular_comodule(group_algebra(F5, cyclic_cayley(3))),
    "kC3*/F7": regular_comodule(dual_group_algebra(F7, cyclic_cayley(3))),
    "M2/F5": graded_m2(F5),
    "M2/F7": graded_m2(F7),
    "T3/F7": regular_comodule(taft(F7, 3)),
}
TARGETS = ("H.mul", "H.comul", "H.counit", "S", "A.mul", "rho")


def bumped(ca, target, pos, delta):
    """(H, A) rebuilt from their matrices, one entry of target moved by
    delta; S^-1 is kept, so a moved S also breaks the inverse checks."""
    h, f = ca.hopf, ca.field
    mats = {"H.mul": dense_mul(h.algebra),
            "H.comul": dense_comul(h.coalgebra),
            "H.counit": h.coalgebra.counit, "S": h.antipode,
            "A.mul": dense_mul(ca.algebra),
            "rho": dense_rho(f, ca.coaction_table, h.dim)}
    old = mats[target]
    data = list(old.data)
    data[pos % len(data)] = f.add(data[pos % len(data)], f.from_int(delta))
    mats[target] = Matrix(f, old.rows, old.cols, data)
    hopf = HopfAlgebraData(
        StructureConstantAlgebra(f, h.dim, _columns(mats["H.mul"]),
                                 h.algebra.unit),
        CoalgebraData(f, h.dim, _leg_columns(mats["H.comul"], h.dim),
                      mats["H.counit"]),
        mats["S"], h.antipode_inv)
    alg = StructureConstantAlgebra(f, ca.algebra.dim, _columns(mats["A.mul"]),
                                   ca.algebra.unit)
    return ComoduleAlgebraData(hopf, alg, _leg_columns(mats["rho"], h.dim))


@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_structures_pass_both_audits(name):
    ca = CASES[name]
    assert dense_failures(dense_hopf(ca.hopf)) == []
    assert dense_failures(dense_comodule(ca)) == []
    assert validate_hopf(ca.hopf).passed and ca.validate().passed


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.sampled_from(TARGETS),
       st.integers(0, 10 ** 6), st.integers(1, 4))
def test_one_bumped_entry_fails_what_the_dense_oracle_fails(name, target, pos,
                                                            delta):
    ca = bumped(CASES[name], target, pos, delta)
    assert validate_hopf(ca.hopf).failures == dense_failures(dense_hopf(ca.hopf))
    assert ca.validate().failures == dense_failures(dense_comodule(ca))


def test_witness_is_the_first_failing_column():
    """With 1 * 1 = 2 in H4 over F_5, associativity first fails at
    (1, 1, g): (1 1) g = 2g but 1 (1 g) = g.  The row-major scan of the
    former dense audit met (1, g, g) first, (1 g) g = 1 but 1 (g g) = 2,
    because its defect lies in row 1 and that of (1, 1, g) in row g."""
    ca = bumped(CASES["H4/F5"], "H.mul", 0, 1)
    assert validate_hopf(ca.hopf).failures[0] == ("algebra.associativity",
                                                  (0, 0, 1))
    mul, idn = dense_mul(ca.hopf.algebra), Matrix.identity(F5, 4)
    diff = mul @ mul.kron(idn) - mul @ idn.kron(mul)
    assert next(i for i, x in enumerate(diff.data) if x) == 0 * 64 + 5


@pytest.mark.parametrize("name", ["H4/F5", "M2/F5", "M2/F7"])
def test_hopf_module_audit_matches_the_dense_oracle(name):
    """M (x)_B A for M = B, then each entry of each action and of the
    coaction moved by 1 in turn: action-unit, coassociativity and counit
    are the pointwise audits, action-associativity and compatibility
    report every failing index."""
    ca = CASES[name]
    base = tensor_over_B(regular_bmodule(ca), ca).module
    assert base.validate(ca).failures == dense_hopf_module(base, ca) == []
    f, one, dh = ca.field, ca.field.one, ca.hopf.dim
    coaction = dense_rho(f, base.coaction_table, dh)
    actions = dense_actions(f, base.action_table, ca.algebra.dim)
    for k, mat in enumerate(actions + [coaction]):
        for pos in range(len(mat.data)):
            data = list(mat.data)
            data[pos] = f.add(data[pos], one)
            moved = actions + [coaction]
            moved[k] = Matrix(f, mat.rows, mat.cols, data)
            module = RelativeHopfModuleData(f, base.dim,
                                            action_table(moved[:-1]),
                                            _leg_columns(moved[-1], dh))
            failures = module.validate(ca).failures
            assert failures and failures == dense_hopf_module(module, ca)


# -- the Taft algebras -----------------------------------------------------


H4_MUL = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
          (1, 0, 1, 1), (1, 1, 0, 1), (1, 2, 3, 1), (1, 3, 2, 1),
          (2, 0, 2, 1), (2, 1, 3, -1), (3, 0, 3, 1), (3, 1, 2, -1)]
H4_COMUL = [(0, 0, 0), (1, 1, 1), (2, 2, 0), (2, 1, 2), (3, 3, 1), (3, 0, 3)]
H4_ANTIPODE = [(0, 0, 1), (1, 1, 1), (3, 2, -1), (2, 3, 1)]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_taft_2_is_the_sweedler_algebra(field):
    """The constants of the hand-written H4: e_i e_j = c e_k for (i, j, k, c),
    Delta(e_c) = Sum e_a (x) e_b over (c, a, b), and S as (row, col, c)."""
    h = taft(field, 2)
    mul = Matrix.zeros(field, 4, 16)
    for i, j, k, c in H4_MUL:
        mul.data[k * 16 + i * 4 + j] = field.from_int(c)
    comul = Matrix.zeros(field, 16, 4)
    for c, a, b in H4_COMUL:
        comul.data[(a * 4 + b) * 4 + c] = field.one
    antipode = Matrix.zeros(field, 4, 4)
    for r, c, x in H4_ANTIPODE:
        antipode.data[r * 4 + c] = field.from_int(x)
    assert h.labels == ["1", "g", "x", "gx"]
    assert h.algebra.unit == [field.one, field.zero, field.zero, field.zero]
    assert dense_mul(h.algebra) == mul and dense_comul(h.coalgebra) == comul
    assert h.coalgebra.counit.data == [field.one] * 2 + [field.zero] * 2
    assert h.antipode == antipode and h.antipode_inv == antipode.invert()
    assert dense_mul(sweedler_h4(field).algebra) == mul


@pytest.mark.parametrize("field, n", [(F2, 2), (QQ, 3), (F7, 4), (F5, 3),
                                      (F5, 1)])
def test_taft_refuses_without_a_primitive_root(field, n):
    with pytest.raises(BadCharacteristic):
        taft(field, n)


def test_taft_uses_the_least_primitive_root():
    """x g = q g x, read off the product of e_x (index n) and e_g (index 1),
    against a brute-force search for q over small primes."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for n in (n for n in range(2, 7) if (p - 1) % n == 0):
            q = min(x for x in range(2, p) if pow(x, n, p) == 1
                    and all(pow(x, k, p) != 1 for k in range(1, n)))
            h = taft(PrimeField(p), n)
            assert h.algebra.basis_product(n, 1) == [
                q if k == n + 1 else 0 for k in range(n * n)]
            assert h.labels[n + 1] == "gx" and h.labels[n - 1] == (
                "g" if n == 2 else f"g^{n - 1}")


def test_taft_over_a_large_prime_needs_no_search():
    """Over F_p with p = 2^61 - 1, q is p - 1 for n = 2 and the smaller of
    the two primitive cube roots q, q^2 = p - 1 - q for n = 3."""
    f = PrimeField(2 ** 61 - 1)
    h2, h3 = taft(f, 2), taft(f, 3)
    assert h2.algebra.basis_product(2, 1)[3] == f.p - 1
    q = h3.algebra.basis_product(3, 1)[4]
    assert pow(q, 3, f.p) == 1 and q != 1 and q < f.p - 1 - q
    assert validate_hopf(h2).passed and validate_hopf(h3).passed


@pytest.mark.parametrize("n, field", [(3, F7), (4, F5), (5, F11)])
def test_regular_taft_comodule_passes_validate(n, field):
    ca = regular_comodule(taft(field, n))
    assert validate_hopf(ca.hopf).passed and ca.validate().passed
    assert not ca.algebra.is_commutative() and not is_cocommutative(ca.hopf)
    assert ca.coinvariants().dim == 1
