"""The coaction table as the only form of rho.

ComoduleAlgebraData and RelativeHopfModuleData take a coaction table and
normalise it (each entry list sorted, zeros dropped); comul_on writes the
table of I_d (x) Delta, the coinvariants are the kernel of the colinearity
operator from k, and Eq. (14) is checked pointwise.  The oracles here are
the dense forms: I_d (x) Delta as a Kronecker product, the kernel of
rho - ((-) (x) 1) and the matrix form of Eq. (14).  M (x)_B A builds its
module, action and coaction tables, with its quotient.
"""

import random

import pytest

from hopfgalois import cleft
from hopfgalois.comodule import (ComoduleAlgebraData, RelativeHopfModuleData,
                                 algebra_as_bmodule,
                                 comodule_coinvariant_basis, regular_bmodule,
                                 tensor_over_B)
from hopfgalois.endomorphism import (EndComoduleAlgebra, build_E,
                                     verify_eq14)
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (graded_m2, regular_comodule, sweedler_h4,
                                 taft)
from hopfgalois.galois import verify_translation_identities
from hopfgalois.hopf import DimensionMismatch, comul_on
from hopfgalois.linalg import Matrix, _leg_columns, basis_vec

from conftest import (action_table, dense, dense_actions, dense_comul,
                      dense_rho, kron_vec, module_b, module_k)
from test_linalg import dense_kernel
from test_quotient import RUNGS, dense_tensor_over_B, fixture_cases
from test_tables import shipped_coalgebras, shuffled

F5, F7 = PrimeField(5), PrimeField(7)


def dense_coinvariant_basis(field, table, hopf_unit):
    """The kernel of rho - ((-) (x) 1) with both maps dense."""
    dim, dh = len(table), len(hopf_unit)
    embed = Matrix.from_cols(field, [kron_vec(field, basis_vec(field, dim, j),
                                              hopf_unit) for j in range(dim)],
                             nrows=dim * dh)
    kernel = dense_kernel(dense_rho(field, table, dh) - embed)
    return Matrix.from_cols(field, kernel, nrows=dim)


def dense_eq14(e):
    """The former verify_eq14: rho o f_i against Sum c (f_k (x) L(e_j)) o rho
    over the table of rho(f_i), as dense matrices."""
    ca, module = e.base, e.induced.module
    f, dh = ca.field, ca.hopf.dim
    rho = dense_rho(f, module.coaction_table, dh)
    basis = [dense(f, module.dim, b) for b in e.basis]
    for i in range(e.dim):
        rhs = Matrix.zeros(f, module.dim * dh, module.dim)
        for k, j, c in e.ca.coaction_table[i]:
            term = basis[k].kron(ca.hopf.algebra.lmul(
                basis_vec(f, dh, j))) @ rho
            rhs = rhs + term.scale(c)
        if rho @ basis[i] != rhs:
            return False, i
    return True, None


def test_comul_on_is_the_dense_identity_tensor_delta():
    seen = 0
    for co in shipped_coalgebras():
        f, n = co.field, co.dim
        for d in (1, 2, 3):
            dense = Matrix.identity(f, d).kron(dense_comul(co))
            assert comul_on(co, d) == _leg_columns(dense, n)
            seen += 1
    assert seen > 30


# -- the constructors normalise the coaction table --------------------------


def bumped_coaction(ca):
    """ca with rho(e_last) doubled in its last term: a broken coaction."""
    table = [list(terms) for terms in ca.coaction_table]
    a0, h, x = table[-1][-1]
    table[-1][-1] = (a0, h, ca.field.add(x, x))
    return ComoduleAlgebraData(ca.hopf, ca.algebra, table)


@pytest.mark.parametrize("make", [
    lambda: regular_comodule(taft(F7, 2)), lambda: RUNGS["T3"](),
    lambda: graded_m2(F7), lambda: graded_m2(QQ),
    lambda: bumped_coaction(RUNGS["T3"]())],
    ids=["T2F7", "T3F7", "M2F7", "M2Q", "T3F7-broken"])
def test_shuffled_coaction_tables_build_the_same_structures(make):
    ca, rng = make(), random.Random(6)
    zero = ca.field.zero
    table = shuffled(ca.coaction_table, rng)
    table[0].append((0, 0, zero))               # an explicit zero
    again = ComoduleAlgebraData(ca.hopf, ca.algebra, table)
    assert again.coaction_table == ca.coaction_table
    assert again.validate().failures == ca.validate().failures
    with pytest.raises(DimensionMismatch):
        ComoduleAlgebraData(ca.hopf, ca.algebra, ca.coaction_table[:-1])
    if not ca.validate().passed:
        return
    module = tensor_over_B(regular_bmodule(ca), ca).module
    table = shuffled(module.coaction_table, rng)
    table[-1].insert(0, (0, 0, zero))
    actions = shuffled(module.action_table, rng)
    actions[0].append((0, 0, zero))
    again = RelativeHopfModuleData(ca.field, module.dim, actions, table)
    assert again.coaction_table == module.coaction_table
    assert again.action_table == module.action_table
    assert again.validate(ca).failures == module.validate(ca).failures
    with pytest.raises(DimensionMismatch):
        RelativeHopfModuleData(ca.field, module.dim, module.action_table,
                               module.coaction_table + [[]])
    with pytest.raises(DimensionMismatch):
        RelativeHopfModuleData(ca.field, module.dim,
                               module.action_table[:-1],
                               module.coaction_table)


# -- the coinvariants ---------------------------------------------------------


def coinvariant_cases():
    for stem, name, ca, _ in fixture_cases():
        yield f"{stem}:{name}", ca
    for field in (QQ, F7):
        ca = graded_m2(field)
        for module in (module_b, module_k):
            e = build_E(ca, tensor_over_B(module(ca), ca))
            yield f"E(M2, {module.__name__}, {field})", e.ca


@pytest.mark.parametrize("case", list(coinvariant_cases()),
                         ids=lambda c: c[0])
def test_coinvariant_basis_is_the_dense_kernel(case):
    _, ca = case
    f, unit = ca.field, ca.hopf.algebra.unit
    got = comodule_coinvariant_basis(f, ca.algebra.dim, ca.coaction_table,
                                     unit)
    assert got == dense_coinvariant_basis(f, ca.coaction_table, unit)
    assert got.cols == ca.coinvariants().dim


# -- Eq. (14) -----------------------------------------------------------------


@pytest.mark.parametrize("make, module", [
    (lambda: graded_m2(QQ), module_b), (lambda: graded_m2(F7), module_b),
    (lambda: RUNGS["T2"](), module_k)], ids=["M2Q", "M2F7", "H4F7"])
def test_eq14_fails_where_the_dense_oracle_fails(make, module):
    """E of graded M_2 with M = B, and of the regular H4 (not commutative)
    with M = k; each entry of E's coaction moved by 1 in turn, absent
    entries included."""
    ca = make()
    field, dh = ca.field, ca.hopf.dim
    e = build_E(ca, tensor_over_B(module(ca), ca))
    assert verify_eq14(e) == dense_eq14(e) == (True, None)
    rho = dense_rho(field, e.ca.coaction_table, dh)
    failing = 0
    for pos in range(len(rho.data)):
        data = list(rho.data)
        data[pos] = field.add(data[pos], field.one)
        moved = ComoduleAlgebraData(ca.hopf, e.ca.algebra, _leg_columns(
            Matrix(field, rho.rows, rho.cols, data), dh))
        bad = EndComoduleAlgebra(ca, e.induced, e.basis, moved, e._coords)
        got = verify_eq14(bad)
        assert got == dense_eq14(bad)
        failing += not got[0]
    assert failing == len(rho.data)


# -- varphi: A -> B (x) H reads rho and Delta from their tables -------------


@pytest.mark.parametrize("make", [lambda: sweedler_h4(F5),
                                  lambda: taft(F7, 3)], ids=["H4F5", "T3F7"])
def test_structure_theorem_over_a_noncocommutative_hopf_algebra(make):
    """The regular H is cleft with t = id; varphi(a) = a_[0] u(a_[1]) (x)
    a_[2] inverts psi only with the legs of Delta in order."""
    report = cleft.structure_theorem_check(regular_comodule(make()))
    assert report.passed and not report.inconclusive


# -- M (x)_B A builds its module with the quotient ----------------------------


def test_the_induced_module_is_built_with_the_quotient():
    """A (x)_B A for the regular T_3 over F_7: its action and coaction
    tables are those of the former dense construction."""
    ca = RUNGS["T3"]()
    assert verify_translation_identities(ca).passed
    ind, f = tensor_over_B(algebra_as_bmodule(ca), ca), ca.field
    _, actions, coaction = dense_tensor_over_B(algebra_as_bmodule(ca), ca)
    assert dense_actions(f, ind.module.action_table, ca.algebra.dim) == actions
    assert ind.module.action_table == action_table(actions)
    assert ind.module.coaction_table == _leg_columns(coaction, ca.hopf.dim)
    assert ind.module.validate(ca).passed
