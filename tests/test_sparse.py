"""Differential tests for the sparse structure tables of hopf.

product, lmul, rmul, convolve and the convolution operator (the columns
hopf.convolution_columns gives) are computed from mul_table and
comul_table.  Each must equal, entry for entry, a dense
formula: mul @ kron_vec, the column formula, mul @ ((g (x) f) @ Delta), the
former Kron-free convolve body, and the former linear_operator over the
dense lmul.  The dense formulas live on here only, as the oracles, over the
dense m and Delta rebuilt from the tables; a drawn tensor must come back
from its tables unchanged.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfgalois import cleft, convcat, maintheorem
from hopfgalois.cohomology import (HModuleAlgebraAction, trivial_action,
                                   z1_membership)
from hopfgalois.comodule import BModule
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra,
                                 graded_m2, group_algebra, regular_comodule,
                                 sweedler_h4)
from hopfgalois.hopf import CoalgebraData, StructureConstantAlgebra, convolve
from hopfgalois.linalg import (Matrix, _columns, _leg_columns, basis_vec,
                               reduced)

from conftest import (action_table, convolution_operator, dense_comul,
                      dense_mul, kron_vec)

F2, F3, F7 = PrimeField(2), PrimeField(3), PrimeField(7)
F_BIG = PrimeField(2 ** 61 - 1)     # beyond the compiled kernels' range


# -- the oracles -------------------------------------------------------------


def dense_product(mul, v, w):
    return mul.apply(kron_vec(mul.field, v, w))


def dense_lmul(mul, v):
    """Column j is v e_j, each by the dense product."""
    f, n = mul.field, mul.rows
    return Matrix.from_cols(f, [dense_product(mul, v, basis_vec(f, n, j))
                                for j in range(n)], nrows=n)


def dense_rmul(mul, v):
    f, n = mul.field, mul.rows
    return Matrix.from_cols(f, [dense_product(mul, basis_vec(f, n, j), v)
                                for j in range(n)], nrows=n)


def kron_free_convolve(algebra, coalgebra, g_mat, f_mat):
    """The former hopf.convolve: mul @ (g @ F), row c of F vec(f @ Delta_c)."""
    field, da, dc = algebra.field, algebra.dim, coalgebra.dim
    comul, block = dense_comul(coalgebra).data, dc * dc
    rows = []
    for c in range(dc):
        rows.extend((f_mat @ Matrix(field, dc, dc,
                                    comul[c * block:(c + 1) * block])).data)
    gf = g_mat @ Matrix(field, dc, da * dc, rows)
    return dense_mul(algebra) @ Matrix(field, da * da, dc, gf.data)


def dense_convolve(algebra, coalgebra, g_mat, f_mat):
    return dense_mul(algebra) @ (g_mat.kron(f_mat) @ dense_comul(coalgebra))


def linear_operator(terms):
    """The former linalg.linear_operator: the matrix of X -> Sum_k A_k X B_k
    on the row-major vec(X), Sum_k A_k (x) B_k^T."""
    a0, b0 = terms[0]
    f = a0.field
    p, m, n, q = a0.rows, a0.cols, b0.rows, b0.cols
    ncols = m * n
    out = [f.zero] * (p * q * ncols)
    for a, b in terms:
        bnz = [(j, l, y) for j in range(n) for l in range(q)
               if (y := b.data[j * q + l]) != f.zero]
        for i in range(p):
            for k in range(m):
                x = a.data[i * m + k]
                if x != f.zero:
                    for j, l, y in bnz:
                        t = (i * q + l) * ncols + k * n + j
                        out[t] = out[t] + x * y
    return Matrix(f, p * q, ncols, reduced(f, out))


def dense_convolution_operator(algebra, coalgebra, f_mat):
    """Sum_c lmul(f(c)) (x) Delta_c^T with the dense lmul."""
    dc, comul = coalgebra.dim, dense_comul(coalgebra).data
    return linear_operator([
        (dense_lmul(dense_mul(algebra), f_mat.col(c)),
         Matrix(algebra.field, dc, dc, comul[c * dc * dc:(c + 1) * dc * dc]))
        for c in range(dc)])


def check_algebra(alg, vectors):
    """product, lmul and rmul against the dense formulas."""
    f, n, mul = alg.field, alg.dim, dense_mul(alg)
    basis = [basis_vec(f, n, i) for i in range(n)]
    for v, w in itertools.product(basis + vectors, repeat=2):
        assert alg.product(v, w) == dense_product(mul, v, w)
    for v in basis + vectors:
        assert alg.lmul(v) == dense_lmul(mul, v)
        assert alg.rmul(v) == dense_rmul(mul, v)


def check_convolution(alg, co, pairs):
    """convolve and convolution_operator against the dense formulas, for
    each (g, f) in pairs."""
    for g_mat, f_mat in pairs:
        conv = convolve(alg, co, g_mat, f_mat)
        assert conv == kron_free_convolve(alg, co, g_mat, f_mat)
        assert conv == dense_convolve(alg, co, g_mat, f_mat)
        assert (convolution_operator(alg, co, f_mat)
                == dense_convolution_operator(alg, co, f_mat))


def random_matrix(field, rows, cols, rng):
    return Matrix(field, rows, cols, [field.from_int(rng.randint(-3, 3))
                                      for _ in range(rows * cols)])


# -- Hypothesis-drawn structure tensors ---------------------------------------


def scalars(field, nonzero=False):
    if field.kind == "Fp":
        return st.integers(1 if nonzero else 0, field.p - 1)
    ints = st.integers(-3, 3).filter(lambda x: x) if nonzero else \
        st.integers(-3, 3)
    return st.builds(Fraction, ints, st.integers(1, 3))


@st.composite
def tensors(draw, field, rows, cols):
    """A rows x cols matrix that is zero, fully dense, or random."""
    kind = draw(st.sampled_from(["zero", "dense", "random"]))
    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    return Matrix(field, rows, cols, draw(st.lists(
        scalars(field, nonzero=kind == "dense"),
        min_size=rows * cols, max_size=rows * cols)))


@st.composite
def structures(draw):
    """(algebra, coalgebra, vectors, (g, f) pairs, (mul, comul)) with
    arbitrary tensors mul and comul: nothing is associative, unital or
    coassociative on purpose."""
    field = draw(st.sampled_from([F2, F3, F7, F_BIG, QQ]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    mul, comul = draw(tensors(field, n, n * n)), draw(tensors(field, m * m, m))
    alg = StructureConstantAlgebra(field, n, _columns(mul),
                                   draw(st.lists(scalars(field), min_size=n,
                                                 max_size=n)))
    co = CoalgebraData(field, m, _leg_columns(comul, m),
                       Matrix.zeros(field, 1, m))
    vectors = draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n),
                            min_size=1, max_size=3))
    pairs = [(draw(tensors(field, n, m)), draw(tensors(field, n, m)))
             for _ in range(2)]
    return alg, co, vectors, pairs, (mul, comul)


@settings(max_examples=150, deadline=None)
@given(structures())
def test_tables_match_dense_formulas_on_drawn_tensors(case):
    alg, co, vectors, pairs, (mul, comul) = case
    assert dense_mul(alg) == mul and dense_comul(co) == comul
    check_algebra(alg, vectors)
    check_convolution(alg, co, pairs)


# -- the shipped algebras and coalgebras -------------------------------------

_S3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]


def s3_cayley():
    index = {p: k for k, p in enumerate(_S3)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in _S3]
            for p in _S3]


def hopf_algebras(field):
    return [group_algebra(field, cyclic_cayley(3)), sweedler_h4(field),
            dual_group_algebra(field, s3_cayley())]


def dim16_e(field):
    """E = END_A(k^2 (x)_k H4) of the theorem workload's H4 with M = k^2."""
    ca = regular_comodule(sweedler_h4(field))
    b = ca.coinvariants()
    m = BModule(b, 2, action_table([Matrix.identity(field, 2).scale(
        field.inv(b.algebra.unit[0]))]))
    return maintheorem.TheoremContext(ca, m).e.ca


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_tables_match_dense_formulas_on_shipped_algebras(field):
    rng = random.Random(5)
    algebras = [h.algebra for h in hopf_algebras(field)]
    algebras += [graded_m2(field).algebra, dim16_e(field).algebra]
    assert algebras[-1].dim == 16
    for alg in algebras:
        check_algebra(alg, [random_matrix(field, alg.dim, 1, rng).data
                            for _ in range(3)])


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_convolution_matches_dense_formulas_on_shipped_coalgebras(field):
    """H, H^cop and H (x) H for kC_3, H4 and (kS_3)^*, the graded M_2 over
    kC_2, and the dim-16 E of the theorem workload over H4."""
    rng = random.Random(6)
    cases = []
    for h in hopf_algebras(field):
        cases += [(h.algebra, h.coalgebra),
                  (h.algebra, convcat.variant_coalgebra(regular_comodule(h),
                                                        "Cprime"))]
        if h.dim < 6 or field.kind == "Fp":  # 7 s over Q for (kS_3)^*
            cases.append((h.algebra, cleft._hh_coalgebra(h)))
    m2, e = graded_m2(field), dim16_e(field)
    cases += [(m2.algebra, m2.hopf.coalgebra), (e.algebra, e.hopf.coalgebra)]
    for alg, co in cases:
        check_convolution(alg, co, [
            (random_matrix(field, alg.dim, co.dim, rng),
             random_matrix(field, alg.dim, co.dim, rng)) for _ in range(2)])


# -- the unit rows of the cocycle law go last ---------------------------------


def test_unit_rows_last_is_the_law_with_unit_rows_moved():
    """Rows of h = 1_H go last where 1_H is a basis vector; else nothing
    moves.  (kC_3)^* has unit (1, 1, 1)."""
    for h, moved in ((group_algebra(F7, cyclic_cayley(3)), True),
                     (sweedler_h4(F7), True),
                     (dual_group_algebra(F7, cyclic_cayley(3)), False)):
        base = group_algebra(F7, cyclic_cayley(1)).algebra
        act = trivial_action(h, base)
        law, last = act.cocycle_law, act.unit_rows_last
        block = len(law) // h.dim
        if moved:
            assert last[-block:] == law[:block]
            assert last[:-block] == law[block:]
        else:
            assert last == law


def test_unit_rows_still_reject_a_non_unital_action():
    """kC_2 on k with 1.b = 0 and g.b = b: v = (1, 1) satisfies every row of
    h = g, so only the rows of h = 1, now checked last, reject it."""
    h = group_algebra(F3, cyclic_cayley(2))
    base = group_algebra(F3, cyclic_cayley(1)).algebra
    act = HModuleAlgebraAction(h, base, Matrix(F3, 1, 2, [0, 1]))
    v = Matrix(F3, 1, 2, [1, 1])
    block = len(act.cocycle_law) // h.dim

    def holds(row):
        lin, quad = row
        return (sum(a * v.data[i] for i, a in lin)
                - sum(c * v.data[i] * v.data[j] for i, j, c in quad)) % 3 == 0

    assert all(map(holds, act.unit_rows_last[:-block]))
    assert not all(map(holds, act.unit_rows_last[-block:]))
    assert not z1_membership(act, v)
