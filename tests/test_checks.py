"""The shared checks: first_failure, multiplicative_witness, search.classes,
and the groupoid X_A check built from them.

first_failure and multiplicative_witness are checked against brute-force
lists of every failing tuple; internal errors such as MemoryError must
propagate through the checks that catch NotInvertible or NoSolution.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hopfgalois import cleft, cohomology, convcat, search
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import cyclic_cayley, group_algebra, sweedler_h4
from hopfgalois.hopf import (StructureConstantAlgebra, first_failure,
                             multiplicative_witness)
from hopfgalois.linalg import (Factorization, Matrix, NotInvertible, _columns,
                               basis_vec)

from conftest import dense_mul, kron_vec
from test_sparse import scalars, tensors

F3, F7 = PrimeField(3), PrimeField(7)


# -- first_failure -----------------------------------------------------------


@st.composite
def grids(draw):
    """(dims, failing) with 1-3 ranges of length 0-3 and any failing set."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    box = list(itertools.product(*map(range, dims)))
    failing = draw(st.sets(st.sampled_from(box))) if box else set()
    return dims, failing


@settings(max_examples=200, deadline=None)
@given(grids())
def test_first_failure_is_the_first_failing_tuple(grid):
    dims, failing = grid
    calls = []

    def holds(*idx):
        calls.append(idx)
        return idx not in failing

    got = first_failure(holds, *dims)
    box = list(itertools.product(*map(range, dims)))
    assert got == (min(failing) if failing else None)
    # every tuple up to the witness is tried in order, none after it
    assert calls == (box[:box.index(got) + 1] if got is not None else box)


def test_first_failure_on_empty_and_passing_ranges():
    assert first_failure(lambda *idx: False, 2, 0, 3) is None
    assert first_failure(lambda i, j: True, 3, 3) is None
    assert first_failure(lambda i, j: (i, j) != (1, 0), 2, 2) == (1, 0)


# -- multiplicative_witness --------------------------------------------------


def failing_pairs(src, dst, t_mat, anti):
    """Every (i, j) with t(e_i e_j) != t(e_i) t(e_j) (t(e_j) t(e_i) when
    anti), by the dense formulas mul @ (x (x) y)."""
    f, n = src.field, src.dim
    src_mul, dst_mul = dense_mul(src), dense_mul(dst)
    out = []
    for i, j in itertools.product(range(n), repeat=2):
        ei, ej = basis_vec(f, n, i), basis_vec(f, n, j)
        x, y = t_mat.apply(ei), t_mat.apply(ej)
        if anti:
            x, y = y, x
        if (t_mat.apply(src_mul.apply(kron_vec(f, ei, ej)))
                != dst_mul.apply(kron_vec(f, x, y))):
            out.append((i, j))
    return out


@st.composite
def algebra_maps(draw):
    """(src, dst, t) over F_3, F_7 or Q with tensors that are in general not
    associative; t is drawn, zero, or the identity of src = dst, so both
    verdicts occur."""
    field = draw(st.sampled_from([F3, F7, QQ]))
    n = draw(st.integers(1, 4))
    src = StructureConstantAlgebra(
        field, n, _columns(draw(tensors(field, n, n * n))), [field.zero] * n)
    kind = draw(st.sampled_from(["drawn", "zero", "identity"]))
    if kind == "identity":
        return src, src, Matrix.identity(field, n)
    m = draw(st.integers(1, 4))
    dst = StructureConstantAlgebra(
        field, m, _columns(draw(tensors(field, m, m * m))), [field.zero] * m)
    if kind == "zero":
        return src, dst, Matrix.zeros(field, m, n)
    return src, dst, Matrix(field, m, n, draw(st.lists(
        scalars(field), min_size=m * n, max_size=m * n)))


@settings(max_examples=200, deadline=None)
@given(algebra_maps(), st.booleans())
def test_multiplicative_witness_is_the_first_failing_pair(case, anti):
    src, dst, t_mat = case
    brute = failing_pairs(src, dst, t_mat, anti)
    assert multiplicative_witness(src, dst, t_mat, anti) == (
        brute[0] if brute else None)


def test_multiplicative_witness_tells_the_two_orders_apart():
    # the identity of H4 (xg = -gx) is multiplicative, not anti: g x != x g
    h4 = sweedler_h4(F7).algebra
    idn = Matrix.identity(F7, 4)
    assert multiplicative_witness(h4, h4, idn) is None
    assert multiplicative_witness(h4, h4, idn, anti=True) == (1, 2)


# -- search.classes ----------------------------------------------------------


def test_classes_partition_by_first_equivalent_head():
    calls = []

    def same_residue(a, b):
        calls.append((a, b))
        return a % 3 == b % 3

    assert search.classes(range(8), same_residue) == [[0, 3, 6], [1, 4, 7],
                                                      [2, 5]]
    # each item is compared with the class heads in order, up to its own
    assert calls == [(1, 0), (2, 0), (2, 1), (3, 0), (4, 0), (4, 1),
                     (5, 0), (5, 1), (5, 2), (6, 0), (7, 0), (7, 1)]
    assert search.classes([], same_residue) == []


# -- internal errors are never verdicts --------------------------------------


def test_element_inverse_lets_memory_error_through(monkeypatch):
    alg = group_algebra(F7, cyclic_cayley(2)).algebra
    assert alg.element_inverse(alg.unit) == alg.unit

    def no_memory(self, cols):
        raise MemoryError

    monkeypatch.setattr(Factorization, "solve_columns", no_memory)
    with pytest.raises(MemoryError):
        alg.element_inverse(alg.unit)


def _fixed_groupoid_inputs(monkeypatch, ca):
    """Pin the clefting datum, Z^1 and Omega_A that groupoid_xa_check finds,
    so that its own checks can be patched one by one."""
    datum = cleft.find_cleft(ca)
    act = cohomology.action_from_cleft(ca, datum)
    z1 = cohomology.z1_enumerate(act)
    omega = cohomology.omega_enumerate(ca, act=act)
    monkeypatch.setattr(cleft, "find_cleft", lambda ca, seed=0: datum)
    monkeypatch.setattr(cohomology, "z1_enumerate", lambda *a, **k: z1)
    monkeypatch.setattr(cohomology, "omega_enumerate", lambda *a, **k: omega)


def test_groupoid_lets_memory_error_through(monkeypatch, m2_f3):
    _fixed_groupoid_inputs(monkeypatch, m2_f3)

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(convcat, "convolution_inverse_matrix", no_memory)
    with pytest.raises(MemoryError):
        cohomology.groupoid_xa_check(m2_f3)


def test_groupoid_reports_every_failed_check(monkeypatch, m2_f3):
    _fixed_groupoid_inputs(monkeypatch, m2_f3)

    def not_invertible(*args):
        raise NotInvertible

    monkeypatch.setattr(cohomology, "z1_membership", lambda *a: False)
    monkeypatch.setattr(cohomology, "omega_membership", lambda *a: False)
    monkeypatch.setattr(convcat, "convolution_inverse_matrix",
                        not_invertible)
    report = cohomology.groupoid_xa_check(m2_f3)
    assert report.failures == [
        ("Z1-unit", None), ("Z1-inverse", (0,)), ("Z1-closure", (0, 0)),
        ("closure-1 t*u1 in Z1", (0, 0)),
        ("closure-2 v*t in Omega", (0, 0)),
        ("closure-3 t*w in Omega", (0, 0)),
        ("closure-4 u*t1 in X22", (0, 0)),
        ("closure-5 w*u in X12", (0, 0)),
        ("closure-6 u*v in X12", (0, 0)),
        ("Z1-morphism-not-invertible", (0,)),
        ("Omega-morphism-not-invertible", (0,)),
        ("X22-morphism-not-invertible", (0,)),
        ("X12-morphism-not-invertible", (0,))]
    assert report.details == {"vacuous": False, "sizes": {
        "Z1": 2, "Omega": 2, "X22": 2, "X12": 2}}
