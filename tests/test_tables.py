"""The sparse tables as the only form of m and Delta.

The constructors take mul_table and comul_table and normalise them (each
entry list sorted, duplicate keys merged, coefficients reduced, zeros
dropped); taft writes its tables directly and
io_json emits from them.  The oracles here are the dense forms: the Taft
formula as it filled a dense matrix, the left-nested dense Delta, and the
entrywise Kronecker product.
"""

import itertools
import json
import pathlib
import random

import pytest

from hopfgalois import convcat, io_json
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import regular_comodule, sweedler_h4, taft
from hopfgalois.hopf import (CoalgebraData, HopfAlgebraData,
                             StructureConstantAlgebra, _table, comul_terms,
                             validate_hopf)
from hopfgalois.linalg import Matrix, _columns, _leg_columns

from conftest import dense_comul_iterated, kron_vec, tensor_entries

F5, F7 = PrimeField(5), PrimeField(7)
F_BIG = PrimeField(2 ** 61 - 1)
FIXTURES = pathlib.Path(io_json.__file__).parent / "fixtures"


# -- the Taft tables against the dense formula ------------------------------


def dense_taft(field, n):
    """m and Delta of T_n as the dense matrices the former taft filled, with
    q the least primitive n-th root of unity by brute force and the
    q-binomials from q-factorials."""
    p = field.p
    q = min(r for r in range(2, p) if pow(r, n, p) == 1
            and all(pow(r, d, p) != 1 for d in range(1, n)))
    qp = [field.from_int(q ** k) for k in range(n)]
    qint = [sum(q ** i for i in range(m)) for m in range(n)]     # [m]_q
    fact = [1]
    for m in range(1, n):
        fact.append(fact[-1] * qint[m])

    def binom(b, k):
        return field.div(field.from_int(fact[b]),
                         field.from_int(fact[k] * fact[b - k]))

    dim = n * n
    mul = Matrix.zeros(field, dim, dim * dim)
    comul = Matrix.zeros(field, dim * dim, dim)
    for i, (b, a) in enumerate(itertools.product(range(n), repeat=2)):
        for j, (d, c) in enumerate(itertools.product(range(n), repeat=2)):
            if b + d < n:       # g^a x^b g^c x^d = q^(bc) g^(a+c) x^(b+d)
                k = (a + c) % n + n * (b + d)
                mul.data[k * dim * dim + i * dim + j] = qp[b * c % n]
        for k in range(b + 1):
            left = (a + k) % n + n * (b - k)
            comul.data[(left * dim + a + n * k) * dim + i] = binom(b, k)
    return mul, comul


@pytest.mark.parametrize("field, n", [(F7, 3), (F5, 4)], ids=["T3F7", "T4F5"])
def test_taft_tables_are_the_dense_formula(field, n, tmp_path):
    h = taft(field, n)
    mul, comul = dense_taft(field, n)
    assert h.algebra.mul_table == _columns(mul)
    assert h.coalgebra.comul_table == _leg_columns(comul, n * n)
    bundle = io_json.WorkspaceBundle(field)
    bundle.hopf_algebras["T"] = h
    ca = regular_comodule(h)
    ca.hopf_name = "T"
    bundle.comodule_algebras["regular"] = ca
    emitted = io_json.emit_bundle(bundle)
    path = tmp_path / "taft.json"
    path.write_text(json.dumps(emitted))
    assert io_json.emit_bundle(io_json.load_bundle(path)) == emitted


# -- the constructors normalise their tables --------------------------------


def shuffled(table, rng):
    out = [list(terms) for terms in table]
    for terms in out:
        rng.shuffle(terms)
    return out


def broken(hopf):
    """hopf with e_0 e_0 = 2 e_0, which fails associativity and the unit."""
    f, table = hopf.field, list(hopf.algebra.mul_table)
    table[0] = [(0, f.from_int(2))]
    alg = StructureConstantAlgebra(f, hopf.dim, table, hopf.algebra.unit,
                                   hopf.labels)
    return HopfAlgebraData(alg, hopf.coalgebra, hopf.antipode,
                           hopf.antipode_inv)


@pytest.mark.parametrize("make", [
    lambda: sweedler_h4(F5), lambda: taft(F7, 3), lambda: taft(F5, 4),
    lambda: broken(taft(F7, 3))], ids=["H4F5", "T3F7", "T4F5", "T3F7-broken"])
def test_shuffled_tables_build_the_same_structure(make):
    hopf, rng = make(), random.Random(4)
    f, n = hopf.field, hopf.dim
    mul = shuffled(hopf.algebra.mul_table, rng)
    comul = shuffled(hopf.coalgebra.comul_table, rng)
    assert comul != hopf.coalgebra.comul_table
    alg = StructureConstantAlgebra(f, n, mul, hopf.algebra.unit, hopf.labels)
    co = CoalgebraData(f, n, comul, hopf.coalgebra.counit)
    assert alg.mul_table == hopf.algebra.mul_table
    assert co.comul_table == hopf.coalgebra.comul_table
    again = HopfAlgebraData(alg, co, hopf.antipode, hopf.antipode_inv)
    assert validate_hopf(again).failures == validate_hopf(hopf).failures


def test_zero_coefficients_are_dropped():
    alg = StructureConstantAlgebra(F5, 1, [[(0, 1), (0, 0)]], [1])
    co = CoalgebraData(F5, 1, [[(0, 0, 0), (0, 0, 1)]],
                       Matrix(F5, 1, 1, [1]))
    assert alg.mul_table == [[(0, 1)]] and co.comul_table == [[(0, 0, 1)]]


def test_tables_are_reduced_and_merged():
    """Equal tensors have equal tables whatever the input: an entry 8 is
    1 over F_7, an entry 7 is dropped, and two terms on one key merge."""
    one = StructureConstantAlgebra(F7, 1, [[(0, 1)]], [1])
    assert StructureConstantAlgebra(F7, 1, [[(0, 8)]], [1]).mul_table == \
        one.mul_table == [[(0, 1)]]
    assert StructureConstantAlgebra(F7, 1, [[(0, 7)]], [1]).mul_table == [[]]
    split = [[(0, 3), (0, 4)]]
    assert StructureConstantAlgebra(QQ, 1, split, [1]).mul_table == \
        [[(0, 7)]]
    assert StructureConstantAlgebra(F7, 1, split, [1]).mul_table == [[]]
    assert _table(F7, [[(1, 0, 8), (0, 1, 2), (0, 1, 5), (1, 0, 5)]], 1,
                  "coaction shape") == [[(1, 0, 6)]]


# -- iterated comultiplication ----------------------------------------------


def shipped_coalgebras():
    for path in sorted(FIXTURES.glob("*.json")):
        for h in io_json.load_bundle(path).hopf_algebras.values():
            yield h.coalgebra
            if path.stem in ("h4", "h4_f5"):
                yield convcat.variant_coalgebra(regular_comodule(h), "Cprime")
    yield taft(F7, 3).coalgebra


def test_comul_terms_is_the_left_nested_dense_comul():
    """Arities 1-4 on every shipped coalgebra and on H4^cop; T_3 (dim 9) up
    to arity 3, where the dense operator has 9^3 columns."""
    seen = 0
    for co in shipped_coalgebras():
        f, n = co.field, co.dim
        for arity, c in itertools.product((1, 2, 3, 4), range(n)):
            if n ** arity > 1000:
                continue
            vec = dense_comul_iterated(co, [f.one if i == c else f.zero
                                            for i in range(n)], arity)
            assert comul_terms(co, c, arity) == list(
                tensor_entries(f, vec, (n,) * arity))
            seen += 1
    assert seen > 100


# -- kron and kron_vec ------------------------------------------------------


@pytest.mark.parametrize("field", [F7, F_BIG, QQ], ids=["F7", "Fbig", "Q"])
def test_kron_is_the_entrywise_product(field):
    rng = random.Random(9)
    for _ in range(30):
        shape = [rng.randint(0, 3) for _ in range(4)]
        a, b = (Matrix(field, r, c, [
            field.from_int(rng.choice([0, 0, 1, -1, 2, 10 ** 9]))
            for _ in range(r * c)]) for r, c in (shape[:2], shape[2:]))
        out = a.kron(b)
        assert (out.rows, out.cols) == (a.rows * b.rows, a.cols * b.cols)
        assert all(out.get(i * b.rows + k, j * b.cols + m)
                   == field.mul(a.get(i, j), b.get(k, m))
                   for i, j, k, m in itertools.product(
                       range(a.rows), range(a.cols), range(b.rows),
                       range(b.cols)))
        assert kron_vec(field, a.data, b.data) == [
            field.mul(x, y) for x in a.data for y in b.data]


# -- the JSON parse keeps its semantics -------------------------------------


def test_duplicate_entries_last_wins_and_explicit_zero_overwrites(tmp_path):
    raw = json.loads((FIXTURES / "kc2.json").read_text())
    mul = raw["hopf_algebras"]["kC2"]["mul"]
    mul.insert(0, [0, 0, 0, "5"])   # overwritten by the later [0, 0, 0, "1"]
    mul.append([0, 1, 0, "0"])      # a zero where the tensor is zero anyway
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    assert io_json.emit_bundle(io_json.load_bundle(path)) == json.loads(
        (FIXTURES / "kc2.json").read_text())
    mul.append([1, 0, 1, "0"])      # 1 g = 0 now: the unit law fails
    path.write_text(json.dumps(raw))
    with pytest.raises(io_json.ValidationError):
        io_json.load_bundle(path)
