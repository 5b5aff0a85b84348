import itertools
import random

import pytest

from hopfgalois import cleft, cohomology, galois, lifting, maintheorem, search
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra,
                                 group_algebra, trivial_kxk)
from hopfgalois.hopf import StructureConstantAlgebra, ValidationReport
from hopfgalois.linalg import (Matrix, basis_vec, tensor_entries, vec_add,
                               vec_scale)

F3 = PrimeField(3)
F7 = PrimeField(7)


def old_candidates(field, d, seed, tries, cap):
    """Candidate order of the former inline searches, kept as the oracle."""
    if field.kind == "Fp" and field.p ** d <= cap:
        yield from itertools.product(range(field.p), repeat=d)
        return
    warm = [tuple(field.one if i == j else field.zero for i in range(d))
            for j in range(d)]
    warm.append((field.one,) * d)
    yield from warm
    rng = random.Random(seed)
    for _ in range(tries):
        if field.kind == "Fp":
            yield tuple(rng.randrange(field.p) for _ in range(d))
        else:
            yield tuple(field.from_int(rng.randint(-3, 3)) for _ in range(d))


@pytest.mark.parametrize("field,cap", [(QQ, search.EXHAUSTIVE_CAP),
                                       (F7, search.EXHAUSTIVE_CAP), (F7, 50)])
def test_first_tries_the_old_sequence(field, cap):
    for seed in range(4):
        for d in range(5):
            tried = []
            got = search.first(field, d, lambda c: tried.append(c), seed=seed,
                               tries=30, cap=cap)
            oracle = list(old_candidates(field, d, seed, 30, cap))
            assert tried == oracle, (seed, d)
            assert isinstance(got, search.NotFound)
            assert got.searched == len(oracle) and got.dim == d
            # a hit stops the search at exactly that candidate
            stop = len(oracle) // 2
            tried = []
            got = search.first(
                field, d, lambda c: (tried.append(c) or
                                     (c if len(tried) == stop + 1 else None)),
                seed=seed, tries=30, cap=cap)
            assert tried == oracle[:stop + 1] and got == oracle[stop]


def test_exhaustive_and_sampled_misses():
    for d in range(4):
        got = search.first(F7, d, lambda c: None)
        assert got.exhaustive and got.searched == 7 ** d
    for field, cap in ((QQ, search.EXHAUSTIVE_CAP), (F7, 7 ** 3 - 1)):
        got = search.first(field, 3, lambda c: None, seed=5, tries=40,
                           cap=cap)
        assert not got.exhaustive and got.searched == 40 + 3 + 1
        with pytest.raises(search.SearchInconclusive):
            search.found(got, "x")
    assert search.found(search.NotFound(True, 1, 0), "x") is False
    assert search.found((1,), "x") is True


def test_every_enumerates_or_refuses():
    hits = search.every(F3, 3, lambda c: c if sum(c) == 1 else None)
    assert hits == [c for c in itertools.product(range(3), repeat=3)
                    if sum(c) == 1]
    with pytest.raises(search.SearchInconclusive) as exc:
        search.every(F3, 3, lambda c: c, cap=26)
    assert str(exc.value) == "|F_3|^3 exceeds the enumeration cap"
    with pytest.raises(search.SearchInconclusive):
        search.every(QQ, 1, lambda c: c)


def test_one_class_and_one_cap():
    assert cohomology.SearchInconclusive is lifting.SearchInconclusive
    assert cohomology.SearchInconclusive is search.SearchInconclusive
    assert cleft.NotFound is search.NotFound
    assert cleft.EXHAUSTIVE_CAP is search.EXHAUSTIVE_CAP
    for cls in (cleft.CrossedInverseResult, cohomology.GroupoidReport,
                cohomology.Prop57Report, lifting.ClassificationReport,
                maintheorem.TheoremReport):
        assert issubclass(cls, ValidationReport)
    assert not hasattr(galois, "IdentityReport")


def test_rational_points_free_families():
    # c0 = c1 leaves c1 free; it is sampled at 0, 1, -1, 2 or refused
    k = StructureConstantAlgebra(QQ, 1, Matrix(QQ, 1, 1, [QQ.one]), [QQ.one])
    mats = [Matrix(QQ, 1, 2, [QQ.one, QQ.zero]),
            Matrix(QQ, 1, 2, [QQ.zero, QQ.one])]

    def equations(t, prod):
        yield t([QQ.one, QQ.zero])[0] - t([QQ.zero, QQ.one])[0]

    points = search.rational_points(k, mats, equations,
                                    lambda c: c if c[0] == 2 else None)
    assert next(points) == (2, 2)
    with pytest.raises(search.SearchInconclusive):
        list(search.rational_points(k, mats, equations, lambda c: None))
    with pytest.raises(search.SearchInconclusive, match="refused"):
        list(search.rational_points(k, mats, equations, lambda c: c,
                                    refuse="refused"))


@pytest.mark.parametrize("field", [QQ, F3])
def test_sampled_miss_is_inconclusive_kxk(field):
    # B = k x k: the line span(e_1) holds no invertible element
    ca = trivial_kxk(field)
    b = ca.coinvariants().algebra
    e1 = basis_vec(field, 2, 0)
    got_vec = cohomology._invertible_in_span(b, [e1])
    got_mat = lifting._invertible_in_matrix_span(field, [b.lmul(e1)])
    act = cohomology.trivial_action(ca.hopf, b)
    z1 = cohomology.z1_enumerate(act)
    assert len(z1) == 4
    if field is QQ:
        for got in (got_vec, got_mat):
            assert not got.exhaustive and got.searched == 200 + 1 + 1
        with pytest.raises(search.SearchInconclusive):
            cohomology.h1_classes(act, z1)
    else:
        for got in (got_vec, got_mat):
            assert got.exhaustive and got.searched == 3
        # the trivial action has no coboundaries: H^1 = Z^1, by proof
        assert len(cohomology.h1_classes(act, z1)) == 4


def old_measuring(hopf, base, act):
    """The former hand-written measuring loops, kept as the oracle."""
    f = base.field
    db, dh = base.dim, hopf.dim
    eps = hopf.coalgebra.counit
    eb = [basis_vec(f, db, i) for i in range(db)]
    eh = [basis_vec(f, dh, i) for i in range(dh)]
    unit = mult = None
    for h in range(dh):
        if act(eh[h], base.unit) != vec_scale(f, eps.apply(eh[h])[0],
                                              base.unit):
            unit = (h,)
            break
    for h, i, j in itertools.product(range(dh), range(db), range(db)):
        rhs = [f.zero] * db
        for (h1, h2), c in tensor_entries(
                f, hopf.coalgebra.comul.apply(eh[h]), (dh, dh)):
            v = base.product(act(eh[h1], eb[i]), act(eh[h2], eb[j]))
            rhs = vec_add(f, rhs, vec_scale(f, c, v))
        if act(eh[h], base.product(eb[i], eb[j])) != rhs:
            mult = (h, i, j)
            break
    return unit, mult


def test_measuring_witnesses_match_old_loops():
    base = trivial_kxk(F3).algebra
    unit_sigma = Matrix(F3, 2, 4, [F3.one] * 8)
    rng = random.Random(0)
    seen = set()
    # eps is 1 on both basis elements of kC_2, and 1, 0 on those of (kC_2)^*
    for which, hopf in enumerate((group_algebra(F3, cyclic_cayley(2)),
                                  dual_group_algebra(F3, cyclic_cayley(2)))):
        trivial = cohomology.trivial_action(hopf, base).action.data
        # the second basis element acting by 0 is multiplicative but not
        # unital for kC_2; by 2(p0 + p1) on both idempotents it is unital
        # but not multiplicative
        zero = [0 if i % 4 >= 2 else x for i, x in enumerate(trivial)]
        two = [2 if i % 4 >= 2 else x for i, x in enumerate(trivial)]
        for _ in range(60):
            # one of these with up to two entries changed
            data = list(rng.choice((trivial, zero, two)))
            for _ in range(rng.randrange(3)):
                data[rng.randrange(8)] = rng.randrange(3)
            omega = Matrix(F3, 2, 4, data)
            act = cohomology.HModuleAlgebraAction(hopf, base, omega)
            want = old_measuring(hopf, base, act.act)
            assert cleft.measuring_witnesses(hopf, base, act.act) == want
            got = dict(act.validate().failures)
            assert (got.get("h.1=eps(h)1"),
                    got.get("h.(bc)=(h1.b)(h2.c)")) == want
            got = dict(cleft._prop51_violations(base, hopf, omega, unit_sigma,
                                                unit_sigma))
            assert (got.get("measuring h.1=eps(h)1"),
                    got.get("measuring h.(bc)=(h1.b)(h2.c)")) == want
            seen.add((which, want[0] is None, want[1] is None))
    assert len(seen) >= 6


def test_smash_check_honours_tries(h4_f5, kxk_f3):
    # beyond the cap the search is sampled: warm start plus `tries` draws
    assert cleft.smash_check(h4_f5, tries=0, enumerate_cap=1).status \
        == "inconclusive"
    assert cleft.smash_check(h4_f5, tries=500, enumerate_cap=1).status \
        == "found"
    # a sampled miss is never "none"; the full enumeration proves it
    assert cleft.smash_check(kxk_f3, enumerate_cap=1).status == "inconclusive"
    assert cleft.smash_check(kxk_f3).status == "none"
