import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (act_on, convolution_operator, dense, dense_comul,
                      dense_lin_comb, module_b, module_k, tensor_entries,
                      vec_add, vec_scale)
from hopfgalois import (cleft, cohomology, convcat, galois, lifting,
                        maintheorem, search)
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra, graded_m2,
                                 group_algebra, regular_comodule, sweedler_h4,
                                 trivial_coaction, trivial_kxk)
from hopfgalois.hopf import (StructureConstantAlgebra, ValidationReport,
                             convolution_columns, convolution_inverse,
                             convolution_unit)
from hopfgalois.linalg import (Matrix, NotInvertible, OperatorSpan, _columns,
                               _nonzero, basis_vec)

F3 = PrimeField(3)
F7 = PrimeField(7)


def box(field, d):
    """The former enumeration order: every tuple of F_p^d."""
    return list(itertools.product(range(field.p), repeat=d))


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
        assert got.exhaustive and got.searched == got.tried == 7 ** d
    for field, cap in ((QQ, search.EXHAUSTIVE_CAP), (F7, 7 ** 3 - 1)):
        got = search.first(field, 3, lambda c: None, seed=5, tries=40,
                           cap=cap)
        assert not got.exhaustive and got.searched == 40 + 3 + 1
        assert got.tried == got.searched
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
    for name in ("CrossedInverseResult", "GroupoidReport", "Prop57Report",
                 "ClassificationReport", "TheoremReport"):
        assert not any(hasattr(mod, name) for mod in
                       (cleft, cohomology, lifting, maintheorem))
    assert ValidationReport().details == {}
    assert not hasattr(galois, "IdentityReport")


def test_rational_points_free_families():
    # c0 = c1 leaves c1 free; it is sampled at 0, 1, -1, 2 or refused
    k = StructureConstantAlgebra(QQ, 1, [[(0, QQ.one)]], [QQ.one])
    mats = [[[(0, QQ.one)], []], [[], [(0, QQ.one)]]]     # their columns

    def equations(t, prod):         # t[j]: the symbolic column t(e_j)
        yield t[0][0] - t[1][0]

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
    got_vec = cohomology._invertible_in_span(b, [_nonzero(e1)])
    got_mat = lifting._invertible_in_matrix_span(
        field, [_columns(b.lmul(e1))], 2, 2)
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
                f, dense_comul(hopf.coalgebra).apply(eh[h]), (dh, dh)):
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
            want = old_measuring(hopf, base, partial(act_on, omega))
            assert cleft.measuring_witnesses(hopf, base, act.columns) == want
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


# -- linear once: the rank test against the per-candidate inverse ------------

F5 = PrimeField(5)
trivial_action = cohomology.trivial_action


def conv_invertible(algebra, coalgebra, f_mat):
    """The oracle: hopf.convolution_inverse succeeds."""
    try:
        convolution_inverse(algebra, coalgebra, f_mat)
    except NotInvertible:
        return False
    return True


def old_is_invertible(m):
    """The former Matrix.is_invertible, through invert()."""
    try:
        m.invert()
        return True
    except NotInvertible:
        return False


def k4_trivial(field):
    """k^4 with the trivial kC_2-coaction: Hom^H(H, A) is 4-dimensional
    (t(g) = 0) and holds no convolution-invertible map."""
    h = group_algebra(field, cyclic_cayley(2))
    return trivial_coaction(h, dual_group_algebra(field, cyclic_cayley(4))
                            .algebra)


HOM_CASES = {
    "kC2": lambda f: regular_comodule(group_algebra(f, cyclic_cayley(2))),
    "kC3": lambda f: regular_comodule(group_algebra(f, cyclic_cayley(3))),
    "H4": lambda f: regular_comodule(sweedler_h4(f)),
    "M2": graded_m2,
    "k4": k4_trivial,
}


def candidates(field, d, seed, count=60):
    """Every tuple of F_p^d, or seeded small tuples over Q."""
    if field.kind == "Fp":
        return list(itertools.product(range(field.p), repeat=d))
    rng = random.Random(seed)
    return [tuple(QQ.from_int(rng.choice((-2, -1, 0, 1, 2)))
                  for _ in range(d)) for _ in range(count)]


@pytest.mark.parametrize("name,field", [
    ("kC2", F7), ("kC3", F7), ("H4", F5), ("M2", F5), ("k4", F7),
    ("kC2", QQ), ("kC3", QQ), ("H4", QQ), ("M2", QQ)])
def test_rank_test_is_convolution_invertibility_on_hom_h(name, field):
    ca = HOM_CASES[name](field)
    alg, co = ca.algebra, ca.hopf.coalgebra
    mats = hom_mats(ca)
    n = alg.dim * co.dim
    span = OperatorSpan(field, [convolution_columns(alg, co, _columns(m))
                                for m in mats], n, n)
    seen = set()
    for c in candidates(field, len(mats), seed=len(mats)):
        t = dense_lin_comb(mats, c)
        got = span.full_rank_at(c)
        want = conv_invertible(alg, co, t)
        assert (got is not None) == want, c
        if got is not None:
            assert got == convolution_operator(alg, co, t)
        seen.add(want)
    assert seen == ({False} if name == "k4" else {False, True})


def hom_mats(ca):
    """The dense matrices of the basis of Hom^H(H, A)."""
    return [dense(ca.field, ca.algebra.dim, el.cols)
            for el in convcat.hom_space(ca, (2, 1), "C").elements]


def h4_on_dual_numbers(field):
    """H4 acting on B = k[y]/(y^2) by g.y = -y and x.y = 1 (so gx.y = 1): a
    non-trivial action of a non-cocommutative H, on which the cocycle law
    tells the two legs of Delta apart."""
    one, zero, neg = field.one, field.zero, field.neg(field.one)
    base = StructureConstantAlgebra(
        field, 2, [[(0, one)], [(1, one)], [(1, one)], []], [one, zero])
    # column 2 h + i holds e_h . e_i, for e_h in 1, g, x, gx and e_i in 1, y
    cols = [[one, zero], [zero, one], [one, zero], [zero, neg],
            [zero, zero], [one, zero], [zero, zero], [one, zero]]
    return cohomology.HModuleAlgebraAction(
        sweedler_h4(field), base, Matrix.from_cols(field, cols, nrows=2))


Z1_CASES = {
    # trivial actions on B = k, k x k, k^4 and the from-cleft action of
    # kC_2 on the diagonal of graded M_2 (which swaps the idempotents); over
    # a group algebra invertibility is "all entries nonzero", which every
    # relabelling of the matrix units keeps, so H4 on k is here as well
    "H4 on k": lambda f: trivial_action(
        sweedler_h4(f), group_algebra(f, cyclic_cayley(1)).algebra),
    "kC3 on k": lambda f: trivial_action(
        group_algebra(f, cyclic_cayley(3)),
        group_algebra(f, cyclic_cayley(1)).algebra),
    "kC2 on kxk": lambda f: trivial_action(
        group_algebra(f, cyclic_cayley(2)), trivial_kxk(f).algebra),
    "kC2 on k4": lambda f: trivial_action(
        group_algebra(f, cyclic_cayley(2)), k4_trivial(f).algebra),
    "M2 from cleft": lambda f: cohomology.action_from_cleft(
        graded_m2(f), cleft.find_cleft(graded_m2(f))),
    "H4 on k[y]/y2": h4_on_dual_numbers,
}


@pytest.mark.parametrize("name,field", [
    ("kC3 on k", F7), ("kC2 on kxk", F5), ("kC2 on k4", F3),
    ("M2 from cleft", F5), ("H4 on k", F5), ("kC3 on k", QQ),
    ("kC2 on kxk", QQ), ("kC2 on k4", QQ), ("M2 from cleft", QQ),
    ("H4 on k", QQ)])
def test_rank_test_is_convolution_invertibility_on_z1_family(name, field):
    act = Z1_CASES[name](field)
    base, co = act.base, act.hopf.coalgebra
    db, dh = base.dim, act.hopf.dim
    seen = set()
    for c in candidates(field, db * dh, seed=db):
        want = conv_invertible(base, co, Matrix(field, db, dh, list(c)))
        assert (act.conv_span.full_rank_at(c) is not None) == want, c
        seen.add(want)
    assert seen == {False, True}


def old_z1_membership(act, v_mat):
    """The former z1_membership, with its per-candidate convolution inverse."""
    f = act.field
    base, hopf = act.base, act.hopf
    db, dh = base.dim, hopf.dim
    if v_mat.apply(hopf.algebra.unit) != base.unit:
        return False
    if not conv_invertible(base, hopf.coalgebra, v_mat):
        return False
    eh = [basis_vec(f, dh, i) for i in range(dh)]
    for h in range(dh):
        for k in range(dh):
            lhs = v_mat.apply(hopf.algebra.product(eh[h], eh[k]))
            rhs = [f.zero] * db
            for (h1, h2), c in tensor_entries(
                    f, dense_comul(hopf.coalgebra).apply(eh[h]), (dh, dh)):
                v = base.product(act_on(act.action, eh[h1], v_mat.col(k)),
                                 v_mat.apply(eh[h2]))
                rhs = vec_add(f, rhs, vec_scale(f, c, v))
            if lhs != rhs:
                return False
    return True


@pytest.mark.parametrize("name,field", [
    ("kC3 on k", F7), ("kC2 on kxk", F5), ("kC2 on k4", F3),
    ("M2 from cleft", F5), ("H4 on k", F5), ("kC3 on k", QQ),
    ("kC2 on kxk", QQ)])
def test_z1_enumerate_matches_per_candidate_inverse(name, field):
    act = Z1_CASES[name](field)
    db, dh = act.base.dim, act.hopf.dim
    got = cohomology.z1_enumerate(act)
    assert got
    if field.kind == "Fp":
        # the former box enumeration, every tuple of F_p^(db dh) in order
        assert got == [v for e in box(field, db * dh) if old_z1_membership(
            act, v := Matrix(field, db, dh, list(e)))]
        return
    assert all(old_z1_membership(act, v) for v in got)
    for c in candidates(field, db * dh, seed=3, count=200):
        v = Matrix(field, db, dh, list(c))
        assert cohomology.z1_membership(act, v) == old_z1_membership(act, v)


def old_attempt(ca, mats, coeffs):
    """The former clefting test: an inverse solve per candidate."""
    t_mat = dense_lin_comb(mats, coeffs)
    if t_mat.is_zero():
        return None
    try:
        u_mat = convcat.convolution_inverse_matrix(ca, t_mat, "C")
    except NotInvertible:
        return None
    return cleft._normalize(ca, t_mat, u_mat)


def old_find_cleft(ca, seed=0, tries=500, enumerate_cap=search.EXHAUSTIVE_CAP):
    mats = hom_mats(ca)
    if not mats:
        return search.NotFound(True, 0, 0, "Hom^H(H,A) = 0")
    return search.first(ca.field, len(mats),
                        lambda c: old_attempt(ca, mats, c), seed, tries,
                        enumerate_cap)


def same_result(got, want):
    """Equal witnesses, or equal NotFound certificates."""
    if isinstance(want, search.NotFound):
        return (isinstance(got, search.NotFound)
                and (got.exhaustive, got.searched, got.dim, got.detail)
                == (want.exhaustive, want.searched, want.dim, want.detail))
    if isinstance(want, cleft.CleftingDatum):
        return (got.t == want.t and got.u == want.u
                and got.normalized == want.normalized)
    return got == want


@pytest.mark.parametrize("name,field,cap", [
    ("kC2", F7, None), ("kC3", F7, None), ("H4", F5, None), ("M2", F5, None),
    ("k4", F7, None), ("kC3", F7, 20), ("H4", F5, 20), ("k4", F7, 20),
    ("kC2", QQ, None), ("H4", QQ, None), ("M2", QQ, None)])
def test_find_cleft_matches_per_candidate_inverse(name, field, cap):
    ca = HOM_CASES[name](field)
    cap = search.EXHAUSTIVE_CAP if cap is None else cap
    for seed in (0, 1):
        got = cleft.find_cleft(ca, seed=seed, tries=40, enumerate_cap=cap)
        want = old_find_cleft(ca, seed=seed, tries=40, enumerate_cap=cap)
        assert same_result(got, want), (got, want)


def old_invertible_in_span(base, kernel_vecs, seed=0, tries=200):
    f = base.field
    if not kernel_vecs:
        return search.NotFound(True, 0, 0)

    def invertible_at(coeffs):
        b = [f.zero] * base.dim
        for v, c in zip(kernel_vecs, coeffs):
            b = vec_add(f, b, vec_scale(f, c, v))
        return b if base.element_inverse(b) is not None else None

    return search.first(f, len(kernel_vecs), invertible_at, seed, tries)


def old_invertible_in_matrix_span(field, mats, seed=0, tries=200,
                                  enumerate_cap=search.EXHAUSTIVE_CAP):
    d = len(mats)
    if d == 0 or mats[0].rows != mats[0].cols:
        return search.NotFound(True, 0, d)

    def invertible_at(coeffs):
        m = dense_lin_comb(mats, coeffs)
        return m if old_is_invertible(m) else None

    return search.first(field, d, invertible_at, seed, tries, enumerate_cap)


def random_vec(rng, field, n, zero_from=None):
    vals = [rng.randrange(field.p) if field.kind == "Fp"
            else QQ.from_int(rng.randint(-2, 2)) for _ in range(n)]
    return [field.zero if zero_from is not None and i >= zero_from else x
            for i, x in enumerate(vals)]


@pytest.mark.parametrize("field", [F3, F7, QQ])
def test_span_searches_match_per_candidate_code(field):
    rng = random.Random(field.p if field.kind == "Fp" else 0)
    algebras = [k4_trivial(field).algebra, graded_m2(field).algebra]
    if field is not F3:
        algebras.append(sweedler_h4(field).algebra)
    for base in algebras:
        n = base.dim
        spans = [[basis_vec(field, n, i) for i in range(n)],
                 [basis_vec(field, n, i) for i in range(n - 1)], []]
        for _ in range(6):
            zero_from = rng.choice((None, n - 1))
            spans.append([random_vec(rng, field, n, zero_from)
                          for _ in range(rng.randrange(1, 4))])
        for vecs in spans:
            for seed in (0, 1):
                got = cohomology._invertible_in_span(
                    base, [_nonzero(v) for v in vecs], seed, 30)
                want = old_invertible_in_span(base, vecs, seed, 30)
                assert same_result(got, want), (vecs, got, want)
            mats = [base.lmul(v) for v in vecs]
            for cap in (search.EXHAUSTIVE_CAP, 5):
                got = lifting._invertible_in_matrix_span(
                    field, [_columns(m) for m in mats], n, n, tries=30,
                    enumerate_cap=cap)
                want = old_invertible_in_matrix_span(
                    field, mats, tries=30, enumerate_cap=cap)
                assert same_result(got, want), (vecs, got, want)
    # rectangular spans are refused as before
    rect = [Matrix(field, 2, 3, [field.one] * 6)]
    assert same_result(lifting._invertible_in_matrix_span(
        field, [_columns(m) for m in rect], 2, 3),
                       old_invertible_in_matrix_span(field, rect))


@pytest.mark.parametrize("field", [F3, F7, QQ])
def test_is_invertible_is_the_old_invert_test(field):
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randrange(4), rng.randrange(4)
        if rng.random() < 0.7:
            cols = rows
        m = Matrix(field, rows, cols, random_vec(
            rng, field, rows * cols, rng.choice((None, rows * cols - 1))))
        assert m.is_invertible() == old_is_invertible(m)


# -- the unital slice against the box it is cut from -------------------------

@st.composite
def unit_systems(draw):
    """(field, d, images, target) over F_3, F_5 or F_7 with d <= 4; half of
    them are consistent by construction, the rest mostly are not."""
    field = PrimeField(draw(st.sampled_from((3, 5, 7))))
    d, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(0, field.p - 1)
    images = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(d)]
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=d, max_size=d))
        target = [sum(img[r] * c for img, c in zip(images, x)) % field.p
                  for r in range(m)]
    else:
        target = draw(st.lists(entry, min_size=m, max_size=m))
    return field, d, images, target


@settings(max_examples=100, deadline=None)
@given(unit_systems())
def test_unital_slice_is_the_box_restricted_in_order(system):
    field, d, images, target = system
    want = [c for c in box(field, d)
            if all(sum(img[r] * x for img, x in zip(images, c)) % field.p
                   == b for r, b in enumerate(target))]
    free, points = search.unital_slice(field, d, (images, target))
    assert list(points) == want
    if want:
        assert len(want) == field.p ** free
    assert search.every(field, d, lambda c: c, unit=(images, target)) == want
    # first() on the slice: the box's first hit, or a proof over all p^d
    got = search.first(field, d, lambda c: c, unit=(images, target))
    assert got == want[0] if want else got.tried == 0
    miss = search.first(field, d, lambda c: None, unit=(images, target))
    assert (miss.exhaustive, miss.searched, miss.tried) == (
        True, field.p ** d, len(want))


def test_unital_slice_empty_and_inconsistent_systems():
    for d in range(4):
        for unit in (None, ([[]] * d, [])):
            free, points = search.unital_slice(F5, d, unit)
            assert free == d and list(points) == box(F5, d)
    # c0 + c1 = 1 and 2 c0 + 2 c1 = 1 over F_3: no point, and [] is a proof
    unit = ([[1, 2], [1, 2], [0, 0]], [1, 1])
    free, points = search.unital_slice(F3, 3, unit)
    assert list(points) == []
    assert search.every(F3, 3, lambda c: c, cap=1, unit=unit) == []
    # the cap counts the p^free tuples of the slice, not the p^d of the box
    unit = ([[1], [0], [0]], [1])
    assert search.enumerable(F3, 3, 9, unit)
    assert not search.enumerable(F3, 3, 8, unit)
    with pytest.raises(search.SearchInconclusive,
                       match=r"\|F_3\|\^2 exceeds"):
        search.every(F3, 3, lambda c: c, cap=8, unit=unit)


@pytest.mark.parametrize("name,field", [
    ("kC2", F7), ("kC3", F7), ("H4", F5), ("M2", F5), ("k4", F3)])
def test_omega_enumerate_is_the_box_enumeration(name, field):
    ca = HOM_CASES[name](field)
    mats = hom_mats(ca)
    want = [t for c in box(field, len(mats))
            if cohomology.omega_membership(ca, t := dense_lin_comb(mats, c))]
    assert cohomology.omega_enumerate(ca) == want
    assert bool(want) == (name != "k4")


@pytest.mark.parametrize("name,field,module", [
    ("kC2", F7, module_b), ("kC3", F7, module_b), ("H4", F5, module_k),
    ("M2", F5, module_b), ("M2", F5, module_k), ("kC2", F7, module_k)])
def test_lambda_enumerate_is_the_box_enumeration(name, field, module):
    ca = HOM_CASES[name](field)
    ctx = maintheorem.TheoremContext(ca, module(ca))
    space = [dense(field, ctx.m.dim, phi)
             for phi in lifting._b_linear_space(ctx)]
    want = [phi for c in box(field, len(space))
            if lifting._is_action(ctx, phi := dense_lin_comb(space, c))]
    assert lifting.lambda_enumerate(ctx) == want


def test_slice_cap_decides_where_the_box_refused():
    # Z^1(kC_3, F_7) is Hom(C_3, F_7^x) = mu_3: the slice v(1) = 1 has 7^2
    # points, so a cap of 7^2 now enumerates where the 7^3 box was refused
    act = Z1_CASES["kC3 on k"](F7)
    z1 = cohomology.z1_enumerate(act, enumerate_cap=7 ** 2)
    assert len(z1) == 3 and 7 ** 3 > 7 ** 2
    assert len(cohomology.h1_classes(act, z1)) == 3
    with pytest.raises(search.SearchInconclusive,
                       match=r"\|F_7\|\^2 exceeds the enumeration cap"):
        cohomology.z1_enumerate(act, enumerate_cap=7 ** 2 - 1)


# -- the compiled cocycle law against the per-pair loop ----------------------


def law_holds(act, v_mat):
    """act.cocycle_law evaluated at v, with no unit or rank step."""
    f, v = act.field, v_mat.data
    for lin, quad in act.cocycle_law:
        x = (sum(a * v[i] for i, a in lin)
             - sum(c * v[i] * v[j] for i, j, c in quad))
        if x and (f.p is None or x % f.p):
            return False
    return True


def loop_holds(act, v_mat):
    """The former per-pair loop of z1_membership: v(hk) = (h1.v(k))v(h2)."""
    f = act.field
    base, hopf = act.base, act.hopf
    db, dh = base.dim, hopf.dim
    eh = [basis_vec(f, dh, i) for i in range(dh)]
    for h in range(dh):
        for k in range(dh):
            lhs = v_mat.apply(hopf.algebra.product(eh[h], eh[k]))
            rhs = [f.zero] * db
            for (h1, h2), c in tensor_entries(
                    f, dense_comul(hopf.coalgebra).apply(eh[h]), (dh, dh)):
                v = base.product(act_on(act.action, eh[h1], v_mat.col(k)),
                                 v_mat.apply(eh[h2]))
                rhs = vec_add(f, rhs, vec_scale(f, c, v))
            if lhs != rhs:
                return False
    return True


def unital(act, v_mat):
    """v moved onto v(1) = 1 along a basis element where 1_H is nonzero."""
    f, dh = act.field, act.hopf.dim
    unit = act.hopf.algebra.unit
    j = next(j for j in range(dh) if unit[j] != f.zero)
    miss = vec_add(f, act.base.unit, vec_scale(
        f, f.neg(f.one), v_mat.apply(unit)))
    data = list(v_mat.data)
    for r, x in enumerate(miss):
        data[r * dh + j] = f.add(data[r * dh + j], f.div(x, unit[j]))
    return Matrix(f, v_mat.rows, v_mat.cols, data)


@pytest.mark.parametrize("name,field", [
    ("kC3 on k", F7), ("kC2 on kxk", F5), ("M2 from cleft", F5),
    ("H4 on k", F5), ("H4 on k[y]/y2", F3), ("kC3 on k", QQ),
    ("kC2 on kxk", QQ), ("kC2 on k4", QQ), ("M2 from cleft", QQ),
    ("H4 on k", QQ), ("H4 on k[y]/y2", QQ)])
def test_compiled_cocycle_law_is_the_per_pair_loop(name, field):
    act = Z1_CASES[name](field)
    assert act.validate().passed
    db, dh = act.base.dim, act.hopf.dim
    if field.kind == "Fp":
        vs = [Matrix(field, db, dh, list(c)) for c in box(field, db * dh)]
    else:
        vs = [Matrix(field, db, dh, list(c))
              for c in candidates(field, db * dh, seed=5, count=60)]
        # v = eps 1 is a cocycle for every module-algebra action
        vs += [unital(act, v) for v in vs] + [
            convolution_unit(act.base, act.hopf.coalgebra)]
    seen = set()
    for v in vs:
        want = loop_holds(act, v)
        assert law_holds(act, v) == want, v
        # where the law fails both memberships are False by the line above
        if want:
            assert cohomology.z1_membership(act, v) \
                == old_z1_membership(act, v)
        seen.add(want)
    assert seen == {False, True}


def old_z1_equations(act):
    """The former Q path of z1_enumerate, re-deriving the cocycle law
    through the dense action and prod."""
    f = act.field
    base, hopf = act.base, act.hopf
    db, dh = base.dim, hopf.dim
    eh = [basis_vec(f, dh, i) for i in range(dh)]
    eb = [basis_vec(f, db, i) for i in range(db)]

    def equations(v, prod):
        yield from (x - u for x, u in zip(v(hopf.algebra.unit), base.unit))
        for h in range(dh):
            for k in range(dh):
                rhs = [0] * db
                for (h1, h2), c in tensor_entries(
                        f, dense_comul(hopf.coalgebra).apply(eh[h]), (dh, dh)):
                    cols = [act_on(act.action, eh[h1], e) for e in eb]
                    acted = [sum(col[r] * x for col, x in zip(cols, v(eh[k])))
                             for r in range(db)]
                    term = prod(acted, v(eh[h2]))
                    rhs = [r0 + c * t for r0, t in zip(rhs, term)]
                yield from (l - r for l, r in zip(
                    v(hopf.algebra.product(eh[h], eh[k])), rhs))

    return equations


def former_t(t_cols):
    """The former t(vec) of rational_points: the symbolic columns t_cols
    applied to a coordinate vector."""
    import sympy

    def t(vec):
        out = [sympy.Integer(0)] * len(t_cols[0])
        for x, col in zip(vec, t_cols):
            if x != 0:
                out = [o + sympy.Rational(x) * v for o, v in zip(out, col)]
        return out

    return t


@pytest.mark.parametrize("name,action", [
    ("kc2", "trivial"), ("trivial_kxk", "trivial"), ("m2_graded", "trivial"),
    ("m2_graded", "from-cleft")])
def test_q_equations_are_the_former_ones(monkeypatch, name, action):
    import sympy
    ca = {"kc2": lambda: regular_comodule(group_algebra(
        QQ, cyclic_cayley(2), ["1", "g"])),
          "trivial_kxk": lambda: trivial_kxk(QQ),
          "m2_graded": lambda: graded_m2(QQ)}[name]()
    b = ca.coinvariants().algebra
    act = (cohomology.trivial_action(ca.hopf, b) if action == "trivial"
           else cohomology.action_from_cleft(ca, cleft.find_cleft(ca)))
    lists = []
    solve = search.rational_points

    def spy(algebra, mats, equations, test, refuse=None):
        def both(t, prod):
            new = [sympy.expand(e) for e in equations(t, prod)]
            lists.append((new, [sympy.expand(e)
                                for e in old_z1_equations(act)(
                                    former_t(t), prod)]))
            return new
        return solve(algebra, mats, both, test, refuse)

    monkeypatch.setattr(search, "rational_points", spy)
    try:
        cohomology.z1_enumerate(act)
    except search.SearchInconclusive:
        pass
    [(new, old)] = lists
    assert new == old and any(e != 0 for e in new)


# -- dead sub-boxes: the pruned walk against the whole box -------------------


def rank_walk(field, n, ops, degree):
    """search.first over span(ops) of n x n matrices, hit iff rank n by the
    RREF (not the full-rank kernel); returns (result, tested points)."""
    seen = []

    def test(c):
        seen.append(c)
        m = Matrix(field, n, n, [sum(x * op.data[i] for x, op in zip(c, ops))
                                 for i in range(n * n)])
        return c if len(m.rref()[1]) == n else None

    return search.first(field, len(ops), test, degree=degree), seen


def assert_pruned_walk_is_the_box(field, n, ops):
    got, pruned = rank_walk(field, n, ops, n)
    want, full = rank_walk(field, n, ops, None)
    assert same_result(got, want), (got, want)
    points = iter(full)
    assert all(c in points for c in pruned)  # an in-order subsequence
    if not isinstance(want, search.NotFound):
        assert pruned[-1] == full[-1] == want  # stopped at the same hit
    width = min(field.p, n + 1)
    assert pruned == list(itertools.product(range(width), repeat=len(ops)))[
        :len(pruned)]
    if field.p <= n + 1:
        assert pruned == full
    if isinstance(want, search.NotFound):
        assert (want.tried, got.tried) == (field.p ** len(ops),
                                           width ** len(ops))
    return got


@st.composite
def matrix_spans(draw):
    """(field, n, ops): d <= 3 square n x n matrices, n <= 3, over a prime
    on either side of n + 1; a shared zero last column makes every
    combination singular."""
    field = PrimeField(draw(st.sampled_from((2, 3, 5, 11, 13))))
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    singular = draw(st.booleans())
    ops = []
    for _ in range(d):
        data = draw(st.lists(st.integers(-field.p, 2 * field.p),
                             min_size=n * n, max_size=n * n))
        if singular:
            data[n - 1::n] = [0] * n
        ops.append(Matrix(field, n, n, data))
    return field, n, ops


@settings(max_examples=150, deadline=None)
@given(matrix_spans())
def test_pruned_walk_finds_what_the_box_finds(span):
    field, n, ops = span
    got = assert_pruned_walk_is_the_box(field, n, ops)
    if ops and all(op.data[n - 1::n] == [0] * n for op in ops):
        assert isinstance(got, search.NotFound) and got.exhaustive


def lmul_span(algebra, vecs):
    f = algebra.field
    return [algebra.lmul([f.from_int(x) for x in v]) for v in vecs]


@pytest.mark.parametrize("name,p,vecs,hit", [
    # k x k x k: invertible iff every coordinate is nonzero
    ("k3", 13, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1)),
    ("k3", 11, [[1, 1, 0], [0, 1, 1], [1, 0, 0]], (0, 1, 1)),
    # the augmentation ideal of kC_3 and the radical of H4: all singular
    ("kC3", 13, [[1, -1, 0], [1, 0, -1]], None),
    ("H4", 11, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]], None),
    ("H4", 13, [[1, 0, 1, 0], [0, 0, 1, 0]], (1, 0)),
    # p <= n + 1: nothing is skipped
    ("k3", 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1)),
    ("H4", 5, [[0, 0, 1, 0], [0, 0, 0, 1]], None),
    # d = 1 and d = 0
    ("kC3", 13, [[1, -1, 0]], None),
    ("k3", 13, [[1, 2, 3]], (1,)),
    ("k3", 13, [], None),
])
def test_pruned_walk_on_lmul_spans(name, p, vecs, hit):
    field = PrimeField(p)
    algebra = {"k3": lambda: dual_group_algebra(field, cyclic_cayley(3)),
               "kC3": lambda: group_algebra(field, cyclic_cayley(3)),
               "H4": lambda: sweedler_h4(field)}[name]().algebra
    ops = lmul_span(algebra, vecs)
    n = algebra.dim
    got = assert_pruned_walk_is_the_box(field, n, ops)
    assert got == hit if hit else isinstance(got, search.NotFound)
    if ops:
        assert OperatorSpan(field, [_columns(op) for op in ops], n,
                            n).degree == n
    b = cohomology._invertible_in_span(
        algebra, [_nonzero([field.from_int(x) for x in v]) for v in vecs])
    assert isinstance(b, search.NotFound) == (hit is None)


def test_pinned_full_rank_test_counts(monkeypatch):
    seen = []
    full_rank_at = OperatorSpan.full_rank_at
    monkeypatch.setattr(OperatorSpan, "full_rank_at",
                        lambda span, c: seen.append(c) or full_rank_at(span, c))
    f31 = PrimeField(31)
    got = cleft.find_cleft(regular_comodule(group_algebra(f31,
                                                          cyclic_cayley(3))))
    assert isinstance(got, cleft.CleftingDatum)
    # the box tries 31^2 + 31 + 2 = 994; the grid range(10)^3, 112
    assert len(seen) == 112 and seen[-1] == (1, 1, 1)
    for p, tried in ((13, 9 ** 4), (7, 7 ** 4)):
        got = cleft.find_cleft(k4_trivial(PrimeField(p)))
        assert (got.exhaustive, got.searched, got.tried) == (True, p ** 4,
                                                             tried)


@pytest.mark.parametrize("name,field", [
    ("kC2", F7), ("kC3", F7), ("H4", F5), ("M2", F5), ("k4", F7)])
def test_algebra_map_search_walks_the_unital_slice(monkeypatch, name, field):
    ca = HOM_CASES[name](field)
    mats = [el.cols for el in convcat.hom_space(ca, (2, 1), "C").elements]
    want = search.first(field, len(mats),
                        lambda c: cleft._algebra_map_at(ca, mats, c))
    seen = []
    at = cleft._algebra_map_at
    monkeypatch.setattr(cleft, "_algebra_map_at",
                        lambda ca, mats, c: seen.append(c) or at(ca, mats, c))
    t_mat, status = cleft._algebra_map_search(ca, mats)
    if isinstance(want, search.NotFound):
        assert (t_mat, status) == (None, "none")
    else:
        assert (t_mat, status) == (want, "found")
    points = search.unital_slice(field, len(mats),
                                 cleft.unit_condition(ca, mats))[1]
    assert seen == list(points)[:len(seen)]
    if name == "k4":  # one of the 2,401 tuples of the box has t(1) = 1
        assert len(seen) == 1
