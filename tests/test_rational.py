"""search.rational_points, the exact Groebner-basis solve over Q, against its
former sympy body (conftest.sympy_rational_points) as the oracle."""

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import sympy_rational_points
from hopfgalois import cli, io_json, search
from hopfgalois.fields import QQ, _is_prime
from hopfgalois.fixtures import (cyclic_cayley, dual_group_algebra,
                                 group_algebra, regular_comodule, sweedler_h4)
from hopfgalois.hopf import StructureConstantAlgebra
from hopfgalois.linalg import Matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "hopfgalois" / "fixtures"
K = StructureConstantAlgebra(QQ, 1, [[(0, QQ.one)]], [QQ.one])


def outcome(solve, algebra, ops, equations, refuse=None):
    """Every point a solver yields, in order, and the message it ends with
    (None when it ends without SearchInconclusive)."""
    points = []
    try:
        for c in solve(algebra, ops, equations, lambda c: c, refuse):
            points.append(c)
    except search.SearchInconclusive as exc:
        return points, str(exc)
    return points, None


def reached_systems(argvs):
    """The arguments of every rational_points call the CLI runs make."""
    systems, solve = [], search.rational_points

    def spy(algebra, ops, equations, test, refuse=None):
        systems.append((algebra, ops, equations, refuse))
        return solve(algebra, ops, equations, test, refuse)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "rational_points", spy)
        for argv in argvs:
            cli.run(argv)
    return systems


def assert_same_as_oracle(systems):
    for k, (algebra, ops, equations, refuse) in enumerate(systems):
        want = outcome(sympy_rational_points, algebra, ops, equations, refuse)
        got = outcome(search.rational_points, algebra, ops, equations, refuse)
        assert got == want, (k, len(ops), refuse)


def digest_forms():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FORMS


def test_fixture_systems_equal_the_oracle():
    systems = reached_systems(
        [*form, str(path), "--seed", "0"]
        for path in sorted(FIXTURES.glob("*.json")) for form in digest_forms())
    assert len(systems) == 54
    assert_same_as_oracle(systems)


def s3_cayley():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
            for p in perms]


LADDER = {
    **{f"kC{n}": lambda n=n: group_algebra(QQ, cyclic_cayley(n))
       for n in range(2, 9)},
    "kC4_dual": lambda: dual_group_algebra(QQ, cyclic_cayley(4)),
    "kC6_dual": lambda: dual_group_algebra(QQ, cyclic_cayley(6)),
    "kS3_dual": lambda: dual_group_algebra(QQ, s3_cayley()),
    "H4": lambda: sweedler_h4(QQ),
}
# the oracle takes seconds to minutes on the larger rungs, so Tier-1 runs
# these and HOPFGALOIS_FULL_LADDER=1 runs them all
LADDER_TIER1 = ("kC2", "kC3", "kC4", "kC4_dual", "H4")


def write_regular(tmp_path, name):
    h = LADDER[name]()
    b = io_json.WorkspaceBundle(QQ)
    ca = regular_comodule(h)
    ca.hopf_name = name
    b.hopf_algebras[name] = h
    b.comodule_algebras["regular"] = ca
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(io_json.emit_bundle(b)))
    return str(path)


@pytest.mark.parametrize("name", list(
    LADDER if os.environ.get("HOPFGALOIS_FULL_LADDER") else LADDER_TIER1))
def test_ladder_systems_equal_the_oracle(tmp_path, name):
    path = write_regular(tmp_path, name)
    systems = reached_systems([[*form, path] for form in (
        ["smash-check"], ["cohomology", "h1"],
        ["classify", "--module", "regular"])])
    assert systems
    assert_same_as_oracle(systems)


def unknowns(n):
    """ops whose t[j][0] is the unknown c_j."""
    return [[[(0, QQ.one)] if j == k else [] for j in range(n)]
            for k in range(n)]


def invertible(m):
    n = len(m)
    return len(Matrix(QQ, n, n, [QQ.from_int(x) for row in m
                                 for x in row]).rref()[1]) == n


@st.composite
def zero_dimensional(draw, most_roots):
    """Products of rational linear factors in y = M c + b, M invertible, and
    at times an irreducible y_0^2 - 2; returns (equations, number of
    unknowns, every rational point in lexicographic order)."""
    n = draw(st.integers(1, 3))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    roots = [draw(st.lists(small, min_size=1, max_size=most_roots))
             for _ in range(n)]
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(invertible))
    b = draw(st.lists(small, min_size=n, max_size=n))
    irrational = draw(st.booleans())

    def equations(t, prod):
        for i, rs in enumerate(roots):
            y = sum(a * t[j][0] for j, a in enumerate(m[i])) + b[i]
            f = y * y - 2 if irrational and i == 0 else 1
            for r in rs:
                f = f * (y - r)
            yield f

    # c = M^-1 (y - b) for y in the product of the root sets
    inverse = Matrix(QQ, n, n, [QQ.from_int(x) for row in m for x in row])
    inverse = inverse.invert()
    points = sorted(tuple(sum(inverse.data[i * n + j] * (y[j] - b[j])
                              for j in range(n)) for i in range(n))
                    for y in itertools.product(*map(set, roots)))
    return equations, n, points


@settings(max_examples=40, deadline=None)
@given(zero_dimensional(most_roots=2))
def test_zero_dimensional_systems_equal_the_oracle(system):
    equations, n, points = system
    got = outcome(search.rational_points, K, unknowns(n), equations)
    assert got == outcome(sympy_rational_points, K, unknowns(n), equations)
    assert got == (points, None)


@settings(max_examples=40, deadline=None)
@given(zero_dimensional(most_roots=3))
def test_zero_dimensional_systems_have_their_points(system):
    # up to 54 complex points in general position, where the oracle takes
    # up to minutes: the points are known from the construction
    equations, n, points = system
    assert outcome(search.rational_points, K, unknowns(n), equations) == (
        points, None)


def test_free_family_equals_the_oracle():
    def equations(t, prod):         # c0 = c1, sampled at c1 in FREE_SAMPLES
        yield t[0][0] - t[1][0]

    got = outcome(search.rational_points, K, unknowns(2), equations)
    assert got == outcome(sympy_rational_points, K, unknowns(2), equations)
    assert got[0] == [(s, s) for s in search.FREE_SAMPLES]


def test_huge_coefficients_end_in_bounded_time():
    def equations(a1, a0):          # c0^2 + a1 c0 + a0 = 0
        return lambda t, prod: iter([prod(t[0], t[0])[0] + a1 * t[0][0]
                                     + a0])

    def solve(a1, a0):
        return list(search.rational_points(K, unknowns(1),
                                           equations(a1, a0), lambda c: c))

    p, q = (next(k for k in itertools.count(start) if _is_prime(k))
            for start in (10 ** 20, 3 * 10 ** 20))
    t0 = time.perf_counter()
    assert solve(0, -p * q) == []   # about 10^40, no rational square root
    assert solve(0, Fraction(-10 ** 40, 9)) == [
        (Fraction(-10 ** 20, 3),), (Fraction(10 ** 20, 3),)]
    # the roots 0 and P meet mod every odd prime below PRIME_BOUND, so
    # none separates them: inconclusive, never a verdict
    odd = math.prod(filter(_is_prime, range(3, search.PRIME_BOUND)))
    with pytest.raises(search.SearchInconclusive):
        solve(-odd, 0)
    assert time.perf_counter() - t0 < 1


def test_q_commands_do_not_import_sympy():
    code = (
        "import sys\n"
        "from hopfgalois import cli\n"
        f"assert cli.run(['smash-check', {str(FIXTURES / 'cp4.json')!r}])[1]"
        " == 0\n"
        f"assert cli.run(['cohomology', 'h1', {str(FIXTURES / 'kc2.json')!r}])"
        "[1] == 0\n"
        "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
