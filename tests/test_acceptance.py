"""Acceptance criteria 1-8, one test per criterion.

Each test prints an `ACCEPTANCE criterion N: PASS|FAIL` line (visible in the
pytest output) and enforces the stated runtime bound where one applies.
All checks are exact (tolerance zero) over Q or F_p.
"""

import json
import pathlib
import time

import pytest

from hopfgalois import cleft, cli, cohomology, galois, io_json, lifting, \
    maintheorem
from hopfgalois.fields import QQ, PrimeField
from hopfgalois.fixtures import (cp_fixture, cyclic_cayley, graded_m2,
                                 group_algebra, regular_comodule, sweedler_h4)
from hopfgalois.linalg import Matrix

from conftest import module_b, module_k

F3 = PrimeField(3)
FIXTURES = pathlib.Path(io_json.__file__).parent / "fixtures"


@pytest.fixture
def announce(capsys):
    def _announce(n, ok, detail=""):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            extra = f"  ({detail})" if detail else ""
            print(f"\nACCEPTANCE criterion {n}: {verdict}{extra}")
        assert ok, f"criterion {n} failed: {detail}"
    return _announce


def test_criterion_1_translation_identities(announce):
    t0 = time.perf_counter()
    fixtures = [
        regular_comodule(group_algebra(QQ, cyclic_cayley(2))),
        regular_comodule(sweedler_h4(QQ)),
        graded_m2(QQ),
        cp_fixture(QQ, QQ.from_int(-1)),
    ]
    failures = []
    for ca in fixtures:
        report = galois.verify_translation_identities(ca)
        failures.extend(report.failures)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 2.0
    announce(1, ok, f"4 fixtures, {elapsed:.2f}s")


def test_criterion_2_theorem31(announce):
    t0 = time.perf_counter()
    m2 = graded_m2(QQ)
    h4 = regular_comodule(sweedler_h4(QQ))
    cases = [(m2, module_b(m2)), (m2, module_k(m2)), (h4, module_k(h4))]
    failures = []
    for ca, m in cases:
        report = maintheorem.verify_theorem31(ca, m)
        failures.extend(report.failures)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    announce(2, ok, f"3 cases, {elapsed:.2f}s")


def test_criterion_3_negative_controls(announce, corrupt_gamma):
    # (a) corrupt gamma (omit S-bar in gamma_12) on a fixture with S != id
    h4 = regular_comodule(sweedler_h4(QQ))
    report = maintheorem.verify_theorem31(h4, module_b(h4))
    failed = dict(report.failures)
    gamma_ok = "12b" in failed and failed["12b"] is not None
    # (b) corrupt a (5.1.3) cocycle instance: kC4 over B = k with
    # sigma(g,g) = 2, all other normalized values 1, breaks (g, g, g^2)
    h = group_algebra(QQ, cyclic_cayley(4))
    base = group_algebra(QQ, cyclic_cayley(1)).algebra
    omega = Matrix(QQ, 1, 4, [QQ.one] * 4)
    sigma = Matrix(QQ, 1, 16, [QQ.one] * 16)
    sigma.data[1 * 4 + 1] = QQ.from_int(2)
    try:
        cleft.build_crossed_product(base, h, omega, sigma)
        cocycle_ok = False
        detail = "build_crossed_product accepted a broken cocycle"
    except cleft.InvalidCrossedData as exc:
        cocycle_ok = exc.condition == "(5.1.3)" and exc.witness is not None
        detail = f"rejected: {exc.condition} at {exc.witness}"
    announce(3, gamma_ok and cocycle_ok,
             f"12b witness={failed.get('12b')}, {detail}")


def test_criterion_4_structure_theorem_round_trip(announce):
    t0 = time.perf_counter()
    reports = [cleft.structure_theorem_check(graded_m2(F3)),
               cleft.structure_theorem_check(cp_fixture(QQ, QQ.from_int(-1)))]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 5.0
    announce(4, ok, f"{elapsed:.2f}s")


def test_criterion_5_remark_53(announce):
    ok = True
    for c in (-1, 2, 4):
        ca = cp_fixture(QQ, QQ.from_int(c))
        datum = cleft.find_cleft(ca)
        cp = cleft.extract_crossed_data(datum, ca)
        result = cleft.crossed_canonical_inverse(cp)
        if result.failures:
            ok = False
    announce(5, ok, "t(h) = 1#h, u = sigma-bar formula, t*u = u*t = unit")


def test_criterion_6_cohomology(announce):
    # |H^1(kC2, k)| = 2 over Q and F_3
    counts = []
    for field in (QQ, F3):
        ca = regular_comodule(group_algebra(field, cyclic_cayley(2)))
        act = cohomology.trivial_action(ca.hopf, ca.coinvariants().algebra)
        z1 = cohomology.z1_enumerate(act)
        counts.append(len(cohomology.h1_classes(act, z1)))
    # Prop 5.7 on graded M2 / F_3, both sides enumerated independently
    m2 = graded_m2(F3)
    p57 = cohomology.prop57_check(m2)
    # Thm 5.6 closures, exhaustively
    groupoid = cohomology.groupoid_xa_check(m2)
    p57_counts = (p57.details["h1_count"], p57.details["omega_bar_count"])
    ok = (counts == [2, 2] and p57.passed
          and p57_counts[0] == p57_counts[1]
          and groupoid.passed and not groupoid.details["vacuous"])
    announce(6, ok, f"|H1|={counts}, prop57 {p57_counts[0]}="
                    f"{p57_counts[1]}, groupoid sizes "
                    f"{groupoid.details['sizes']}")


def test_criterion_7_lifting(announce):
    t0 = time.perf_counter()
    m2 = graded_m2(F3)
    reports = [lifting.classify_actions(m2, module_k(m2)),
               lifting.classify_actions(m2, module_b(m2))]
    elapsed = time.perf_counter() - t0
    ok = (all(r.passed for r in reports)
          and all(r.details["lambda_count"] == r.details["omega_count"]
                  for r in reports)
          and elapsed < 30.0)
    announce(7, ok, f"counts {[r.details['lambda_count'] for r in reports]}, "
                    f"{elapsed:.2f}s")


def test_criterion_8_determinism(announce):
    commands = [
        ["galois", str(FIXTURES / "m2_graded.json"), "--output", "json"],
        ["translation-map", str(FIXTURES / "h4.json"), "--output", "json"],
        ["cleft", str(FIXTURES / "m2_graded_f3.json"), "--seed", "3"],
        ["cohomology", "h1", str(FIXTURES / "kc2.json"), "--output", "json"],
        ["classify", str(FIXTURES / "m2_graded_f3.json"),
         "--module", "b_regular"],
    ]
    ok = True
    for argv in commands:
        r1, c1 = cli.run(list(argv))
        r2, c2 = cli.run(list(argv))
        b1 = json.dumps(r1.to_dict(), sort_keys=True) + r1.to_text()
        b2 = json.dumps(r2.to_dict(), sort_keys=True) + r2.to_text()
        if b1 != b2 or c1 != c2:
            ok = False
    announce(8, ok, f"{len(commands)} commands, two runs each")
