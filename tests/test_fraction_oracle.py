"""Integral rationals as ints, against the all-Fraction field as the oracle.

A Q scalar is an int when it is integral and a Fraction otherwise.  Every Q
report must be the same, byte for byte and with the same exit code, when
every scalar is a Fraction (conftest.fraction_field): on the Q fixtures under
the 11 digest forms at seeds 0 and 1, and on regular Q ladder rungs.
"""

import json
from fractions import Fraction
from pathlib import Path

from conftest import digest_forms, write_regular
from hopfgalois import cli, io_json

FIXTURES = Path(io_json.__file__).parent / "fixtures"
Q_FIXTURES = [p for p in sorted(FIXTURES.glob("*.json"))
              if json.loads(p.read_text())["field"] == "Q"]
RUNGS = ("kC2", "kC3", "kC4", "kC5", "kC6", "kC4_dual", "kS3_dual", "H4")
RUNG_FORMS = (["validate"], ["galois"], ["translation-map"],
              ["cat-iso-check", "--module", "regular"], ["cleft"],
              ["cohomology", "h1"])


def reports(argvs):
    """Exit code and printed text and JSON reports (the message on exit 2)
    of each CLI run."""
    out = []
    for argv in argvs:
        report, code = cli.run(argv)
        out.append((code, str(report)) if code == 2 else (
            code, report.to_text(),
            json.dumps(report.to_dict(), indent=1, sort_keys=True)))
    return out


def scalar_types(path):
    table = io_json.load_bundle(path).hopf_algebras["kC2"].algebra.mul_table
    return {type(x) for terms in table for _, x in terms}


def test_the_oracle_field_holds_fractions(fraction_field):
    kc2 = FIXTURES / "kc2.json"
    assert scalar_types(kc2) == {int}
    with fraction_field():
        assert scalar_types(kc2) == {Fraction}
    assert scalar_types(kc2) == {int}


def test_fixture_reports_equal_the_fraction_field(fraction_field):
    argvs = [[*form, str(path), "--seed", str(seed)]
             for path in Q_FIXTURES for form in digest_forms()
             for seed in (0, 1)]
    assert len(argvs) == 10 * 11 * 2
    fast = reports(argvs)
    with fraction_field():
        assert reports(argvs) == fast


def test_ladder_reports_equal_the_fraction_field(fraction_field, tmp_path):
    argvs = [[*form, write_regular(tmp_path, name)]
             for name in RUNGS for form in RUNG_FORMS]
    fast = reports(argvs)
    # cohomology h1 asks for a cocommutative H, so (kS_3)^* and H_4 exit 2
    assert sum(code == 0 for code, *_ in fast) == len(argvs) - 2
    with fraction_field():
        assert reports(argvs) == fast
