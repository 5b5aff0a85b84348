"""The CLI reports of the branches that no shipped fixture reaches, pinned
byte for byte.

Each case patches one step of smash-check, lift or classify (or the search
budget) so that the command takes a failing, degenerate or inconclusive
branch, and compares the text report, the JSON report and the exit code of
cli.run with the recorded ones.  The order of
the checks is part of the output: Report.merge_failures lists the passing
checks before the failing ones.
"""

import pathlib
import types

import pytest

from hopfgalois import cleft, cli, io_json, lifting, search

FIXTURES = pathlib.Path(io_json.__file__).parent / "fixtures"
M2 = str(FIXTURES / "m2_graded_f3.json")
H4 = str(FIXTURES / "h4_f5.json")
LIFT = ["lift", M2, "--module", "regular"]


def _missed(exhaustive, searched, dim):
    return lambda *args, **kw: search.NotFound(exhaustive, searched, dim)


CASES = {
    "smash-sigma-not-trivial": (["smash-check", M2], [
        (cleft, "convolution_unit", lambda *args: None)]),
    "smash-iso-fails": (["smash-check", M2], [
        (cleft, "_transport_witness", lambda *args: (0, 1))]),
    "smash-inverse-fails": (["smash-check", M2], [
        (cleft, "is_convolution_inverse", lambda *args: False)]),
    "smash-sampled-miss": (["smash-check", H4], [
        (search, "EXHAUSTIVE_CAP", 1), (search, "SAMPLES", 0)]),
    "lift-degenerate": (LIFT, [
        (cli, "regular_bmodule", lambda ca: types.SimpleNamespace(dim=0))]),
    "lift-sides-disagree": (LIFT, [
        (search, "invertible", _missed(True, 0, 0))]),
    "lift-not-stable": (LIFT, [
        (search, "invertible", _missed(True, 0, 0)),
        (cleft, "find_cleft", _missed(True, 81, 4))]),
    "lift-sampled-intertwiner": (LIFT, [
        (search, "invertible", _missed(False, 7, 4))]),
    "lift-sampled-cleft": (LIFT, [
        (cleft, "find_cleft", _missed(False, 7, 4))]),
    "lift-both-sampled": (LIFT, [
        (search, "invertible", _missed(False, 7, 4)),
        (cleft, "find_cleft", _missed(False, 7, 4))]),
    "classify-lifting-theorem": (["classify", M2, "--module", "regular"], [
        (lifting, "multiplicative_witness", lambda *args, **kw: (0, 1))]),
}

RECORDED = {}

RECORDED['smash-sigma-not-trivial'] = (1, """\
command: smash-check
fixtures: m2_graded
seed: 0
  [PASS        ] algebra-map
  [FAIL        ] sigma-trivial
  [PASS        ] smash-iso
  status = "found"
  t = {"cols": 2, "entries": [[0, 0, "1 mod 3"], [1, 1, "1 mod 3"], [2, 1, "1 mod 3"], [3, 0, "1 mod 3"]], "rows": 4}
result: exit 1
""", {'checks': [{'check': 'algebra-map', 'outcome': 'pass'},
            {'check': 'sigma-trivial', 'outcome': 'fail'},
            {'check': 'smash-iso', 'outcome': 'pass'}],
 'command': 'smash-check',
 'details': {'status': 'found',
             't': {'cols': 2,
                   'entries': [[0, 0, '1 mod 3'],
                               [1, 1, '1 mod 3'],
                               [2, 1, '1 mod 3'],
                               [3, 0, '1 mod 3']],
                   'rows': 4}},
 'fixtures': ['m2_graded'],
 'seed': 0})

RECORDED['smash-iso-fails'] = (1, """\
command: smash-check
fixtures: m2_graded
seed: 0
  [PASS        ] algebra-map
  [PASS        ] sigma-trivial
  [FAIL        ] smash-iso
  detail = "('smash-mult', (0, 1))"
  status = "found"
  t = {"cols": 2, "entries": [[0, 0, "1 mod 3"], [1, 1, "1 mod 3"], [2, 1, "1 mod 3"], [3, 0, "1 mod 3"]], "rows": 4}
result: exit 1
""", {'checks': [{'check': 'algebra-map', 'outcome': 'pass'},
            {'check': 'sigma-trivial', 'outcome': 'pass'},
            {'check': 'smash-iso', 'outcome': 'fail'}],
 'command': 'smash-check',
 'details': {'detail': "('smash-mult', (0, 1))",
             'status': 'found',
             't': {'cols': 2,
                   'entries': [[0, 0, '1 mod 3'],
                               [1, 1, '1 mod 3'],
                               [2, 1, '1 mod 3'],
                               [3, 0, '1 mod 3']],
                   'rows': 4}},
 'fixtures': ['m2_graded'],
 'seed': 0})

RECORDED['smash-inverse-fails'] = (1, """\
command: smash-check
fixtures: m2_graded
seed: 0
  [PASS        ] algebra-map
  [FAIL        ] sigma-trivial
  [FAIL        ] smash-iso
  detail = "t o S is not the convolution inverse"
  status = "found"
  t = {"cols": 2, "entries": [[0, 0, "1 mod 3"], [1, 1, "1 mod 3"], [2, 1, "1 mod 3"], [3, 0, "1 mod 3"]], "rows": 4}
result: exit 1
""", {'checks': [{'check': 'algebra-map', 'outcome': 'pass'},
            {'check': 'sigma-trivial', 'outcome': 'fail'},
            {'check': 'smash-iso', 'outcome': 'fail'}],
 'command': 'smash-check',
 'details': {'detail': 't o S is not the convolution inverse',
             'status': 'found',
             't': {'cols': 2,
                   'entries': [[0, 0, '1 mod 3'],
                               [1, 1, '1 mod 3'],
                               [2, 1, '1 mod 3'],
                               [3, 0, '1 mod 3']],
                   'rows': 4}},
 'fixtures': ['m2_graded'],
 'seed': 0})

RECORDED['smash-sampled-miss'] = (3, """\
command: smash-check
fixtures: regular
seed: 0
  [INCONCLUSIVE] algebra-map
  detail = "search inconclusive"
  status = "inconclusive"
result: exit 3
""", {'checks': [{'check': 'algebra-map', 'outcome': 'inconclusive'}],
 'command': 'smash-check',
 'details': {'detail': 'search inconclusive',
             'status': 'inconclusive'},
 'fixtures': ['regular'],
 'seed': 0})

RECORDED['lift-degenerate'] = (0, """\
command: lift
fixtures: m2_graded, regular
seed: 0
  [DEGENERATE  ] stable
result: exit 0
""", {'checks': [{'check': 'stable', 'outcome': 'degenerate'}],
 'command': 'lift',
 'details': {},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})

RECORDED['lift-sides-disagree'] = (1, """\
command: lift
fixtures: m2_graded, regular
seed: 0
  [FAIL        ] stable  witness="sides disagree conclusively (Prop 6.1 violated)"
result: exit 1
""", {'checks': [{'check': 'stable',
             'outcome': 'fail',
             'witness': 'sides disagree conclusively (Prop 6.1 '
                        'violated)'}],
 'command': 'lift',
 'details': {},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})

RECORDED['lift-not-stable'] = (1, """\
command: lift
fixtures: m2_graded, regular
seed: 0
  [FAIL        ] stable
result: exit 1
""", {'checks': [{'check': 'stable', 'outcome': 'fail'}],
 'command': 'lift',
 'details': {},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})

RECORDED['lift-sampled-intertwiner'] = (3, """\
command: lift
fixtures: m2_graded, regular
seed: 0
  [INCONCLUSIVE] stable  witness="E is cleft but no intertwiner was found in the sampled span"
result: exit 3
""", {'checks': [{'check': 'stable',
             'outcome': 'inconclusive',
             'witness': 'E is cleft but no intertwiner was found in '
                        'the sampled span'}],
 'command': 'lift',
 'details': {},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})

RECORDED['lift-sampled-cleft'] = (3, """\
command: lift
fixtures: m2_graded, regular
seed: 0
  [INCONCLUSIVE] stable  witness="intertwiner found but the clefting search on E was not exhaustive"
result: exit 3
""", {'checks': [{'check': 'stable',
             'outcome': 'inconclusive',
             'witness': 'intertwiner found but the clefting search '
                        'on E was not exhaustive'}],
 'command': 'lift',
 'details': {},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})

RECORDED['lift-both-sampled'] = (3, """\
command: lift
fixtures: m2_graded, regular
seed: 0
  [INCONCLUSIVE] stable  witness="neither side was found by the sampled searches"
result: exit 3
""", {'checks': [{'check': 'stable',
             'outcome': 'inconclusive',
             'witness': 'neither side was found by the sampled '
                        'searches'}],
 'command': 'lift',
 'details': {},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})

RECORDED['classify-lifting-theorem'] = (1, """\
command: classify
fixtures: m2_graded, regular
seed: 0
  [PASS        ] round-trip-phi
  [PASS        ] round-trip-t
  [PASS        ] lambda-omega-count
  [PASS        ] class-count
  [PASS        ] h1-count
  [FAIL        ] lifting-theorem  witness=[["t multiplicative", [0, 1]], ["u anti-multiplicative", [0, 1]]]
  [FAIL        ] lifting-theorem  witness=[["t multiplicative", [0, 1]], ["u anti-multiplicative", [0, 1]]]
  h1_count = 1
  lambda_classes = 1
  lambda_count = 2
  omega_classes = 1
  omega_count = 2
result: exit 1
""", {'checks': [{'check': 'round-trip-phi', 'outcome': 'pass'},
            {'check': 'round-trip-t', 'outcome': 'pass'},
            {'check': 'lambda-omega-count', 'outcome': 'pass'},
            {'check': 'class-count', 'outcome': 'pass'},
            {'check': 'h1-count', 'outcome': 'pass'},
            {'check': 'lifting-theorem',
             'outcome': 'fail',
             'witness': [['t multiplicative', [0, 1]],
                         ['u anti-multiplicative', [0, 1]]]},
            {'check': 'lifting-theorem',
             'outcome': 'fail',
             'witness': [['t multiplicative', [0, 1]],
                         ['u anti-multiplicative', [0, 1]]]}],
 'command': 'classify',
 'details': {'h1_count': 1,
             'lambda_classes': 1,
             'lambda_count': 2,
             'omega_classes': 1,
             'omega_count': 2},
 'fixtures': ['m2_graded', 'regular'],
 'seed': 0})


@pytest.mark.parametrize("case", list(CASES))
def test_unreached_branch_report(case, monkeypatch):
    argv, patches = CASES[case]
    for owner, name, value in patches:
        monkeypatch.setattr(owner, name, value)
    report, code = cli.run(argv)
    exit_code, text, as_dict = RECORDED[case]
    assert code == exit_code
    assert report.to_text() == text
    assert report.to_dict() == as_dict
