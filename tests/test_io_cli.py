import json
import pathlib

import pytest

from hopfgalois import cli, io_json

FIXTURES = pathlib.Path(io_json.__file__).parent / "fixtures"


def _run(*argv):
    return cli.run(list(argv))


def test_all_shipped_fixtures_load():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) >= 10
    for p in paths:
        io_json.load_bundle(p)   # validators run eagerly; must not raise


def test_round_trip_semantically_identical(tmp_path):
    for name in ("m2_graded.json", "h4_f5.json", "cp_minus1_crossed.json"):
        bundle = io_json.load_bundle(FIXTURES / name)
        emitted = io_json.emit_bundle(bundle)
        p = tmp_path / name
        with open(p, "w") as fh:
            json.dump(emitted, fh)
        again = io_json.emit_bundle(io_json.load_bundle(p))
        assert emitted == again


def test_malformed_mul_tensor_wrong_arity(tmp_path):
    d = json.load(open(FIXTURES / "kc2.json"))
    d["hopf_algebras"]["kC2"]["mul"][0] = [0, 0, "1"]
    p = tmp_path / "bad.json"
    json.dump(d, open(p, "w"))
    with pytest.raises(io_json.ParseError) as exc:
        io_json.load_bundle(p)
    assert "mul" in str(exc.value)


def test_validation_error_names_axiom(tmp_path):
    d = json.load(open(FIXTURES / "h4.json"))
    d["hopf_algebras"]["H4"]["antipode"] = [[i, i, "1"] for i in range(4)]
    p = tmp_path / "bad.json"
    json.dump(d, open(p, "w"))
    with pytest.raises(io_json.ValidationError) as exc:
        io_json.load_bundle(p)
    assert exc.value.axiom.startswith("antipode")


def test_unknown_reference(tmp_path):
    d = json.load(open(FIXTURES / "m2_graded.json"))
    d["comodule_algebras"]["m2_graded"]["hopf"] = "missing"
    p = tmp_path / "bad.json"
    json.dump(d, open(p, "w"))
    with pytest.raises(io_json.ParseError):
        io_json.load_bundle(p)


def test_cli_validate_pass():
    report, code = _run("validate", str(FIXTURES / "h4.json"))
    assert code == 0
    assert all(o == "pass" for _, o, _ in report.checks)


def test_cli_galois_dims():
    report, code = _run("galois", str(FIXTURES / "m2_graded.json"))
    assert code == 0
    assert report.details["dims"] == "8/8"
    assert report.details["galois"] is True


def test_cli_exit_codes():
    _, fail = _run("galois", str(FIXTURES / "trivial_kxk.json"))
    assert fail == 1
    _, inconcl = _run("cleft", str(FIXTURES / "trivial_kxk.json"))
    assert inconcl == 3
    _, proof = _run("cleft", str(FIXTURES / "trivial_kxk_f3.json"))
    assert proof == 1
    err, code = _run("galois", str(FIXTURES / "nope.json"))
    assert code == 2
    err, code = _run("galois", str(FIXTURES / "kc2.json"), "--field", "F_5")
    assert code == 2


def test_cli_cohomology_gate():
    _, code = _run("cohomology", "h1", str(FIXTURES / "h4.json"))
    assert code == 2     # hypotheses (cocommutative H) violated: input error


def test_cli_crossed_product_payload():
    report, code = _run("crossed-product",
                        str(FIXTURES / "cp_minus1_crossed.json"))
    assert code == 0
    assert report.payload["dim"] == 2
    # the assembled record is itself a loadable comodule-algebra record
    assert report.payload["coaction"]


def test_cli_reports_deterministic():
    a1, _ = _run("cat-iso-check", str(FIXTURES / "m2_graded.json"),
                 "--module", "b_regular", "--output", "json")
    a2, _ = _run("cat-iso-check", str(FIXTURES / "m2_graded.json"),
                 "--module", "b_regular", "--output", "json")
    assert json.dumps(a1.to_dict(), sort_keys=True) == \
        json.dumps(a2.to_dict(), sort_keys=True)


def test_cli_text_and_json_agree_on_outcomes():
    r, _ = _run("translation-map", str(FIXTURES / "kc2.json"))
    text = r.to_text()
    for name, outcome, _ in r.checks:
        assert name in text and outcome.upper() in text


@pytest.mark.parametrize("command", ["cat-iso-check", "lift", "classify"])
def test_cli_not_galois_is_an_input_error(command, capsys):
    argv = [command, str(FIXTURES / "trivial_kxk_f3.json"),
            "--module", "regular"]
    err, code = _run(*argv)
    assert code == 2
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: canonical map not invertible\n"


@pytest.mark.parametrize("flag", ["--tries", "--enumerate-cap"])
def test_cli_search_budget_is_no_flag(flag, capsys):
    # the budget is search.EXHAUSTIVE_CAP and search.SAMPLES, not an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["cleft", str(FIXTURES / "kc2.json"), flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_memory_error_is_an_input_error(monkeypatch, capsys):
    """An input too large to hold ends in exit 2, never in a verdict."""
    def too_large(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_validate", too_large)
    argv = ["validate", str(FIXTURES / "kc2.json")]
    assert _run(*argv) == ("input too large", 2)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input too large\n"
    assert captured.out == ""


def test_cli_crossed_product_prints_sigma_condition(tmp_path):
    d = json.load(open(FIXTURES / "cp_minus1_crossed.json"))
    d["crossed_products"]["cp_minus1_data"]["sigma"] = []     # sigma = 0
    p = tmp_path / "cp_zero.json"
    json.dump(d, open(p, "w"))
    report, code = _run("crossed-product", str(p), "--crossed",
                        "cp_minus1_data")
    assert code == 1
    assert "sigma not convolution invertible" in report.to_text()


@pytest.mark.parametrize("header", [None, 7, ["Q"]])
def test_cli_non_string_field_header_is_an_input_error(header, tmp_path):
    d = json.load(open(FIXTURES / "kc2.json"))
    d["field"] = header
    p = tmp_path / "bad_field.json"
    json.dump(d, open(p, "w"))
    err, code = _run("validate", str(p))
    assert code == 2
    assert isinstance(err, io_json.ParseError)
    assert str(err) == (f"{p}: field must be a string such as \"Q\" or "
                        f"\"F_7\", not {json.dumps(header)}")


@pytest.mark.parametrize("record", [("hopf_algebras", "kC2"),
                                    ("comodule_algebras", "regular")])
def test_cli_oversized_dim_is_an_input_error(record, tmp_path, capsys):
    """A declared dim of 10^7 asks for a dim x dim^2 structure-constant
    matrix, a list longer than any index: OverflowError is raised before
    anything is allocated, and it exits 2, never 1 with a traceback."""
    d = json.load(open(FIXTURES / "kc2.json"))
    d[record[0]][record[1]]["dim"] = 10 ** 7
    p = tmp_path / "oversized.json"
    json.dump(d, open(p, "w"))
    assert _run("validate", str(p)) == ("input too large", 2)
    assert cli.main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input too large\n"
    assert captured.out == ""


def test_cli_crash_exits_4_not_as_a_verdict(monkeypatch, capsys):
    """An exception no check maps is an internal error, exit 4 with its
    type and message on stderr: never exit 1, which reads as a failed
    check.  run itself still raises it."""
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", boom)
    kc2 = str(FIXTURES / "kc2.json")
    with pytest.raises(RuntimeError, match="boom"):
        cli.run(["validate", kc2])
    for argv in (["validate", kc2], ["validate", kc2, "--output", "json"]):
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert captured.out == ""


MALFORMED = {   # a mutation of m2_graded.json, and the field it must name
    "dim-text": (("modules", "b_regular", "dim"), "2", "modules.b_regular"),
    "dim-float": (("modules", "b_regular", "dim"), 2.0, "modules.b_regular"),
    "dim-null": (("modules", "b_regular", "dim"), None, "modules.b_regular"),
    "hopf-list": (("comodule_algebras", "m2_graded", "hopf"), ["kC2"],
                  "comodule_algebras.m2_graded.hopf"),
    "ca-list": (("modules", "b_regular", "comodule_algebra"), ["m2_graded"],
                "modules.b_regular.comodule_algebra"),
    "modules-list": (("modules",), [], "modules"),
    "module-int": (("modules", "b_regular"), 7, "modules.b_regular"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_module_record_is_an_input_error(case, tmp_path,
                                                       capsys):
    """Each malformed section, record, reference or module dim ends in
    exit 2 with a ParseError naming the field, never in a traceback."""
    path, value, field = MALFORMED[case]
    root = json.load(open(FIXTURES / "m2_graded.json"))
    record = root
    for part in path[:-1]:
        record = record[part]
    record[path[-1]] = value
    p = tmp_path / "bad.json"
    json.dump(root, open(p, "w"))
    err, code = _run("validate", str(p))
    assert code == 2 and isinstance(err, io_json.ParseError)
    assert err.where == field
    assert cli.main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
