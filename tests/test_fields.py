import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfgalois import fields
from hopfgalois.fields import (PRIMALITY_BOUND, QQ, FieldError, PrimeField,
                               field_from_name, field_name)


def test_rational_roundtrip():
    for text in ["0", "1", "-1", "2/3", "-7/4"]:
        assert QQ.format(QQ.parse(text)) == text
    assert QQ.parse("4/6") == Fraction(2, 3)


def test_rational_arithmetic():
    a, b = QQ.parse("2/3"), QQ.parse("-1/6")
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one
    assert QQ.div(a, b) == Fraction(-4, 1)


def test_bad_rational():
    with pytest.raises(FieldError):
        QQ.parse("x/y")


def test_prime_field():
    f = PrimeField(5)
    assert f.add(f.from_int(3), f.from_int(4)) == 2
    assert f.mul(f.from_int(2), f.inv(f.from_int(2))) == f.one
    # frozen oracle: [[2]]^{-1} over F_5 is [[3]]
    assert f.inv(f.from_int(2)) == 3
    assert f.format(f.parse("7 mod 5")) == "2 mod 5"


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_wrong_modulus():
    with pytest.raises(FieldError):
        PrimeField(5).parse("1 mod 3")


def test_field_names():
    assert field_name(QQ) == "Q"
    assert field_name(PrimeField(7)) == "F_7"
    assert field_from_name("F_7").p == 7
    assert field_from_name("Q") is QQ
    with pytest.raises(FieldError):
        field_from_name("R")


def test_large_prime_field_loads_fast(tmp_path):
    import json
    import time

    from hopfgalois import io_json
    fixtures = pathlib.Path(io_json.__file__).parent / "fixtures"
    bundle = json.load(open(fixtures / "kc2.json"))
    bundle["field"] = "F_2305843009213693951"        # 2^61 - 1
    path = tmp_path / "kc2_big.json"
    json.dump(bundle, open(path, "w"))
    start = time.perf_counter()
    loaded = io_json.load_bundle(path)
    assert time.perf_counter() - start < 1.0
    assert loaded.field.p == 2 ** 61 - 1


def test_prime_field_rejects_pseudoprimes():
    for n in (561, 2 ** 61 + 1, 318665857834031151167461):
        with pytest.raises(FieldError):
            PrimeField(n)


def test_modulus_beyond_primality_bound(tmp_path):
    from hopfgalois import cli
    n = 10 ** 29 + 7                                  # 30 digits
    with pytest.raises(FieldError) as exc:
        field_from_name(f"F_{n}")
    assert str(PRIMALITY_BOUND) in str(exc.value)
    path = tmp_path / "big.json"
    path.write_text('{"field": "F_%d"}' % n)
    err, code = cli.run(["validate", str(path)])
    assert code == 2 and str(PRIMALITY_BOUND) in str(err)


# -- Q scalars: an int when integral, else a Fraction, never a float ---------

RATIONALS = st.one_of(
    st.integers(), st.fractions().filter(lambda x: x.denominator != 1))
PARSE_CASES = ["+3", " 7 ", "-0", "3/1", "6/4", "3.0", "1e3", "1_000", "١٢",
               "²", "--3", "0x10", "1__0", "_1", "3 / 4", ".5", "5.", "1/0",
               "nan", "inf", "", " -12 ", "1.5e-3", "0/7", "x/y"]


def exact(x):
    """An int when integral and a Fraction otherwise."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def assert_parses_as_fraction(text):
    """QQ.parse accepts text exactly when the all-Fraction field's parse
    does, with the same value, and gives an exact scalar."""
    try:
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FieldError):
            QQ.parse(text)
        return
    assert QQ.parse(text) == want and exact(QQ.parse(text))


@given(RATIONALS, RATIONALS)
def test_rational_ops_equal_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    got = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    assert got == [fa + fb, fa - fb, fa * fb, -fa]
    assert all(isinstance(x, (int, Fraction)) for x in got)
    if b:
        assert QQ.inv(b) == 1 / fb and exact(QQ.inv(b))
        assert QQ.div(a, b) == fa / fb and exact(QQ.div(a, b))
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)


@given(st.integers())
def test_from_int_is_the_int(n):
    assert QQ.from_int(n) is n
    assert type(QQ.zero) is type(QQ.one) is int


def test_inverse_of_a_unit_is_the_argument():
    units = [QQ.inv(1), QQ.inv(-1), QQ.inv(Fraction(-1))]
    assert units == [1, -1, -1] and all(map(exact, units))


@given(RATIONALS)
def test_parse_of_format_is_exact(x):
    assert QQ.parse(QQ.format(x)) == x and exact(QQ.parse(QQ.format(x)))


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_accepts_what_fraction_accepts(text):
    assert_parses_as_fraction(text)


@given(st.text("0123456789+-/._eEx \u2003\x1c²١٢𝟙", max_size=8))
def test_parse_accepts_what_fraction_accepts_drawn(text):
    assert_parses_as_fraction(text)


@pytest.mark.parametrize("text", ["²", "0x10", "--3", "1/0"])
def test_cli_rejected_scalar_is_an_input_error(text, tmp_path, capsys):
    import json

    from hopfgalois import cli, io_json
    fixtures = pathlib.Path(io_json.__file__).parent / "fixtures"
    bundle = json.load(open(fixtures / "kc2.json"))
    bundle["hopf_algebras"]["kC2"]["mul"][1][-1] = text
    path = tmp_path / "bad.json"
    json.dump(bundle, open(path, "w"))
    err, code = cli.run(["validate", str(path)])
    assert code == 2 and isinstance(err, io_json.ParseError)
    assert err.where == "hopf_algebras.kC2.mul[1]" and repr(text) in str(err)
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: hopf_algebras.kC2.mul[1]: ")


def test_true_division_only_in_fields():
    """A / of two int scalars would be a float, so the package divides only
    in fields.py, in RationalField.inv and .div."""
    src = pathlib.Path(fields.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    assert found and all(x.startswith("fields.py:") for x in found), found
