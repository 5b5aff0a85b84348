from fractions import Fraction

import pytest

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
    import pathlib
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
