"""Scalar arithmetic over the rationals and prime fields."""

from fractions import Fraction
from pathlib import Path

import pytest

from nkoszul.fields import QQ, PrimeField, field_from_name, field_name

DEFINITIONS = Path(__file__).resolve().parent.parent / "demos" / "definitions"


def test_rational_basics():
    half = QQ.coerce("1/2")
    third = QQ.coerce("1/3")
    assert QQ.add(half, third) == QQ.coerce("5/6")
    assert QQ.mul(half, third) == QQ.coerce("1/6")
    assert QQ.mul(QQ.one, QQ.inv(QQ.coerce(4))) == QQ.coerce("1/4")
    assert QQ.neg(half) == QQ.coerce("-1/2")
    assert QQ.inv(QQ.coerce(-3)) == QQ.coerce("-1/3")


def test_rational_exactness():
    # 1/3 summed three times is exactly 1, never 0.999...
    third = QQ.mul(QQ.one, QQ.inv(QQ.coerce(3)))
    assert QQ.add(QQ.add(third, third), third) == QQ.one


def test_prime_field_arithmetic():
    F7 = PrimeField(7)
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.neg(2) == 5
    assert F7.coerce(-1) == 6
    assert F7.coerce("2/3") == F7.mul(2, F7.inv(3))
    assert F7.coerce(Fraction(2, 3)) == F7.mul(2, F7.inv(3))


def test_rational_scalars_are_fractions():
    assert type(QQ.coerce(2)) is Fraction
    assert type(QQ.coerce("1/3")) is Fraction
    assert type(QQ.ratio(1, 3)) is Fraction
    assert QQ.ratio(2, 6) == QQ.coerce("1/3")


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)
    # a big prime is fine
    assert PrimeField(32003).p == 32003


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    # a denominator that vanishes mod p has no value in GF(p)
    for x in ("1/14", Fraction(3, 7)):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).coerce(x)


def test_field_names_round_trip():
    assert field_from_name("rational") is QQ
    F = field_from_name("gf:11")
    assert isinstance(F, PrimeField) and F.p == 11
    assert field_name(QQ) == "rational"
    assert field_name(F) == "gf:11"
    with pytest.raises(ValueError):
        field_from_name("gf:12")
    with pytest.raises(ValueError):
        field_from_name("real")


# psi_12 = 399165290221 * 798330580441 is the least strong pseudoprime to
# every prime base up to 37; psi_13 is the least one up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_prime_moduli_are_certified():
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(PSI_12)
    with pytest.raises(ValueError, match="not below %d" % PSI_13):
        PrimeField(PSI_13)
    # p - 1 = 2^16: the witness loop squares before it finds p - 1
    assert PrimeField(65537).inv(3) * 3 % 65537 == 1
    with pytest.raises(ValueError, match="bad prime field name"):
        field_from_name("gf:x")


def test_cli_refuses_a_pseudoprime_field(capsys):
    from nkoszul import cli
    path = DEFINITIONS / "cubic.alg"
    assert cli.main(["hilbert", "--nmax", "4", "--field", "gf:%d" % PSI_12,
                     str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_prime_fields_cache_and_compare():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
