from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import is_square
from quadorbits.rationals import rat, rat_str


def test_normalize_examples():
    assert rat("2/4") == Fraction(1, 2)
    assert rat("-5/-16") == Fraction(5, 16)
    z = rat("0/7")
    assert z == 0 and z.denominator == 1


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDivisionError,
                       match="rational with zero denominator"):
        rat("1/0")


def test_normalize_idempotent():
    a = rat("6/-8")
    assert rat(f"{a.numerator}/{a.denominator}") == a


def test_parse_and_print_round_trip():
    for s in ["5/16", "-21/16", "0", "7", "-3"]:
        assert rat_str(rat(s)) == s
    assert rat("10/4") == Fraction(5, 2)
    with pytest.raises(ValueError):
        rat("0.5")
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def test_is_square_examples():
    assert is_square(Fraction(36, 16)) == Fraction(3, 2)
    assert is_square(Fraction(1, 4)) == Fraction(1, 2)
    assert is_square(Fraction(17, 4)) is None
    assert is_square(Fraction(-1)) is None
    assert is_square(Fraction(0)) == 0


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals)
def test_is_square_of_square(x):
    r = is_square(x * x)
    assert r is not None and r * r == x * x and r >= 0


@given(rationals)
def test_is_square_certifies(x):
    r = is_square(x)
    if r is not None:
        assert r * r == x
