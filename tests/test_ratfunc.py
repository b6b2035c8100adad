from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import horner_compose
from quadorbits import _intpoly as zp
from quadorbits.polynomials import UniPoly
from quadorbits.ratfunc import PoleError, RatFunc

t = RatFunc.t()


class TestArithmetic:
    def test_examples(self):
        assert (t / (t - 1)) * ((t - 1) / t) == 1
        a = (3 * t * t - 1) / (t + 5)
        assert (a - a).is_zero()
        y = 4 * t / (t * t - 1)
        z = (2 * t * t + 2) / (t * t - 1)
        assert y * y - z * z == -4

    def test_canonical_form(self):
        f = RatFunc(UniPoly.parse("2*t^2 - 2"), UniPoly.parse("4*t + 4"))
        assert f.den.lc == 1
        assert f.num.gcd(f.den).degree == 0
        assert f == (t - 1) / 2

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            t / (t - t)

    def test_inexact_operand_is_a_type_error(self):
        with pytest.raises(TypeError):
            1.5 / t


class TestQuadMap:
    def test_fixed_point_identity(self):
        c = (1 - t * t) / 4
        x = (1 + t) / 2
        assert x * x + c == x

    def test_zero_c(self):
        assert t * t + RatFunc.constant(0) == t * t

    def test_two_cycle_identity(self):
        c = -(3 + t * t) / 4
        x = (-1 + t) / 2
        y = x * x + c
        assert y == (-1 - t) / 2
        assert y * y + c == x


class TestSpecialize:
    def test_examples(self):
        f = (t * t + 4 * t - 1) / (2 * (t * t - 1))
        assert f.specialize(3) == Fraction(5, 4)
        with pytest.raises(PoleError):
            f.specialize(1)
        assert RatFunc.constant(Fraction(5, 3)).specialize(42) == \
            Fraction(5, 3)

    def test_compose(self):
        f = (t + 1) / (t - 1)
        g = 1 / t
        assert f.compose(g) == (1 + t) / (1 - t)

    def test_compose_into_a_pole_raises(self):
        f = (t + 1) / ((t - 2) * (3 * t + 1))
        for inner in (RatFunc.constant(2), RatFunc.constant(Fraction(-1, 3))):
            with pytest.raises(ZeroDivisionError):
                f.compose(inner)
        assert f.compose(RatFunc.constant(3)) == Fraction(2, 5)


coef = st.integers(min_value=-9, max_value=9)


@settings(max_examples=50, deadline=None)
@given(st.lists(coef, min_size=1, max_size=3),
       st.lists(coef, min_size=1, max_size=3),
       st.lists(coef, min_size=1, max_size=3),
       st.lists(coef, min_size=1, max_size=3),
       st.fractions(min_value=-20, max_value=20, max_denominator=8))
def test_specialize_commutes(an, ad, bn, bd, t0):
    if not any(ad) or not any(bd):
        return
    a = RatFunc(UniPoly(an, "t"), UniPoly(ad, "t"))
    b = RatFunc(UniPoly(bn, "t"), UniPoly(bd, "t"))
    for op in ("add", "sub", "mul", "div"):
        if op == "div" and b.is_zero():
            continue
        combo = {"add": a + b, "sub": a - b, "mul": a * b,
                 "div": a / b if not b.is_zero() else None}[op]
        if combo is None:
            continue
        try:
            lhs = combo.specialize(t0)
            av, bv = a.specialize(t0), b.specialize(t0)
        except PoleError:
            continue
        rhs = {"add": av + bv, "sub": av - bv, "mul": av * bv,
               "div": av / bv if bv != 0 else None}[op]
        if rhs is not None:
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=-12, max_value=12, max_denominator=6),
       st.fractions(min_value=-12, max_value=12, max_denominator=6))
def test_apply_quadmap_matches_pointwise(cv, xv):
    """The quadratic map x*x + c on constants is the map on values."""
    c = RatFunc.constant(cv)
    x = RatFunc.constant(xv)
    assert x * x + c == RatFunc.constant(xv * xv + cv)


class TestParse:
    def test_quotients_in_any_spacing(self):
        assert RatFunc.parse("(1+y)/(2)") == (1 + RatFunc.t("y")) / 2
        assert RatFunc.parse("1/(y+1)") == 1 / (RatFunc.t("y") + 1)
        assert RatFunc.parse("(1 + y) / (2)", "y").var == "y"
        assert RatFunc.parse("y/(y^2 - 1) + 1/(y - 1)") == \
            (2 * RatFunc.t("y") + 1) / (RatFunc.t("y") ** 2 - 1)
        assert RatFunc.parse("(y + 1)^-2 * 2^-1") == \
            1 / (2 * (RatFunc.t("y") + 1) ** 2)

    def test_rejects(self):
        for s, var in [("2t", None), ("t u", None), ("1.5/t", None),
                       ("1/(t + u)", None), ("s/2", "t"), ("t^(1/2)", None)]:
            with pytest.raises(ValueError):
                RatFunc.parse(s, var)
        with pytest.raises(ZeroDivisionError):
            RatFunc.parse("t/(t - t)")


@settings(max_examples=60, deadline=None)
@given(st.lists(coef, min_size=1, max_size=4),
       st.lists(coef, min_size=1, max_size=4),
       st.sampled_from(["t", "s"]))
def test_parse_inverts_str(num, den, var):
    assume(any(den))
    f = RatFunc(UniPoly(num, var), UniPoly(den, var))
    assert RatFunc.parse(str(f), var) == f
    g = RatFunc.parse(str(f))
    # a constant names no variable, and reads in the default one
    assert g == f and (g.var == var or max(f.num.degree, f.den.degree) <= 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(coef, min_size=1, max_size=4),
       st.lists(coef, min_size=1, max_size=4),
       st.sampled_from(["t", "s", "a"]))
def test_relabel_matches_composition(num, den, var):
    # one-element lists give the constants
    assume(any(den))
    f = RatFunc(UniPoly(num, "t"), UniPoly(den, "t"))
    g, h = f.relabel(var), f.compose(RatFunc.t(var))
    assert g == h
    assert (g.var, str(g)) == (h.var, str(h))


@settings(max_examples=80, deadline=None)
@given(st.lists(coef, min_size=1, max_size=5),
       st.lists(coef, min_size=1, max_size=5))
def test_square_equals_the_reduced_square(num, den):
    """f * f skips the gcd; it must equal the square reduced again."""
    assume(any(den))
    f = RatFunc(UniPoly(num, "t"), UniPoly(den, "t"))
    g = f * f
    h = RatFunc(f.num * f.num, f.den * f.den)
    assert (g.num, g.den, g.var) == (h.num, h.den, h.var)


def _rf(num, den, var="t"):
    return RatFunc(UniPoly(num, var), UniPoly(den, var))


def _same(g, h):
    assert (g.num, g.den, g.var) == (h.num, h.den, h.var), (g, h)


nonzero = st.lists(coef, min_size=1, max_size=5).filter(any)


@settings(max_examples=150, deadline=None)
@given(st.lists(coef, min_size=1, max_size=5), nonzero,
       st.lists(coef, min_size=1, max_size=4),
       st.lists(coef, min_size=1, max_size=4).filter(any),
       st.sampled_from(["t", "s"]))
def test_compose_matches_horner_over_q(num, den, inner_num, inner_den, var):
    """Homogeneous evaluation over Z against Horner over Q(t): degrees 0-4
    outside, 0-3 inside, constants and zero numerators included; a
    denominator that vanishes at a constant inner function raises in
    both."""
    f, inner = _rf(num, den), _rf(inner_num, inner_den, var)
    try:
        expected = horner_compose(f, inner)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            f.compose(inner)
        return
    got = f.compose(inner)
    assert (got.num, got.den) == (expected.num, expected.den)
    if got.num.degree > 0 or got.den.degree > 0:
        assert got.var == expected.var == var


def _canonical(g, num, den):
    """g is num / den in the canonical form: den monic and coprime to
    the numerator."""
    assert g.den.lc == 1 and g.num.gcd(g.den).degree <= 0
    assert g.num * den == num * g.den


@settings(max_examples=150, deadline=None)
@given(st.lists(coef, min_size=1, max_size=5), nonzero,
       st.lists(coef, min_size=1, max_size=4),
       st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_gcd_free_operations_equal_the_full_reduction(num, den, poly, k):
    """Every operation that skips the gcd gives what ``RatFunc(num, den)``
    gives on the unreduced quotient."""
    f, p = _rf(num, den), UniPoly(poly, "t")
    _same(-f, RatFunc(-f.num, f.den))
    for q in (p, RatFunc(p), k, RatFunc.constant(k)):
        qn, qd = (q.num, q.den) if isinstance(q, RatFunc) else (q, 1)
        _same(f + q, RatFunc(f.num * qd + qn * f.den, f.den * qd))
        _same(q + f, RatFunc(f.num * qd + qn * f.den, f.den * qd))
        _same(f - q, RatFunc(f.num * qd - qn * f.den, f.den * qd))
        _same(q - f, RatFunc(qn * f.den - f.num * qd, f.den * qd))
    if k:
        for q in (k, RatFunc.constant(k)):
            _same(f * q, RatFunc(f.num * k, f.den))
            _same(q * f, RatFunc(f.num * k, f.den))
            _same(f / q, RatFunc(f.num, f.den * k))
    # a constant part: no gcd, and still the canonical form
    for n, d in ((f.num, UniPoly(den[:1], "t")), (UniPoly(den[:1], "t"),
                                                  f.den * 3)):
        if d:
            _canonical(RatFunc(n, d), n, d)


@pytest.fixture
def zgcd_calls(monkeypatch):
    """A list that grows by one entry at each ``_intpoly.zgcd`` call."""
    calls = []
    zgcd = zp.zgcd

    def counted(a, b):
        calls.append(1)
        return zgcd(a, b)

    monkeypatch.setattr(zp, "zgcd", counted)
    return calls


def test_compose_takes_no_gcd(zgcd_calls, monkeypatch):
    """The composite is reduced by construction, so ``compose`` takes
    neither ``UniPoly.gcd`` nor ``zgcd``; reducing it by hand after a
    planted common factor takes one of each."""
    gcd_calls = []
    gcd = UniPoly.gcd

    def counted(self, other):
        gcd_calls.append(1)
        return gcd(self, other)

    monkeypatch.setattr(UniPoly, "gcd", counted)
    shared = (t + 2).num
    for f, inner in (
            ((t**4 - 3 * t + 1) / (2 * t**3 + t**2 - 5),
             (t**3 + t - 7) / (t**2 + 3 * t + 1)),
            ((t - 1) / (t**3 + 2), (3 * t**2 - 1) / 5),
            ((2 * t**2 + 1) / (t + 1), t + Fraction(1, 3))):
        gcd_calls.clear()
        zgcd_calls.clear()
        g = f.compose(inner)
        assert gcd_calls == zgcd_calls == []
        RatFunc(g.num * shared, g.den * shared)
        assert gcd_calls == zgcd_calls == [1]
        assert g.den.lc == 1 and g == horner_compose(f, inner)


def test_negation_and_sums_with_polynomials_take_no_gcd(zgcd_calls):
    f = (t**2 + 1) / (3 * t**2 - t + 2)
    p = (t**3 - 2).num
    zgcd_calls.clear()
    results = [-f, f + 3, 3 + f, f - 3, f + p, p - f, f * Fraction(2, 3),
               Fraction(2, 3) * f, f / 7]
    assert zgcd_calls == []
    assert results[1] == (t**2 + 1 + 3 * (3 * t**2 - t + 2)) / \
        (3 * t**2 - t + 2)
