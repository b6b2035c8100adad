from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from quadorbits.polynomials import BiPoly, UniPoly
from quadorbits.verifier.symbolic import BiRat

VARS = ("y", "z")

nums = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    min_size=1, max_size=4)
dens = st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any)
points = st.fractions(min_value=-7, max_value=7, max_denominator=5)


@st.composite
def birats(draw):
    num = BiPoly(draw(nums), VARS)
    return BiRat(num, UniPoly(draw(dens), VARS[0]),
                 UniPoly(draw(dens), VARS[1])).reduced()


def value(r: BiRat, a: Fraction, b: Fraction) -> Fraction:
    return r.num.eval2(a, b) / (r.den0(a) * r.den1(b))


def content_gcd(num: BiPoly, which: int, den: UniPoly) -> UniPoly:
    """Gcd over Q of den and every coefficient of num viewed as a
    polynomial in the other variable with coefficients in vars[which]."""
    rows: dict[int, dict[int, Fraction]] = {}
    for e, c in num.terms.items():
        rows.setdefault(e[1 - which], {})[e[which]] = c
    g = den
    for row in rows.values():
        g = g.gcd(UniPoly([row.get(k, 0) for k in range(max(row) + 1)],
                          den.var))
    return g


@settings(max_examples=40, deadline=None)
@given(birats(), birats(), points, points)
def test_birat_arithmetic_matches_fractions(x, y, a, b):
    assume(x.den0(a) and x.den1(b) and y.den0(a) and y.den1(b))
    xa, ya = value(x, a, b), value(y, a, b)
    assert value(x + y, a, b) == xa + ya
    assert value(x - y, a, b) == xa - ya
    assert value(x * y, a, b) == xa * ya
    assert value(x.square(), a, b) == xa * xa


@settings(max_examples=40, deadline=None)
@given(birats(), birats())
def test_reduced_numerator_content_is_coprime_to_denominators(x, y):
    for r in (x, x + y, x * y, x.square()):
        if r.is_zero():
            continue
        assert content_gcd(r.num, 0, r.den0).degree == 0
        assert content_gcd(r.num, 1, r.den1).degree == 0
