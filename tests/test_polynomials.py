import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oracles import FractionBiPoly, FractionUniPoly, schoolbook_product, \
    schoolbook_zmul, sylvester_resultant
from quadorbits import _intpoly as zp
from quadorbits.polynomials import BiPoly, ExactDivisionError, UniPoly, \
    bivariate_gcd, evaluate, localized_resultant, resultant
from quadorbits.ratfunc import RatFunc
from quadorbits.roots import rational_roots


def P(s, var=None):
    return UniPoly.parse(s, var)


def B(s, vars=("y", "z")):
    return BiPoly.parse(s, vars)


def _compose(f, g):
    """f(g(x)) as a UniPoly, by reading f with its variable bound to g."""
    return evaluate(str(f), {f.var: g}.__getitem__) + UniPoly.zero(g.var)


class TestArithmetic:
    def test_ring_examples(self):
        assert P("x + 1") * P("x - 1") == P("x^2 - 1")
        assert B("y - z") * B("y + z") == B("y^2 - z^2")
        p = P("3*x^2 - 1/2")
        assert p + UniPoly.zero("x") == p

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            P("x + 1") * P("t + 1")
        with pytest.raises(ValueError):
            B("y + 1") * B("u + 1", vars=("u", "v"))

    def test_a_constant_takes_the_label_of_the_other_operand(self):
        five, s = UniPoly.constant(5, "t"), UniPoly.x("s")
        for got in (five + s, s + five, five - s, five * s, s * five):
            assert got.var == "s" and got.degree == 1, got
        assert str(five + s) == "s + 5"
        b, y = BiPoly.constant(5, ("a", "b")), BiPoly.variable("y")
        for got in (b + y, y + b, b - y, b * y, y * b):
            assert got.vars == ("y", "z") and got.total_degree() == 1, got
        assert b + y == B("y + 5") and b * y == B("5*y")

    def test_eval(self):
        assert P("x^2 - 13/16")(Fraction(1, 4)) == Fraction(-3, 4)
        assert B("y^2 - z^2 + 4").eval2(0, 2) == 0
        p = P("7*x^3 - 2*x + 5/3")
        assert p(0) == p.coeffs[0]

    def test_compose(self):
        """Composition of polynomials: reading one at another, and
        RatFunc.compose on polynomial functions."""
        for f, g, fg in [("x^2 + 1", "x^2 + 1", "x^4 + 2*x^2 + 2"),
                         ("5*x^3 - x + 2", "x", "5*x^3 - x + 2"),
                         ("x^2", "x^3", "x^6")]:
            assert _compose(P(f), P(g)) == P(fg)
            assert RatFunc(P(f)).compose(RatFunc(P(g))) == RatFunc(P(fg))

    def test_exact_divide(self):
        assert P("x^2 - 1").exact_divide(P("x - 1")) == P("x + 1")
        assert B("y^2 - z^2").exact_divide(B("y + z")) == B("y - z")
        with pytest.raises(ExactDivisionError) as e:
            P("x^2 + 1").exact_divide(P("x - 1"))
        assert e.value.remainder == P("2", var="x")

    def test_content_primitive(self):
        p = P("4*x^4 - 5*x^2 - 9")
        c, prim = p.content_primitive()
        assert c == 1 and prim == p
        c, prim = P("1/2*x + 1/4").content_primitive()
        assert c == Fraction(1, 4) and prim == P("2*x + 1")
        c, prim = P("-2*x^2 + 4").content_primitive()
        assert c == -2 and prim == P("x^2 - 2")

    def test_squarefree_part(self):
        sqf = oracles.squarefree_part
        assert sqf(P("x - 1").__pow__(2).__mul__(P("x + 2"))) \
            == P("x^2 + x - 2")
        assert sqf(P("x^3")) == P("x")
        p = P("x^2 + x + 3")
        assert sqf(p) == p


class TestResultants:
    def test_spec_examples(self):
        r = resultant(B("x - 1", ("x", "w")), B("x - 2", ("x", "w")))
        assert r == UniPoly.constant(1, "w")
        r = resultant(B("x^2 - 1", ("x", "w")), B("x^2 - 4", ("x", "w")))
        assert r == UniPoly.constant(9, "w")
        assert resultant(B("y - z"), B("y + z")) == P("-2*z")

    def test_against_sylvester_oracle(self):
        rng = random.Random(31)
        done = 0
        while done < 30:
            terms_p = {(i, j): Fraction(rng.randint(-6, 6))
                       for i in range(3) for j in range(3)
                       if rng.random() < 0.7}
            terms_q = {(i, j): Fraction(rng.randint(-6, 6))
                       for i in range(4) for j in range(2)
                       if rng.random() < 0.7}
            p, q = BiPoly(terms_p), BiPoly(terms_q)
            if p.degree(0) < 1 or q.degree(0) < 1:
                continue
            assert resultant(p, q) == sylvester_resultant(p, q, 0)
            done += 1

    def test_vanishes_at_common_roots(self):
        rng = random.Random(5)
        for _ in range(20):
            z0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            # plant the common root (y0, z0)
            lin = B("y") - BiPoly.constant(y0) \
                - (B("z") - BiPoly.constant(z0)) * rng.randint(0, 2)
            p = lin * B("y + z + 1")
            q = lin * B("y^2 + z^2 + 1") + lin * rng.randint(0, 3)
            if p.degree(0) < 1 or q.degree(0) < 1:
                continue
            r = resultant(p, q)
            assert r.is_zero() or r(z0) == 0

    def test_degree_zero_in_eliminated_variable(self):
        with pytest.raises(ValueError):
            resultant(B("z + 1"), B("y + z"))


class TestBivariateGcd:
    def test_plant_and_recover(self):
        g = B("y^2 - 4*y - z^2")
        a = g * B("y + 3")
        b = g * B("z - 5")
        assert bivariate_gcd(a, b) == g

    def test_coprime(self):
        assert bivariate_gcd(B("y - z"), B("y + z")).total_degree() == 0

    def test_content_in_each_variable(self):
        # a common factor in z alone is a content of both, one in y alone
        # is a factor of both primitive parts
        a = B("z + 2") * B("y + z")
        b = B("z + 2") * B("y^2 + 3")
        assert bivariate_gcd(a, b) == B("z + 2")
        a = B("y + 2") * B("y + z")
        b = B("y + 2") * B("z^2 + 3")
        assert bivariate_gcd(a, b) == B("y + 2")


class TestConstructors:
    def test_from_unipoly(self):
        p = P("3*t^2 - 1/2", var="t")
        assert BiPoly.from_unipoly(p, 0) == B("3*y^2 - 1/2")
        assert BiPoly.from_unipoly(p, 1, ("a", "b")) == \
            B("3*b^2 - 1/2", ("a", "b"))
        assert BiPoly.from_unipoly(UniPoly.zero("t"), 1).is_zero()

    def test_from_coeff_lists_inverts_to_coeff_lists(self):
        b = B("2*y^2*z - 3*z^2 + y + 5")
        for eliminate in (0, 1):
            den, rows = b.to_coeff_lists(eliminate)
            assert den == 1
            assert BiPoly.from_coeff_lists(rows, eliminate) == b

    def test_divide_out(self):
        s = B("y - z")
        q, m = (s**3 * B("y + z + 1")).divide_out(s)
        assert (q, m) == (B("y + z + 1"), 3)
        assert B("y + z").divide_out(s) == (B("y + z"), 0)


class TestHash:
    def test_constants_equal_across_labels_hash_equal(self):
        a = BiPoly.constant(1, ("y", "z"))
        b = BiPoly.constant(1, ("a", "b"))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        za, zb = BiPoly.zero(("y", "z")), BiPoly.zero(("a", "b"))
        assert za == zb and hash(za) == hash(zb)

    def test_labels_count_where_a_variable_occurs(self):
        a = BiPoly.variable("y", ("y", "z"))
        b = BiPoly.variable("a", ("a", "b"))
        assert a != b and len({a, b}) == 2


class TestParsingPrinting:
    def test_unipoly_round_trip(self):
        for s in ["4*x^4 - 5*x^2 - 9", "x", "-x^2 + 1/2", "0", "7"]:
            p = P(s, var="x")
            assert UniPoly.parse(str(p), var="x") == p

    def test_bipoly_round_trip(self):
        for s in ["y^2*z - 1/2*z + 1", "y - z", "3"]:
            b = B(s)
            assert BiPoly.parse(str(b)) == b

    def test_juxtaposition_is_no_operator(self):
        for s in ["2y", "y z", "2 y^2", "y(z + 1)"]:
            with pytest.raises(ValueError):
                B(s)
        with pytest.raises(ValueError):
            P("2y")
        # a polynomial value is not a function: no reading of 3*x
        with pytest.raises(ValueError):
            P("x(3)")

    @pytest.mark.parametrize("text", [
        "1.5*y", "y + 0.5", "y^y", "y^(1/2)", "y^z", "1/y", "y/z", "w + y",
        "y == z", "[y]", "abs(y)", "y**", "",
    ])
    def test_reader_rejects(self, text):
        with pytest.raises(ValueError):
            B(text)

    def test_univariate_reader_rejects(self):
        for s, var in [("1/x", "x"), ("x + t", None), ("t + 1", "x"),
                       ("x^-1", "x"), ("x^x", None)]:
            with pytest.raises(ValueError):
                P(s, var)

    def test_reader_arithmetic_is_exact(self):
        assert P("(3*x - 1)/2 - x/4 + 2^-2") == P("5/4*x - 1/4")
        assert P("-(x + 1)^3") == P("-x^3 - 3*x^2 - 3*x - 1")
        assert P("+x - -1") == P("x + 1")
        assert B("(y + z)*(y - z)/3") == B("1/3*y^2 - 1/3*z^2")
        assert P("t^2").var == "t" and P("7").var == "x"
        assert P("7", "t").var == "t"

    def test_evaluate_binds_names_and_calls(self):
        names = {"a": Fraction(1, 3), "f": lambda v: v * v + 1}
        assert evaluate("f(f(a)) - 2/a", names.__getitem__) == \
            Fraction(-305, 81)
        assert evaluate("f(a)^-1", names.__getitem__) == Fraction(9, 10)
        for s in ["f(a, a)", "f()", "f(x=a)", "a(f)", "b"]:
            with pytest.raises(ValueError):
                evaluate(s, names.__getitem__)

    def test_dump_terms(self):
        d = B("2*y*z - 1/2").dump_terms()
        assert d == {"(1,1)": "2", "(0,0)": "-1/2"}


coef = st.integers(min_value=-20, max_value=20)


@settings(max_examples=60, deadline=None)
@given(st.lists(coef, min_size=1, max_size=5),
       st.lists(coef, min_size=1, max_size=5),
       st.fractions(min_value=-30, max_value=30, max_denominator=10))
def test_compose_eval_property(f, g, x):
    fp, gp = UniPoly(f, "x"), UniPoly(g, "x")
    assert _compose(fp, gp)(x) == fp(gp(x))


@settings(max_examples=60, deadline=None)
@given(st.lists(coef, min_size=1, max_size=5),
       st.lists(coef, min_size=2, max_size=4))
def test_exact_divide_round_trip(p, d):
    pp, dd = UniPoly(p, "x"), UniPoly(d, "x")
    if dd.is_zero():
        return
    assert (pp * dd).exact_divide(dd) == pp


@settings(max_examples=40, deadline=None)
@given(st.lists(coef, min_size=1, max_size=5))
def test_content_primitive_round_trip(p):
    pp = UniPoly(p, "x")
    if pp.is_zero():
        return
    c, prim = pp.content_primitive()
    assert prim * c == pp


fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
bi_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-40, max_value=40, max_denominator=12), max_size=6)


def _bipair(terms):
    return BiPoly(terms), FractionBiPoly(terms)


def _bsame(new, old):
    assert new.terms == old.terms and new.vars == old.vars, (new, old)


@settings(max_examples=80, deadline=None)
@given(bi_terms, bi_terms, fracs, st.integers(0, 3))
def test_bipoly_product_matches_fraction_product(p, q, c, n):
    """The ring operations over Z under one denominator against the
    term-by-term operations over Q."""
    (a, fa), (b, fb) = _bipair(p), _bipair(q)
    _bsame(a * b, fa * fb)
    _bsame(a + b, fa + fb)
    _bsame(a - b, fa - fb)
    _bsame(a * c, fa * c)
    _bsame(c - a, c - fa)
    _bsame(a**n, fa**n)


@settings(max_examples=60, deadline=None)
@given(bi_terms, bi_terms.filter(lambda t: any(t.values())))
def test_bipoly_division_matches_fraction_reference(p, q):
    """Exact division over Z by the divisor's primitive part against long
    division over Q, on planted products and on arbitrary pairs."""
    (a, fa), (b, fb) = _bipair(p), _bipair(q)
    _bsame((a * b).exact_divide(b), (fa * fb).exact_divide(fb))
    assert b.divides(a * b) and fb.divides(fa * fb)
    try:
        expected = fa.exact_divide(fb)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            a.exact_divide(b)
    else:
        _bsame(a.exact_divide(b), expected)
    assert b.divides(a) == fb.divides(fa)
    assert b.divides(a * b + 1) == fb.divides(fa * fb + 1)


@settings(max_examples=60, deadline=None)
@given(bi_terms, fracs, fracs)
def test_bipoly_evaluation_matches_fraction_reference(p, x, y):
    a, fa = _bipair(p)
    for which in (0, 1):
        got, expected = a.specialize(which, x), fa.specialize(which, x)
        assert got == expected and got.var == expected.var
    assert a.eval2(x, y) == fa.eval2(x, y)


@settings(max_examples=60, deadline=None)
@given(bi_terms)
def test_bipoly_forms_match_fraction_reference(p):
    a, fa = _bipair(p)
    for eliminate in (0, 1):
        assert a.to_coeff_lists(eliminate) == fa.to_coeff_lists(eliminate)
    assert str(a) == str(fa)
    assert a.dump_terms() == fa.dump_terms()
    if a:
        (ca, pa), (cf, pf) = a.content_primitive(), fa.content_primitive()
        assert ca == cf
        _bsame(pa, pf)


@settings(max_examples=60, deadline=None)
@given(bi_terms, bi_terms, st.integers(-50, 50).filter(bool))
def test_bipoly_integer_form_is_canonical(p, q, k):
    """den > 0, gcd(den, *ints) == 1 and no zero entry, however the
    polynomial was built; equal polynomials are equal and hash-equal."""
    a, b = BiPoly(p), BiPoly(q)
    for f in (a, b, a + b, a - b, a * b, -a, a - a, a * Fraction(1, k)):
        assert f.den > 0 and math.gcd(f.den, *f.ints.values()) == 1
        assert all(f.ints.values())
    scaled = BiPoly.from_int(a.den * k, {**{e: c * k for e, c in
                                            a.ints.items()}, (5, 5): 0})
    assert scaled.den == a.den and scaled.ints == a.ints
    assert scaled == a and hash(scaled) == hash(a)
    with pytest.raises(ZeroDivisionError):
        BiPoly.from_int(0, a.ints)


small_bi_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-6, 6), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(small_bi_terms, small_bi_terms, small_bi_terms)
def test_bivariate_gcd_keeps_a_planted_factor(a, b, c):
    """gcd(a*c, b*c) is a multiple of c's primitive part: the gcd is
    maximal, not merely a common divisor."""
    a, b, c = BiPoly(a), BiPoly(b), BiPoly(c)
    if a.is_zero() or b.is_zero() or c.is_zero():
        return
    g = bivariate_gcd(a * c, b * c)
    assert c.content_primitive()[1].divides(g), g


# -- the symmetry identities of resultants in the eliminated variable y -----

# F(u, z) with integer coefficients and positive degree in u
res_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.integers(-5, 5), min_size=1, max_size=5).map(BiPoly).filter(
        lambda p: p.degree(0) > 0)


@st.composite
def res_pairs(draw):
    """Two such polynomials, both vanishing at a drawn integer point (u0,
    z0), so that z0 is a root of their resultant."""
    u0, z0 = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return tuple(p - p.eval2(u0, z0) for p in (draw(res_polys),
                                                draw(res_polys)))


def _inflate(p):
    """p(y^2, z)."""
    return BiPoly.from_int(p.den, {(2 * i, j): c
                                   for (i, j), c in p.ints.items()}, p.vars)


def _flip(p):
    """p(-y, z)."""
    return BiPoly.from_int(p.den, {(i, j): (-1) ** i * c
                                   for (i, j), c in p.ints.items()}, p.vars)


def _same_rational_roots(r, s):
    """Both zero, or equal squarefree parts with equal rational roots."""
    assert r.is_zero() == s.is_zero()
    if not r.is_zero() and r.degree > 0:
        sqf = oracles.squarefree_part
        assert sqf(r) == sqf(s)
        assert rational_roots(sqf(r)).root_set() \
            == rational_roots(sqf(s)).root_set()


@settings(max_examples=60, deadline=None)
@given(res_pairs())
def test_resultant_of_even_pair_is_the_square_over_u(pair):
    """Res_y(F(y^2), G(y^2)) = Res_u(F, G)^2 (Cox, Little and O'Shea,
    ch. 3): both are lc(F)^(2 deg G) times G(u_i)^2 over the roots u_i of
    F."""
    F, G = pair
    full = resultant(_inflate(F), _inflate(G))
    deflated = resultant(F, G)
    assert full == deflated ** 2
    _same_rational_roots(full, deflated)


@settings(max_examples=60, deadline=None)
@given(res_pairs(), st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_resultant_of_flipped_pair_is_equal_up_to_sign(pair, s, t):
    """Res_y(s a(-y), t b(-y)) = s^n t^m (-1)^(m n) Res_y(a, b) for
    m = deg_y a, n = deg_y b."""
    a, b = pair
    m, n = a.degree(0), b.degree(0)
    flipped = resultant(_flip(a) * s, _flip(b) * t)
    assert flipped == resultant(a, b) * (s ** n * t ** m * (-1) ** (m * n))
    _same_rational_roots(flipped, resultant(a, b))


@settings(max_examples=40, deadline=None)
@given(bi_terms, st.sampled_from([0, 1]))
def test_coeff_lists_round_trip(terms, eliminate):
    b = BiPoly(terms)
    den, rows = b.to_coeff_lists(eliminate)
    assert BiPoly.from_coeff_lists(rows, eliminate) * Fraction(1, den) == b


# -- the row form, built once per axis and only read ------------------------

def _row_consumers(p, q):
    """Every reader of the kept row forms, with p and q nonconstant in y."""
    rows_p, rows_q = p.to_coeff_lists(0)[1], q.to_coeff_lists(0)[1]
    zp._gprem(rows_p, rows_q)
    zp._gprem(rows_q, rows_p)
    for roots in ((), (-1, 0)):
        zp.subres_resultant(rows_p, rows_q, roots)
        localized_resultant(p, q, roots)
    zp.zzgcd(rows_p, rows_q)
    zp.zzgcd(rows_q, rows_p)
    zp.zzcontent(rows_p)
    zp.zzdivides_at_sample(rows_q, rows_p)
    zp.zzmul(rows_p, rows_q)
    resultant(p, q)
    bivariate_gcd(p, q)
    p.divide_out(q)
    p * q
    p.specialize(1, 3)
    p.specialize(0, Fraction(-2, 5))


@settings(max_examples=60, deadline=None)
@given(small_bi_terms, small_bi_terms, small_bi_terms)
@example({(2, 0): 1, (0, 1): -1}, {(1, 1): 2, (0, 0): 3}, {(1, 0): 1})
def test_kept_row_forms_are_only_read(a, b, c):
    """Each consumer of ``to_coeff_lists`` leaves the kept rows as they
    were, so every later call reads the rows of the polynomial."""
    a, b, c = BiPoly(a) * BiPoly(c), BiPoly(b) * BiPoly(c), BiPoly(c)
    assume(a.degree(0) > 0 and b.degree(0) > 0 and c.degree(0) > 0)
    for p, q in ((a, b), (b, a), (a, c)):
        forms = [p.to_coeff_lists(e) for e in (0, 1)] + \
            [q.to_coeff_lists(e) for e in (0, 1)]
        before = copy.deepcopy(forms)
        _row_consumers(p, q)
        assert [p.to_coeff_lists(e) for e in (0, 1)] + \
            [q.to_coeff_lists(e) for e in (0, 1)] == before
        assert all(f is g for f, g in zip(forms, [
            p.to_coeff_lists(0), p.to_coeff_lists(1),
            q.to_coeff_lists(0), q.to_coeff_lists(1)]))
        fresh = BiPoly.from_int(p.den, p.ints, p.vars)
        assert [fresh.to_coeff_lists(e) for e in (0, 1)] == before[:2]


# -- the PRS over Z[z] with the linear units z - r inverted -------------------

def _units(roots, exps):
    """The product of the (z - r)^e_r."""
    out = [1]
    for r, e in zip(roots, exps):
        out = zp.zmul(out, zp.zpow([-r, 1], e))
    return out


@st.composite
def localized_cases(draw):
    """(p, q, roots): two row forms of y-degree 1 to 3 whose rows and
    contents carry planted powers of z and z + 1 and of the z - r for the
    drawn roots (none, possibly), sometimes with a shared factor of
    positive y-degree, which makes the resultant 0."""
    roots = tuple(draw(st.lists(st.integers(-2, 2), unique=True,
                                max_size=3)))
    planted = st.sampled_from(sorted({-1, 0, *roots}))
    coef = st.integers(-4, 4)

    def unit():
        return _units([draw(planted)], [draw(st.integers(0, 3))])

    def rows(dy):
        out = [zp.zmul(zp.ztrim(draw(st.lists(coef, max_size=3))), unit())
               for _ in range(dy + 1)]
        out[-1] = out[-1] or [draw(coef.filter(bool))]
        content = unit()
        return [zp.zmul(r, content) for r in out]

    p, q = rows(draw(st.integers(1, 3))), rows(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        shared = rows(draw(st.integers(1, 2)))
        p, q = zp.zzmul(p, shared), zp.zzmul(q, shared)
    return p, q, roots


@settings(max_examples=150, deadline=None)
@given(localized_cases())
@example(([[0, 1], [1]], [[1, 1], [0, 0, 1]], ()))
@example(([[0, 0, 2], [0, 1, 1]], [[0, 3], [0, 1]], (-1, 0)))
# both inputs carry the content z^2 + 1, which no z - r divides:
# (z^2 + 1)(y + z) and (z^2 + 1)(z*y^2 + 3)
@example(([[0, 1, 0, 1], [1, 0, 1]], [[3, 0, 3], [], [0, 1, 0, 1]], (0,)))
def test_localized_prs_equals_the_prs_over_z(case):
    """The unit powers times the stripped part equal the PRS over Z[z]
    exactly, with every exponent >= 0 and no z - r left in the part."""
    p, q, roots = case
    want = oracles.subres_resultant(p, q)
    exps, r = zp.subres_resultant(p, q, roots)
    assert len(exps) == len(roots)
    if not want:
        assert r == []
        return
    assert min(exps, default=0) >= 0
    assert all(zp.zeval_homogeneous(r, root, 1) for root in roots)
    assert zp.zmul(_units(roots, exps), r) == want


def test_a_polynomial_with_kept_rows_pickles():
    b = B("2*y^2*z - 3*z^2 + y/7 + 5")
    forms = [b.to_coeff_lists(e) for e in (0, 1)]
    back = pickle.loads(pickle.dumps(b))
    assert back == b and hash(back) == hash(b) and str(back) == str(b)
    assert [back.to_coeff_lists(e) for e in (0, 1)] == forms
    assert back * b == b * b


# -- Kronecker products and specialization-first division -------------------

def _with_den(terms_st):
    """Integer maps over a drawn positive denominator."""
    return st.builds(lambda ints, den: BiPoly.from_int(den, ints), terms_st,
                     st.integers(1, 10**30))


@st.composite
def _box_terms(draw, low, high):
    """Every slot of a drawn degree box, coefficients of a drawn size."""
    dy, dz = draw(st.integers(low, high)), draw(st.integers(low, high))
    bound = draw(st.sampled_from([1, 10**6, 10**300]))
    coef = st.integers(-bound, bound)
    return {(i, j): draw(coef) for i in range(dy + 1) for j in range(dz + 1)}


# two of these have at least 36 * 36 > KRONECKER_PAIRS term pairs unless
# coefficients are drawn zero
large_boxes = _with_den(_box_terms(5, 9))
product_operands = st.one_of(
    _with_den(_box_terms(0, 4)),
    # sparse, exponents up to 200
    _with_den(st.dictionaries(st.tuples(st.integers(0, 200),
                                        st.integers(0, 200)),
                              st.integers(-10**300, 10**300), max_size=40)),
    # constants and single terms
    _with_den(st.dictionaries(st.tuples(st.integers(0, 3),
                                        st.integers(0, 3)),
                              st.integers(-10**300, 10**300), max_size=1)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(large_boxes, large_boxes),
                 st.tuples(product_operands, product_operands)))
def test_product_matches_schoolbook_on_both_sides_of_the_threshold(pair):
    a, b = pair
    assert a * b == schoolbook_product(a, b)
    assert b * a == a * b


row_lists = st.lists(st.lists(st.integers(-10**300, 10**300), max_size=7),
                     min_size=1, max_size=7).filter(lambda rows: any(rows[-1]))


@settings(max_examples=60, deadline=None)
@given(row_lists, row_lists)
def test_kronecker_rows_match_schoolbook(p, q):
    """``zzmul`` on any row form, huge coefficients of either sign included:
    trimmed rows, a nonzero last row, and the schoolbook product."""
    rows = zp.zzmul(p, q)
    assert rows[-1] and all(not r or r[-1] for r in rows)
    assert BiPoly.from_coeff_lists(rows, 0) == schoolbook_product(
        BiPoly.from_coeff_lists(p, 0), BiPoly.from_coeff_lists(q, 0))


@st.composite
def _parity_operands(draw):
    """An operand even in y, in z, in both or in neither: a box of terms
    below or above KRONECKER_PAIRS in any product with another, with
    y -> y^2 and z -> z^2 as drawn."""
    terms = draw(st.one_of(_box_terms(0, 3), _box_terms(5, 9)))
    ey, ez = draw(st.booleans()), draw(st.booleans())
    return BiPoly.from_int(draw(st.integers(1, 10**30)),
                           {(i * (1 + ey), j * (1 + ez)): c
                            for (i, j), c in terms.items()})


@settings(max_examples=100, deadline=None)
@given(_parity_operands(), _parity_operands())
def test_deflated_products_match_schoolbook(a, b):
    """Two operands drawn apart are both, one or neither even in each
    variable; ``zzmul`` takes the product in y^2 or z^2 where both are."""
    assert a * b == schoolbook_product(a, b)
    assume(not a.is_zero() and not b.is_zero())
    rows = zp.zzmul(a.to_coeff_lists(0)[1], b.to_coeff_lists(0)[1])
    assert rows[-1] and all(not r or r[-1] for r in rows)
    assert BiPoly.from_coeff_lists(rows, 0) == a * b * (a.den * b.den)


def test_kronecker_deflates_what_both_operands_are_even_in(monkeypatch):
    shapes = []
    kronecker = zp.zzmul
    monkeypatch.setattr(zp, "zzmul", lambda p, q: shapes.append(
        (len(p), max(map(len, p)))) or kronecker(p, q))
    even = BiPoly({(2 * i, 2 * j): i - 2 * j + 7
                   for i in range(6) for j in range(6)})
    odd_y, odd_z = even * B("y + 1"), even * B("z + 1")
    for a, b, route in [(even, even, [(11, 11), (6, 11), (6, 6)]),
                        (even, odd_z, [(11, 11), (6, 11)]),
                        (even, odd_y, [(11, 11), (11, 6)]),
                        (odd_y, odd_z, [(12, 11)])]:
        shapes.clear()
        assert a * b == schoolbook_product(a, b)
        assert shapes == route


def test_product_selects_kronecker_by_size(monkeypatch):
    calls = []
    kronecker = zp.zzmul
    monkeypatch.setattr(zp, "zzmul",
                        lambda p, q: calls.append(1) or kronecker(p, q))

    def box(dy, dz, c):
        return BiPoly({(i, j): c + i - 2 * j for i in range(dy + 1)
                       for j in range(dz + 1) if c + i - 2 * j})

    dense = box(5, 5, 20)  # 36 terms
    row31, row33 = box(0, 30, 100), box(0, 32, 100)
    assert len(dense.ints) ** 2 > zp.KRONECKER_PAIRS \
        == len(row31.ints) * len(row33.ints) + 1
    sparse = BiPoly({(5 * k, 200 - 5 * k): k + 1 for k in range(40)})
    huge = dense * 10**300
    for a, b, used in [(dense, dense, True), (row31, row33, False),
                       (sparse, sparse, True), (huge, huge, True)]:
        calls.clear()
        assert a * b == schoolbook_product(a, b)
        assert bool(calls) == used


@st.composite
def _dense_ints(draw, min_size, max_size):
    """An integer coefficient list with a nonzero last coefficient,
    coefficients of a drawn size and sign, zeros inside."""
    bound = draw(st.sampled_from([1, 10**6, 10**300]))
    coef = st.one_of(st.just(0), st.integers(-bound, bound))
    body = draw(st.lists(coef, min_size=min_size - 1, max_size=max_size - 1))
    sign = draw(st.sampled_from([1, -1]))
    return body + [sign * draw(st.integers(1, bound))]


# operands on both sides of the size rule: 1 coefficient (scalar), up to
# 40 x 40 = 1,600 term pairs (schoolbook below KRONECKER_PAIRS, zzmul above)
zmul_operands = st.one_of(_dense_ints(1, 1), _dense_ints(2, 12),
                          _dense_ints(24, 40))


@settings(max_examples=120, deadline=None)
@given(zmul_operands, zmul_operands)
def test_zmul_matches_schoolbook_on_both_sides_of_the_size_rule(p, q):
    assert zp.zmul(p, q) == schoolbook_zmul(p, q)
    assert zp.zmul(q, p) == zp.zmul(p, q)
    assert zp.zmul(p, []) == zp.zmul([], q) == []


def test_zmul_selects_its_route_by_size(monkeypatch):
    calls = []
    kronecker = zp.zzmul
    monkeypatch.setattr(zp, "zzmul",
                        lambda p, q: calls.append(1) or kronecker(p, q))
    side = math.isqrt(zp.KRONECKER_PAIRS)
    assert side * side == zp.KRONECKER_PAIRS
    for m, n, used in [(1, 5000, False), (side - 1, side + 1, False),
                       (side, side, True), (2, zp.KRONECKER_PAIRS // 2, True)]:
        p = [(-1) ** i * (i + 3) for i in range(m)]
        q = [7 * i - 10**20 for i in range(n)]
        calls.clear()
        assert zp.zmul(p, q) == schoolbook_zmul(p, q)
        assert bool(calls) == used


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), max_size=12),
       st.integers(-10**20, 10**20), st.integers(2, 10**9))
@example([], 5, 3)
@example([7], -2, 9)
def test_zeval_homogeneous_equals_the_homogenized_sum(p, u, v):
    """v^deg(p) p(u/v) as sum c_i u^i v^(deg - i), at v = 1 (the plain
    Horner route) and at v > 1."""
    deg = len(p) - 1
    for w in (1, v):
        assert zp.zeval_homogeneous(p, u, w) == \
            sum(c * u**i * w**(deg - i) for i, c in enumerate(p))


small_ints = st.lists(st.integers(-10**6, 10**6), max_size=5).map(zp.ztrim)


@settings(max_examples=120, deadline=None)
@given(small_ints, small_ints, small_ints.filter(bool), st.integers(0, 3))
@example([], [1, 1], [2], 0)
@example([3, 0, 1], [], [1, 1], 4)
def test_zcompose_homogeneous_equals_the_homogenized_sum(c, a, b, extra):
    """sum c_i a^i b^(k - i) term by term, for k from deg c up."""
    k = len(c) - 1 + extra
    total: list[int] = []
    for i, ci in enumerate(c):
        term = schoolbook_zmul(schoolbook_zmul([ci], zp.zpow(a, i)),
                               zp.zpow(b, k - i))
        total = zp.zadd(total, term)
    assert zp.zcompose_homogeneous(c, a, b, k) == total


def modular_zgcd(a, b):
    """``zgcd`` of nonzero a, b with the heuristic step skipped."""
    pa, pb = zp.zprimitive(a)[1], zp.zprimitive(b)[1]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    return [1] if len(pb) == 1 else zp._modular_gcd(pa, pb)


# a factor g (constant included) planted in two cofactors
planted_gcds = st.tuples(_dense_ints(1, 4), _dense_ints(1, 6),
                         _dense_ints(1, 6))


@settings(max_examples=120, deadline=None)
@given(planted_gcds)
@example(([1], [0, 1], [2, 1]))  # coprime
@example(([-6], [3, 3], [9]))  # constant g, constant cofactor
@example(([1], [3, -2, 6, 5, -6], [-3, -1, -1, 5, 4, -4]))  # 2nd point
def test_zgcd_equals_the_modular_gcd_on_planted_factors(case):
    g, a, b = case
    ga, gb = schoolbook_zmul(g, a), schoolbook_zmul(g, b)
    got = zp.zgcd(ga, gb)
    assert got == modular_zgcd(ga, gb)
    assert got[-1] > 0 and zp.zcontent(got) == 1
    assert zp.zdivides(zp.zprimitive(g)[1], got)
    assert zp.zdivides(got, ga) and zp.zdivides(got, gb)


def test_zgcd_tries_a_larger_point_when_the_first_fails(monkeypatch):
    """At xi = 16 the gcd of the values of 3 - 2x + 6x^2 + 5x^3 - 6x^4 and
    -3 - x - x^2 + 5x^3 + 4x^4 - 4x^5 carries a factor shared by their
    cofactors' values, and its digits divide neither input; xi = 256 gives
    their gcd."""
    points = []
    evaluate_at = zp.zeval_homogeneous
    monkeypatch.setattr(
        zp, "zeval_homogeneous",
        lambda p, u, v: points.append(u) or evaluate_at(p, u, v))
    a, b = [3, -2, 6, 5, -6], [-3, -1, -1, 5, 4, -4]
    assert zp.zgcd(a, b) == modular_zgcd(a, b) == [-3, -1, 2]
    assert points == [16, 16, 256, 256]


def test_zgcd_falls_back_to_the_modular_gcd(monkeypatch):
    cases = [([3, -2, 6, 5, -6], [-3, -1, -1, 5, 4, -4], [-3, -1, 2]),
             ([-1, 0, 1], [1, 2, 1], [1, 1]),
             ([2, 0, 2], [4, 4], [1]),
             ([0, 0, 6], [0, 0, 0, -4], [0, 0, 1])]
    monkeypatch.setattr(zp, "_heuristic_gcd", lambda pa, pb: None)
    assert [zp.zgcd(a, b) for a, b, _ in cases] == [g for *_, g in cases]


@st.composite
def planted_divisions(draw):
    """(d, q, r): a divisor d, which may be free of y, constant, or have a
    leading y-coefficient vanishing at the first sample points z = 3, 4,
    ...; a cofactor q; and r != 0 that d does not divide (None for a
    constant d, which divides everything)."""
    small = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            st.integers(-9, 9), max_size=6)
    q = BiPoly(draw(small)) * Fraction(1, draw(st.integers(1, 50)))
    kind = draw(st.sampled_from(["any", "y-free", "constant", "vanishing"]))
    if kind == "constant":
        return BiPoly.constant(draw(fracs.filter(bool))), q, None
    if kind == "y-free":
        d = BiPoly({(0, j): c for j, c in
                    draw(st.dictionaries(st.integers(0, 3), st.integers(-9, 9),
                                         min_size=1, max_size=4)).items()})
    else:
        d = BiPoly(draw(small))
    assume(not d.is_zero())
    if kind == "vanishing":
        z = BiPoly.variable("z")
        lead = BiPoly.constant(draw(st.integers(1, 5)))
        for k in range(3, 3 + draw(st.integers(1, 3))):
            lead = lead * (z - k)
        d = d + lead * BiPoly.variable("y") ** (d.degree(0) + 1)
        assert d.specialize(1, 3).degree < d.degree(0)
    dy, dz = d.degree(0), d.degree(1)
    if dy == 0 and dz == 0:
        return d, q, None
    # a nonzero r below d's degree in y (or in z, for d free of y)
    r = BiPoly({e: c for e, c in draw(small).items()
                if (e[0] < dy if dy else e[1] < dz)})
    assume(not r.is_zero())
    return d, q, r


@settings(max_examples=80, deadline=None)
@given(planted_divisions())
# d vanishes on the whole line z = 3, the first sample point
@example((B("y*z - 3*y + z^2 - 3*z"), B("y - 1"), B("1")))
def test_exact_divide_returns_the_planted_quotient(case):
    """d * q divides to q; d * q + r raises, however d's leading
    y-coefficient behaves at the sample points."""
    d, q, r = case
    assert (d * q).exact_divide(d) == q
    assert d.divides(d * q)
    if r is not None:
        with pytest.raises(ExactDivisionError):
            (d * q + r).exact_divide(d)
        assert not FractionBiPoly(d.terms).divides(FractionBiPoly(
            (d * q + r).terms))


@settings(max_examples=60, deadline=None)
@given(planted_divisions(), st.integers(0, 2))
@example((B("y*z - 3*y + z^2 - 3*z"), B("y - 1"), B("1")), 2)
def test_divide_out_returns_the_planted_multiplicity(case, k):
    """d^k * (d * q + r) gives (d * q + r, k), also where the sample test
    has to skip the points at which d's leading y-coefficient vanishes."""
    d, q, r = case
    assume(r is not None)  # divide_out needs a nonconstant d
    rest = d * q + r
    assert (d ** k * rest).divide_out(d) == (rest, k)


# -- the integer form of UniPoly against the Fraction-tuple reference --------

uni_coeffs = st.lists(fracs, max_size=6)


def _pair(cs):
    return UniPoly(cs, "x"), FractionUniPoly(cs, "x")


def _same(new, old):
    assert new.coeffs == old.coeffs and new.var == old.var, (new, old)


@settings(max_examples=60, deadline=None)
@given(uni_coeffs, uni_coeffs, fracs, st.integers(0, 4))
def test_ring_ops_match_fraction_reference(f, g, c, n):
    (a, fa), (b, fb) = _pair(f), _pair(g)
    _same(a + b, fa + fb)
    _same(a - b, fa - fb)
    _same(a * b, fa * fb)
    _same(a * c, fa * c)
    _same(c - a, c - fa)
    _same(a**n, fa**n)


@settings(max_examples=60, deadline=None)
@given(uni_coeffs, uni_coeffs.filter(any))
def test_division_matches_fraction_reference(f, g):
    (a, fa), (b, fb) = _pair(f), _pair(g)
    (q, r), (fq, fr) = a.divmod(b), fa.divmod(fb)
    _same(q, fq)
    _same(r, fr)
    try:
        expected = fa.exact_divide(fb)
    except ExactDivisionError as e:
        with pytest.raises(ExactDivisionError) as got:
            a.exact_divide(b)
        _same(got.value.remainder, e.remainder)
    else:
        _same(a.exact_divide(b), expected)
    _same((a * b).exact_divide(b), (fa * fb).exact_divide(fb))


@settings(max_examples=60, deadline=None)
@given(uni_coeffs, st.sampled_from(["x", "t"]), bi_terms,
       st.sampled_from([("y", "z"), ("a", "b")]))
def test_parse_inverts_str(cs, var, terms, vars):
    p = UniPoly(cs, var)
    assert UniPoly.parse(str(p), var) == p
    assert UniPoly.parse(str(p)) == p
    b = BiPoly(terms, vars)
    assert BiPoly.parse(str(b), vars) == b


@settings(max_examples=60, deadline=None)
@given(uni_coeffs, uni_coeffs, fracs)
def test_eval_and_compose_match_fraction_reference(f, g, x):
    (a, fa), (b, fb) = _pair(f), _pair(g)
    assert a(x) == fa(x)
    _same(_compose(a, b), fa.compose(fb))


@settings(max_examples=60, deadline=None)
@given(uni_coeffs, uni_coeffs, uni_coeffs)
def test_gcd_and_normal_forms_match_fraction_reference(f, g, h):
    (a, fa), (b, fb), (c, fc) = _pair(f), _pair(g), _pair(h)
    _same((a * c).gcd(b * c), (fa * fc).gcd(fb * fc))
    _same(a.monic(), fa.monic())
    assert str(a) == str(fa)
    if a:
        ca, pa = a.content_primitive()
        cf, pf = fa.content_primitive()
        assert ca == cf
        _same(pa, pf)
    if a and b:
        _same(oracles.squarefree_part(a * a * b),
              (fa * fa * fb).squarefree_part())


@settings(max_examples=60, deadline=None)
@given(uni_coeffs, st.integers(-50, 50).filter(bool))
def test_integer_form_is_canonical(f, k):
    """den > 0, gcd(den, *ints) == 1 and no trailing zero, however the
    polynomial was built; equal polynomials are equal and hash-equal."""
    p = UniPoly(f, "x")
    assert p.den > 0 and math.gcd(p.den, *p.ints) == 1
    assert isinstance(p.ints, tuple) and (not p.ints or p.ints[-1] != 0)
    scaled = UniPoly.from_int(p.den * k, [c * k for c in p.ints] + [0], "x")
    assert scaled.den == p.den and scaled.ints == p.ints
    assert scaled == p and hash(scaled) == hash(p)
    with pytest.raises(ZeroDivisionError):
        UniPoly.from_int(0, p.ints)


def test_is_prime_below_the_thirteen_base_bound():
    """psi_12, the least strong pseudoprime to the first 12 prime bases, is
    below the documented bound, so base 41 must be among the bases."""
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not zp.is_prime(psi12)
    for p in (2**61 - 31, 2**61 - 1, 2**61 + 15, 2**62 - 57):
        assert zp.is_prime(p)
    assert not zp.is_prime(2**61 + 1) and not zp.is_prime(
        (2**61 - 1) * (2**61 + 15))


positive_lead = st.lists(coef, max_size=5).flatmap(
    lambda low: st.integers(1, 20).map(lambda top: low + [top]))


@settings(max_examples=80, deadline=None)
@given(positive_lead)
def test_zsqrt_returns_the_root_of_a_square(r):
    assert zp.zsqrt(zp.zmul(r, r)) == r


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.lists(coef, max_size=7).map(lambda p: zp.ztrim(list(p))),
    # squares with one coefficient moved, so that the top-down read-off
    # runs past the leading coefficient before it fails
    st.tuples(positive_lead, st.integers(0, 10), coef.filter(bool)).map(
        lambda t: zp.zadd(zp.zmul(t[0], t[0]),
                          [0] * min(t[1], 2 * len(t[0]) - 2) + [t[2]]))))
def test_zsqrt_is_none_or_squares_back(p):
    r = zp.zsqrt(p)
    assert r is None or zp.zmul(r, r) == p


def test_zsqrt_cases():
    assert zp.zsqrt([]) == []
    assert zp.zsqrt([4, -12, 9]) == [-2, 3]
    assert zp.zsqrt([0, 0, 4]) == [0, 2]
    for p in ([-1], [1, 1], [2], [1, 0, 1], [1, 2, 1, 1], [0, 0, -4]):
        assert zp.zsqrt(p) is None
