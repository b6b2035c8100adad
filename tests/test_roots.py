import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import transform_rational_roots
from quadorbits import _intpoly as zp
from quadorbits.polynomials import UniPoly
from quadorbits.roots import _lift_roots, _pick_prime, rational_roots
from quadorbits.verifier import elimination
from quadorbits.verifier.lemmas import LEMMA_IDS, lemma_setup


def P(s):
    return UniPoly.parse(s, var="x")


class TestIntegerRoots:
    def test_examples(self):
        assert rational_roots(P("x^3 - x")).root_set() == {0, 1, -1}
        assert rational_roots(P("x^2 + 1")).roots == {}
        p = P("x - 3") * P("x + 5") * P("x^2 + x + 1")
        rep = rational_roots(p)
        assert rep.root_set() == {3, -5}
        for r in rep.roots:
            assert p(r) == 0

    def test_multiplicities(self):
        p = P("x - 2") ** 3 * P("x + 1")
        rep = rational_roots(p)
        assert rep.roots == {Fraction(2): 3, Fraction(-1): 1}


# cofactors without rational roots: x^4 + x + 7 (no integer root divides 7),
# 3x^2 - 2 and 5x^3 - 2 (2/3 and 2/5 are not a square and a cube)
ROOTLESS = ["1", "x^4 + x + 7", "3*x^2 - 2", "5*x^3 - 2"]
BIG = 2**64


class TestRationalRoots:
    def test_examples(self):
        assert rational_roots(P("4*x^4 - 5*x^2 - 9")).root_set() == \
            {Fraction(3, 2), Fraction(-3, 2)}
        assert rational_roots(P("2*x - 3")).root_set() == {Fraction(3, 2)}
        assert rational_roots(P("x^2 - x - 5/16")).root_set() == \
            {Fraction(5, 4), Fraction(-1, 4)}

    def test_soundness(self):
        p = P("12*x^5 - 4*x^4 + x - 7")
        for r, m in rational_roots(p).roots.items():
            assert p(r) == 0 and m >= 1

    def test_planted_completeness(self):
        rng = random.Random(99)
        for _ in range(60):
            planted = {Fraction(rng.randint(-40, 40), rng.randint(1, 40))
                       for _ in range(rng.randint(1, 4))}
            poly = P("x^4 + x + 7")  # no rational roots (checked below)
            for r in planted:
                poly = poly * UniPoly([-r.numerator, r.denominator], "x") \
                    ** rng.randint(1, 2)
            assert rational_roots(poly).root_set() == planted

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG),
                              st.integers(1, 3)), max_size=4),
           st.sampled_from(ROOTLESS), st.integers(0, 3),
           st.integers(1, 2**80), st.booleans())
    def test_planted_roots_and_multiplicities(self, planted, cofactor,
                                              x_power, scale, negate):
        poly = P(cofactor) * UniPoly([0, 1], "x") ** x_power \
            * (-scale if negate else scale)
        expected: Counter = Counter()
        for u, v, m in planted:
            poly = poly * UniPoly([-u, v], "x") ** m
            expected[Fraction(u, v)] += m
        if x_power:
            expected[Fraction(0)] += x_power
        assert rational_roots(poly).roots == dict(expected)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=8),
           st.integers(-2**40, 2**40).filter(bool))
    def test_agrees_with_transform_oracle(self, lower, lead):
        p = UniPoly(lower + [lead], "x")
        assert rational_roots(p).roots == transform_rational_roots(p).roots

    def test_rootless_quartic_is_rootless(self):
        assert rational_roots(P("x^4 + x + 7")).roots == {}

    def test_agreement_with_trial_division(self):
        # small-height polynomials: compare with exhaustive p/q trial
        rng = random.Random(123)
        for _ in range(25):
            coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(3, 9))]
            if not any(coeffs):
                continue
            p = UniPoly(coeffs, "x")
            if p.degree < 1:
                continue
            found = rational_roots(p).root_set()
            ints = p.ints
            while ints and ints[0] == 0:
                ints = ints[1:]
            brute = set()
            if not ints:
                continue
            a0, an = abs(ints[0]), abs(ints[-1])
            for num in range(-a0, a0 + 1):
                for den in range(1, an + 1):
                    if a0 % max(abs(num), 1) == 0 and an % den == 0:
                        x = Fraction(num, den)
                        if p(x) == 0:
                            brute.add(x)
            if any(c != 0 for c in p.coeffs[:1]):
                assert found == brute

    def test_reconstruction_path(self):
        big = 2**40 + 1
        p = P("x^4 + x + 7") * UniPoly([-3, big], "x") * UniPoly([-5, 7], "x")
        rep = rational_roots(p)
        assert rep.method == "reconstruction"
        assert rep.root_set() == {Fraction(3, big), Fraction(5, 7)}

    def test_report_trace_serializes(self):
        rep = rational_roots(P("x^3 - x"))
        d = rep.to_dict()
        assert "roots" in d and "method" in d


def _trace_of_the_squarefree_part(p: UniPoly) -> tuple[int, int]:
    """(prime, precision) when the squarefree part is always taken first:
    the prime ``_pick_prime`` finds for it and the lifting exponent its
    bounds ask for."""
    ints = zp.zprimitive(p.ints)[1]
    while ints[0] == 0:
        ints = ints[1:]
    sf = zp.zsquarefree(ints)
    p0 = _pick_prime(sf)
    return p0, _lift_roots(sf, p0, 2 * abs(sf[0]) * abs(sf[-1]))[2]


class TestSquarefreeShortcut:
    """``rational_roots`` skips the gcd when 53 shows its input squarefree;
    the roots, the prime and the precision stay those of the squarefree
    part."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 60),
                              st.integers(1, 3)), min_size=1, max_size=4),
           st.sampled_from(ROOTLESS), st.integers(0, 2),
           st.sampled_from([1, 53, 2 * 53**2]), st.booleans())
    def test_agrees_with_the_squarefree_part(self, planted, cofactor,
                                             cofactor_power, lead, shifted):
        # repeated factors, a lead that 53 divides, and with `shifted` two
        # roots 53 apart, which is squarefree over Q but not mod 53
        poly = P(cofactor) ** cofactor_power * lead
        for u, v, m in planted:
            poly = poly * UniPoly([-u, v], "x") ** m
        if shifted:
            u, v, _ = planted[0]
            poly = poly * UniPoly([-u - 53 * v, v], "x")
        if poly.degree < 1:
            return
        rep = rational_roots(poly)
        assert rep.roots == transform_rational_roots(poly).roots
        if rep.prime is not None:
            assert (rep.prime, rep.precision) \
                == _trace_of_the_squarefree_part(poly)

    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_lemma_eliminants_keep_their_traces(self, lemma_id,
                                                monkeypatch):
        seen = []

        def recording(p):
            rep = rational_roots(p)
            seen.append((p, rep))
            return rep

        monkeypatch.setattr(elimination, "rational_roots", recording)
        setup = lemma_setup(lemma_id)
        elimination.eliminate_candidates(setup.gens, setup.structural,
                                         setup.poles)
        assert seen
        for p, rep in seen:
            if rep.prime is not None:
                assert (rep.prime, rep.precision) \
                    == _trace_of_the_squarefree_part(p)
