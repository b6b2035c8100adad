import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import dynatomic_mu_set, dynatomic_periodic_points, \
    fraction_is_preperiodic, fraction_monoid_orbit, guard_violation, \
    iterate, naive_preperiodic, per_point_finite_orbit_points, \
    word_order_orbit
from quadorbits import dynamics
from quadorbits.dynamics import GUARD_DENOM, GUARD_ESCAPE, MapSet, MuReport, \
    QuadMap, OrbitResult, apply_word, finite_orbit_points, is_preperiodic, \
    is_stable_set, monoid_orbit, mu_set, periodic_points, word_str
from quadorbits.rationals import rat, rat_str


def F(s):
    return Fraction(s) if isinstance(s, int) else rat(s)


class TestPreperiodic:
    def test_tail_and_cycle(self):
        rep = is_preperiodic(QuadMap(F("-13/16")), F("1/4"))
        assert rep.preperiodic
        assert rep.tail_length == 1 and rep.cycle_length == 2
        assert set(rep.cycle) == {F("-3/4"), F("-1/4")}

    def test_escape(self):
        rep = is_preperiodic(QuadMap(F(1)), F(0))
        assert not rep.preperiodic
        assert rep.guard.reason == GUARD_ESCAPE and rep.guard.point == 5

    def test_three_cycle(self):
        rep = is_preperiodic(QuadMap(F("-29/16")), F("-1/4"))
        assert rep.preperiodic and rep.tail_length == 0
        assert set(rep.cycle) == {F("-1/4"), F("-7/4"), F("5/4")}

    def test_denominator_guard(self):
        rep = is_preperiodic(QuadMap(F("1/3")), F("1/2"))
        assert not rep.preperiodic
        assert rep.guard.reason == GUARD_DENOM

    def test_guard_g1_monotone_growth(self):
        f = QuadMap(F("-2"))
        x = F("7/2")  # |x| > |c| + 1
        assert guard_violation(f, x) == GUARD_ESCAPE
        prev = abs(x)
        for _ in range(10):
            x = f(x)
            assert abs(x) > prev
            prev = abs(x)

    def test_guard_g2_denominator_growth(self):
        f = QuadMap(F("1/4"))
        x = F("1/3")  # 9 does not divide 4
        assert guard_violation(f, x) == GUARD_DENOM
        prev = x.denominator
        for _ in range(8):
            x = f(x)
            assert x.denominator > prev
            prev = x.denominator

    def test_agreement_with_naive_oracle(self):
        for cn in range(-16, 17):
            for xn in range(-10, 11):
                c, x = Fraction(cn, 8), Fraction(xn, 4)
                verdict = naive_preperiodic(c, x)
                if verdict is not None:
                    assert is_preperiodic(QuadMap(c), x).preperiodic == verdict


class TestPeriodicPoints:
    def test_examples(self):
        assert periodic_points(QuadMap(F("-5/16")), 1) == \
            {F("5/4"), F("-1/4")}
        assert periodic_points(QuadMap(F("-29/16")), 3) == \
            {F("-1/4"), F("-7/4"), F("5/4")}
        assert periodic_points(QuadMap(F(0)), 3) == set()
        assert periodic_points(QuadMap(F("-29/16")), 4) == set()
        with pytest.raises(ValueError):
            periodic_points(QuadMap(F(0)), 0)

    def test_exactness_of_period(self):
        # c = -3/4: the period-2 discriminant vanishes; the double root is
        # a fixed point, so there is no exact 2-cycle
        assert periodic_points(QuadMap(F("-3/4")), 2) == set()
        assert periodic_points(QuadMap(F("-3/4")), 1) == \
            {F("3/2"), F("-1/2")}

    def test_period_two(self):
        assert periodic_points(QuadMap(F("-13/16")), 2) == \
            {F("-3/4"), F("-1/4")}

    def test_outputs_have_exact_period(self):
        for c in ("-21/16", "-29/16", "-7/4"):
            f = QuadMap(F(c))
            for n in (1, 2, 3):
                for x in periodic_points(f, n):
                    assert iterate(f, x, n) == x
                    for m in range(1, n):
                        assert iterate(f, x, m) != x


class TestMu:
    def test_examples(self):
        assert mu_set(MapSet([F("-5/16"), F("-13/16"), F("-21/16")])).mu == 2
        assert mu_set(MapSet([F("-29/16")])).mu == 3
        assert mu_set(MapSet([F(1)])).mu == 0

    def test_higher_period_check(self):
        rep = mu_set(MapSet([F("-29/16"), F("-13/16")]))
        assert rep.hypothesis_holds_up_to_6()
        assert rep.higher_periods == {4: False, 5: False, 6: False}
        assert rep.max_cycle_length == 3
        assert mu_set(MapSet([F("-13/16")])).max_cycle_length == 2
        assert mu_set(MapSet([F(1)])).max_cycle_length == 0


# the standard parametrisations of single maps with a rational fixed point,
# 2-cycle and 3-cycle (Walde-Russo for the last)
def c_fixed(y):  # fixes (1 + y)/2 and (1 - y)/2
    return (1 - y * y) / 4


def c_two(z):  # 2-cycle {(-1 + z)/2, (-1 - z)/2}
    return -(3 + z * z) / 4


def c_three(t):  # 3-cycle through x_three(t)
    return -(t**6 + 2 * t**5 + 4 * t**4 + 8 * t**3 + 9 * t**2 + 4 * t + 1) \
        / (4 * t**2 * (t + 1) ** 2)


def x_three(t):
    return (t**3 + 2 * t**2 + t + 1) / (2 * t * (t + 1))


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def planted_cs(draw):
    """c with a planted fixed point, 2-cycle or 3-cycle, or a random c."""
    kind = draw(st.sampled_from(("fixed", "two", "three", "random")))
    p = draw(small_rationals)
    if kind == "fixed":
        return c_fixed(p)
    if kind == "two":
        return c_two(p)
    if kind == "three":
        if p in (0, -1):
            p = Fraction(2)
        return c_three(p)
    return draw(st.builds(Fraction, st.integers(-80, 20), st.integers(1, 16)))


class TestPeriodsAgainstDynatomicOracle:
    @settings(max_examples=80, deadline=None)
    @given(planted_cs())
    def test_periodic_points(self, c):
        f = QuadMap(c)
        for n in (1, 2, 3):
            assert periodic_points(f, n) == dynatomic_periodic_points(f, n)

    @settings(max_examples=12, deadline=None)
    @given(st.lists(planted_cs(), min_size=1, max_size=2, unique=True))
    def test_mu_report(self, cs):
        S = MapSet(cs)
        assert mu_set(S) == dynatomic_mu_set(S)

    @pytest.mark.parametrize("t", ["2", "-3/2", "5/4", "1000/999"])
    def test_planted_three_cycle(self, t):
        t = F(t)
        f = QuadMap(c_three(t))
        cycle = {x_three(t), f(x_three(t)), f(f(x_three(t)))}
        assert periodic_points(f, 3) == cycle
        assert mu_set(MapSet([f])) == MuReport(
            3, {3: tuple(sorted(cycle))}, {4: False, 5: False, 6: False}, 3)


class TestMonoidOrbit:
    def test_triple_one(self):
        res = monoid_orbit(MapSet([F("-5/16"), F("-13/16"), F("-21/16")]),
                           F("1/4"))
        assert res.is_finite()
        assert set(res.orbit) == {F("1/4"), F("-1/4"), F("3/4"), F("-3/4"),
                                  F("5/4"), F("-5/4")}

    def test_triple_two(self):
        res = monoid_orbit(MapSet([F("3/16"), F("-5/16"), F("-13/16")]),
                           F("1/4"))
        assert res.is_finite()
        assert set(res.orbit) == {F("1/4"), F("-1/4"), F("3/4"), F("-3/4")}

    def test_infinite_with_witness(self):
        res = monoid_orbit(MapSet([F(-1), F(-2)]), F(0))
        assert not res.is_finite()
        assert res.witness.point == 3
        assert res.witness.reason == GUARD_ESCAPE

    def test_lemma_pair(self):
        res = monoid_orbit(MapSet([F("-21/16"), F("-29/16")]), F("-1/4"))
        assert res.is_finite()
        assert set(res.orbit) == {F("1/4"), F("-1/4"), F("5/4"), F("-5/4"),
                                  F("7/4"), F("-7/4")}

    def test_finite_verdicts_are_certified(self):
        S = MapSet([F("-5/16"), F("-13/16"), F("-21/16")])
        res = monoid_orbit(S, F("1/4"))
        assert is_stable_set(S, res.orbit)
        assert F("1/4") in res.orbit
        # words regenerate their points
        for point, word in res.words.items():
            assert apply_word(S, word, F("1/4")) == point

    def test_infinite_verdicts_are_certified(self):
        S = MapSet([F(-1), F(-2)])
        res = monoid_orbit(S, F(0))
        g = res.witness
        assert guard_violation(S[g.map_index], g.point) == g.reason
        x, f = g.point, S[g.map_index]
        prev = abs(x)
        for _ in range(10):
            x = f(x)
            assert abs(x) > prev
            prev = abs(x)

    def test_singleton_agrees_with_is_preperiodic(self):
        for c in ("-13/16", "1", "-2", "1/4"):
            for x in ("0", "1/2", "-1/4", "1"):
                single = monoid_orbit(MapSet([F(c)]), F(x))
                rep = is_preperiodic(QuadMap(F(c)), F(x))
                assert single.is_finite() == rep.preperiodic

    def test_deterministic_words(self):
        S = MapSet([F("-5/16"), F("-13/16"), F("-21/16")])
        r1 = monoid_orbit(S, F("1/4"))
        r2 = monoid_orbit(S, F("1/4"))
        assert r1.words == r2.words
        assert word_str(r1.words[F("-5/4")])  # nonempty word exists


class TestStableSet:
    def test_examples(self):
        assert is_stable_set(MapSet([F(0), F(-1)]), [F(-1), F(0), F(1)])
        assert is_stable_set(MapSet([F(1)]), [])
        assert not is_stable_set(MapSet([F(1)]), [F(0)])


SQUARE_RICH_DENOMINATORS = (1, 4, 9, 16, 36, 64, 144, 256, 900, 3600)


@st.composite
def square_rich_map_sets(draw):
    """1 to 3 maps with a common square-rich denominator D and numerators
    in [-3D, D], so that the admissible grid is wide and often nonempty."""
    D = draw(st.sampled_from(SQUARE_RICH_DENOMINATORS))
    s = draw(st.integers(1, 3))
    ks = draw(st.lists(st.integers(-3 * D, D), min_size=s, max_size=s,
                       unique=True))
    return MapSet([Fraction(k, D) for k in ks])


@st.composite
def mixed_denominator_map_sets(draw):
    """1 to 3 maps whose denominators are mixed squares, non-squares, or
    one square L^2 shared by all (numerators coprime to L)."""
    kind = draw(st.sampled_from(("mixed", "non-square", "equal-square")))
    s = draw(st.integers(1, 3))
    if kind == "equal-square":
        L = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12, 15, 24, 60)))
        nums = st.integers(-3 * L * L, L * L).filter(
            lambda a: math.gcd(a, L) == 1)
        ks = draw(st.lists(nums, min_size=s, max_size=s, unique=True))
        return MapSet([Fraction(a, L * L) for a in ks])
    dens = (1, 4, 9, 16, 36, 64, 144) if kind == "mixed" \
        else (2, 3, 8, 12, 18, 32, 50, 72, 288)
    cs = draw(st.lists(
        st.sampled_from(dens).flatmap(
            lambda D: st.builds(Fraction, st.integers(-3 * D, D),
                                st.just(D))),
        min_size=s, max_size=s, unique=True))
    return MapSet(cs)


class TestMonoidOrbitWords:
    @settings(max_examples=300, deadline=None)
    @given(square_rich_map_sets(),
           st.builds(Fraction, st.integers(-30, 30),
                     st.sampled_from((1, 2, 3, 4, 6))))
    @example(MapSet([F("-5/16"), F("-13/16"), F("-21/16")]), F("1/4"))
    @example(MapSet([F("3/16"), F("-5/16"), F("-13/16")]), F("-3/4"))
    @example(MapSet([F("-21/16"), F("-29/16")]), F("-1/4"))
    @example(MapSet([F(-2), F(-3)]), F(2))
    @example(MapSet([F(-1), F(-2)]), F(0))
    def test_words_are_first_in_word_order(self, S, P):
        """Each point's word, or the witness word, is the first in order of
        length and then lexicographic order."""
        res = monoid_orbit(S, P)
        words, witness_word = word_order_orbit(S, P)
        if res.is_finite():
            assert (res.words, None) == (words, witness_word)
        else:
            assert (None, res.witness_word) == (words, witness_word)


HEIGHTS = (16, 10**6, 10**30)


@st.composite
def walk_inputs(draw):
    """(S, P) for the walks: 1 to 4 distinct maps of height up to 16, 10^6
    or 10^30 whose denominators are one shared square, unshared squares or
    non-squares, and a point on the first map's grid n/L (L^2 its
    denominator, 1 if that is no square) or off it, near the escape radius
    or anywhere up to the height.  A planted set is a paper family (F-11a or
    F-12a) at a parameter of that height, with its finite-orbit basepoint
    and up to two more maps of its denominator, so that the closure runs
    deep before it stops or hits a guard."""
    top = draw(st.sampled_from(HEIGHTS))
    kind = draw(st.sampled_from(("planted", "shared", "unshared",
                                 "non-square")))
    s = draw(st.integers(1, 4))
    roots = st.integers(1, math.isqrt(top))
    if kind == "planted":
        half = st.integers(1, max(1, math.isqrt(top) // 2))
        y = Fraction(draw(half) * draw(st.sampled_from((-1, 1))), draw(half))
        second = c_two(y) if draw(st.booleans()) else (-y * y - 4 * y - 3) / 4
        cs = [c_fixed(y), second]
        D = cs[0].denominator
        cs += [Fraction(draw(st.integers(-3 * D, D)), D)
               for _ in range(s - 2)]
        cs = list(dict.fromkeys(cs))
        return MapSet(cs), (1 + y) / 2 * draw(st.sampled_from((-1, 1)))
    if kind == "shared":
        dens = [draw(roots) ** 2] * s
    elif kind == "unshared":
        dens = [draw(roots) ** 2 for _ in range(s)]
    else:
        dens = [draw(st.integers(2, top)) for _ in range(s)]
    cs = list(dict.fromkeys(
        Fraction(draw(st.integers(-min(3 * D, top), min(D, top))), D)
        for D in dens))
    L = math.isqrt(dens[0])
    if draw(st.booleans()):
        q = L if L * L == dens[0] else 1
    else:
        q = draw(st.integers(1, top))
    if draw(st.booleans()):
        bound = (math.floor(abs(cs[0])) + 2) * q
        n = draw(st.integers(-bound, bound))
    else:
        n = draw(st.integers(-top, top))
    return MapSet(cs), Fraction(n, q)


TRIPLE = MapSet([F("-21/16"), F("-13/16"), F("-5/16")])


class TestWalksMatchFractionWalks:
    """The walks on integer pairs return exactly the reports of the same
    walks on ``Fraction``s (``oracles.fraction_monoid_orbit`` and
    ``oracles.fraction_is_preperiodic``)."""

    @settings(max_examples=400, deadline=None)
    @given(walk_inputs())
    @example((TRIPLE, F("1/4")))
    @example((TRIPLE, F("7/4")))
    @example((MapSet([F("-5/16"), F("1/9")]), F("1/4")))
    @example((MapSet([F("255/65536"), F("-257/65536")]), F("1/256")))
    @example((MapSet([F(-1), F(-2)]), F(0)))
    def test_monoid_orbit(self, inputs):
        S, P = inputs
        res, ref = monoid_orbit(S, P), fraction_monoid_orbit(S, P)
        assert res == ref
        assert list(res.words.items()) == list(ref.words.items())
        if res.is_finite():
            assert list(res.to_dict()["words"]) == \
                [rat_str(p) for p in sorted(res.words)]

    @settings(max_examples=200, deadline=None)
    @given(walk_inputs())
    @example((TRIPLE, F("1/4")))
    @example((MapSet([F("-5/16"), F("1/9")]), F("1/4")))
    def test_orbit_is_the_words_in_increasing_order(self, inputs):
        res = monoid_orbit(*inputs)
        assert res.orbit == tuple(res.words)
        assert all(a < b for a, b in zip(res.orbit, res.orbit[1:]))

    @settings(max_examples=400, deadline=None)
    @given(walk_inputs())
    @example((MapSet([F("-13/16")]), F("1/4")))
    @example((MapSet([F("-29/16")]), F("-1/4")))
    @example((MapSet([F(1)]), F(0)))
    @example((MapSet([F("1/4")]), F("1/3")))
    def test_is_preperiodic(self, inputs):
        S, P = inputs
        for f in S:
            assert is_preperiodic(f, P) == fraction_is_preperiodic(f, P)


FIXED_SETS = [
    ["-5/16", "-13/16", "-21/16"],
    ["3/16", "-5/16", "-13/16"],
    ["-2", "-3"],
    ["0"], ["-1"], ["-2"], ["-3/4"], ["1/4"],
    ["0", "-1"], ["-1", "-2", "-3"], ["1", "2"],
    ["255/65536"], ["255/65536", "-257/65536"],
    ["-49153/65536", "65535/65536"],
    ["209/44100", "-211/44100"], ["-36007/44100", "41207/44100"],
]


class TestFiniteOrbitPoints:
    def test_complete_enumeration(self):
        S = MapSet([F("-5/16"), F("-13/16"), F("-21/16")])
        pts = [r.basepoint for r in finite_orbit_points(S)]
        assert pts == sorted(
            [F("1/4"), F("-1/4"), F("3/4"), F("-3/4"), F("5/4"), F("-5/4")])

    def test_empty(self):
        assert finite_orbit_points(MapSet([F(1), F(2)])) == []

    @pytest.mark.parametrize("cs", FIXED_SETS, ids=",".join)
    def test_fixed_sets_match_per_point_oracle(self, cs):
        S = MapSet([F(c) for c in cs])
        assert finite_orbit_points(S) == per_point_finite_orbit_points(S)

    def test_known_lists(self):
        def pts(cs):
            return [str(r.basepoint)
                    for r in finite_orbit_points(MapSet([F(c) for c in cs]))]

        assert pts(["3/16", "-5/16", "-13/16"]) == \
            ["-3/4", "-1/4", "1/4", "3/4"]
        assert pts(["-2", "-3"]) == ["-2", "-1", "1", "2"]
        assert pts(["0"]) == ["-1", "0", "1"]
        assert pts(["-2"]) == ["-2", "-1", "0", "1", "2"]
        assert pts(["-3/4"]) == ["-3/2", "-1/2", "1/2", "3/2"]
        # fixed points 1/256 and 255/256 of a map with denominator 2^16
        assert pts(["255/65536"]) == \
            ["-255/256", "-1/256", "1/256", "255/256"]
        # x = 1/210 is fixed by the first map and sent to -x by the second,
        # and -x goes back to x under both
        assert pts(["209/44100", "-211/44100"]) == ["-1/210", "1/210"]

    @settings(max_examples=60, deadline=None)
    @given(square_rich_map_sets())
    def test_matches_per_point_oracle(self, S):
        assert finite_orbit_points(S) == per_point_finite_orbit_points(S)

    @settings(max_examples=60, deadline=None)
    @given(mixed_denominator_map_sets())
    def test_mixed_denominators_match_per_point_oracle(self, S):
        assert finite_orbit_points(S) == per_point_finite_orbit_points(S)

    @pytest.mark.parametrize("c", [Fraction(-10**6), Fraction(3, 10**12),
                                   Fraction(-1562500), Fraction(-10**8)],
                             ids=str)
    def test_large_heights_are_empty(self, c):
        S = MapSet([c])
        assert finite_orbit_points(S) == []
        assert mu_set(S) == MuReport(0, {}, {4: False, 5: False, 6: False},
                                     0)

    def test_large_height_three_cycle_list(self):
        # L = 2 * 1000 * 1999 * 999: far beyond a grid of all n/L
        f = QuadMap(c_three(F("1000/999")))
        pts = [str(r.basepoint) for r in finite_orbit_points(MapSet([f]))]
        cycle = ["-6989005999/3994002000", "-995003999/3994002000",
                 "4993003999/3994002000"]
        assert [str(x) for x in sorted(periodic_points(f, 3))] == cycle
        assert str(x_three(F("1000/999"))) in cycle
        # the cycle and the negatives of its points, which share its images
        assert pts == ["-6989005999/3994002000", "-4993003999/3994002000",
                       "-995003999/3994002000", "995003999/3994002000",
                       "4993003999/3994002000", "6989005999/3994002000"]

    def test_residue_filter_keeps_every_square_root(self):
        moduli = list(range(1, 200)) + [2**10, 3**6, 5**4, 7**3 * 4,
                                         2**6 * 3**3 * 5]
        for L in moduli:
            for a in range(-20, 21):
                if math.gcd(a, L) == 1:
                    expected = [r for r in range(L) if (r * r - a) % L == 0]
                    assert dynamics._square_roots_mod(a, L) == expected, \
                        (a, L)

    @pytest.mark.parametrize("cs", FIXED_SETS, ids=",".join)
    def test_union_of_orbits_is_stable(self, cs):
        S = MapSet([F(c) for c in cs])
        results = finite_orbit_points(S)
        union = {p for r in results for p in r.orbit}
        assert is_stable_set(S, union)
        # every orbit point is itself a basepoint of the list
        assert union == {r.basepoint for r in results}

    def test_bfs_runs_once_per_result(self, monkeypatch):
        calls = []

        def counting(S, P):
            calls.append(P)
            return monoid_orbit(S, P)

        monkeypatch.setattr(dynamics, "monoid_orbit", counting)
        for cs in FIXED_SETS:
            calls.clear()
            res = finite_orbit_points(MapSet([F(c) for c in cs]))
            assert calls == [r.basepoint for r in res]

    def test_grid_denominator(self):
        # the factoriser of the grid denominator L, against brute force
        for L in range(1, 2000):
            factors = dynamics._factor(L)
            assert math.prod(p**e for p, e in factors.items()) == L, L
            assert all(e >= 1 and all(p % d for d in range(2, p))
                       for p, e in factors.items()), L

    def test_infinite_survivor_raises(self, monkeypatch):
        monkeypatch.setattr(
            dynamics, "monoid_orbit",
            lambda S, P: OrbitResult("infinite", P))
        with pytest.raises(ArithmeticError):
            finite_orbit_points(MapSet([F(0)]))


class TestMapSet:
    def test_distinctness(self):
        with pytest.raises(ValueError):
            MapSet([F(1), F(1)])
        with pytest.raises(ValueError):
            MapSet([])

    def test_only_ints_and_fractions_are_accepted(self):
        assert MapSet([-1, F("1/2")]).cs() == (F(-1), F("1/2"))
        for bad in (0.1, 0.5, "0.5", "-1"):
            with pytest.raises(TypeError):
                MapSet([bad])
            with pytest.raises(TypeError):
                QuadMap(bad)
            with pytest.raises(TypeError):
                monoid_orbit(MapSet([-1]), bad)
            with pytest.raises(TypeError):
                is_preperiodic(QuadMap(-1), bad)
            with pytest.raises(TypeError):
                is_stable_set(MapSet([-1]), [bad])
