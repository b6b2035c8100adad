import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_preperiodic, per_point_finite_orbit_points
from quadorbits import dynamics
from quadorbits.dynamics import GUARD_DENOM, GUARD_ESCAPE, MapSet, QuadMap, \
    OrbitResult, apply_word, finite_orbit_points, guard_violation, \
    is_preperiodic, is_stable_set, monoid_orbit, mu_set, periodic_points, \
    word_str
from quadorbits.rationals import rat


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
                    assert f.iterate(x, n) == x
                    for m in range(1, n):
                        assert f.iterate(x, m) != x


class TestMu:
    def test_examples(self):
        assert mu_set(MapSet([F("-5/16"), F("-13/16"), F("-21/16")])).mu == 2
        assert mu_set(MapSet([F("-29/16")])).mu == 3
        assert mu_set(MapSet([F(1)])).mu == 0

    def test_higher_period_check(self):
        rep = mu_set(MapSet([F("-29/16"), F("-13/16")]))
        assert rep.hypothesis_holds_up_to_6()
        assert rep.higher_periods == {4: False, 5: False, 6: False}


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
        for G in range(1, 2000):
            L = max(d for d in range(1, math.isqrt(G) + 1)
                    if G % (d * d) == 0)
            assert dynamics._square_root_of_square_part(G) == L, G

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
