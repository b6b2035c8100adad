"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact (the results are classification facts); the stated wall-clock bounds
are asserted as hard limits.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import naive_preperiodic
from quadorbits.dynamics import MapSet, QuadMap, apply_word, is_preperiodic, \
    monoid_orbit
from quadorbits.families import catalog, family_by_id, family_instance, \
    family_verify_symbolic, sporadic_pairs
from quadorbits.groebner import Budget
from quadorbits.polynomials import UniPoly
from quadorbits.rationals import rat
from quadorbits.ratfunc import RatFunc
from quadorbits.roots import rational_roots
from quadorbits.search import SearchSpec, search
from quadorbits.verifier import poonen_criterion, verify_lemma
from quadorbits.verifier.lemmas import groebner_route, lemma_setup
from quadorbits.verifier.theorem import corollary_integral_check, \
    four_map_exclusion


def F(s):
    return rat(s)


def _set(*xs):
    return {rat(x) for x in xs}


def test_criterion_1_theorem_orbits():
    t0 = time.time()
    res1 = monoid_orbit(MapSet([F("-5/16"), F("-13/16"), F("-21/16")]),
                        F("1/4"))
    assert res1.is_finite()
    assert set(res1.orbit) == _set("1/4", "-1/4", "3/4", "-3/4", "5/4",
                                   "-5/4")
    e1 = time.time() - t0
    assert e1 < 1.0
    t0 = time.time()
    res2 = monoid_orbit(MapSet([F("3/16"), F("-5/16"), F("-13/16")]),
                        F("1/4"))
    assert res2.is_finite()
    assert set(res2.orbit) == _set("1/4", "-1/4", "3/4", "-3/4")
    e2 = time.time() - t0
    assert e2 < 1.0
    print(f"\n[criterion 1] PASS: exceptional-triple orbits exact "
          f"({e1:.3f}s, {e2:.3f}s)")


def test_criterion_2_four_map_exclusion():
    t0 = time.time()
    out = four_map_exclusion()
    assert out["holds"]
    for entry in out["basepoints"]:
        assert entry["verdict"] == "infinite"
        assert entry["criterion_f1"] is False
        assert entry["witness_word"] == "4124"
    # re-verify one witness by hand
    S = MapSet([F("3/16"), F("-5/16"), F("-13/16"), F("-21/16")])
    Q = apply_word(S, (3, 0, 1, 3), F("1/4"))
    assert not poonen_criterion(S[0], Q)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"[criterion 2] PASS: four-map set infinite for all basepoints, "
          f"witness word 4124 fails the iterate criterion ({elapsed:.3f}s)")


def test_criterion_3_sporadic_catalog():
    checked = 0
    for sp in sporadic_pairs():
        t0 = time.time()
        S = sp.map_set()
        results = [monoid_orbit(S, P) for P in sp.basepoints]
        assert any(r.is_finite() for r in results), sp.id
        assert all(r.is_finite() for r in results), sp.id
        elapsed = time.time() - t0
        assert elapsed < 1.0
        checked += 1
    res = monoid_orbit(MapSet([F("-21/16"), F("-29/16")]), F("-1/4"))
    assert set(res.orbit) == _set("1/4", "-1/4", "5/4", "-5/4", "7/4",
                                  "-7/4")
    print(f"[criterion 3] PASS: all {checked} sporadic pairs verify; "
          f"(-21/16, -29/16) orbit is {{±1/4, ±5/4, ±7/4}}")


def test_criterion_4_family_identities():
    t0 = time.time()
    rng = random.Random(2024)
    fams, _ = catalog()
    assert [f.id for f in fams] == ["F-11a", "F-11b", "F-12a", "F-12b",
                                    "F-22a"]
    for fam in fams:
        assert family_verify_symbolic(fam), fam.id
        excluded = fam.excluded_values()
        done = 0
        while done < 20:
            t_val = Fraction(rng.randint(-60, 60), rng.randint(1, 16))
            if t_val in excluded:
                continue
            S, P = family_instance(fam, t_val)
            assert monoid_orbit(S, P).is_finite(), (fam.id, t_val)
            done += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"[criterion 4] PASS: 5 exact family identities + 20 random "
          f"specializations each confirm finite ({elapsed:.1f}s)")


def test_criterion_5_lemma_21_elimination():
    t0 = time.time()
    rep = verify_lemma("2.1")
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    # structural factors were divided out of the generators
    divided = set()
    for divs in rep.structural_divisions.values():
        divided |= set(divs)
    assert divided == {"y - z", "y + z", "y - z + 2", "y + z + 2",
                       "y^2 - z^2 + 4", "y^2 + 4*y - z^2 + 8"}
    assert rep.candidates == ["-2", "-3/2", "-1", "1", "3/2", "2"]
    assert sorted(rep.sporadic_found) == ["(-21/16, -5/16)",
                                          "(3/16, -5/16)"]
    assert rep.verdict == "pass"
    print(f"[criterion 5] PASS: lemma 2.1 candidate z-set is exactly "
          f"{{±1, ±2, ±3/2}}; sporadic pairs match ({elapsed:.1f}s)")


def test_criterion_6_lemmas_22_to_26():
    expectations = {
        "2.2": (["-1/2", "0", "1/2"], None,
                ["(-21/16, -13/16)", "(-5/16, -13/16)"]),
        "2.3": (["-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2"],
                None,
                ["(-13/16, -21/16)", "(-21/16, -13/16)", "(-3/4, -7/4)",
                 "(-37/16, -21/16)", "(-7/4, -3/4)"]),
        "2.4": (["-1", "0"], None, []),
        "2.5": (["-2", "-1/2", "1"], ["-5/2", "-3/2", "3/2", "5/2"],
                ["(-21/16, -29/16)"]),
        "2.6": (["-2", "-1/2", "1"],
                ["-5/2", "-3/2", "-1/2", "1/2", "3/2", "5/2"],
                ["(-21/16, -29/16)"]),
    }
    t0 = time.time()
    for lid, (cands, partners, sporadic) in expectations.items():
        rep = verify_lemma(lid)
        assert rep.candidates == cands, (lid, rep.candidates)
        if partners is not None:
            all_partners = sorted({rat(y) for ys in
                                   rep.partner_values.values() for y in ys})
            assert [str(p) for p in all_partners] == \
                [str(rat(p)) for p in partners], lid
        assert sorted(rep.sporadic_found) == sporadic, lid
        assert rep.verdict == "pass", (lid, rep.flags)
    elapsed = time.time() - t0
    assert elapsed < 7200.0
    print(f"[criterion 6] PASS: lemmas 2.2-2.6 candidate lists and "
          f"conclusions match the statements ({elapsed:.1f}s)")


def test_criterion_7_groebner_route_stretch():
    """Stretch criterion: Buchberger is attempted under an explicit budget.
    Completion must reproduce the expected eliminant degree; exhaustion is
    an acceptable, flagged outcome (the resultant route stays mandatory)."""
    t0 = time.time()
    outcomes = {}
    for lid in ("2.1", "2.2", "2.3", "2.4", "2.5", "2.6"):
        setup = lemma_setup(lid)
        out = groebner_route(setup, Budget(max_pairs=120,
                                           max_coeff_bits=60_000))
        assert out.status in ("completed", "budget-exhausted")
        if out.status == "completed":
            assert out.eliminant_degree == setup.groebner_expected_degree
            assert out.membership_holds
        else:
            assert out.pairs_done > 0  # the attempt genuinely ran
        outcomes[lid] = out.status
    elapsed = time.time() - t0
    flagged = [lid for lid, s in outcomes.items() if s != "completed"]
    print(f"[criterion 7] PASS (stretch): groebner route attempted for all "
          f"six lemmas; outcomes {outcomes}; budget exhaustion on "
          f"{flagged} is the flagged, documented desk-scale outcome "
          f"({elapsed:.1f}s)")


def test_criterion_8_elliptic_checks():
    from quadorbits.elliptic import SUBCASE_CURVE_E, c_rational_points, \
        ec_add, ec_order, lutz_nagell_candidates, point, preimage_check, \
        verify_curve_map, INFINITY

    t0 = time.time()
    E = SUBCASE_CURVE_E
    assert ec_order(E, point(0, 1)) == 6
    pts = [INFINITY, point(1, 0), point(0, 1), point(0, -1), point(2, 1),
           point(2, -1)]
    for P in pts:
        for Q in pts:
            assert ec_add(E, P, Q) in pts
    assert lutz_nagell_candidates(E) == set(pts[1:])
    assert verify_curve_map()
    assert preimage_check()
    assert c_rational_points() == {
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)),
        (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(-1))}
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"[criterion 8] PASS: order 6, closure, Lutz-Nagell, curve map, "
          f"preimage and C(Q) checks all exact ({elapsed:.1f}s)")


def test_criterion_9_brute_force_rediscovery():
    t0 = time.time()
    res3 = search(SearchSpec(3, 16, 40))
    keys = [tuple(map(str, t.cs)) for t in res3]
    assert keys == [("-21/16", "-13/16", "-5/16"),
                    ("-13/16", "-5/16", "3/16")]
    res4 = search(SearchSpec(4, 16, 40))
    assert res4 == []
    res2 = search(SearchSpec(2, 1, 5))
    entries = {tuple(map(str, t.cs)): t for t in res2}
    assert ("-3", "-2") in entries
    assert rat("2") in entries[("-3", "-2")].basepoints
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"[criterion 9] PASS: grid search rediscovers exactly the two "
          f"triples, no quadruples, and the integral sharpness pair "
          f"({elapsed:.1f}s)")


def test_criterion_10_property_suites():
    t0 = time.time()
    # (a) preperiodicity decision vs the naive 200-step oracle on a grid
    conclusive = 0
    for b, amax in ((1, 12), (2, 24), (4, 48)):
        for a in range(-amax, amax + 1):
            c = Fraction(a, b)
            for q, pmax in ((1, 3), (2, 6), (4, 12)):
                for p in range(-pmax, pmax + 1):
                    x = Fraction(p, q)
                    verdict = naive_preperiodic(c, x)
                    if verdict is None:
                        continue
                    conclusive += 1
                    assert is_preperiodic(QuadMap(c), x).preperiodic == \
                        verdict, (c, x)
    # (b) root-finder completeness on 1000 randomized planted-root inputs
    rng = random.Random(77)
    rootless = UniPoly.parse("x^4 + x + 7")
    assert rational_roots(rootless).roots == {}
    for _ in range(1000):
        planted = {Fraction(rng.randint(-60, 60), rng.randint(1, 60))
                   for _ in range(rng.randint(1, 4))}
        poly = rootless
        for r in planted:
            poly = poly * UniPoly([-r.numerator, r.denominator], "x")
        assert rational_roots(poly).root_set() == planted
    # (c) field/ring axiom fuzzing on Rat, UniPoly, RatFunc
    for _ in range(300):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        c = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1
    for _ in range(120):
        fp = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))],
                     "x")
        gp = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))],
                     "x")
        hp = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))],
                     "x")
        assert (fp + gp) * hp == fp * hp + gp * hp
        assert fp * gp == gp * fp
    t_var = RatFunc.t()
    for _ in range(60):
        num = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))],
                      "t")
        den = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))],
                      "t")
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        g = f * t_var + 1
        assert g - 1 == f * t_var
        if not f.is_zero():
            assert f / f == 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"[criterion 10] PASS: oracle agreement on {conclusive} "
          f"conclusive grid points, 1000 planted-root recoveries, axiom "
          f"fuzzing ({elapsed:.1f}s)")
