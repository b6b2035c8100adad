import itertools
import math
import re
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import all_pairs_candidates, expanded_divides, \
    squarefree_part, subres_resultant, whole_relation_factors
from quadorbits import families
from quadorbits.dynamics import MapSet, QuadMap, apply_word, \
    finite_orbit_points
from quadorbits.families import ParamTuple, lemma_statement
from quadorbits.groebner import Budget
from quadorbits.polynomials import BiPoly, UniPoly, bivariate_gcd, \
    localized_resultant
from quadorbits.ratfunc import RatFunc
from quadorbits.rationals import rat, rat_str
from quadorbits.verifier import POONEN_AXIOMS, poonen_criterion, \
    verify_lemma, verify_theorem_case
from quadorbits.verifier import cases, elimination, symbolic
from quadorbits.verifier.cases import _verify_factorization
from quadorbits.verifier.elimination import GeneratorFactors, \
    eliminate_candidates
from quadorbits.verifier.lemmas import LEMMA_IDS, LemmaSetup, \
    _divides_product, groebner_route, lemma_setup
from quadorbits.verifier.reports import fmt_pair
from quadorbits.verifier.symbolic import dispose_at, dispose_tuple, \
    exclude_by_relation, three_cycle_parametrization


class TestAxioms:
    def test_named_axioms_carry_citations(self):
        assert set(POONEN_AXIOMS) == \
            {"periods-at-most-3", "tail-two", "three-cycle-funnel"}
        for ax in POONEN_AXIOMS.values():
            assert "Poonen" in ax.citation

    def test_poonen_criterion_examples(self):
        assert poonen_criterion(QuadMap(rat("-13/16")), rat("1/4"))
        assert poonen_criterion(QuadMap(rat("-5/16")), rat("5/4"))
        # merged four-map witness
        S = MapSet([rat("3/16"), rat("-5/16"), rat("-13/16"),
                    rat("-21/16")])
        Q = apply_word(S, (3, 0, 1, 3), rat("1/4"))
        assert not poonen_criterion(S[0], Q)

    def test_poonen_criterion_takes_only_exact_points(self):
        for bad in (0.1, "1/2"):
            with pytest.raises(TypeError):
                poonen_criterion(QuadMap(-1), bad)


class TestThreeCycleParametrization:
    def test_canonical_value(self):
        c, p1, p2, p3 = three_cycle_parametrization()
        assert c.specialize(1) == rat("-29/16")
        assert {p1.specialize(1), p2.specialize(1), p3.specialize(1)} == \
            {rat("-1/4"), rat("5/4"), rat("-7/4")}

    def test_cycle_relations_symbolically(self):
        c, p1, p2, p3 = three_cycle_parametrization()
        f = lambda x: x * x + c
        assert f(p1) == p3 and f(p3) == p2 and f(p2) == p1


def _f(c: Fraction, x: Fraction) -> Fraction:
    return x * x + c


_q = st.fractions(min_value=-6, max_value=6, max_denominator=12)


class TestGeneratorPieces:
    """``lemma_setup`` builds each generator as a product of exact pieces;
    ``oracles.whole_relation_factors`` builds it from the whole relations
    of the iterates.  The identities behind the pieces are checked on
    rational points with plain ``Fraction`` steps of x -> x^2 + c, writing
    z = f(x) and u = f(z)."""

    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_pieces_multiply_to_the_whole_relations(self, lemma_id):
        setup = lemma_setup(lemma_id)
        whole = whole_relation_factors(lemma_id)
        assert [g.name for g in whole] == [g.name for g in setup.gens]
        for old, new in zip(whole, setup.gens):
            assert len(new.factors) > len(old.factors)
            assert math.prod(new.factors).content_primitive()[1] == \
                math.prod(old.factors).content_primitive()[1]

    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_structural_pieces_leave_no_constant_factor(self, lemma_id):
        setup = lemma_setup(lemma_id)
        out = eliminate_candidates(setup.gens, setup.structural,
                                   setup.poles)
        for gen in out.reduced:
            assert gen.factors
            assert all(f.total_degree() > 0 for f in gen.factors)
        # in 2.1-2.3 some pieces are the declared curves themselves
        dropped = sum(len(g.factors) - len(r.factors)
                      for g, r in zip(setup.gens, out.reduced))
        assert (dropped > 0) == (lemma_id <= "2.3")

    @given(_q, _q)
    def test_fixed_point(self, alpha, x):
        c = alpha - alpha * alpha
        z = _f(c, x)
        assert _f(c, z) - alpha == (x - alpha) * (x + alpha) * (z + alpha)

    @given(_q, _q)
    def test_two_cycle(self, b1, x):
        b2 = -1 - b1
        c = b1 - b2 * b2
        assert _f(c, b1) == b2 and _f(c, b2) == b1
        z = _f(c, x)
        assert _f(c, z) - b1 == (x - b1) * (x + b1) * (z + b2)

    @given(_q, _q)
    def test_points_of_period_two_or_less(self, c, x):
        z = _f(c, x)
        u = _f(c, z)
        assert _f(c, u) + u + 1 == \
            (z * z - z + c + 1) * (z * z + z + c + 1)
        assert z * z + z + c + 1 == (x * x - x + c + 1) * (x * x + x + c + 1)
        assert _f(c, u) - u == \
            (x * x - x + c) * (x * x + x + c) * (z * z + z + c)

    @given(_q.filter(lambda t: t not in (0, -1)), _q)
    def test_three_cycle(self, t, x):
        c, *cycle = (f.specialize(t) for f in three_cycle_parametrization())
        assert {_f(c, p) for p in cycle} == set(cycle)
        for p in cycle:
            assert _f(c, x) - _f(c, p) == (x - p) * (x + p)


class TestLemma24Fast:
    def test_full_verification(self, lemma_report):
        rep = lemma_report("2.4")
        assert rep.verdict == "pass"
        assert rep.candidates == ["-1", "0"]
        assert rep.sporadic_found == []
        assert all(b.verified for b in rep.curve_branches)
        assert {b.kind for b in rep.curve_branches} == {"collision"}

    def test_report_serializes(self, lemma_report):
        rep = lemma_report("2.4")
        d = rep.to_dict()
        assert d["lemma"] == "2.4" and d["verdict"] == "pass"
        assert d["structural_divisions"]

    def test_seconds_survive_a_backward_wall_clock(self, monkeypatch):
        # the wall clock may be stepped back mid-run; the timing must not be
        ticks = iter(range(10**6, 0, -1000))
        monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
        assert verify_lemma("2.4").seconds >= 0


class TestGroebnerRoute:
    def test_budget_exhaustion_is_flagged_outcome(self):
        setup = lemma_setup("2.1")
        out = groebner_route(setup, Budget(max_pairs=10,
                                           max_coeff_bits=10_000))
        assert out.status == "budget-exhausted"
        assert out.pairs_done > 0

    def test_route_downgrade_note(self):
        rep = verify_lemma("2.4", Budget(max_pairs=5))
        # resultant fallback still verifies the lemma
        assert rep.route == "groebner"
        assert rep.candidates == ["-1", "0"]
        assert rep.groebner is not None
        assert rep.groebner.status == "budget-exhausted"
        assert any("falling back" in f for f in rep.flags)

    def test_no_budget_runs_the_resultant_route_only(self, lemma_report):
        rep = lemma_report("2.4")
        assert rep.route == "resultant" and rep.groebner is None

    @staticmethod
    def small_setup(f1, f2):
        """Lemma 2.1's setup with two small generators sharing its
        structural curve y - z."""
        V = ("y", "z")
        fields = dict(zip(LemmaSetup.__slots__, lemma_setup("2.1")._values()))
        del fields["structural"]  # derived from the branches
        fields["gens"] = [GeneratorFactors(name, tuple(BiPoly.parse(f, V)
                                                       for f in ("y - z", g)))
                          for name, g in (("F1", f1), ("F2", f2))]
        return LemmaSetup(**fields)

    def test_completed_route_finds_the_eliminant(self):
        out = groebner_route(self.small_setup("y^2 - z - 2", "y + 2*z - 3"),
                             Budget(max_pairs=120, max_coeff_bits=60_000))
        assert (out.status, out.eliminant_degree, out.membership_holds) == \
            ("completed", 2, True)
        # a completed run measures no pair count or coefficient size
        assert out.pairs_done is None and out.max_coeff_bits is None
        assert "pairs_done" not in out.to_dict()
        assert "max_coeff_bits" not in out.to_dict()

    def test_completed_route_without_eliminant(self):
        # the ideal is generated by (y - z) * y: after y - z is divided
        # out, no basis element is a polynomial in z alone
        out = groebner_route(self.small_setup("y", "y^2"), Budget())
        assert out.status == "completed" and out.eliminant_degree is None
        assert out.note == "no candidate-variable eliminant found in the basis"


class TestCaseMachinery:
    def test_case_3_and_friends_are_deductions(self):
        for n in (3, 5, 6, 8, 9, 10):
            reports = verify_theorem_case(n)
            assert len(reports) == 1
            assert reports[0].verdict == "pass"
            assert not reports[0].surviving_tuples

    def test_case_1_no_survivors(self):
        reports = verify_theorem_case(1)
        assert len(reports) == 9
        for rep in reports:
            assert rep.verdict == "pass", (rep.subcase, rep.flags)
            assert not rep.surviving_tuples

    def test_case_7_no_survivors(self):
        reports = verify_theorem_case(7)
        assert len(reports) == 4
        for rep in reports:
            assert rep.verdict == "pass", (rep.subcase, rep.flags)
            assert not rep.surviving_tuples

    def test_exclusion_witnesses_reverify(self):
        for n in range(1, 11):
            for rep in verify_theorem_case(n):
                for w in rep.exclusion_witnesses:
                    if "point" not in w:
                        continue
                    cs = [rat(c) for c in w["tuple"]]
                    S = MapSet(cs)
                    Q = rat(w["point"])
                    assert w["poonen_criterion"] is False
                    assert not poonen_criterion(S[w["map"] - 1], Q)
                    # the word regenerates the witness point
                    word = tuple(int(ch) - 1 for ch in w["word"])
                    assert apply_word(S, word, rat(w["basepoint"])) == Q

    def test_survivors_match_a_fresh_enumeration(self):
        survivors = [t for n in (2, 4) for rep in verify_theorem_case(n)
                     for t in rep.surviving_tuples]
        assert survivors
        for t in survivors:
            pts = finite_orbit_points(MapSet([rat(c) for c in t["c"]]))
            assert t["basepoints"] == [rat_str(r.basepoint) for r in pts]
            assert t["orbit_union"] == sorted({rat_str(q) for r in pts
                                               for q in r.orbit})

    def test_one_enumeration_per_disposed_tuple(self, monkeypatch):
        calls = []

        def counted(S):
            calls.append(fmt_pair(S.cs()))
            return finite_orbit_points(S)

        monkeypatch.setattr(symbolic, "finite_orbit_points", counted)
        symbolic._decide.cache_clear()
        deductions = [d for rep in verify_theorem_case(2)
                      for d in rep.deductions]
        # each tuple that is not a collision is enumerated once, however
        # often it is disposed, and its deduction names it as "tuple (...)"
        named = {m for d in deductions
                 for m in re.findall(r": tuple (\([^)]*\))", d)}
        assert calls and len(calls) == len(set(calls))
        assert set(calls) == named
        # and the decision is not made again
        verify_theorem_case(2)
        assert len(calls) == len(named)

    def test_p_equation_equals_the_birat_numerator(self, monkeypatch):
        """On every call the ten cases make, the directly built numerator
        of PA(a) - PB(b) is the one the BiRat difference reduces to."""
        calls = []
        direct = cases._p_equation

        def recorded(PA, PB):
            calls.append((PA, PB))
            return direct(PA, PB)

        monkeypatch.setattr(cases, "_p_equation", recorded)
        for n in range(1, 11):
            verify_theorem_case(n)
        assert calls
        V = ("a", "b")
        for PA, PB in calls:
            assert direct(PA, PB) == (symbolic.BiRat.from_ratfunc(PA, 0, V)
                                      - symbolic.BiRat.from_ratfunc(PB, 1, V)
                                      ).numerator()

    def test_factorization_check_flags_only_inexact_division(self):
        """An inexact claimed factorization is a verdict; a piece over the
        wrong variables is a bug and raises."""
        N = BiPoly.parse("a^2 - b^2", ("a", "b"))
        pieces = [BiPoly.parse(s, ("a", "b")) for s in ("a - b", "a + b")]
        assert _verify_factorization(N, pieces)
        assert not _verify_factorization(N, pieces[:1] + pieces[:1])
        with pytest.raises(ValueError):
            _verify_factorization(N, [BiPoly.parse("y - z")])


class TestLemmaReportSoundness:
    def test_dispositions_reverify_via_dynamics(self, lemma_report):
        """No disposition rests on symbolic reasoning alone: collisions
        show equal coefficients, sporadic pairs re-verify by closure, and
        family members re-verify as specialized instances."""
        from quadorbits.dynamics import monoid_orbit
        from quadorbits.families import family_by_id

        rep = lemma_report("2.2")
        assert rep.verdict == "pass"
        seen_kinds = set()
        all_disps = list(rep.pair_dispositions)
        for br in rep.curve_branches:
            all_disps.extend(br.dispositions)
        for d in all_disps:
            seen_kinds.add(d.kind)
            if d.kind == "collision" and "c" in d.data:
                cs = [rat(c) for c in d.data["c"]]
                assert len(set(cs)) < len(cs)
            elif d.kind == "sporadic":
                cs = [rat(c) for c in d.data["c"]]
                S = MapSet(cs)
                for b in d.data["basepoints"]:
                    assert monoid_orbit(S, rat(b)).is_finite()
            elif d.kind == "family":
                fam = family_by_id(d.data["family"])
                t0 = rat(d.data["parameter"])
                cs = [rat(c) for c in d.data["c"]]
                assert list(fam.tup.at(t0)[0]) == cs
        assert {"sporadic", "family"} <= seen_kinds


class TestLemmaStatementFromCatalog:
    @pytest.mark.parametrize("lemma_id", ["2.1", "2.2", "2.3", "2.5", "2.6"])
    def test_report_concludes_the_catalog_statement(self, lemma_report,
                                                    lemma_id):
        """What each lemma re-derives is what the ten cases consume: its
        curve branches reach exactly the stated families, and its sporadic
        pairs are exactly the stated pairs.  The report's families add only
        those that account for a disposed candidate pair (lemma 2.2 meets
        pairs of F-11a, whose second map also has a rational 2-cycle)."""
        fams, pairs = lemma_statement(lemma_setup(lemma_id).statement)
        d = lemma_report(lemma_id).to_dict()
        assert d["verdict"] == "pass"
        stated = {f.id for f in fams}
        assert {b["family"] for b in d["curve_branches"]
                if b["kind"] == "family"} == stated
        members = {x["family"] for x in d["pair_dispositions"]
                   if x["kind"] == "family"}
        assert d["families"] == sorted(stated | members)
        assert d["sporadic_pairs"] == sorted(fmt_pair(p.cs) for p in pairs)
        assert d["expected_sporadic_pairs"] == d["sporadic_pairs"]

    def test_conclusion_names_the_stated_families(self, lemma_report):
        """Lemma 2.2's disposed pairs include two of F-11a, so its report
        lists F-11a among the families reached; the conclusion states
        lemma 2.2's own families, as the catalog assigns them."""
        rep = lemma_report("2.2")
        assert rep.families_found == ["F-11a", "F-12a", "F-12b"]
        assert rep.conclusion == (
            "classification: families F-12a, F-12b plus sporadic pairs "
            "(-21/16, -13/16), (-5/16, -13/16)")

    @staticmethod
    def _catalog_without(monkeypatch, pair_id):
        load = families._load()
        pairs = tuple(p for p in load[1] if p.id != pair_id)
        assert len(pairs) == len(load[1]) - 1
        monkeypatch.setattr(families, "_load",
                            lambda: (load[0], pairs, load[2]))

    def test_a_pair_missing_from_the_catalog_is_flagged(self, monkeypatch):
        self._catalog_without(monkeypatch, "SP-12-2")
        rep = verify_lemma("2.2")
        assert rep.verdict == "flagged"
        assert rep.flags == [
            "sporadic pairs ['(-21/16, -13/16)', '(-5/16, -13/16)'] differ "
            "from the stated ['(-5/16, -13/16)']"]

    def test_the_cases_consume_the_same_entries(self, monkeypatch):
        def descriptions():
            return " ".join(r.description for r in verify_theorem_case(7))

        assert "(-37/16, -21/16)" in descriptions()
        self._catalog_without(monkeypatch, "SP-22-5")
        assert "(-37/16, -21/16)" not in descriptions()

    @pytest.mark.parametrize("pair_id, cases, mismatch", [
        ("SP-12-2", [2, 4], "2 families and 2 sporadic pairs of lemma 2.2, "
                            "whose catalog statement has 2 and 1"),
        ("SP-13-1", [3, 6, 9], "0 families and 1 sporadic pairs of lemma "
                               "2.5, whose catalog statement has 0 and 0"),
    ], ids=["SP-12-2", "SP-13-1"])
    def test_a_case_whose_statement_changes_shape_is_flagged(
            self, monkeypatch, pair_id, cases, mismatch):
        """A case that consumes a set number of a lemma's entries returns
        one flagged report, naming the lemma and both counts, when the
        catalog states another number."""
        self._catalog_without(monkeypatch, pair_id)
        for n in cases:
            reps = verify_theorem_case(n)
            assert [(r.subcase, r.verdict, r.flags) for r in reps] == \
                [(str(n), "flagged", [f"case {n} consumes {mismatch}"])]


class TestTheoremEndToEnd:
    def test_full_verification(self, theorem_summary):
        summary = theorem_summary
        assert summary.verdict == "pass", summary.flags
        assert summary.lemma_verdicts == {lid: "pass" for lid in
                                          ("2.1", "2.2", "2.3", "2.4",
                                           "2.5", "2.6")}
        keys = [tuple(t["c"]) for t in summary.surviving_triples]
        assert keys == [("-21/16", "-13/16", "-5/16"),
                        ("-13/16", "-5/16", "3/16")]
        assert summary.four_map_exclusion["holds"]
        assert summary.corollary_check["holds"]
        assert summary.corollary_check["integral_c_with_3_cycles"] == []
        # summaries serialize
        d = summary.to_dict()
        assert d["verdict"] == "pass" and len(d["cases"]) == 46

    def test_pool_reports_equal_the_in_process_cases(self):
        from quadorbits.verifier import verify_theorem

        summary = verify_theorem(run_lemmas=False)
        assert [r.to_dict() for r in summary.cases] == \
            [r.to_dict() for n in range(1, 11)
             for r in verify_theorem_case(n)]


class TestSubcaseExclusionSearch:
    def test_finds_relation_with_known_survivor(self):
        # the fixed+fixed+2-cycle matched-basepoint tuple: the exclusion
        # relation must keep the parameter of the exceptional triple
        from quadorbits.ratfunc import RatFunc
        from quadorbits.verifier.symbolic import find_exclusion_relation

        y = RatFunc.t("y")
        tup = ParamTuple(
            ((1 - y * y) / 4, (1 - (y + 2) ** 2) / 4, -(3 + y * y) / 4),
            (1 + y) / 2)
        word, target, relation, roots = find_exclusion_relation(tup)
        assert rat("-1/2") in roots
        cs = [c.specialize(rat("-1/2")) for c in tup.cs]
        P0 = tup.P.specialize(rat("-1/2"))
        assert cs == [rat("3/16"), rat("-5/16"), rat("-13/16")]
        assert P0 == rat("1/4")
        # every finite-orbit parameter value must zero the relation
        assert relation(rat("-1/2")) == 0

    def test_every_root_of_the_relation_is_disposed(self):
        tup = TestParamTupleDispose.tup
        word, target, relation, roots, disposed = \
            exclude_by_relation(tup, "branch, ")
        assert (word, target, relation, roots) == \
            symbolic.find_exclusion_relation(tup)
        assert [d.subject for d, _, _ in disposed] == \
            [f"branch, parameter {rat_str(r)}" for r in roots]
        assert disposed == [dispose_at(tup, r, f"branch, parameter "
                                                f"{rat_str(r)}")
                            for r in roots]
        survivor = roots.index(rat("-1/2"))
        d, finite, P0 = disposed[survivor]
        assert d.kind == "sporadic" and finite and P0 == rat("1/4")


class TestParamTupleDispose:
    y = RatFunc.t("y")
    # the fixed+fixed+2-cycle tuple of TestSubcaseExclusionSearch
    tup = ParamTuple(((1 - y * y) / 4, (1 - (y + 2) ** 2) / 4,
                      -(3 + y * y) / 4), (1 + y) / 2)

    def test_pole_of_the_basepoint_alone(self):
        y = self.y
        d, finite, P0 = dispose_at(ParamTuple((y, y + 1), 1 / y),
                                   Fraction(0), "s")
        assert (d.kind, d.detail, d.data) == \
            ("pole", "basepoint has a pole at 0", {})
        assert finite == [] and P0 is None

    def test_pole_of_a_coefficient(self):
        y = self.y
        d, _, _ = dispose_at(ParamTuple((y, 1 / (y + 1)), 1 / y),
                             Fraction(-1), "s")
        assert (d.kind, d.detail) == ("pole", "c2 has a pole at -1")

    def test_collision(self):
        y = self.y
        d, finite, P0 = dispose_at(ParamTuple((y * y + 1, y, -y), y),
                                   Fraction(0), "s")
        assert (d.kind, d.detail) == ("collision", "c2 = c3 at 0")
        assert d.data["c"] == ["1", "0", "0"]
        assert finite == [] and P0 is None

    @pytest.mark.parametrize("t0", ["-1/2", "1", "3"])
    def test_otherwise_dispose_tuple_of_the_values(self, t0):
        t0 = rat(t0)
        cs = [c.specialize(t0) for c in self.tup.cs]
        P0 = self.tup.P.specialize(t0)
        assert dispose_at(self.tup, t0, "s") == \
            (*dispose_tuple("s", cs, P0), P0)


_small = st.integers(-3, 3)
_coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def planted_systems(draw):
    """Two or three generators, each with a factor through a drawn point
    (y0, v0), and sometimes a factor shared by the first two generators."""
    y0, v0 = draw(_coord), draw(_coord)
    Y, Z = BiPoly({(1, 0): 1, (0, 0): -y0}), BiPoly({(0, 1): 1, (0, 0): -v0})

    def through_point():
        a, b = draw(st.tuples(_small, _small).filter(any))
        c, d, e = draw(_small), draw(_small), draw(_small)
        return a * Y + b * Z + c * Y * Z + d * Y * Y + e * Z * Z

    def any_factor():
        cs = draw(st.lists(_small, min_size=4, max_size=4).filter(any))
        return BiPoly(dict(zip([(0, 0), (1, 0), (0, 1), (1, 1)], cs)))

    factors = [[through_point()] + [any_factor()
                                    for _ in range(draw(st.integers(0, 1)))]
               for _ in range(draw(st.sampled_from([2, 3])))]
    if len(factors) == 3 and draw(st.booleans()):
        shared = through_point()
        factors[0] = [shared, any_factor()]
        factors[1] = [shared, any_factor()]
    gens = [GeneratorFactors(f"G{k + 1}", tuple(fs))
            for k, fs in enumerate(factors)]
    return gens, v0


@st.composite
def symmetric_systems(draw):
    """Two or three generators through a drawn point (y0, v0).  The first
    two each carry a factor f and its flip +-f(-y), so their factor pairs
    map onto each other under y -> -y, and sometimes a factor even in y;
    a third generator, if any, has one factor through the point."""
    y0, v0 = draw(_coord), draw(_coord)
    Y, Z = BiPoly({(1, 0): 1, (0, 0): -y0}), BiPoly({(0, 1): 1, (0, 0): -v0})
    U = BiPoly({(2, 0): 1, (0, 0): -y0 * y0})  # even, through (+-y0, v0)

    def through_point(W):
        a, b = draw(st.tuples(_small, _small).filter(any))
        c, d, e = draw(_small), draw(_small), draw(_small)
        return a * W + b * Z + c * W * Z + d * W * W + e * Z * Z

    def flip(f):
        sign = draw(st.sampled_from([1, -1]))
        return BiPoly({(i, j): sign * (-1) ** i * c
                       for (i, j), c in f.terms.items()})

    factors = []
    for _ in range(2):
        f = through_point(Y)
        even = [through_point(U)] if draw(st.booleans()) else []
        factors.append([f, flip(f)] + even)
    if draw(st.booleans()):
        factors.append([through_point(Y)])
    gens = [GeneratorFactors(f"G{k + 1}", tuple(fs))
            for k, fs in enumerate(factors)]
    return gens, v0


class TestOnePairElimination:
    def test_shared_component_meeting_the_third_generator(self):
        # (y - z) is common to G1 and G2 and meets G3 only at (5, 5); no
        # factor pair of the three generators has 5 as a resultant root
        B = BiPoly.parse
        gens = [GeneratorFactors("G1", (B("y - z"), B("y + z + 1"))),
                GeneratorFactors("G2", (B("y - z"), B("2*y + z - 3"))),
                GeneratorFactors("G3", (B("y - 5"),))]
        out = eliminate_candidates(gens, [], ())
        assert out.candidates == [Fraction(5)]
        assert out.raw_candidates == [Fraction(-5), Fraction(-1, 2),
                                      Fraction(1), Fraction(5)]

    def test_generator_vanishing_on_a_whole_fiber(self):
        # G1 = z - 2 is all content in z; the fiber filter must see it
        B = BiPoly.parse
        gens = [GeneratorFactors("G1", (B("z - 2"),)),
                GeneratorFactors("G2", (B("y - 1"),))]
        assert eliminate_candidates(gens, [], ()).candidates == [Fraction(2)]

    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_lemma_candidates_match_the_all_pairs_oracle(self, lemma_id):
        setup = lemma_setup(lemma_id)
        assert eliminate_candidates(setup.gens, setup.structural,
                                    setup.poles).candidates \
            == all_pairs_candidates(setup.gens, setup.structural)

    @settings(max_examples=80, deadline=None)
    @given(planted_systems())
    def test_planted_common_zero_is_a_candidate(self, system):
        gens, v0 = system
        # a curve common to every generator has zeros on every fiber, and
        # then no finite candidate list exists
        common = reduce(bivariate_gcd, (math.prod(g.factors) for g in gens))
        assume(common.total_degree() <= 0)
        got = eliminate_candidates(gens, [], ()).candidates
        assert v0 in got
        assert set(all_pairs_candidates(gens, [])) <= set(got)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_systems())
    # the first and third generators share y^2 + z, which the all-pairs
    # oracle must not read as an empty intersection: (0, 0) is a common zero
    @example(([GeneratorFactors("G1", (BiPoly.parse("y^2 + z"),) * 2),
               GeneratorFactors("G2", (BiPoly.parse("y^2 + z^2 + z"),) * 2),
               GeneratorFactors("G3", (BiPoly.parse("y^2 + z"),))],
              Fraction(0)))
    def test_flipped_and_even_pairs_match_the_all_pairs_oracle(self, system):
        gens, v0 = system
        common = reduce(bivariate_gcd, (math.prod(g.factors) for g in gens))
        assume(common.total_degree() <= 0)
        out = eliminate_candidates(gens, [], ())
        oracle = all_pairs_candidates(gens, [])
        assert v0 in out.candidates
        assert set(oracle) <= set(out.candidates)
        if not out.components:
            assert out.candidates == oracle

    @pytest.mark.parametrize("lemma_id", ["2.5", "2.6"])
    def test_symmetric_pairs_are_eliminated_once(self, lemma_id,
                                                 monkeypatch):
        # 36 of the 81 pairs of pieces are conjugates of others under
        # y -> -y, and the nine pairs of pieces even in y are taken over
        # u = y^2: the largest eliminant, of degree 70, at degree 35
        computed = []

        def counting(a, b, poles):
            exps, r = localized_resultant(a, b, poles)
            computed.append(sum(exps) + r.degree)
            return exps, r

        monkeypatch.setattr(elimination, "localized_resultant", counting)
        setup = lemma_setup(lemma_id)
        out = eliminate_candidates(setup.gens, setup.structural,
                                   setup.poles)
        assert len(computed) == 45 and max(computed) <= 35
        assert len(out.eliminant_degrees) == 81
        assert max(out.eliminant_degrees) == 70

    @pytest.mark.parametrize("lemma_id", ["2.4", "2.5", "2.6"])
    def test_pole_units_leave_every_eliminant_root_in_place(self, lemma_id):
        """On every factor pair, flipped and even ones included, the
        resultant over Z[t, 1/t, 1/(t+1)] has the squarefree part and the
        degree of the resultant over Z[t], the PRS of ``oracles``."""
        setup = lemma_setup(lemma_id)
        assert setup.poles == (-1, 0)
        out = eliminate_candidates(setup.gens, setup.structural,
                                   setup.poles)
        assert not out.components
        first, second = [
            [elimination._split_survivor_content(f)[0] for f in gen.factors]
            for gen in out.reduced[:2]]
        degrees = []
        for a, b in itertools.product(first, second):
            rows_a, rows_b = a.to_coeff_lists(0)[1], b.to_coeff_lists(0)[1]
            full = UniPoly.from_int(1, subres_resultant(rows_b, rows_a), "t")
            degrees.append(full.degree)
            A, B = elimination._deflate(a), elimination._deflate(b)
            even = A is not None and B is not None
            exps, r = localized_resultant(*((A, B) if even else (a, b)),
                                          setup.poles)
            assert (2 if even else 1) * (sum(exps) + r.degree) == full.degree
            poles = math.prod((UniPoly([-p, 1], "t")
                               for p, e in zip(setup.poles, exps) if e),
                              start=UniPoly.constant(1, "t"))
            assert squarefree_part(full) == poles * squarefree_part(r) \
                == elimination._squarefree_eliminant(setup.poles, exps, r)
        assert degrees == out.eliminant_degrees

    def test_no_pole_units_without_poles(self):
        for lemma_id in ("2.1", "2.2", "2.3"):
            assert lemma_setup(lemma_id).poles == ()


_curves = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          _small, min_size=1, max_size=4).map(BiPoly).filter(
                              lambda f: f.total_degree() > 0)


class TestComponentPeeling:
    """``verify_lemma`` decides whether a component divides a generator by
    peeling gcds off it factor by factor; ``expanded_divides`` expands the
    product and divides over Q."""

    @settings(max_examples=30, deadline=None)
    @given(_curves, _curves, _curves)
    def test_peeling_matches_the_expanded_product(self, p, q, s):
        r = p * p
        # p^2 spread over the factors p*q and p*s divides their product
        assert _divides_product(r, (p * q, p * s))
        assert expanded_divides(r, (p * q, p * s))
        # against p*q alone, p^2 divides only when p divides q
        alone = _divides_product(r, (p * q,))
        assert alone == expanded_divides(r, (p * q,)) \
            == expanded_divides(p, (q,))

    def test_lemma_23_component_matches_the_expanded_product(self):
        setup = lemma_setup("2.3")
        comp = eliminate_candidates(setup.gens, setup.structural,
                                    setup.poles).components
        assert comp
        for g in setup.gens:
            assert _divides_product(comp[0], g.factors) \
                == expanded_divides(comp[0], g.factors)
