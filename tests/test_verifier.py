from fractions import Fraction

import pytest

from quadorbits.dynamics import MapSet, QuadMap, apply_word
from quadorbits.groebner import Budget
from quadorbits.rationals import rat
from quadorbits.verifier import POONEN_AXIOMS, poonen_criterion, \
    verify_lemma, verify_theorem_case
from quadorbits.verifier.lemmas import groebner_route, lemma_setup
from quadorbits.verifier.symbolic import ParamTuple, \
    three_cycle_parametrization


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


class TestLemma24Fast:
    def test_full_verification(self):
        rep = verify_lemma("2.4")
        assert rep.verdict == "pass"
        assert rep.candidates == ["-1", "0"]
        assert rep.sporadic_found == []
        assert all(b.verified for b in rep.curve_branches)
        assert {b.kind for b in rep.curve_branches} == {"collision"}

    def test_report_serializes(self):
        rep = verify_lemma("2.4")
        d = rep.to_dict()
        assert d["lemma"] == "2.4" and d["verdict"] == "pass"
        assert d["structural_divisions"]


class TestGroebnerRoute:
    def test_budget_exhaustion_is_flagged_outcome(self):
        setup = lemma_setup("2.1")
        out = groebner_route(setup, Budget(max_pairs=10,
                                           max_coeff_bits=10_000))
        assert out.status == "budget-exhausted"
        assert out.pairs_done > 0

    def test_route_downgrade_note(self):
        rep = verify_lemma("2.4", route="groebner",
                           budget=Budget(max_pairs=5))
        # resultant fallback still verifies the lemma
        assert rep.candidates == ["-1", "0"]
        assert rep.groebner is not None
        assert rep.groebner.status == "budget-exhausted"
        assert any("falling back" in f for f in rep.flags)


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
        for n in (1, 2):
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


class TestLemmaReportSoundness:
    def test_dispositions_reverify_via_dynamics(self):
        """No disposition rests on symbolic reasoning alone: collisions
        show equal coefficients, sporadic pairs re-verify by closure, and
        family members re-verify as specialized instances."""
        from quadorbits.dynamics import monoid_orbit
        from quadorbits.families import family_by_id

        rep = verify_lemma("2.2")
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
                assert [c.specialize(t0) for c in fam.c_list] == cs
        assert {"sporadic", "family"} <= seen_kinds


class TestTheoremEndToEnd:
    def test_full_verification(self):
        from quadorbits.verifier import verify_theorem

        summary = verify_theorem()
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

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        from quadorbits.verifier import verify_theorem

        with pytest.raises(ValueError, match="workers"):
            verify_theorem(run_lemmas=False, cases=[7], workers=workers)


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
        cs, P0 = tup.specialize(rat("-1/2"))
        assert list(cs) == [rat("3/16"), rat("-5/16"), rat("-13/16")]
        assert P0 == rat("1/4")
        # every finite-orbit parameter value must zero the relation
        assert relation(rat("-1/2")) == 0
