"""The ten cases as derived from the two lemma statements each consumes:
the computed factorizations of the basepoint equation and their
certificate, the enumeration of the subcases, the mirrored subcases
against a run with the roles swapped, the elliptic piece, and the
survivor check of a full run."""

import itertools
import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadorbits import _intpoly as zp
from quadorbits.dynamics import MapSet, finite_orbit_points
from quadorbits.families import FamilyDef, SporadicTuple, family_by_id, \
    lemma_statement
from quadorbits.polynomials import BiPoly, UniPoly
from quadorbits.rationals import rat
from quadorbits.verifier import cases, theorem, verify_theorem, \
    verify_theorem_case
from quadorbits.verifier.reports import CaseReport

V = ("a", "b")

# the factorization of the basepoint equation of every family pairing the
# four cases meet, as it was written out by hand before it was computed
PAIRING_PIECES = {
    ("F-11a", "F-11a"): ["a - b"],
    ("F-11a", "F-11b"): ["a*b^2 - a - 4*b"],
    ("F-11b", "F-11a"): ["a^2*b - 4*a - b"],
    ("F-11b", "F-11b"): ["a - b", "a*b + 1"],
    ("F-11a", "F-12a"): ["a - b"],
    ("F-11a", "F-12b"): ["a*b^2 - a + 4*b^2"],
    ("F-11b", "F-12a"): ["a^2*b - 4*a - b"],
    ("F-11b", "F-12b"): ["a^2*b^2 + a*b^2 - a - b^2"],
    ("F-12a", "F-12a"): ["a - b"],
    ("F-12a", "F-12b"): ["a*b^2 - a + 4*b^2"],
    ("F-12b", "F-12a"): ["a^2*b - b + 4*a^2"],
    ("F-12b", "F-12b"): ["a - b", "a + b"],
    ("F-22a", "F-22a"): ["a - b", "a + b"],
}
# the lemmas on {f1, f2} and on {f1, f3} of the cases with subcases
CASE_STATEMENTS = {1: ("2.1", "2.1"), 2: ("2.1", "2.2"), 4: ("2.2", "2.2"),
                   7: ("2.3", "2.3")}
MIRRORED = ["1.4", "1.7", "1.8", "4.5", "4.9", "4.10", "4.13", "4.14", "7.3"]
PAIRING = re.compile(r"\(c1, c2, P\) from (\S+), \(c1, c3, P\) from (\S+?)"
                     r"(?: |$)")


def basepoint_equation(ida: str, idb: str) -> BiPoly:
    A = family_by_id(ida).tup.relabel("a")
    B = family_by_id(idb).tup.relabel("b")
    return cases._p_equation(A.P, B.P)


def term_order(p: BiPoly):
    return sorted(p.ints.items(), reverse=True)


class TestPieces:
    def test_every_family_pairing_factors_as_written_by_hand(self):
        for (ida, idb), written in PAIRING_PIECES.items():
            N = basepoint_equation(ida, idb)
            pieces = cases._pieces(N)
            assert pieces == [BiPoly.parse(s, V) for s in written], (ida, idb)
            assert cases._verify_factorization(N, pieces), (ida, idb)

    def test_the_pairings_are_those_the_cases_meet(self):
        named = set()
        for n in CASE_STATEMENTS:
            for rep in verify_theorem_case(n):
                named |= set(PAIRING.findall(rep.description))
        assert named == set(PAIRING_PIECES)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                    min_size=4, max_size=4))
    def test_a_planted_product_comes_back_as_its_factors(self, rows):
        """Two primitive factors u(a) b + v(a), with u nonzero and
        gcd(u, v) = 1, multiply to an equation the pieces split back."""
        factors = []
        for v, u in (rows[:2], rows[2:]):
            fu, fv = (UniPoly(c, "a") for c in (u, v))
            assume(not fu.is_zero() and fu.gcd(fv).degree == 0)
            f = BiPoly.from_coeff_lists([v, u], 1, V)
            factors.append(f.content_primitive()[1])
        pieces = cases._pieces(factors[0] * factors[1])
        assert pieces == sorted(factors, key=term_order)

    def test_a_nonsquare_discriminant_leaves_the_equation_whole(self):
        # discriminants 4a^2 + 4 (square leading coefficient), 4a (odd
        # degree), -4a^2 - 4 (negative) and 4a^2 + 16
        for s in ("b^2 - a^2 - 1", "b^2 - a", "b^2 + a^2 + 1",
                  "a*b^2 - a - 4*b"):
            N = BiPoly.parse(s, V)
            assert cases._pieces(N) == [N]

    def test_a_cubic_in_b_is_not_factored(self):
        with pytest.raises(ValueError):
            cases._pieces(BiPoly.parse("b^3 - a", V))

    def test_a_square_discriminant_splits(self):
        N = BiPoly.parse("b^2 + 2*a*b + a^2 - 1", V)
        assert [str(p) for p in cases._pieces(N)] == \
            ["a + b - 1", "a + b + 1"]
        N = BiPoly.parse("a^2*b^2 - 2*a*b + 1", V)
        assert [str(p) for p in cases._pieces(N)] == ["a*b - 1", "a*b - 1"]


class TestSubcases:
    def test_every_pairing_of_the_families_is_named_once(self):
        for n, (first, second) in CASE_STATEMENTS.items():
            descriptions = [r.description for r in verify_theorem_case(n)]
            for fa, fb in itertools.product(lemma_statement(first)[0],
                                            lemma_statement(second)[0]):
                named = f"(c1, c2, P) from {fa.id}, (c1, c3, P) from {fb.id}"
                assert sum(d == named or d == named + " (mirrored roles)"
                           for d in descriptions) == 1, (n, named)

    def test_the_subcases_are_numbered_in_order(self):
        for n, count in {1: 9, 2: 11, 4: 16, 7: 4}.items():
            assert [r.subcase for r in verify_theorem_case(n)] == \
                [f"{n}.{k}" for k in range(1, count + 1)]

    def test_mirrored_exactly_where_the_second_conclusion_comes_first(self):
        mirrored = [r.subcase for n in CASE_STATEMENTS
                    for r in verify_theorem_case(n)
                    if r.description.endswith(" (mirrored roles)")]
        assert mirrored == MIRRORED


def unchecked_zsqrt(p):
    """``zsqrt`` without its squaring check: the root read off from the
    top down, whether or not it squares back to p."""
    m = zp.zdeg(p) // 2
    r = [0] * m + [math.isqrt(max(p[-1], 1))]
    for k in range(m - 1, -1, -1):
        s = p[m + k] - sum(r[i] * r[m + k - i] for i in range(k + 1, m))
        r[k] = s // (2 * r[m])
    return r


def flagged_pairings() -> set:
    """The family pairings whose subcase a run of the four cases flags."""
    return {pair for n in CASE_STATEMENTS for rep in verify_theorem_case(n)
            if rep.flags for pair in PAIRING.findall(rep.description)}


class TestFactorizationCertificate:
    def test_a_constant_piece_is_flagged(self, monkeypatch):
        monkeypatch.setattr(cases, "_pieces",
                            lambda N: [BiPoly.constant(1, N.vars), N])
        rep = cases._sub_family_family(1, "1.2", family_by_id("F-11a"),
                                       family_by_id("F-11b"))
        assert rep.verdict == "flagged"
        assert rep.flags[0].startswith("computed factorization")
        assert rep.deductions == []

    def test_a_piece_with_content_in_a_is_refused(self):
        N = BiPoly.parse("(a + 1)*(b^2 - 2)", V)
        assert not cases._verify_factorization(N, [N])
        N = BiPoly.parse("(a + 1)*(a*b + 1)", V)
        assert not cases._verify_factorization(
            N, [BiPoly.parse("a + 1", V), BiPoly.parse("a*b + 1", V)])

    def test_an_unchecked_root_is_flagged_not_followed(self, monkeypatch):
        monkeypatch.setattr(zp, "zsqrt", unchecked_zsqrt)
        assert flagged_pairings() == {("F-11a", "F-11b"), ("F-11b", "F-11a"),
                                      ("F-11a", "F-12b"), ("F-11b", "F-12b"),
                                      ("F-12a", "F-12b"), ("F-12b", "F-12a")}

    def test_without_a_root_the_pairings_that_split_are_flagged(
            self, monkeypatch):
        monkeypatch.setattr(zp, "zsqrt", lambda p: None)
        assert flagged_pairings() == {("F-11b", "F-11b"), ("F-12b", "F-12b"),
                                      ("F-22a", "F-22a")}


def mirrored_pairing(sub: str):
    """The report of a mirrored subcase and the conclusions x (on {f1, f2})
    and y (on {f1, f3}) it pairs; its twin pairs y with x."""
    n = int(sub.split(".")[0])
    lemma = CASE_STATEMENTS[n][0]
    rep, = [r for r in verify_theorem_case(n) if r.subcase == sub]
    xs = cases._conclusions(lemma)[0]
    # y comes before x among the conclusions
    x, y = [(x, y) for y, x in itertools.combinations(xs, 2)
            if cases._describe(x, y) + " (mirrored roles)" ==
            rep.description][0]
    assert isinstance(x, FamilyDef) or isinstance(y, FamilyDef)
    return rep, x, y


class TestMirroredSubcases:
    @pytest.mark.parametrize("sub", MIRRORED)
    def test_derived_equals_the_run_with_the_roles_swapped(self, sub):
        """The derived report has one deduction, naming its twin; the
        subcase run on its own roles finds the same verdict, flags and
        survivors, and excludes the same tuples."""
        rep, x, y = mirrored_pairing(sub)
        (deduction,) = rep.deductions
        assert re.match(r"subcase \d+\.\d+ under sigma", deduction)
        run = cases._subcase(rep.case, sub, x, y)
        assert (rep.verdict, rep.flags, rep.surviving_tuples) == \
            (run.verdict, run.flags, run.surviving_tuples)

        def excluded(r):
            return sorted(w["tuple"] for w in r.exclusion_witnesses)

        assert excluded(rep) == excluded(run)


class TestEllipticPiece:
    fams = family_by_id("F-11b"), family_by_id("F-12b")

    def test_the_curve_of_the_elliptic_module_is_accepted(self):
        rep = CaseReport(2, "2.6", "")
        cases._elliptic_piece(
            rep, BiPoly.parse("a^2*b^2 + a*b^2 - a - b^2", V), *self.fams)
        assert rep.flags == [] and rep.deductions

    def test_a_different_piece_is_flagged(self):
        for s in ("a^2*b^2 + a*b^2 - a - 2*b^2",
                  "2*a^2*b^2 + 2*a*b^2 - 2*a - 2*b^2"):
            rep = CaseReport(2, "2.6", "")
            piece = BiPoly.parse(s, V)
            cases._elliptic_piece(rep, piece, *self.fams)
            assert rep.flags == [f"unexpected nonlinear curve piece {piece}"]
            assert rep.deductions == []


class TestFullRunSurvivorCheck:
    @staticmethod
    def _expect_one_more_triple(monkeypatch):
        """The catalog's exceptional triples plus one that no case run
        produces, with its own finite-orbit points as its basepoints."""
        triples = theorem.sporadic_triples()
        cs = (rat("-21/16"), rat("-13/16"), rat("3/16"))
        extra = SporadicTuple(
            "T-extra", None, cs,
            tuple(r.basepoint for r in finite_orbit_points(MapSet(cs))))
        monkeypatch.setattr(theorem, "sporadic_triples",
                            lambda: (*triples, extra))

    def test_every_full_run_is_checked_against_every_triple(
            self, monkeypatch):
        self._expect_one_more_triple(monkeypatch)
        for given_cases in (None, [], list(range(10, 0, -1))):
            summary = verify_theorem(run_lemmas=False, cases=given_cases)
            assert summary.verdict == "flagged", given_cases
            assert [f for f in summary.flags
                    if f.startswith("surviving triples")], given_cases

    @pytest.mark.parametrize("given_cases", [[3, 3], [0], [11]])
    def test_each_named_case_is_one_of_the_ten_once(self, given_cases):
        with pytest.raises(ValueError):
            verify_theorem(run_lemmas=False, cases=given_cases)

    def test_a_partial_run_is_checked_for_unexpected_survivors_only(
            self, monkeypatch):
        self._expect_one_more_triple(monkeypatch)
        summary = verify_theorem(run_lemmas=False, cases=[2])
        assert summary.verdict == "pass", summary.flags
