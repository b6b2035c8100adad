"""Top-level assembly: the full three-map classification and its
consequences.

Runs the six pair lemmas, the ten cases, checks the two exceptional
triples by breadth-first closure, excludes four-map sets through the
explicit witness word, and verifies the integral-coefficient reduction on
a bounded grid.
"""

from __future__ import annotations

from fractions import Fraction

from ..dynamics import MapSet, QuadMap, finite_orbit_points, monoid_orbit, \
    periodic_points
from ..families import sporadic_triples
from ..rationals import rat, rat_str
from .axioms import poonen_criterion
from .cases import verify_theorem_case
from .lemmas import LEMMA_IDS, verify_lemma
from .reports import CaseReport, TheoremSummary

__all__ = ["verify_theorem", "four_map_exclusion", "corollary_integral_check"]


def four_map_exclusion() -> dict:
    """The merged four-map set admits no finite-orbit point.

    For each candidate basepoint the closure is infinite, and the witness
    word 4-1-2-4 (apply f4, f1, f2, then f4) produces a point failing the
    iterate criterion under f1.
    """
    cs = [rat("3/16"), rat("-5/16"), rat("-13/16"), rat("-21/16")]
    S = MapSet(cs)
    word = (3, 0, 1, 3)  # f4 then f1 then f2 then f4, 0-based
    entries = []
    all_infinite = True
    for P in (rat("1/4"), rat("-1/4"), rat("3/4"), rat("-3/4")):
        res = monoid_orbit(S, P)
        Q = P
        for i in word:
            Q = S[i](Q)
        crit = poonen_criterion(S[0], Q)
        entries.append({
            "P": rat_str(P),
            "verdict": res.verdict,
            "witness_word": "4124",
            "Q": rat_str(Q),
            "criterion_f1": crit,
        })
        if res.is_finite() or crit:
            all_infinite = False
    return {
        "maps": [rat_str(c) for c in cs],
        "basepoints": entries,
        "holds": all_infinite,
    }


def corollary_integral_check(bound: int = 25) -> dict:
    """Integral coefficients: exact rational periods are at most 2 (period
    1 iff 1-4c is a square, period 2 iff -3-4c is one; no integral c in the
    grid has a rational 3-cycle), and the two-map sharpness instance
    {x^2-2, x^2-3} with basepoint 2 has finite orbit."""
    three_cycle_cs = []
    for c in range(-bound, bound + 1):
        if periodic_points(QuadMap(Fraction(c)), 3):
            three_cycle_cs.append(c)
    S = MapSet([Fraction(-2), Fraction(-3)])
    res = monoid_orbit(S, Fraction(2))
    return {
        "grid": f"|c| <= {bound}, c integral",
        "integral_c_with_3_cycles": three_cycle_cs,
        "period_1_test": "1 - 4c a rational square",
        "period_2_test": "-3 - 4c a rational square",
        "sharpness_pair": {
            "maps": ["-2", "-3"],
            "P": "2",
            "verdict": res.verdict,
            "orbit": [rat_str(q) for q in res.orbit],
        },
        "holds": not three_cycle_cs and res.is_finite(),
    }


def verify_theorem(run_lemmas: bool = True, cases: list[int] | None = None,
                   workers: int = 1) -> TheoremSummary:
    """Run the classification end to end and compare the survivors with
    the two exceptional triples.  Lemma and case verifications are
    independent jobs; workers > 1 runs them in parallel processes."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    flags: list[str] = []
    lemma_verdicts: dict[str, str] = {}
    case_list = list(cases or range(1, 11))
    if workers > 1:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        with ctx.Pool(workers) as pool:
            lemma_reps = pool.map(verify_lemma, LEMMA_IDS) if run_lemmas \
                else []
            case_parts = pool.map(verify_theorem_case, case_list)
    else:
        lemma_reps = [verify_lemma(lid) for lid in LEMMA_IDS] if run_lemmas \
            else []
        case_parts = [verify_theorem_case(n) for n in case_list]

    if run_lemmas:
        for rep in lemma_reps:
            lemma_verdicts[rep.lemma_id] = rep.verdict
            if rep.verdict != "pass":
                flags.append(f"lemma {rep.lemma_id} flagged: {rep.flags}")
    else:
        lemma_verdicts = {lid: "not-run" for lid in LEMMA_IDS}

    case_reports: list[CaseReport] = [r for part in case_parts for r in part]
    for rep in case_reports:
        if rep.verdict != "pass":
            flags.append(f"subcase {rep.subcase} flagged: {rep.flags}")

    # collect survivors up to reordering of the maps
    survivors: dict[tuple[Fraction, ...], dict] = {}
    for rep in case_reports:
        for entry in rep.surviving_tuples:
            key = tuple(sorted(rat(c) for c in entry["c"]))
            survivors.setdefault(key, entry)

    expected = []
    for st in sporadic_triples():
        S = MapSet(st.cs)
        pts = finite_orbit_points(S)
        expected.append({
            "c": [rat_str(c) for c in sorted(st.cs)],
            "basepoints": [rat_str(p) for p in sorted(st.basepoints)],
            "verified_basepoints": [rat_str(r.basepoint) for r in pts],
        })
        if [r.basepoint for r in pts] != sorted(st.basepoints):
            flags.append(f"triple {st.id}: basepoint list mismatch")

    survivor_list = [
        {"c": [rat_str(c) for c in key], **{k: v for k, v in entry.items()
                                            if k != "c"}}
        for key, entry in sorted(survivors.items())
    ]
    expected_keys = {tuple(sorted(st.cs)) for st in sporadic_triples()}
    if cases is None and set(survivors) != expected_keys:
        flags.append(
            f"surviving triples {sorted(survivors)} differ from the "
            f"exceptional triples {sorted(expected_keys)}")
    elif cases is not None and not set(survivors) <= expected_keys:
        flags.append(
            f"a partial case run produced unexpected survivors "
            f"{sorted(set(survivors) - expected_keys)}")

    fme = four_map_exclusion()
    if not fme["holds"]:
        flags.append("four-map exclusion failed")
    cor = corollary_integral_check()
    if not cor["holds"]:
        flags.append("integral-coefficient reduction failed")

    return TheoremSummary(
        cases=case_reports,
        surviving_triples=survivor_list,
        expected_triples=expected,
        four_map_exclusion=fme,
        corollary_check=cor,
        lemma_verdicts=lemma_verdicts,
        flags=flags,
        verdict="pass" if not flags else "flagged",
    )
