"""Structured verification reports with stable field names.

Every report serializes through ``to_dict`` with exact "p/q" strings; the
CLI renders them as text or JSON.  Reports are filled in as a verification
runs, so they are mutable records; a list or dict field left out of the
constructor starts as a new empty one.
"""

from __future__ import annotations

from ..rationals import rat_str
from ..records import Mutable

__all__ = [
    "Disposition",
    "CurveBranchReport",
    "GroebnerOutcome",
    "LemmaReport",
    "CaseReport",
    "TheoremSummary",
]


def fmt_pair(cs) -> str:
    return "(" + ", ".join(rat_str(c) for c in cs) + ")"


class Disposition(Mutable):
    """One candidate (point, pair or parameter) and what became of it."""

    def __init__(self, subject: str, kind: str, detail: str,
                 data: dict | None = None):
        self.subject = subject
        # "pole" | "collision" | "family" | "sporadic" | "excluded"
        self.kind = kind
        self.detail = detail
        self.data = {} if data is None else data

    def to_dict(self) -> dict:
        return {"subject": self.subject, "kind": self.kind,
                "detail": self.detail, **self.data}


class CurveBranchReport(Mutable):
    def __init__(self, curve: str, kind: str, verified: bool,
                 family_id: str | None = None,
                 parametrization: dict[str, str] | None = None,
                 word: str | None = None, target_map: int | None = None,
                 relation_degree: int | None = None,
                 roots: list[str] | None = None,
                 dispositions: list[Disposition] | None = None):
        self.curve = curve
        self.kind = kind  # "collision" | "family" | "excluded"
        self.verified = verified
        self.family_id = family_id
        self.parametrization = parametrization
        self.word = word
        self.target_map = target_map
        self.relation_degree = relation_degree
        self.roots = [] if roots is None else roots
        self.dispositions = [] if dispositions is None else dispositions

    def to_dict(self) -> dict:
        out = {"curve": self.curve, "kind": self.kind, "verified": self.verified}
        if self.family_id:
            out["family"] = self.family_id
        if self.parametrization:
            out["parametrization"] = self.parametrization
        if self.word is not None:
            out["exclusion_word"] = self.word
            out["target_map"] = self.target_map
            out["relation_degree"] = self.relation_degree
            out["roots"] = self.roots
            out["dispositions"] = [d.to_dict() for d in self.dispositions]
        return out


class GroebnerOutcome(Mutable):
    def __init__(self, status: str, pairs_done: int | None = None,
                 max_coeff_bits: int | None = None,
                 basis_size: int | None = None,
                 basis_leading_terms: list[str] | None = None,
                 eliminant_degree: int | None = None,
                 eliminant_roots: list[str] | None = None,
                 expected_degree: int | None = None,
                 membership_holds: bool | None = None, note: str = ""):
        self.status = status  # "completed" | "budget-exhausted"
        # measured only by an exhausted run
        self.pairs_done = pairs_done
        self.max_coeff_bits = max_coeff_bits
        self.basis_size = basis_size
        self.basis_leading_terms = ([] if basis_leading_terms is None
                                    else basis_leading_terms)
        self.eliminant_degree = eliminant_degree
        self.eliminant_roots = eliminant_roots
        self.expected_degree = expected_degree
        self.membership_holds = membership_holds
        self.note = note

    def to_dict(self) -> dict:
        """The fields that are set, in constructor order."""
        return {k: v for k, v in vars(self).items() if v not in (None, [], "")}


class LemmaReport(Mutable):
    def __init__(self, lemma_id: str, hypothesis: str, route: str,
                 generators: dict[str, dict],
                 structural_divisions: dict[str, dict[str, int]],
                 eliminant_degrees: dict[str, list[int]],
                 eliminant_total_degree: int,
                 root_traces: dict[str, list[dict]],
                 raw_candidates: list[str], dropped_artifacts: list[str],
                 candidates: list[str], expected_candidates: list[str],
                 partner_values: dict[str, list[str]],
                 expected_partners: list[str] | None,
                 pair_dispositions: list[Disposition],
                 curve_branches: list[CurveBranchReport],
                 families_found: list[str], sporadic_found: list[str],
                 expected_sporadic: list[str], conclusion: str,
                 axioms_used: list[str], flags: list[str], verdict: str,
                 groebner: GroebnerOutcome | None = None,
                 seconds: float | None = None):
        self.lemma_id = lemma_id
        self.hypothesis = hypothesis
        self.route = route
        self.generators = generators
        self.structural_divisions = structural_divisions
        self.eliminant_degrees = eliminant_degrees
        self.eliminant_total_degree = eliminant_total_degree
        self.root_traces = root_traces
        self.raw_candidates = raw_candidates
        self.dropped_artifacts = dropped_artifacts
        self.candidates = candidates
        self.expected_candidates = expected_candidates
        self.partner_values = partner_values
        self.expected_partners = expected_partners
        self.pair_dispositions = pair_dispositions
        self.curve_branches = curve_branches
        self.families_found = families_found
        self.sporadic_found = sporadic_found
        self.expected_sporadic = expected_sporadic
        self.conclusion = conclusion
        self.axioms_used = axioms_used
        self.flags = flags
        self.verdict = verdict  # "pass" | "flagged"
        self.groebner = groebner
        self.seconds = seconds

    def to_dict(self) -> dict:
        out = {
            "lemma": self.lemma_id,
            "hypothesis": self.hypothesis,
            "route": self.route,
            "generators": self.generators,
            "structural_divisions": self.structural_divisions,
            "eliminant_degrees": self.eliminant_degrees,
            "eliminant_total_degree": self.eliminant_total_degree,
            "root_traces": self.root_traces,
            "raw_candidates": self.raw_candidates,
            "dropped_artifacts": self.dropped_artifacts,
            "candidates": self.candidates,
            "expected_candidates": self.expected_candidates,
            "partners": self.partner_values,
            "pair_dispositions": [d.to_dict() for d in self.pair_dispositions],
            "curve_branches": [b.to_dict() for b in self.curve_branches],
            "families": self.families_found,
            "sporadic_pairs": self.sporadic_found,
            "expected_sporadic_pairs": self.expected_sporadic,
            "conclusion": self.conclusion,
            "axioms_used": self.axioms_used,
            "flags": self.flags,
            "verdict": self.verdict,
        }
        if self.expected_partners is not None:
            out["expected_partners"] = self.expected_partners
        if self.groebner is not None:
            out["groebner"] = self.groebner.to_dict()
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 3)
        return out


class CaseReport(Mutable):
    """One subcase; its driver fills the lists, then sets the verdict."""

    def __init__(self, case: int, subcase: str, description: str,
                 deductions: list[str] | None = None,
                 exclusion_witnesses: list[dict] | None = None,
                 surviving_tuples: list[dict] | None = None,
                 verdict: str = "", flags: list[str] | None = None):
        self.case = case
        self.subcase = subcase
        self.description = description
        self.deductions = [] if deductions is None else deductions
        self.exclusion_witnesses = ([] if exclusion_witnesses is None
                                    else exclusion_witnesses)
        self.surviving_tuples = ([] if surviving_tuples is None
                                 else surviving_tuples)
        self.verdict = verdict  # "pass" | "flagged"
        self.flags = [] if flags is None else flags

    def to_dict(self) -> dict:
        """Every field, in constructor order."""
        return dict(vars(self))


class TheoremSummary(Mutable):
    def __init__(self, cases: list[CaseReport], surviving_triples: list[dict],
                 expected_triples: list[dict], four_map_exclusion: dict,
                 corollary_check: dict, lemma_verdicts: dict[str, str],
                 flags: list[str], verdict: str):
        self.cases = cases
        self.surviving_triples = surviving_triples
        self.expected_triples = expected_triples
        self.four_map_exclusion = four_map_exclusion
        self.corollary_check = corollary_check
        self.lemma_verdicts = lemma_verdicts
        self.flags = flags
        self.verdict = verdict

    def to_dict(self) -> dict:
        """Every field, in constructor order, each case as its dict."""
        return {**vars(self), "cases": [c.to_dict() for c in self.cases]}
