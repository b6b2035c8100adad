"""Structured verification reports with stable field names.

Every report serializes through ``to_dict`` with exact "p/q" strings; the
CLI renders them as text or JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..rationals import rat_str

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


@dataclass
class Disposition:
    """One candidate (point, pair or parameter) and what became of it."""

    subject: str
    kind: str  # "pole" | "collision" | "family" | "sporadic" | "excluded"
    detail: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"subject": self.subject, "kind": self.kind,
                "detail": self.detail, **self.data}


@dataclass
class CurveBranchReport:
    curve: str
    kind: str  # "collision" | "family" | "excluded"
    verified: bool
    family_id: str | None = None
    parametrization: dict[str, str] | None = None
    word: str | None = None
    target_map: int | None = None
    relation_degree: int | None = None
    roots: list[str] = field(default_factory=list)
    dispositions: list[Disposition] = field(default_factory=list)

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


@dataclass
class GroebnerOutcome:
    status: str  # "completed" | "budget-exhausted"
    # measured only by an exhausted run
    pairs_done: int | None = None
    max_coeff_bits: int | None = None
    basis_size: int | None = None
    basis_leading_terms: list[str] = field(default_factory=list)
    eliminant_degree: int | None = None
    eliminant_roots: list[str] | None = None
    expected_degree: int | None = None
    membership_holds: bool | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v not in (None, [], "")}


@dataclass
class LemmaReport:
    lemma_id: str
    hypothesis: str
    route: str
    generators: dict[str, dict]
    structural_divisions: dict[str, dict[str, int]]
    eliminant_degrees: dict[str, list[int]]
    eliminant_total_degree: int
    root_traces: dict[str, list[dict]]
    raw_candidates: list[str]
    dropped_artifacts: list[str]
    candidates: list[str]
    expected_candidates: list[str]
    partner_values: dict[str, list[str]]
    expected_partners: list[str] | None
    pair_dispositions: list[Disposition]
    curve_branches: list[CurveBranchReport]
    families_found: list[str]
    sporadic_found: list[str]
    expected_sporadic: list[str]
    conclusion: str
    axioms_used: list[str]
    flags: list[str]
    verdict: str  # "pass" | "flagged"
    groebner: GroebnerOutcome | None = None
    seconds: float | None = None

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


@dataclass
class CaseReport:
    """One subcase; its driver fills the lists, then sets the verdict."""

    case: int
    subcase: str
    description: str
    deductions: list[str] = field(default_factory=list)
    exclusion_witnesses: list[dict] = field(default_factory=list)
    surviving_tuples: list[dict] = field(default_factory=list)
    verdict: str = ""  # "pass" | "flagged"
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TheoremSummary:
    cases: list[CaseReport]
    surviving_triples: list[dict]
    expected_triples: list[dict]
    four_map_exclusion: dict
    corollary_check: dict
    lemma_verdicts: dict[str, str]
    flags: list[str]
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)
