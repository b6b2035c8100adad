"""Exhaustive discovery of finite-orbit tuples over height-bounded grids.

Coefficients c run over a grid {k/d : |k| <= bound}; for every s-subset of
the grid the search reports the complete set of rational basepoints with
finite orbit under the s maps x^2 + c.

The search rests on one monotonicity fact: a point with finite orbit under
S has finite orbit under every subset of S.  So it runs one recursion with
a single base case.  For s = 1 each grid value is decided directly by its
basepoint list (``finite_orbit_points``).  For s >= 2 every hit S is the
union of two of its (s-1)-subsets, and all s of those subsets are hits
whose basepoint lists contain every basepoint of S; the candidates
are therefore the size-s unions of two (s-1)-hits whose (s-1)-subsets are
all hits, and each basepoint common to those subsets is confirmed by
``monoid_orbit``.  The reduction is exact, not a heuristic: no tuple and no
basepoint is lost, and every one reported is re-decided for the full set.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import MapSet, finite_orbit_points, monoid_orbit
from .rationals import rat_str

__all__ = ["SearchSpec", "FoundTuple", "search"]


@dataclass(frozen=True)
class SearchSpec:
    """Grid description: c runs over {k/denominator : |k| <= numerator_bound},
    tuples have set_size maps, and every admissible basepoint is tried."""

    set_size: int
    denominator: int = 16
    numerator_bound: int = 40

    def __post_init__(self):
        if self.set_size < 1:
            raise ValueError("set_size must be at least 1")
        if self.denominator < 1:
            raise ValueError("denominator must be at least 1")
        if self.numerator_bound < 0:
            raise ValueError("numerator_bound must be at least 0")

    def grid(self) -> list[Fraction]:
        return [Fraction(k, self.denominator)
                for k in range(-self.numerator_bound, self.numerator_bound + 1)]

    @classmethod
    def from_json(cls, text: str) -> "SearchSpec":
        """Parse a spec; a malformed one raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict) or "set_size" not in data:
            raise ValueError("search spec must be a JSON object with set_size")
        fields = {"set_size": data["set_size"],
                  "denominator": data.get("denominator", 16),
                  "numerator_bound": data.get("numerator_bound", 40)}
        for name, value in fields.items():
            # bool is an int subclass; 2.7 and "3" must not be truncated
            if type(value) is not int:
                raise ValueError(f"search spec fields must be integers: "
                                 f"{name} is {json.dumps(value)}")
        return cls(**fields)

    def to_dict(self) -> dict:
        return {"set_size": self.set_size, "denominator": self.denominator,
                "numerator_bound": self.numerator_bound}


@dataclass(frozen=True)
class FoundTuple:
    cs: tuple[Fraction, ...]
    basepoints: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {"c": [rat_str(c) for c in self.cs],
                "basepoints": [rat_str(p) for p in self.basepoints]}


def search(spec: SearchSpec, workers: int = 1) -> list[FoundTuple]:
    """Every tuple from the grid admitting a finite-orbit rational point,
    with its complete basepoint list; exhaustive within the grid.  The
    search is sequential: ``workers`` is accepted only as 1."""
    if workers != 1:
        raise ValueError("search runs in one process; workers must be 1")
    if spec.set_size == 1:
        out = []
        for c in spec.grid():
            pts = finite_orbit_points(MapSet((c,)))
            if pts:
                out.append(FoundTuple((c,), tuple(r.basepoint for r in pts)))
        return out
    smaller = search(SearchSpec(spec.set_size - 1, spec.denominator,
                                spec.numerator_bound))
    by_set = {frozenset(t.cs): set(t.basepoints) for t in smaller}
    candidates: set[tuple[Fraction, ...]] = set()
    for k1, k2 in itertools.combinations(by_set, 2):
        union = k1 | k2
        if len(union) == spec.set_size:
            candidates.add(tuple(sorted(union)))
    out: list[FoundTuple] = []
    for combo in sorted(candidates):
        subs = list(itertools.combinations(combo, spec.set_size - 1))
        if not all(frozenset(s) in by_set for s in subs):
            continue
        common = set.intersection(*(by_set[frozenset(s)] for s in subs))
        good = tuple(sorted(p for p in common
                            if monoid_orbit(MapSet(combo), p).is_finite()))
        if good:
            out.append(FoundTuple(combo, good))
    return out
