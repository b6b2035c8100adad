"""Catalog of parametrized finite-orbit families and sporadic tuples.

The catalog is the one statement of the pair lemmas' conclusions: every
family and sporadic pair carries the lemma that classifies it, and
``lemma_statement`` hands the same entries to the lemma verifier, which
re-derives them, and to the ten-case analysis, which consumes them.

The catalog ships as a data file of exact rational strings; stable sets are
stored as the orbit expressions they come from ("P", "-P", "f2(P)",
"f1(f2(P))", ...) and expanded to reduced elements of Q(t) at load time.
Excluded parameter values are computed, not hard-coded: poles of any
component plus the rational roots of numerator(c_i - c_j).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations

from .dynamics import MapSet
from .ratfunc import PoleError, RatFunc, apply_quadmap
from .rationals import exact_rational, rat, rat_str
from .roots import rational_roots

__all__ = [
    "FamilyDef",
    "SporadicTuple",
    "catalog",
    "family_by_id",
    "family_verify_symbolic",
    "family_instance",
    "lemma_statement",
    "ExcludedParameter",
]


class ExcludedParameter(ValueError):
    """Specialization at an excluded parameter value; the message names the
    violated condition (pole or coefficient collision)."""


_STABLE_EXPR = re.compile(r"^(-)?((?:f\d+\()*)P(\)*)$")


def _expand_stable(expr: str, cs: list[RatFunc], basepoint: RatFunc) -> RatFunc:
    """Expand an orbit expression like "-f1(f2(P))" to a reduced RatFunc."""
    m = _STABLE_EXPR.match(expr.replace(" ", ""))
    if not m:
        raise ValueError(f"bad stable-set expression {expr!r}")
    neg, chain, closers = m.groups()
    indices = [int(s[1:]) for s in re.findall(r"f\d+", chain)]
    if len(closers) != len(indices):
        raise ValueError(f"unbalanced parentheses in {expr!r}")
    val = basepoint
    for idx in reversed(indices):  # innermost application first
        val = apply_quadmap(cs[idx - 1], val)
    return -val if neg else val


@dataclass(frozen=True)
class FamilyDef:
    """A parametrized finite-orbit tuple with its claimed stable set."""

    id: str
    description: str
    lemma: str
    param: str
    c_list: tuple[RatFunc, ...]
    basepoint: RatFunc
    stable_exprs: tuple[str, ...]
    stable: tuple[RatFunc, ...]

    def excluded_values(self) -> set[Fraction]:
        """Parameter values where the family degenerates: any pole, or any
        coefficient collision c_i = c_j."""
        out: set[Fraction] = set()
        for f in (*self.c_list, self.basepoint, *self.stable):
            if f.den.degree > 0:
                out |= set(rational_roots(f.den).roots)
        for i in range(len(self.c_list)):
            for j in range(i + 1, len(self.c_list)):
                diff = self.c_list[i] - self.c_list[j]
                if diff.is_zero():
                    raise ValueError(f"{self.id}: identically equal maps")
                if diff.num.degree > 0:
                    out |= set(rational_roots(diff.num).roots)
        return out

    def instance(self, t0) -> tuple[tuple[Fraction, ...], Fraction,
                                    tuple[Fraction, ...]]:
        """(coefficients, basepoint, stable set) at parameter t0; raises
        ExcludedParameter, naming the pole or the coefficient collision, at
        an excluded value."""
        t0 = exact_rational(t0)
        at = f"at {self.param} = {rat_str(t0)}"
        n = len(self.c_list)
        names = [f"c{k + 1}" for k in range(n)] + ["the basepoint"] + \
            ["a stable-set element"] * len(self.stable)
        values = []
        for name, f in zip(names, (*self.c_list, self.basepoint,
                                   *self.stable)):
            try:
                values.append(f.specialize(t0))
            except PoleError:
                raise ExcludedParameter(
                    f"{self.id}: pole of {name} {at}") from None
        cs = tuple(values[:n])
        for i, j in combinations(range(n), 2):
            if cs[i] == cs[j]:
                raise ExcludedParameter(f"{self.id}: coefficient collision "
                                        f"c{i + 1} = c{j + 1} {at}")
        return cs, values[n], tuple(values[n + 1:])


@dataclass(frozen=True)
class SporadicTuple:
    """An isolated coefficient tuple with its finite-orbit basepoints."""

    id: str
    lemma: str | None
    cs: tuple[Fraction, ...]
    basepoints: tuple[Fraction, ...]

    def map_set(self) -> MapSet:
        return MapSet(self.cs)


@lru_cache(maxsize=1)
def _load() -> tuple[tuple[FamilyDef, ...], tuple[SporadicTuple, ...],
                     tuple[SporadicTuple, ...]]:
    raw = json.loads(
        resources.files("quadorbits.data").joinpath("catalog.json").read_text()
    )
    families = []
    for f in raw["families"]:
        var = f["param"]
        cs = tuple(RatFunc.parse(s, var) for s in f["c"])
        bp = RatFunc.parse(f["basepoint"], var)
        stable = tuple(_expand_stable(e, list(cs), bp) for e in f["stable"])
        families.append(
            FamilyDef(f["id"], f["description"], f["lemma"], var, cs, bp,
                      tuple(f["stable"]), stable)
        )
    pairs = tuple(
        SporadicTuple(s["id"], s.get("lemma"),
                      tuple(rat(c) for c in s["c"]),
                      tuple(rat(b) for b in s["basepoints"]))
        for s in raw["sporadic_pairs"]
    )
    triples = tuple(
        SporadicTuple(s["id"], s.get("lemma"),
                      tuple(rat(c) for c in s["c"]),
                      tuple(rat(b) for b in s["basepoints"]))
        for s in raw["sporadic_triples"]
    )
    return tuple(families), pairs, triples


def catalog() -> tuple[tuple[FamilyDef, ...], tuple[SporadicTuple, ...]]:
    """(families, sporadic tuples); the sporadic list carries the pairs
    first, then the three-map tuples."""
    families, pairs, triples = _load()
    return families, pairs + triples


def sporadic_pairs() -> tuple[SporadicTuple, ...]:
    return _load()[1]


def sporadic_triples() -> tuple[SporadicTuple, ...]:
    return _load()[2]


def lemma_statement(lemma_id: str
                    ) -> tuple[tuple[FamilyDef, ...], tuple[SporadicTuple, ...]]:
    """The families and sporadic pairs the catalog assigns to one pair
    lemma, in catalog order: what that lemma must re-derive and what the
    ten cases take as its conclusion."""
    families, pairs, _ = _load()
    return (tuple(f for f in families if f.lemma == lemma_id),
            tuple(p for p in pairs if p.lemma == lemma_id))


def family_by_id(fid: str) -> FamilyDef:
    for fam in _load()[0]:
        if fam.id == fid:
            return fam
    raise KeyError(f"unknown family id {fid!r}")


def family_verify_symbolic(fam: FamilyDef) -> bool:
    """Exact identity check in Q(t): every map of the family sends every
    claimed stable element to a claimed stable element."""
    stable = list(fam.stable)
    for c in fam.c_list:
        for u in stable:
            if apply_quadmap(c, u) not in stable:
                return False
    return True


def family_instance(fam: FamilyDef, t0) -> tuple[MapSet, Fraction]:
    """Specialize the family at an admissible parameter value."""
    cs, P, _ = fam.instance(t0)
    return MapSet(cs), P
