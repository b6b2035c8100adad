"""Catalog of parametrized finite-orbit families and sporadic tuples.

The catalog is the one statement of the pair lemmas' conclusions: every
family and sporadic pair carries the lemma that classifies it, and
``lemma_statement`` hands the same entries to the lemma verifier, which
re-derives them, and to the ten-case analysis, which consumes them.

The catalog ships as a data file of exact rational strings; stable sets are
stored as the orbit expressions they come from ("P", "-P", "f2(P)",
"f1(f2(P))", ...) and evaluated, with P the basepoint and f<k> the map
x^2 + c_k, to reduced elements of Q(t) at load time.

``ParamTuple`` is the one form of a one-parameter tuple (c_1(t), ...,
c_s(t), P(t)), for a family, a lemma's curve branch or a case's subcase;
``ParamTuple.at`` alone specializes one and names a pole or a coefficient
collision.  Excluded values are computed, not hard-coded: the rational
poles of every function plus the rational roots of c_i - c_j.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations
from typing import NamedTuple

from .polynomials import evaluate
from .ratfunc import PoleError, RatFunc
from .rationals import exact_rational, rat, rat_str
from .roots import rational_roots

__all__ = [
    "ParamTuple",
    "ExcludedParameter",
    "FamilyDef",
    "SporadicTuple",
    "catalog",
    "family_by_id",
    "family_verify_symbolic",
    "lemma_statement",
]


class ExcludedParameter(ValueError):
    """A one-parameter tuple specialized at ``t0``, where it degenerates:
    ``pole`` names the function with a pole there ("c1", ..., "c<s>" or
    "basepoint"); otherwise ``pair`` holds the 1-based indices (i, j) of two
    coefficients that coincide, and ``cs`` the coefficient values."""

    def __init__(self, message: str, t0, pole=None, pair=None, cs=()):
        super().__init__(message)
        self.t0, self.pole, self.pair, self.cs = t0, pole, pair, cs


class ParamTuple(NamedTuple):
    """(c_1(t), ..., c_s(t), P(t)) in one parameter t: a catalog family, a
    lemma's curve branch or a case's subcase."""

    cs: tuple[RatFunc, ...]
    P: RatFunc

    def relabel(self, var: str) -> "ParamTuple":
        """The same tuple in the parameter var."""
        return ParamTuple(tuple(c.relabel(var) for c in self.cs),
                          self.P.relabel(var))

    def at(self, t0) -> tuple[tuple[Fraction, ...], Fraction]:
        """(coefficients, basepoint) at t0; raises ExcludedParameter at a
        pole of any function, or else where two coefficients coincide."""
        t0 = exact_rational(t0)
        at = f"at {self.P.var} = {rat_str(t0)}"
        names = [f"c{k + 1}" for k in range(len(self.cs))] + ["basepoint"]
        values = []
        for name, f in zip(names, (*self.cs, self.P)):
            try:
                values.append(f.specialize(t0))
            except PoleError:
                shown = "the basepoint" if f is self.P else name
                raise ExcludedParameter(f"pole of {shown} {at}", t0,
                                        pole=name) from None
        *cs, P = values
        for i, j in combinations(range(len(cs)), 2):
            if cs[i] == cs[j]:
                raise ExcludedParameter(
                    f"coefficient collision c{i + 1} = c{j + 1} {at}", t0,
                    pair=(i + 1, j + 1), cs=tuple(cs))
        return tuple(cs), P

    def excluded_values(self) -> set[Fraction]:
        """The values at which ``at`` raises: the rational poles of every
        function and the rational roots of every c_i - c_j; coefficients
        that are identically equal, excluded everywhere, raise ValueError."""
        out: set[Fraction] = set()
        for f in (*self.cs, self.P):
            if f.den.degree > 0:
                out |= rational_roots(f.den).root_set()
        for (i, a), (j, b) in combinations(enumerate(self.cs, 1), 2):
            diff = a - b
            if diff.is_zero():
                raise ValueError(f"identically equal maps c{i} = c{j}")
            if diff.num.degree > 0:
                out |= rational_roots(diff.num).root_set()
        return out


class FamilyDef(NamedTuple):
    """A catalog family: its parametrized tuple and claimed stable set."""

    id: str
    description: str
    lemma: str
    tup: ParamTuple
    stable_exprs: tuple[str, ...]
    stable: tuple[RatFunc, ...]

    def instance(self, t0) -> tuple[tuple[Fraction, ...], Fraction,
                                    tuple[Fraction, ...]]:
        """(coefficients, basepoint, stable set) at parameter t0; raises
        ExcludedParameter, naming the pole or the coefficient collision, at
        an excluded value.  The stable elements are polynomials in the
        coefficients and the basepoint, so they have no poles of their
        own."""
        try:
            cs, P = self.tup.at(t0)
        except ExcludedParameter as e:
            raise ExcludedParameter(f"{self.id}: {e}", e.t0, e.pole, e.pair,
                                    e.cs) from None
        return cs, P, tuple(u.specialize(t0) for u in self.stable)


class SporadicTuple(NamedTuple):
    """An isolated coefficient tuple with its finite-orbit basepoints."""

    id: str
    lemma: str | None
    cs: tuple[Fraction, ...]
    basepoints: tuple[Fraction, ...]


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
        names = {"P": bp, **{f"f{k}": (lambda x, c=c: x * x + c)
                             for k, c in enumerate(cs, 1)}}
        stable = tuple(evaluate(e, names.__getitem__) for e in f["stable"])
        families.append(
            FamilyDef(f["id"], f["description"], f["lemma"],
                      ParamTuple(cs, bp), tuple(f["stable"]), stable)
        )

    def sporadic(key: str) -> tuple[SporadicTuple, ...]:
        return tuple(SporadicTuple(s["id"], s.get("lemma"),
                                   tuple(rat(c) for c in s["c"]),
                                   tuple(rat(b) for b in s["basepoints"]))
                     for s in raw[key])

    return tuple(families), sporadic("sporadic_pairs"), \
        sporadic("sporadic_triples")


def catalog() -> tuple[tuple[FamilyDef, ...], tuple[SporadicTuple, ...]]:
    """(families, sporadic tuples); the sporadic list carries the pairs
    first, then the three-map tuples."""
    families, pairs, triples = _load()
    return families, pairs + triples


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
    return all(u * u + c in fam.stable
               for c in fam.tup.cs for u in fam.stable)

