"""Symbolic building blocks for the lemma and case verifiers.

``BiRat`` is a light bivariate rational: a BiPoly numerator over a
denominator that is a product of a polynomial in each variable separately.
That is exactly the shape the parametrizations produce (denominators are
powers of 2, of t(t+1), of y(y+1), ...), and it keeps reduction cheap:
numerators are reduced against each denominator through single-variable
contents, which matches reading off numerators of reduced rational
functions in a computer algebra system.

Every specialized candidate of the lemmas and the cases is disposed of
here: ``dispose_at`` turns the ``ExcludedParameter`` that
``families.ParamTuple.at`` raises at a parameter value into a pole or
collision disposition, and ``dispose_tuple`` decides a concrete tuple by
family membership or complete basepoint enumeration.  That decision is
pure, and the lemmas and cases meet the same tuples many times, so
``_decide`` makes it once per process, keyed by the coefficients and the
family ids, and ``dispose_tuple`` builds a new report from it on every
call.  An excluded curve
branch or subcase branch ends in ``exclude_by_relation``: a shortest
non-vanishing word relation, then ``dispose_at`` of each rational root.

``find_exclusion_relation`` walks the words by length, then
lexicographically, and the targets in order, over word images each
computed once from its prefix's image.  The relation of x = w(P) under
f = f_target is (f(u) - u)(f(u) + u + 1) with u = f^2(x), so it vanishes
exactly when f(u) = u or f(u) = -u - 1, an equality of reduced functions;
only the first relation that does not vanish is formed.  Two identities
skip relations before any iterate is compared: f(-x) = f(x), so x and -x
share every relation, and a relation that vanishes for x vanishes for f(x)
and f^2(x) (forward invariance).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .. import _intpoly as zp
from ..dynamics import MapSet, OrbitResult, Word, finite_orbit_points, \
    monoid_orbit, word_str
from ..families import ExcludedParameter, FamilyDef, ParamTuple, \
    family_by_id
from ..polynomials import BiPoly, UniPoly
from ..ratfunc import RatFunc
from ..rationals import rat_str
from ..records import Frozen, set_field
from ..roots import rational_roots
from .axioms import poonen_criterion
from .reports import Disposition, fmt_pair

__all__ = [
    "BiRat",
    "three_cycle_parametrization",
    "dispose_at",
    "dispose_tuple",
    "find_exclusion_relation",
    "exclude_by_relation",
]


# ---------------------------------------------------------------------------
# bivariate rationals with separable denominators
# ---------------------------------------------------------------------------

class BiRat(Frozen):
    """num / (den0(vars[0]) * den1(vars[1])), kept content-reduced."""

    __slots__ = ("num", "den0", "den1")

    def __init__(self, num: BiPoly, den0: UniPoly, den1: UniPoly):
        set_field(self, "num", num)
        set_field(self, "den0", den0)
        set_field(self, "den1", den1)

    @classmethod
    def from_poly(cls, p: BiPoly) -> "BiRat":
        return cls(p, UniPoly.constant(1, p.vars[0]),
                   UniPoly.constant(1, p.vars[1])).reduced()

    @classmethod
    def from_ratfunc(cls, f: RatFunc, which: int, vars: tuple[str, str]) -> "BiRat":
        """Embed a univariate rational function as a BiRat in vars[which]."""
        num = BiPoly.from_unipoly(f.num, which, vars)
        if which == 0:
            return cls(num, f.den, UniPoly.constant(1, vars[1])).reduced()
        return cls(num, UniPoly.constant(1, vars[0]), f.den).reduced()

    @property
    def vars(self) -> tuple[str, str]:
        return self.num.vars

    def reduced(self) -> "BiRat":
        num, d0, d1 = self.num, self.den0, self.den1
        if num.is_zero():
            return BiRat(num, UniPoly.constant(1, d0.var),
                         UniPoly.constant(1, d1.var))
        # scalar normalization first, so the directional contents are integral
        ncont, num = num.content_primitive()
        c0, d0 = d0.content_primitive()
        c1, d1 = d1.content_primitive()
        scalar = ncont / (c0 * c1)
        for which in (0, 1):
            den = d0 if which == 0 else d1
            if den.degree > 0:
                cont = zp.zzcontent(num.to_coeff_lists(1 - which)[1])
                g = zp.zgcd(cont, den.ints)
                if zp.zdeg(g) > 0:
                    gp = UniPoly.from_int(1, g, den.var)
                    num = num.exact_divide(BiPoly.from_unipoly(gp, which,
                                                               num.vars))
                    den = den.exact_divide(gp)
                    if which == 0:
                        d0 = den
                    else:
                        d1 = den
        num = num * Fraction(scalar.numerator)
        d0 = d0 * Fraction(scalar.denominator)
        return BiRat(num, d0, d1)

    def _coerce(self, other) -> "BiRat":
        if isinstance(other, BiRat):
            return other
        if isinstance(other, (int, Fraction)):
            return BiRat.from_poly(BiPoly.constant(other, self.vars))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "BiRat":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        a = self
        emb = BiPoly.from_unipoly
        num = (a.num * emb(b.den0, 0, a.vars) * emb(b.den1, 1, a.vars)
               + b.num * emb(a.den0, 0, a.vars) * emb(a.den1, 1, a.vars))
        return BiRat(num, a.den0 * b.den0, a.den1 * b.den1).reduced()

    __radd__ = __add__

    def __neg__(self) -> "BiRat":
        return BiRat(-self.num, self.den0, self.den1)

    def __sub__(self, other) -> "BiRat":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self + (-b)

    def __rsub__(self, other) -> "BiRat":
        return (-self) + other

    def __mul__(self, other) -> "BiRat":
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return BiRat(self.num * b.num, self.den0 * b.den0,
                     self.den1 * b.den1).reduced()

    __rmul__ = __mul__

    def square(self) -> "BiRat":
        # the square of a content-reduced BiRat is content-reduced: by
        # Gauss's lemma contents square, and coprime factors stay coprime
        return BiRat(self.num * self.num, self.den0 * self.den0,
                     self.den1 * self.den1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def numerator(self) -> BiPoly:
        """The reduced numerator, integer-primitive."""
        return self.num.content_primitive()[1] if not self.num.is_zero() \
            else self.num


# ---------------------------------------------------------------------------
# parametrizations
# ---------------------------------------------------------------------------

def three_cycle_parametrization(var: str = "t") -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
    """(c, P1, P2, P3): the rational 3-cycles of x^2 + c.

    Substituting the parametrization into the cycle relations checks out
    exactly (tested); the three points are the full 3-cycle.
    """
    s = RatFunc.t(var)
    s2, s3 = s * s, s * s * s
    den = 2 * s * (s + 1)
    c_num = -(s3 * s3 + 2 * s3 * s2 + 4 * s2 * s2 + 8 * s3 + 9 * s2 + 4 * s + 1)
    c = c_num / (s2 * (s + 1) * (s + 1) * 4)
    p1 = (s3 - s - 1) / den
    p2 = (s3 + 2 * s2 + s + 1) / den
    p3 = -(s3 + 2 * s2 + 3 * s + 1) / den
    return c, p1, p2, p3


# ---------------------------------------------------------------------------
# dispositions and word relations of parametrized tuples
# ---------------------------------------------------------------------------

def dispose_at(tup: ParamTuple, t0: Fraction, subject: str, families=()
               ) -> tuple[Disposition, list[OrbitResult], Fraction | None]:
    """Disposition of the tuple at parameter t0, with the finite-orbit
    results behind it and the basepoint value: a pole of a coefficient or
    of the basepoint, or a coefficient collision (both with no results and
    no basepoint), or else ``dispose_tuple`` of the values."""
    try:
        cs, P0 = tup.at(t0)
    except ExcludedParameter as e:
        at = rat_str(e.t0)
        if e.pole:
            return Disposition(subject, "pole",
                               f"{e.pole} has a pole at {at}"), [], None
        i, j = e.pair
        return Disposition(subject, "collision", f"c{i} = c{j} at {at}",
                           {"c": [rat_str(c) for c in e.cs]}), [], None
    return (*dispose_tuple(subject, list(cs), P0, families), P0)


def _family_accounts(fam: FamilyDef, c1: Fraction, c2: Fraction,
                     basepoints: list[Fraction]) -> Fraction | None:
    """Parameter at which the family instance equals (c1, c2) AND its
    stable set (with the basepoint) covers every finite-orbit basepoint of
    the pair; a pair so covered carries no structure beyond the family."""
    # c1 = p/q and the family's c1 = N/D agree where q N - p D vanishes:
    # that is the numerator of N/D - p/q, since gcd(q N - p D, D) = 1
    f = fam.tup.cs[0]
    num = f.num * c1.denominator - f.den * c1.numerator
    if num.degree <= 0:
        # a constant difference either never vanishes or fails to pin the
        # parameter; the catalog families all have non-constant c1
        return None
    for t0 in sorted(rational_roots(num).root_set()):
        try:
            cs, P, stable = fam.instance(t0)
        except ExcludedParameter:
            continue
        if cs[1] == c2 and set(basepoints) <= {P, *stable}:
            return t0
    return None


# a bound, as any tuple may be disposed of; one pass of the lemmas and the
# cases decides 40 distinct tuples
@lru_cache(maxsize=1024)
def _decide(cs: tuple[Fraction, ...], family_ids: tuple[str, ...]
            ) -> tuple[tuple[OrbitResult, ...], tuple[str, Fraction] | None]:
    """The finite-orbit results of a tuple of distinct coefficients and, for
    a pair with such points, the first of the catalog families named by
    family_ids that accounts for it, with its parameter.  Pure, so decided
    once per process; the results are shared, so they are tuples."""
    finite = tuple(finite_orbit_points(MapSet(cs)))
    if finite and len(cs) == 2:
        bps = [r.basepoint for r in finite]
        for fid in family_ids:
            t0 = _family_accounts(family_by_id(fid), cs[0], cs[1], bps)
            if t0 is not None:
                return finite, (fid, t0)
    return finite, None


def dispose_tuple(subject: str, cs: Sequence[Fraction], P0: Fraction | None,
                  families: Sequence[FamilyDef] = ()
                  ) -> tuple[Disposition, list[OrbitResult]]:
    """Classify a concrete coefficient tuple with optional basepoint P0.

    Returns the disposition -- "collision", "family" (a pair that one of
    the catalog ``families`` accounts for), "sporadic" (finite-orbit points
    exist) or "excluded" (none exist; with P0, a guard witness on its
    orbit) -- and the finite-orbit results of the tuple, empty for a
    collision.  The decision is ``_decide``'s, made once per tuple and
    families; the disposition and the list are new on every call."""
    c = [rat_str(x) for x in cs]
    if len(set(cs)) != len(cs):
        return Disposition(subject, "collision", "coefficient collision",
                           {"c": c}), []
    finite, hit = _decide(tuple(cs), tuple(f.id for f in families))
    if hit is not None:
        fid, t0 = hit
        return Disposition(
            subject, "family",
            f"member of {fid} at parameter {rat_str(t0)}; the "
            "family stable set covers every finite-orbit basepoint",
            {"family": fid, "parameter": rat_str(t0), "c": c}
        ), list(finite)
    if finite:
        return Disposition(
            subject, "sporadic",
            f"pair {fmt_pair(cs)} has finite-orbit points",
            {"c": c, "basepoints": [rat_str(r.basepoint) for r in finite],
             "orbit_sizes": [len(r.orbit) for r in finite]}), list(finite)
    witness = {}
    if P0 is not None:
        S = MapSet(cs)
        res = monoid_orbit(S, P0)
        if not res.is_finite():
            g = res.witness
            witness = {
                "word": word_str((res.witness_word or ())),
                "point": rat_str(g.point),
                "map": g.map_index + 1,
                "guard": g.reason,
                "poonen_criterion": poonen_criterion(S[g.map_index], g.point),
            }
    return Disposition(
        subject, "excluded",
        f"pair {fmt_pair(cs)} admits no finite-orbit points "
        f"(complete admissible-basepoint enumeration)",
        {"c": c, **({"witness": witness} if witness else {})}), []


class _WordImages(dict):
    """w(P) for the words w of one tuple, each computed once: the image of
    w + (i,) is f_i of the image of w.  One per search, so nothing outlives
    it."""

    def __init__(self, tup: ParamTuple):
        super().__init__({(): tup.P})
        self.cs = tup.cs

    def __missing__(self, word: Word) -> RatFunc:
        x = self[word[:-1]]
        y = self[word] = x * x + self.cs[word[-1]]
        return y


# the longest word find_exclusion_relation tries
MAX_WORD_LEN = 4


def find_exclusion_relation(tup: ParamTuple
                            ) -> tuple[Word, int, UniPoly, list[Fraction]]:
    """Shortest word w (lexicographically least among shortest) and target
    map index such that the preperiodicity relation for w(P) under the
    target is not identically zero; returns the relation numerator and its
    complete rational root list.

    A parameter value giving a finite orbit must zero every such relation,
    so the returned roots are a complete candidate list for the branch.

    With x = w(P), f the target map and u = f^2(x), the relation
    f^4(x) - f^2(x) is (f(u) - u)(f(u) + u + 1), so it vanishes exactly
    when f(u) = u or f(u) = -u - 1: equalities of reduced functions.  u and
    f(u) are the images of the words w + (target, target) and
    w + (target, target, target), shared across targets and words.  A
    (w, target) that two identities already decide is skipped: f(-x) =
    f(x), so x and -x share every relation, and a vanishing relation of x
    vanishes for f(x) and f^2(x) too, since
    f^4(f(x)) = f(f^4(x)) = f(f^2(x)) = f^2(f(x)).
    """
    s = len(tup.cs)
    image = _WordImages(tup)
    # per target: points whose relation under it is known to vanish
    vanishing: list[set[RatFunc]] = [set() for _ in range(s)]
    words: list[Word] = [()]
    for _ in range(MAX_WORD_LEN + 1):
        for w in words:
            x = image[w]
            for target in range(s):
                known = vanishing[target]
                if x in known or -x in known:
                    continue
                u = image[w + (target, target)]
                fu = image[w + (target, target, target)]
                if fu == u or fu == -u - 1:
                    known.update((x, image[w + (target,)], u))
                    continue
                num = ((fu - u) * (fu + u + 1)).num.primitive()
                return w, target, num, sorted(rational_roots(num).root_set())
        words = [w + (i,) for w in words for i in range(s)]
    raise ArithmeticError("no non-vanishing word relation up to length "
                          f"{MAX_WORD_LEN}; the family looks finite-orbit")


def exclude_by_relation(tup: ParamTuple, prefix: str = "", families=()
                        ) -> tuple[Word, int, UniPoly, list[Fraction], list]:
    """``find_exclusion_relation`` of the tuple, plus ``dispose_at`` of each
    of its rational roots r, with subject prefix + "parameter r": the end
    of every excluded curve branch and of every subcase branch."""
    word, target, relation, roots = find_exclusion_relation(tup)
    return word, target, relation, roots, [
        dispose_at(tup, r, f"{prefix}parameter {rat_str(r)}", families)
        for r in roots]
