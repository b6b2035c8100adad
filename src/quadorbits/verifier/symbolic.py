"""Symbolic building blocks for the lemma and case verifiers.

``BiRat`` is a light bivariate rational: a BiPoly numerator over a
denominator that is a product of a polynomial in each variable separately.
That is exactly the shape the parametrizations produce (denominators are
powers of 2, of t(t+1), of y(y+1), ...), and it keeps reduction cheap:
numerators are reduced against each denominator through single-variable
contents, which matches reading off numerators of reduced rational
functions in a computer algebra system.

The quadratic-iterate difference f^4(x0) - f^2(x0) is never expanded
whole.  With u = f^2(x0) it factors exactly as

    (u^2 - u + c) * (u^2 + u + c + 1),

and when c = (1 - s^2)/4 (rational fixed points) the first factor splits
into (u - (1+s)/2)(u - (1-s)/2); when c = -(3 + s^2)/4 (rational 2-cycle)
the second splits into (u + (1-s)/2)(u + (1+s)/2).  The elimination route
works with these small factors throughout; resultant multiplicativity
makes the product of the pairwise eliminants the full resultant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .. import _intpoly as zp
from ..dynamics import Word
from ..polynomials import BiPoly, UniPoly
from ..ratfunc import RatFunc
from ..roots import rational_roots

__all__ = [
    "BiRat",
    "three_cycle_parametrization",
    "iterate_diff_factors",
    "ParamTuple",
    "word_relation_roots",
    "find_exclusion_relation",
]


# ---------------------------------------------------------------------------
# bivariate rationals with separable denominators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiRat:
    """num / (den0(vars[0]) * den1(vars[1])), kept content-reduced."""

    num: BiPoly
    den0: UniPoly
    den1: UniPoly

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
        return BiRat(self.num * self.num, self.den0 * self.den0,
                     self.den1 * self.den1).reduced()

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
# iterate-difference factors
# ---------------------------------------------------------------------------

def _quadmap(x: BiRat, c: BiRat) -> BiRat:
    return x.square() + c


def iterate_diff_factors(c: BiRat, x0: BiRat, fixed_s: BiRat | None = None,
                         cycle_s: BiRat | None = None) -> list[BiPoly]:
    """Reduced numerator factors of f^4(x0) - f^2(x0) for f = x^2 + c.

    With u = f^2(x0) the difference equals (u^2 - u + c)(u^2 + u + c + 1).
    When c is fixed-point parametrized by s (c = (1 - s^2)/4) the first
    quadratic splits as (u - (1+s)/2)(u - (1-s)/2); when c is two-cycle
    parametrized (c = -(3 + s^2)/4) the second splits as
    (u + (1-s)/2)(u + (1+s)/2).  A point zeroes the difference iff it
    zeroes one of the returned numerators (away from poles).
    """
    u = _quadmap(_quadmap(x0, c), c)
    vars = u.vars
    half = BiRat.from_poly(BiPoly.constant(Fraction(1, 2), vars))
    one = BiRat.from_poly(BiPoly.constant(1, vars))
    out: list[BiPoly] = []
    if fixed_s is not None:
        s = fixed_s
        out.append((u - (one + s) * half).numerator())
        out.append((u - (one - s) * half).numerator())
    else:
        out.append((u.square() - u + c).numerator())
    if cycle_s is not None:
        s = cycle_s
        out.append((u + (one - s) * half).numerator())
        out.append((u + (one + s) * half).numerator())
    else:
        out.append((u.square() + u + c + one).numerator())
    return out


# ---------------------------------------------------------------------------
# parametrized tuples and word relations over Q(t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamTuple:
    """A tuple (c_1(t), ..., c_s(t), P(t)) of one-parameter rational
    functions, the shape every curve branch and subcase reduces to."""

    cs: tuple[RatFunc, ...]
    P: RatFunc

    def apply_word(self, word: Word) -> RatFunc:
        x = self.P
        for i in word:
            x = x * x + self.cs[i]
        return x

    def specialize(self, t0: Fraction) -> tuple[tuple[Fraction, ...], Fraction]:
        return tuple(c.specialize(t0) for c in self.cs), self.P.specialize(t0)

    def pole_or_collision(self, t0: Fraction) -> str | None:
        for k, c in enumerate(self.cs):
            if c.den(t0) == 0:
                return f"c{k + 1} has a pole at {t0}"
        if self.P.den(t0) == 0:
            return f"basepoint has a pole at {t0}"
        vals = [c.specialize(t0) for c in self.cs]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[i] == vals[j]:
                    return f"c{i + 1} = c{j + 1} at {t0}"
        return None


def word_relation_roots(tup: ParamTuple, word: Word, target: int
                        ) -> tuple[UniPoly, list[Fraction]] | None:
    """Numerator of f_target^4(w(P)) - f_target^2(w(P)) and its rational
    roots; None if the relation vanishes identically (w(P) is preperiodic
    for the target map across the whole family)."""
    x = tup.apply_word(word)
    c = tup.cs[target]
    u = x * x + c
    u = u * u + c  # u = f^2(x)
    diff = (u * u - u + c) * (u * u + u + c + 1)
    if diff.is_zero():
        return None
    num = diff.num.primitive()
    return num, sorted(rational_roots(num.squarefree_part()).root_set())


def find_exclusion_relation(tup: ParamTuple, max_len: int = 4
                            ) -> tuple[Word, int, UniPoly, list[Fraction]]:
    """Shortest word w (lexicographically least among shortest) and target
    map index such that the preperiodicity relation for w(P) under the
    target is not identically zero; returns the relation numerator and its
    complete rational root list.

    A parameter value giving a finite orbit must zero every such relation,
    so the returned roots are a complete candidate list for the branch.
    """
    s = len(tup.cs)
    words: list[Word] = [()]
    for _ in range(max_len + 1):
        next_words: list[Word] = []
        for w in words:
            for target in range(s):
                got = word_relation_roots(tup, w, target)
                if got is not None:
                    num, roots = got
                    return w, target, num, roots
            for i in range(s):
                next_words.append(w + (i,))
        words = next_words
    raise ArithmeticError("no non-vanishing word relation up to length "
                          f"{max_len}; the family looks finite-orbit")
