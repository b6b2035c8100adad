"""Buchberger's algorithm over Q[y, z] with lex order.

This is the faithful route to the ideal computations behind the pair
classifications; the resultant machinery in ``polynomials`` is the fast
route.  Computation carries an explicit resource budget (processed-pair and
coefficient-bit ceilings): exceeding it raises ``BudgetExhausted``, which is
a reported outcome, never a wrong answer.

The order is lex with vars[0] > vars[1], which is plain comparison of
exponent tuples.  Reduction works over Z on ``BiPoly``'s integer map
``ints`` (its denominator set aside), each exponent packed into one int
whose order is the same (see the integer reduction below; inputs with an
exponent of 2^31 or more raise ValueError), and the largest remaining term
comes off a max-heap (a cancelled term is skipped when it comes off).
Instead of dividing by a divisor's leading coefficient, a step scales the
whole remainder by lc / gcd(c, lc) and then removes its content, so the
coefficients stay bounded; the content comes off in one exact division per
coefficient, with no separate gcd pass (``_content_split``, which
``_primitive`` uses too).  ``normal_form`` divides the tracked scale and
the denominator back out and returns the exact remainder over Q; inside
``buchberger`` the basis is kept as primitive integer polynomials only,
interreduced in one pass in that form and converted to ``BiPoly`` at the
end.

Pair selection follows the normal strategy (Giovini et al., ISSAC 1991):
the pending pairs (i, j), i < j, sit in one heap keyed (lcm of the leading
terms, -j, i), so the smallest lcm comes first and, among equal lcms, the
pairs of the element added last, each with its oldest partner first.  Every
popped pair counts toward the budget; the coprime-leading-term and chain
criteria skip pairs that would reduce to zero.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import islice

from .polynomials import BiPoly
from .records import Frozen, set_field

__all__ = [
    "Budget",
    "BudgetExhausted",
    "s_polynomial",
    "normal_form",
    "buchberger",
]

Exponent = tuple[int, int]


class Budget(Frozen):
    """Limits of one ``buchberger`` run; the CLI's defaults too."""

    __slots__ = ("max_pairs", "max_coeff_bits")

    def __init__(self, max_pairs: int = 5_000, max_coeff_bits: int = 500_000):
        if max_pairs < 0 or max_coeff_bits < 0:
            raise ValueError(f"budget limits must be at least 0, not "
                             f"max_pairs={max_pairs}, "
                             f"max_coeff_bits={max_coeff_bits}")
        set_field(self, "max_pairs", max_pairs)
        set_field(self, "max_coeff_bits", max_coeff_bits)


class BudgetExhausted(Exception):
    """Raised when Buchberger exceeds its resource budget."""

    def __init__(self, message: str, pairs_done: int, max_bits: int,
                 basis_size: int):
        super().__init__(message)
        self.pairs_done = pairs_done
        self.max_bits = max_bits
        self.basis_size = basis_size


def _divides(e1: Exponent, e2: Exponent) -> bool:
    return e1[0] <= e2[0] and e1[1] <= e2[1]


def _lcm(e1: Exponent, e2: Exponent) -> Exponent:
    return (max(e1[0], e2[0]), max(e1[1], e2[1]))


def _mono_mul(f: BiPoly, e: Exponent) -> BiPoly:
    return BiPoly.from_int(f.den, {(i + e[0], j + e[1]): c
                                   for (i, j), c in f.ints.items()}, f.vars)


def s_polynomial(f: BiPoly, g: BiPoly) -> BiPoly:
    """lcm-cancellation combination of f and g: the leading terms cancel."""
    ef, eg = max(f.ints), max(g.ints)
    l = _lcm(ef, eg)
    return (_mono_mul(f, (l[0] - ef[0], l[1] - ef[1]))
            * Fraction(f.den, f.ints[ef])
            - _mono_mul(g, (l[0] - eg[0], l[1] - eg[1]))
            * Fraction(g.den, g.ints[eg]))


# -- integer reduction ------------------------------------------------------
#
# Inside the reduction an exponent (a, b) is packed into one int, a << 32 | b,
# with a and b below 2^31.  Lex order is then int order, the shift by a
# monomial x^q is one addition (the parts add without a carry), and x^g
# divides x^e exactly when d = e - g is nonnegative with bit 31 clear: a
# borrow from a short b part sets that bit, and a short a part makes d
# negative.  Most terms of an S-polynomial end in the remainder; for those,
# one comparison with a staircase of the leading exponents (``_Staircase``)
# replaces the scan of the basis for a divisor, and keeps them off the heap.
#
# A basis element is the triple (packed leading exponent, leading
# coefficient, items), the items being the (packed exponent, int) pairs of a
# primitive integer polynomial, the leading term included.

_LIMIT = 1 << 31
_LOW = (1 << 32) - 1
# how many leading coefficients give ``_content_split`` its first candidate
_SAMPLE = 3

_Items = list[tuple[int, int]]
_Element = tuple[int, int, _Items]


def _beyond_range(e: Exponent) -> ValueError:
    return ValueError(f"exponent {e} beyond the packed range: parts must be "
                      f"below 2^31")


def _pack(ints: dict[Exponent, int]) -> dict[int, int]:
    """``ints`` keyed by packed exponents; ValueError on an exponent part of
    2^31 or more."""
    for e in ints:
        if e[0] >= _LIMIT or e[1] >= _LIMIT:
            raise _beyond_range(e)
    return {a << 32 | b: c for (a, b), c in ints.items()}


def _split(e: int) -> Exponent:
    """The exponent pair of a packed exponent."""
    return e >> 32, e & _LOW


def _content_split(work: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(d, work / d), d > 0 the content of ``work``, a nonempty map to
    nonzero ints; ``work`` itself when d = 1.  One exact division per
    coefficient and no separate gcd pass: the first candidate d, the gcd
    of the first ``_SAMPLE`` coefficients, is a multiple of the content; a
    coefficient that leaves a remainder r replaces d by g = gcd(d, r),
    and the quotients taken so far are multiplied by d / g, which is exact
    (the content removal of the primitive PRS; Geddes, Czapor and Labahn,
    *Algorithms for Computer Algebra*, ch. 7)."""
    d = math.gcd(*islice(work.values(), _SAMPLE))
    if d == 1:
        return 1, work
    out = {}
    for t, v in work.items():
        q, r = divmod(v, d)
        if r:
            g = math.gcd(d, r)
            if g == 1:
                return 1, work
            ratio, d = d // g, g
            out = {s: p * ratio for s, p in out.items()}
            q = v // d
        out[t] = q
    return d, out


def _primitive(work: dict[int, int]) -> _Element:
    """Primitive part of a nonempty map to nonzero ints, normalised as
    ``BiPoly.content_primitive``: content removed by ``_content_split``,
    positive leading coefficient."""
    _, work = _content_split(work)
    lt = max(work)
    if work[lt] < 0:
        work = {e: -c for e, c in work.items()}
    return lt, work[lt], list(work.items())


class _Staircase(dict):
    """a part -> the least packed exponent of that a part that some leading
    exponent of the basis divides, a << 32 | 2^31 where none does: a
    leading exponent divides e exactly when e >= stairs[e >> 32].  Each
    entry is computed on first use."""

    def __init__(self, basis: list[_Element]):
        super().__init__()
        low: dict[int, int] = {}
        for lt, _, _ in basis:
            a, b = _split(lt)
            low[a] = min(b, low.get(a, b))
        self.steps = low.items()

    def __missing__(self, a: int) -> int:
        stair = a << 32 | min((b for s, b in self.steps if s <= a),
                              default=_LIMIT)
        self[a] = stair
        return stair


def _reduce(work: dict[int, int], basis: list[_Element]
            ) -> tuple[dict[int, int], Fraction]:
    """Fraction-free division of ``work`` (consumed) by the basis:
    (rem, scale) with rem / scale the exact remainder over Q of the
    division that always reduces the largest term by the first divisor
    whose leading exponent divides it.  Every divisor comes from
    ``_primitive``, so its leading coefficient is positive and the scale
    m of a step is at least 1; a step with m != 1 then removes the
    content of ``work`` by ``_content_split`` and divides the scale by it.
    Only the exponents that some leading exponent divides go on the heap:
    the others are never reduced, and a step only adds terms below the one
    it reduces, so they stay in ``work`` (rescaled with it) and form the
    remainder when the heap is empty.  A term whose b part a shift has
    carried to 2^31 raises ValueError when it comes off the heap."""
    stairs = _Staircase(basis)
    heap = [-e for e in work if e >= stairs[e >> 32]]
    heapq.heapify(heap)
    pop, push, gcd, limit = heapq.heappop, heapq.heappush, math.gcd, _LIMIT
    scale = Fraction(1)
    while heap:
        e = -pop(heap)
        c = work.get(e)
        if c is None:  # cancelled after it was pushed
            continue
        if e & limit:
            raise _beyond_range(_split(e))
        for lt, cg, items in basis:  # the first divisor, which exists
            q = e - lt
            if q >= 0 and not q & limit:
                break
        # work * m - k * x^q * g cancels the term at e
        g = gcd(c, cg)
        m, k = cg // g, c // g
        if m != 1:
            work = {t: v * m for t, v in work.items()}
        for t, tc in items:
            te = t + q
            old = work.get(te)
            if old is None:
                work[te] = -k * tc
                if te >= stairs[te >> 32]:
                    push(heap, -te)
            else:
                s = old - k * tc
                if s:
                    work[te] = s
                else:
                    del work[te]
        if m != 1:
            d, work = _content_split(work)
            scale = scale * m / d
    return work, scale


def normal_form(f: BiPoly, basis: Sequence[BiPoly]) -> BiPoly:
    """Remainder of multivariate division of f by the basis.

    No term of the remainder is divisible by any leading term of the basis;
    f - normal_form(f, basis) lies in the ideal the basis generates.
    """
    gens = [g for g in basis if not g.is_zero()]
    if not gens:
        raise ValueError("empty basis")
    # scaling a divisor leaves the remainder unchanged
    divisors = [_primitive(_pack(g.ints)) for g in gens]
    rem, scale = _reduce(_pack(f.ints), divisors)
    scale *= f.den
    return BiPoly.from_int(scale.numerator, {_split(e): c * scale.denominator
                                             for e, c in rem.items()}, f.vars)


def _s_items(f: _Element, g: _Element) -> dict[int, int]:
    """An integer multiple of the S-polynomial of f and g."""
    fl, cf, f_items = f
    gl, cg, g_items = g
    (fa, fb), (ga, gb) = _split(fl), _split(gl)
    lcm = max(fa, ga) << 32 | max(fb, gb)
    d = math.gcd(cf, cg)
    mf, mg = cg // d, cf // d
    # lcm / lt as packed shifts: both parts are nonnegative
    sf, sg = lcm - fl, lcm - gl
    out = {e + sf: mf * c for e, c in f_items}
    for e, c in g_items:
        e += sg
        s = out.get(e, 0) - mg * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _max_bits(items: _Items) -> int:
    """Largest numerator or denominator bit length, the denominators of
    integer coefficients being 1."""
    return max(1, max(abs(c) for _, c in items).bit_length())


def buchberger(gens, budget: Budget = Budget()) -> tuple[BiPoly, ...]:
    """Reduced lex Groebner basis of the ideal generated by ``gens``.

    Raises BudgetExhausted when the pair count or coefficient size exceeds
    the budget; the exception carries the run statistics.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    G: list[_Element] = [_primitive(_pack(g.ints)) for g in gens]
    lt = [_split(el[0]) for el in G]
    # pending pairs (i, j), i < j, keyed (lcm, -j, i); see the module doc
    pending = [(_lcm(lt[i], lt[j]), -j, i)
               for j in range(len(G)) for i in range(j)]
    heapq.heapify(pending)
    done: set[tuple[int, int]] = set()
    pairs_done = 0
    max_bits = max(_max_bits(el[2]) for el in G)

    def chain_skippable(i: int, j: int) -> bool:
        l = _lcm(lt[i], lt[j])
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(lt[k], l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    return True
        return False

    while pending:
        l, j, i = heapq.heappop(pending)
        j = -j
        done.add((i, j))
        pairs_done += 1
        if pairs_done > budget.max_pairs:
            raise BudgetExhausted(
                f"pair budget {budget.max_pairs} exhausted",
                pairs_done, max_bits, len(G),
            )
        # Buchberger's first criterion: coprime leading terms reduce to zero
        if lt[i][0] + lt[j][0] == l[0] and lt[i][1] + lt[j][1] == l[1]:
            continue
        if chain_skippable(i, j):
            continue
        rem, _ = _reduce(_s_items(G[i], G[j]), G)
        if not rem:
            continue
        h = _primitive(rem)
        bits = _max_bits(h[2])
        max_bits = max(max_bits, bits)
        if bits > budget.max_coeff_bits:
            raise BudgetExhausted(
                f"coefficient budget {budget.max_coeff_bits} bits exhausted",
                pairs_done, max_bits, len(G),
            )
        t = len(G)
        G.append(h)
        lt.append(_split(h[0]))
        for k in range(t):
            heapq.heappush(pending, (_lcm(lt[k], lt[t]), -t, k))

    # the reduced basis in one pass: in increasing order of leading
    # exponents, keep each element whose leading exponent no kept one
    # divides, and reduce each kept element once by the others; tail
    # reduction never moves a leading exponent, and the reduced basis is
    # unique
    kept: list[_Element] = []
    for el in sorted(G, key=lambda el: el[0]):
        if not any(_divides(_split(k[0]), _split(el[0])) for k in kept):
            kept.append(el)
    basis = []
    for n, (e, _, items) in enumerate(kept):
        rem, _ = _reduce(dict(items), kept[:n] + kept[n + 1:])
        basis.append(BiPoly.from_int(rem[e], {_split(t): c for t, c
                                              in rem.items()}, gens[0].vars))
    return tuple(basis)
