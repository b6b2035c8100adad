"""Buchberger's algorithm over Q[y, z] with lex order.

This is the faithful route to the ideal computations behind the pair
classifications; the resultant machinery in ``polynomials`` is the fast
route.  Computation carries an explicit resource budget (processed-pair and
coefficient-bit ceilings): exceeding it raises ``BudgetExhausted``, which is
a reported outcome, never a wrong answer.

The order is lex with vars[0] > vars[1], which is plain comparison of
exponent tuples.  Reduction works over Z on ``BiPoly``'s integer map
``ints`` (its denominator set aside), and the largest remaining term comes
off a max-heap (a cancelled term is skipped when it comes off).  Instead of
dividing by a divisor's leading coefficient, a step scales the whole
remainder by lc / gcd(c, lc) and then removes its content, so the
coefficients stay bounded.  ``normal_form`` divides the tracked scale and
the denominator back out and returns the exact remainder over Q; inside
``buchberger`` the basis is kept as primitive integer polynomials only, and
converted to ``BiPoly`` once, to interreduce the result.

Pair selection follows the normal strategy: the pair with the smallest lcm
of leading terms, taken from a heap of lcms, with ties broken in the
iteration order of the set of pending pairs.  The coprime-leading-term and
chain criteria skip pairs that would reduce to zero.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import BiPoly

__all__ = [
    "IdealBasis",
    "Budget",
    "BudgetExhausted",
    "leading_term",
    "s_polynomial",
    "normal_form",
    "buchberger",
]

Exponent = tuple[int, int]


@dataclass(frozen=True)
class Budget:
    max_pairs: int = 20_000
    max_coeff_bits: int = 1_000_000

    def __post_init__(self):
        if self.max_pairs < 0 or self.max_coeff_bits < 0:
            raise ValueError(f"budget limits must be at least 0, not "
                             f"max_pairs={self.max_pairs}, "
                             f"max_coeff_bits={self.max_coeff_bits}")


class BudgetExhausted(Exception):
    """Raised when Buchberger exceeds its resource budget."""

    def __init__(self, message: str, pairs_done: int, max_bits: int,
                 basis_size: int):
        super().__init__(message)
        self.pairs_done = pairs_done
        self.max_bits = max_bits
        self.basis_size = basis_size


@dataclass(frozen=True)
class IdealBasis:
    generators: tuple[BiPoly, ...]


def leading_term(f: BiPoly) -> tuple[Exponent, Fraction]:
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(f.ints)
    return e, Fraction(f.ints[e], f.den)


def _divides(e1: Exponent, e2: Exponent) -> bool:
    return e1[0] <= e2[0] and e1[1] <= e2[1]


def _lcm(e1: Exponent, e2: Exponent) -> Exponent:
    return (max(e1[0], e2[0]), max(e1[1], e2[1]))


def _mono_mul(f: BiPoly, e: Exponent) -> BiPoly:
    return BiPoly.from_int(f.den, {(i + e[0], j + e[1]): c
                                   for (i, j), c in f.ints.items()}, f.vars)


def s_polynomial(f: BiPoly, g: BiPoly) -> BiPoly:
    """lcm-cancellation combination of f and g: the leading terms cancel."""
    ef, cf = leading_term(f)
    eg, cg = leading_term(g)
    l = _lcm(ef, eg)
    return (_mono_mul(f, (l[0] - ef[0], l[1] - ef[1])) * (1 / cf)
            - _mono_mul(g, (l[0] - eg[0], l[1] - eg[1])) * (1 / cg))


# -- integer reduction ------------------------------------------------------
#
# A basis element is the triple (leading exponent, leading coefficient,
# items), the items being the (exponent, int) pairs of a primitive integer
# polynomial, the leading term included.

_Items = list[tuple[Exponent, int]]
_Element = tuple[Exponent, int, _Items]


def _primitive(items: _Items) -> _Element:
    """Primitive part, normalised as ``BiPoly.content_primitive``: content
    removed, positive leading coefficient."""
    d = math.gcd(*(c for _, c in items))
    if max(items)[1] < 0:
        d = -d
    if d != 1:
        items = [(e, c // d) for e, c in items]
    lt, lc = max(items)
    return lt, lc, items


def _reduce(work: dict[Exponent, int], basis: list[_Element]
            ) -> tuple[dict[Exponent, int], Fraction]:
    """Fraction-free division of ``work`` (consumed) by the basis:
    (rem, scale) with rem / scale the exact remainder over Q of the
    division that always reduces the largest term by the first divisor
    whose leading exponent divides it."""
    heap = [(-a, -b) for a, b in work]
    heapq.heapify(heap)
    pop, push, gcd = heapq.heappop, heapq.heappush, math.gcd
    rem: dict[Exponent, int] = {}
    scale = Fraction(1)
    while heap:
        na, nb = pop(heap)
        e = (-na, -nb)
        c = work.get(e)
        if c is None:  # cancelled after it was pushed
            continue
        for (ga, gb), cg, items in basis:
            if ga <= e[0] and gb <= e[1]:
                break
        else:
            rem[e] = work.pop(e)
            continue
        # work * m - k * x^q * g cancels the term at e
        qa, qb = e[0] - ga, e[1] - gb
        g = gcd(c, cg)
        m, k = cg // g, c // g
        if m < 0:
            m, k = -m, -k
        if m != 1:
            for t in work:
                work[t] *= m
            for t in rem:
                rem[t] *= m
        for (ta, tb), tc in items:
            te = (ta + qa, tb + qb)
            old = work.get(te)
            if old is None:
                work[te] = -k * tc
                push(heap, (-te[0], -te[1]))
            else:
                s = old - k * tc
                if s:
                    work[te] = s
                else:
                    del work[te]
        if m != 1:
            d = gcd(*work.values(), *rem.values())
            if d != 1:
                for t in work:
                    work[t] //= d
                for t in rem:
                    rem[t] //= d
            scale = scale * m / d
    return rem, scale


def normal_form(f: BiPoly, basis) -> BiPoly:
    """Remainder of multivariate division of f by the basis.

    No term of the remainder is divisible by any leading term of the basis;
    f - normal_form(f, basis) lies in the ideal the basis generates.
    """
    gens = list(basis.generators if isinstance(basis, IdealBasis) else basis)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty basis")
    # scaling a divisor leaves the remainder unchanged
    divisors = [_primitive(list(g.ints.items())) for g in gens]
    rem, scale = _reduce(dict(f.ints), divisors)
    scale *= f.den
    return BiPoly.from_int(scale.numerator, {e: c * scale.denominator
                                             for e, c in rem.items()}, f.vars)


def _s_items(f: _Element, g: _Element) -> dict[Exponent, int]:
    """An integer multiple of the S-polynomial of f and g."""
    (fa, fb), cf, f_items = f
    (ga, gb), cg, g_items = g
    la, lb = max(fa, ga), max(fb, gb)
    d = math.gcd(cf, cg)
    mf, mg = cg // d, cf // d
    out: dict[Exponent, int] = {}
    for (a, b), c in f_items:
        out[(a + la - fa, b + lb - fb)] = mf * c
    for (a, b), c in g_items:
        e = (a + la - ga, b + lb - gb)
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


def buchberger(gens, budget: Budget = Budget()) -> IdealBasis:
    """Reduced lex Groebner basis of the ideal generated by ``gens``.

    Raises BudgetExhausted when the pair count or coefficient size exceeds
    the budget; the exception carries the run statistics.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    vars = gens[0].vars
    G: list[_Element] = [_primitive(list(g.ints.items())) for g in gens]
    lt = [el[0] for el in G]
    pairs: set[tuple[int, int]] = {(i, j) for j in range(len(G)) for i in range(j)}
    # pending pairs by the lcm of their leading terms, and a heap of the lcms
    by_lcm: dict[Exponent, list[tuple[int, int]]] = {}
    lcms: list[Exponent] = []

    def file_pairs(new: set[tuple[int, int]]) -> None:
        for p in new:
            l = _lcm(lt[p[0]], lt[p[1]])
            tied = by_lcm.get(l)
            if tied is None:
                by_lcm[l] = [p]
                heapq.heappush(lcms, l)
            else:
                tied.append(p)

    file_pairs(pairs)
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

    while pairs:
        l = lcms[0]
        tied = by_lcm[l]
        if len(tied) == 1:
            i, j = tied.pop()
        else:
            # ties go to the first pair in the iteration order of ``pairs``:
            # the statistics of an exhausted budget depend on the choice
            i, j = next(p for p in pairs if p in tied)
            tied.remove((i, j))
        if not tied:
            del by_lcm[l]
            heapq.heappop(lcms)
        pairs.remove((i, j))
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
        h = _primitive(list(rem.items()))
        bits = _max_bits(h[2])
        max_bits = max(max_bits, bits)
        if bits > budget.max_coeff_bits:
            raise BudgetExhausted(
                f"coefficient budget {budget.max_coeff_bits} bits exhausted",
                pairs_done, max_bits, len(G),
            )
        G.append(h)
        lt.append(h[0])
        t = len(G) - 1
        new = {(k, t) for k in range(t)}
        pairs |= new
        file_pairs(new)

    basis = [BiPoly.from_int(1, dict(items), vars) for _, _, items in G]
    return IdealBasis(tuple(_interreduce(basis)))


def _interreduce(G: list[BiPoly]) -> list[BiPoly]:
    """Reduce each element against the others; drop zeros; monic output in
    increasing lex order of leading terms."""
    G = [g for g in G if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(G)):
            others = [g for k, g in enumerate(G) if k != i and not g.is_zero()]
            if not others:
                continue
            r = normal_form(G[i], others)
            if r != G[i]:
                changed = True
            G[i] = r
        G = [g for g in G if not g.is_zero()]
    out = [BiPoly.from_int(g.ints[max(g.ints)], g.ints, g.vars) for g in G]
    out.sort(key=lambda g: max(g.ints))
    return out

