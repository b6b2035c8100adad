"""Single-map and monoid dynamics of quadratic maps x^2 + c over Q.

The decision procedures rest on two guards, stated here as documented lemmas
(tests exercise both against a naive iteration oracle):

Escape guard (G1).  If |x| > |c| + 1 then |f(x)| = |x^2 + c| >= |x|^2 - |c|
> |x| (|c| + 1) - |c| = |x| + |c| (|x| - 1) > |x|, and the hypothesis still
holds for f(x).  So the absolute values increase strictly forever and x is
not preperiodic.

Denominator guard (G2).  Write x = p/q, c = a/b in lowest terms, so
f(x) = (p^2 b + a q^2) / (b q^2).  Suppose q^2 does not divide b, i.e. some
prime l has 2*v_l(q) > v_l(b) with v_l(q) > 0.  Then l divides neither p nor
(when v_l(b) > 0) a, so v_l(p^2 b) = v_l(b) < 2 v_l(q) = v_l(a q^2) and the
numerator has valuation exactly v_l(b); hence v_l(den f(x)) = 2 v_l(q), and
the same prime violates the guard for f(x) with doubled valuation.  The
denominators grow without bound and x is not preperiodic.  (For a prime
with 0 < 2 v_l(q) < v_l(b) the image denominator has valuation v_l(b) > 0
and the doubling starts one step later; such x passes the guard and the
orbit is cut at its image.)

Both walks, ``is_preperiodic`` and ``monoid_orbit``, step on lowest-terms
integer pairs (p, q), q > 0, and test the guards as integer inequalities.
For c = a/b with b > 0, |x| > |c| + 1 is |p|/q > (|a| + b)/b, that is

    G1:  |p| b > (|a| + b) q,        G2:  b mod q^2 != 0,

with |a| + b computed once per call.  A point is expanded only when it
passes G2 for every map, so q^2 divides b and the image is
(p^2 (b / q^2) + a) / b, brought to lowest terms by one gcd.  ``Fraction``s
appear only at the boundary: the input point and the points of the
returned reports and witnesses.

Points passing both guards for every map of S lie in the finite set
{ |x| <= min |c_i| + 1 and den(x)^2 | gcd den(c_i) }, so breadth-first
closure either revisits (finite) or hits a guard (infinite): the procedure
always terminates with a certificate.

Basepoint lists (``finite_orbit_points``) are decided on a much smaller
grid.  A finite-orbit point of S has denominator exactly L, and the list is
empty unless every c_i = a_i/L^2 with that one L (equal square
denominators); it has |x| <= N/L, N about sqrt|c_i| L, because beyond the
sharp radius x^2 - |x| - |c| > 0 the orbit escapes; and its numerator n has
n^2 = -a_i (mod L), or its image is off the grid (square-root residues).
On that grid, one integer pass propagates deaths backwards from the points
with an image off it and leaves the greatest S-stable subset, which is
exactly the set of finite-orbit points; only those go through the
breadth-first closure, for their certificates.

Every rational periodic point of a map f has a finite orbit, so it lies in
that subset for S = {f}.  The cycles of f on it are therefore all of f's
rational cycles, of every length; ``periodic_points`` and ``mu_set`` read
them off it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .rationals import exact_rational, rat_str
from .records import Frozen, set_field

__all__ = [
    "QuadMap",
    "MapSet",
    "GuardHit",
    "PreperiodicityReport",
    "OrbitResult",
    "MuReport",
    "is_preperiodic",
    "periodic_points",
    "mu_set",
    "monoid_orbit",
    "is_stable_set",
    "finite_orbit_points",
    "apply_word",
    "word_str",
    "GUARD_ESCAPE",
    "GUARD_DENOM",
]

GUARD_ESCAPE = "escape-bound"
GUARD_DENOM = "denominator-growth"


class QuadMap(Frozen):
    """The quadratic polynomial x^2 + c; c must be an int or a Fraction."""

    __slots__ = ("c",)

    def __init__(self, c: Fraction):
        set_field(self, "c", exact_rational(c))

    def __call__(self, x: Fraction) -> Fraction:
        return x * x + self.c

    def __str__(self) -> str:
        c = self.c
        if c == 0:
            return "x^2"
        return f"x^2 + {rat_str(c)}" if c > 0 else f"x^2 - {rat_str(-c)}"


class MapSet(Frozen):
    """A finite ordered set of quadratic maps with pairwise distinct c."""

    __slots__ = ("maps",)

    def __init__(self, maps):
        ms = tuple(m if isinstance(m, QuadMap) else QuadMap(m) for m in maps)
        if not ms:
            raise ValueError("empty map set")
        cs = [m.c for m in ms]
        if len(set(cs)) != len(cs):
            raise ValueError(f"c values must be pairwise distinct: {cs}")
        set_field(self, "maps", ms)

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i: int) -> QuadMap:
        return self.maps[i]

    def cs(self) -> tuple[Fraction, ...]:
        return tuple(m.c for m in self.maps)

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.maps) + "}"


class GuardHit(NamedTuple):
    """A certified witness that a point is not preperiodic for a map."""

    point: Fraction
    map_index: int  # 0-based index into the MapSet (0 for a single map)
    reason: str  # GUARD_ESCAPE or GUARD_DENOM


# (a, b, |a| + b) for c = a/b in lowest terms: what the guards and the image
# of a point (p, q) read of a map
_Table = list[tuple[int, int, int]]


def _table(cs) -> _Table:
    return [(c.numerator, c.denominator, abs(c.numerator) + c.denominator)
            for c in cs]


def _violation(p: int, q: int, table: _Table) -> tuple[int, str] | None:
    """(map index, guard name) of the first guard that p/q violates, the
    maps taken in order and G1 before G2 for each; None if it passes all."""
    qq = q * q
    ap = abs(p)
    for i, (_, b, r) in enumerate(table):
        if ap * b > r * q:
            return i, GUARD_ESCAPE
        if b % qq:
            return i, GUARD_DENOM
    return None


class PreperiodicityReport(NamedTuple):
    preperiodic: bool
    tail_length: int | None = None
    cycle_length: int | None = None
    cycle: tuple[Fraction, ...] | None = None
    guard: GuardHit | None = None

    def to_dict(self) -> dict:
        out = {"preperiodic": self.preperiodic}
        if self.preperiodic:
            out.update(
                tail_length=self.tail_length,
                cycle_length=self.cycle_length,
                cycle=[rat_str(p) for p in self.cycle or ()],
            )
        elif self.guard:
            out["guard"] = {
                "point": rat_str(self.guard.point),
                "reason": self.guard.reason,
            }
        return out


def is_preperiodic(f: QuadMap, x: Fraction) -> PreperiodicityReport:
    """Decide preperiodicity of x under f, exactly and with a certificate."""
    x = exact_rational(x)
    table = _table([f.c])
    a, b, _ = table[0]
    gcd = math.gcd
    seen: dict[tuple[int, int], int] = {}
    traj: list[tuple[int, int]] = []
    cur = p, q = x.numerator, x.denominator
    while True:
        hit = _violation(p, q, table)
        if hit is not None:
            return PreperiodicityReport(
                False, guard=GuardHit(Fraction(p, q), 0, hit[1]))
        if cur in seen:
            tail = seen[cur]
            cycle = tuple(Fraction(*y) for y in traj[tail:])
            return PreperiodicityReport(
                True,
                tail_length=tail,
                cycle_length=len(cycle),
                cycle=cycle,
            )
        seen[cur] = len(traj)
        traj.append(cur)
        n = p * p * (b // (q * q)) + a
        g = gcd(n, b)
        cur = p, q = n // g, b // g


def _rational_cycles(f: QuadMap) -> list[tuple[Fraction, ...]]:
    """Every rational cycle of f, each from its least point, in increasing
    order of that point.

    A rational periodic point has a finite orbit, so it is one of the
    finite-orbit points T of {f} (``_stable_numerators``).  T is finite and
    f-stable; the images f(T), f(f(T)), ... shrink until f permutes them,
    and that set is the union of the cycles.  Every image and every cycle
    is computed here with exact ``QuadMap`` arithmetic.
    """
    L, ns = _stable_numerators(MapSet([f]))
    periodic = {Fraction(n, L) for n in ns}
    if any(f(x) not in periodic for x in periodic):
        raise ArithmeticError(f"the finite-orbit points of {f} are not "
                              f"stable under it")
    while True:
        image = {f(x) for x in periodic}
        if len(image) == len(periodic):
            break
        periodic = image
    cycles = []
    for x in sorted(periodic):
        if all(x not in cyc for cyc in cycles):
            cyc = [x]
            while (y := f(cyc[-1])) != x:
                cyc.append(y)
            cycles.append(tuple(cyc))
    return cycles


def periodic_points(f: QuadMap, n: int) -> set[Fraction]:
    """Rational points of exact period n for f (n >= 1): the points of the
    rational cycles of length n (``_rational_cycles``)."""
    if n < 1:
        raise ValueError("the period must be at least 1")
    return {x for cyc in _rational_cycles(f) if len(cyc) == n for x in cyc}


class MuReport(NamedTuple):
    """mu_S over exact periods 1..3, with the longest rational cycle of any
    map of S and the 4..6 hypothesis check read off it."""

    mu: int
    witnesses: dict[int, tuple[Fraction, ...]]
    higher_periods: dict[int, bool]  # n in {4, 5, 6} -> exists rational n-cycle
    max_cycle_length: int  # longest rational cycle over the maps of S, or 0

    def hypothesis_holds_up_to_6(self) -> bool:
        return not any(self.higher_periods.values())


def mu_set(S: MapSet) -> MuReport:
    """Largest n in {1,2,3} with a rational point of exact period n over the
    maps of S (0 if none), with the witnesses of each such n.

    The rational cycles of each map are all of them, of every length
    (``_rational_cycles``), so the report also gives the longest one, and
    the existence of cycles of length 4, 5 and 6 is read off the same list.
    """
    cycles = [_rational_cycles(f) for f in S]
    lengths = {len(cyc) for per_map in cycles for cyc in per_map}
    mu = 0
    witnesses: dict[int, tuple[Fraction, ...]] = {}
    for n in (1, 2, 3):
        pts: list[Fraction] = []
        for per_map in cycles:
            pts.extend(sorted(x for cyc in per_map if len(cyc) == n
                              for x in cyc))
        if pts:
            mu = n
            witnesses[n] = tuple(pts)
    higher = {n: n in lengths for n in (4, 5, 6)}
    return MuReport(mu, witnesses, higher, max(lengths, default=0))


# ---------------------------------------------------------------------------
# monoid orbits
# ---------------------------------------------------------------------------

Word = tuple[int, ...]  # 0-based map indices, applied left to right


def word_str(word: Word) -> str:
    """1-based map-index string, applied left to right ("412" means: apply
    f4, then f1, then f2)."""
    return "".join(str(i + 1) for i in word)


def apply_word(S: MapSet, word: Word, x: Fraction) -> Fraction:
    for i in word:
        x = S[i](x)
    return x


class OrbitResult(NamedTuple):
    """Verdict of the monoid-orbit closure from a basepoint.  An infinite
    verdict's ``words`` is one empty dict shared by all of them."""

    verdict: str  # "finite" | "infinite"
    basepoint: Fraction
    orbit: tuple[Fraction, ...] = ()  # sorted, only for finite verdicts
    words: dict[Fraction, Word] = {}  # orbit order, only for finite verdicts
    witness: GuardHit | None = None
    witness_word: Word | None = None

    def is_finite(self) -> bool:
        return self.verdict == "finite"

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "basepoint": rat_str(self.basepoint)}
        if self.is_finite():
            out["orbit"] = [rat_str(p) for p in self.orbit]
            out["words"] = {rat_str(p): word_str(w)
                            for p, w in self.words.items()}
        else:
            assert self.witness is not None
            out["witness"] = {
                "point": rat_str(self.witness.point),
                "map": self.witness.map_index + 1,
                "reason": self.witness.reason,
                "word": word_str(self.witness_word or ()),
            }
        return out


def monoid_orbit(S: MapSet, P: Fraction) -> OrbitResult:
    """Breadth-first closure of {P} under the maps of S.

    Each point is screened against every map's guards before expansion; a
    violation certifies the whole S-orbit infinite, because the offending
    point would need a finite forward orbit under that map and cannot have
    one.  If the closure stabilizes the orbit is finite and each point gets
    a shortest generating word (lexicographically least among shortest).
    The frontier stays in word order without sorting: it starts as the
    empty word, and each level appends the children of its words in word
    order, each word's children in map order.
    """
    P = exact_rational(P)
    table = _table(f.c for f in S)
    gcd = math.gcd
    start = P.numerator, P.denominator
    visited: dict[tuple[int, int], Word] = {start: ()}
    frontier: list[tuple[Word, tuple[int, int]]] = [((), start)]
    while frontier:
        next_frontier: list[tuple[Word, tuple[int, int]]] = []
        for word, (p, q) in frontier:
            hit = _violation(p, q, table)
            if hit is not None:
                return OrbitResult(
                    "infinite",
                    P,
                    witness=GuardHit(Fraction(p, q), *hit),
                    witness_word=word,
                )
            pp, qq = p * p, q * q
            for i, (a, b, _) in enumerate(table):
                n = pp * (b // qq) + a
                g = gcd(n, b)
                y = n // g, b // g
                if y not in visited:
                    w = word + (i,)
                    visited[y] = w
                    next_frontier.append((w, y))
        frontier = next_frontier
    # in increasing order of p * (D / q), D the lcm of the denominators:
    # exact integer keys, no Fraction comparisons
    D = math.lcm(*(q for _, q in visited))
    words = {Fraction(p, q): w for (p, q), w in sorted(
        visited.items(), key=lambda yw: yw[0][0] * (D // yw[0][1]))}
    return OrbitResult("finite", P, orbit=tuple(words), words=words)


def is_stable_set(S: MapSet, T) -> bool:
    """True iff f(t) lies in T for every f in S and t in T."""
    pts = {exact_rational(t) for t in T}
    return all(f(t) in pts for f in S for t in pts)


def _factor(L: int) -> dict[int, int]:
    """{p: e} with L the product of the p^e (L >= 1), by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= L:
        while L % p == 0:
            L //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1
    if L > 1:
        factors[L] = 1
    return factors


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p (p does not divide a), by
    Tonelli-Shanks with the least quadratic non-residue; None if a is not
    a square mod p."""
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _square_roots_mod(a: int, L: int) -> list[int]:
    """The residues r in [0, L) with r^2 = a (mod L), for a coprime to L.

    Modulo an odd prime power p^e the roots are +-r, r from
    ``_sqrt_mod_prime`` and Hensel-lifted by Newton steps (2r is a unit);
    modulo 2^e they are lifted one bit at a time, each root mod 2^k giving
    the candidates r and r + 2^k mod 2^(k+1).  The prime powers are
    combined by the Chinese remainder theorem.
    """
    roots, M = [0], 1
    for p, e in _factor(L).items():
        q = p**e
        if p == 2:
            prs = [1]
            for k in range(1, e):
                prs = [x for r in prs for x in (r, r + (1 << k))
                       if (x * x - a) % (2 << k) == 0]
        else:
            r = _sqrt_mod_prime(a % p, p)
            if r is None:
                return []
            m = p
            while m < q:
                m *= m
                r = (r - (r * r - a) * pow(2 * r, -1, m)) % m
            prs = sorted({r % q, -r % q})
        if not prs:
            return []
        inv = pow(M, -1, q)
        roots = [r + M * ((s - r) * inv % q) for r in roots for s in prs]
        M *= q
    return sorted(roots)


def _stable_numerators(S: MapSet) -> tuple[int, list[int]]:
    """(L, ns) such that the points of finite S-orbit are exactly the n/L,
    n in ns (increasing).

    The grid they are read from rests on three exact facts.

    Equal square denominators.  Let x = p/q be a point of finite orbit and
    c_i = a_i/b_i.  If 2 v_l(q) < v_l(b_i) for a prime l, the image under
    c_i has l-adic denominator valuation v_l(b_i) > 0, and that image breaks
    G2 for the same map, since 2 v_l(b_i) > v_l(b_i).  With G2 itself
    (2 v_l(q) <= v_l(b_j)) every b_i is q^2.  So the list is empty unless
    all c_i = a_i/L^2 with one L, and then every point is n/L.

    Sharp escape radius.  If x^2 - |x| - |c| > 0 then |f(x)| - |x| >=
    x^2 - |x| - |c|, a gap that grows along the orbit, so x escapes.  A
    point of finite orbit thus has |n| <= N, the largest n with
    n^2 - nL - |a_i| <= 0 for every i, which is about sqrt|c| L.

    Square-root residues.  The image of n/L under c_i is (n^2 + a_i)/L^2,
    which is on the grid iff n^2 = -a_i (mod L).  Only such n are kept
    (``_square_roots_mod``, a_i is coprime to L).

    On the grid that is left, a point with an image off it has an infinite
    orbit, and so does a point with an image already known to be infinite.
    Propagating these deaths backwards along the predecessor lists leaves
    the greatest S-stable subset of the grid.  Each survivor's orbit stays
    inside that finite set, hence is finite; each finite-orbit point's
    orbit is an S-stable subset of the grid, hence survives.
    """
    b = S[0].c.denominator
    L = math.isqrt(b)
    if L * L != b or any(f.c.denominator != b for f in S):
        return L, []
    nums = [f.c.numerator for f in S]
    N = min((L + math.isqrt(L * L + 4 * abs(a))) // 2 for a in nums)
    residues = [r for r in _square_roots_mod(-nums[0], L)
                if all((r * r + a) % L == 0 for a in nums[1:])]
    grid = sorted(n for r in residues
                  for n in range(r - (r + N) // L * L, N + 1, L))
    index = {n: i for i, n in enumerate(grid)}
    dead = bytearray(len(grid))
    preds: list[list[int]] = [[] for _ in grid]
    for a in nums:
        for i, n in enumerate(grid):
            j = index.get((n * n + a) // L)  # exact, by the residue filter
            if j is None:
                dead[i] = 1
            else:
                preds[j].append(i)
    stack = [i for i in range(len(grid)) if dead[i]]
    while stack:
        for i in preds[stack.pop()]:
            if not dead[i]:
                dead[i] = 1
                stack.append(i)
    return L, [n for n, d in zip(grid, dead) if not d]


def finite_orbit_points(S: MapSet) -> list[OrbitResult]:
    """Complete list of rational points with finite S-orbit, in increasing
    order, each with its ``monoid_orbit`` certificate.

    The candidates are the survivors of ``_stable_numerators``: the grid
    {n/L : |n| <= N, n^2 = -a_i (mod L)} for c_i = a_i/L^2 (empty unless
    the c_i share one square denominator), pruned to its greatest S-stable
    subset.  Only those survivors go through ``monoid_orbit``.
    """
    L, ns = _stable_numerators(S)
    results = []
    for n in ns:
        res = monoid_orbit(S, Fraction(n, L))
        if not res.is_finite():
            raise ArithmeticError(
                f"grid survivor {rat_str(res.basepoint)} of {S} has an "
                f"infinite orbit")
        results.append(res)
    return results
