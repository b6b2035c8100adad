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

Points passing both guards for every map of S lie in the finite set
{ |x| <= min |c_i| + 1 and den(x)^2 | gcd den(c_i) }, so breadth-first
closure either revisits (finite) or hits a guard (infinite): the procedure
always terminates with a certificate.

That admissible set is the grid { n/L : |n| <= N }, L the largest integer
whose square divides gcd den(c_i).  Basepoint lists (``finite_orbit_points``)
are decided on it in one integer pass: a grid point with an image off the
grid has an infinite orbit, since that image violates G1 or G2, and so does
every grid point with an image of infinite orbit.  Propagating these deaths
backwards leaves the greatest S-stable subset of the grid, which is exactly
the set of finite-orbit points; only those go through the breadth-first
closure, for their certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .polynomials import UniPoly
from .rationals import is_square, rat_str
from .roots import rational_roots

__all__ = [
    "QuadMap",
    "MapSet",
    "GuardHit",
    "PreperiodicityReport",
    "OrbitResult",
    "MuReport",
    "is_preperiodic",
    "periodic_points",
    "exact_period",
    "has_rational_point_of_exact_period",
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


@dataclass(frozen=True)
class QuadMap:
    """The quadratic polynomial x^2 + c."""

    c: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return x * x + self.c

    def iterate(self, x: Fraction, n: int) -> Fraction:
        for _ in range(n):
            x = x * x + self.c
        return x

    def __str__(self) -> str:
        c = self.c
        if c == 0:
            return "x^2"
        return f"x^2 + {rat_str(c)}" if c > 0 else f"x^2 - {rat_str(-c)}"


@dataclass(frozen=True)
class MapSet:
    """A finite ordered set of quadratic maps with pairwise distinct c."""

    maps: tuple[QuadMap, ...]

    def __init__(self, maps):
        ms = tuple(m if isinstance(m, QuadMap) else QuadMap(Fraction(m)) for m in maps)
        if not ms:
            raise ValueError("empty map set")
        cs = [m.c for m in ms]
        if len(set(cs)) != len(cs):
            raise ValueError(f"c values must be pairwise distinct: {cs}")
        object.__setattr__(self, "maps", ms)

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


@dataclass(frozen=True)
class GuardHit:
    """A certified witness that a point is not preperiodic for a map."""

    point: Fraction
    map_index: int  # 0-based index into the MapSet (0 for a single map)
    reason: str  # GUARD_ESCAPE or GUARD_DENOM


def guard_violation(f: QuadMap, x: Fraction) -> str | None:
    """Name of the guard x violates for f, or None if x passes both."""
    if abs(x) > abs(f.c) + 1:
        return GUARD_ESCAPE
    if f.c.denominator % (x.denominator * x.denominator) != 0:
        return GUARD_DENOM
    return None


@dataclass(frozen=True)
class PreperiodicityReport:
    preperiodic: bool
    tail_length: int | None = None
    cycle_length: int | None = None
    cycle: tuple[Fraction, ...] | None = None
    trajectory: tuple[Fraction, ...] = ()
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
    x = Fraction(x)
    seen: dict[Fraction, int] = {}
    traj: list[Fraction] = []
    cur = x
    while True:
        reason = guard_violation(f, cur)
        if reason is not None:
            return PreperiodicityReport(
                False, trajectory=tuple(traj), guard=GuardHit(cur, 0, reason)
            )
        if cur in seen:
            tail = seen[cur]
            cycle = tuple(traj[tail:])
            return PreperiodicityReport(
                True,
                tail_length=tail,
                cycle_length=len(cycle),
                cycle=cycle,
                trajectory=tuple(traj),
            )
        seen[cur] = len(traj)
        traj.append(cur)
        cur = f(cur)


def exact_period(f: QuadMap, x: Fraction, max_n: int = 12) -> int | None:
    """Least n <= max_n with f^n(x) = x, else None."""
    cur = Fraction(x)
    for n in range(1, max_n + 1):
        cur = f(cur)
        if cur == x:
            return n
    return None


def _dynatomic(f: QuadMap, n: int) -> UniPoly:
    """The polynomial whose roots are the points of formal period n,
    as a quotient of iterate differences (n <= 6)."""
    x = UniPoly.x("x")
    fp = {0: x}
    for k in range(1, 7):
        fp[k] = fp[k - 1] * fp[k - 1] + f.c
    diff = {k: fp[k] - x for k in range(1, 7)}
    if n == 1:
        return diff[1]
    if n == 2:
        return diff[2].exact_divide(diff[1])
    if n == 3:
        return diff[3].exact_divide(diff[1])
    if n == 4:
        return diff[4].exact_divide(diff[2])
    if n == 5:
        return diff[5].exact_divide(diff[1])
    if n == 6:
        return (diff[6] * diff[1]).exact_divide(diff[2] * diff[3])
    raise ValueError("period out of range")


def periodic_points(f: QuadMap, n: int) -> set[Fraction]:
    """Rational points of exact period n for f, n in {1, 2, 3}.

    n = 1 and n = 2 go through the discriminants of x^2 - x + c and
    x^2 + x + c + 1; n = 3 through the rational roots of the degree-6
    quotient (f^3(x) - x)/(f(x) - x).  Exactness of the period is enforced
    on every candidate.
    """
    if n not in (1, 2, 3):
        raise ValueError("periodic_points handles n in {1, 2, 3}")
    c = f.c
    out: set[Fraction] = set()
    if n == 1:
        r = is_square(1 - 4 * c)
        if r is not None:
            out = {(1 + r) / 2, (1 - r) / 2}
    elif n == 2:
        r = is_square(-3 - 4 * c)
        if r is not None:
            out = {(-1 + r) / 2, (-1 - r) / 2}
    else:
        phi3 = _dynatomic(f, 3)
        out = set(rational_roots(phi3).roots)
    return {x for x in out if exact_period(f, x, n) == n}


def has_rational_point_of_exact_period(f: QuadMap, n: int) -> bool:
    """Whether f admits a rational point of exact period n (n <= 6)."""
    if n <= 3:
        return bool(periodic_points(f, n))
    phi = _dynatomic(f, n)
    for x in rational_roots(phi).roots:
        if exact_period(f, x, n) == n:
            return True
    return False


@dataclass(frozen=True)
class MuReport:
    """mu_S over exact periods 1..3, with the 4..6 hypothesis check."""

    mu: int
    witnesses: dict[int, tuple[Fraction, ...]]
    higher_periods: dict[int, bool]  # n in {4, 5, 6} -> exists rational n-cycle

    def hypothesis_holds_up_to_6(self) -> bool:
        return not any(self.higher_periods.values())


def mu_set(S: MapSet) -> MuReport:
    """Largest n in {1,2,3} with a rational point of exact period n over the
    maps of S (0 if none), plus an explicit check that no map has rational
    exact period 4, 5 or 6.  Periods beyond 6 are outside this check."""
    mu = 0
    witnesses: dict[int, tuple[Fraction, ...]] = {}
    for n in (1, 2, 3):
        pts: list[Fraction] = []
        for f in S:
            pts.extend(sorted(periodic_points(f, n)))
        if pts:
            mu = n
            witnesses[n] = tuple(pts)
    higher = {
        n: any(has_rational_point_of_exact_period(f, n) for f in S)
        for n in (4, 5, 6)
    }
    return MuReport(mu, witnesses, higher)


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


@dataclass(frozen=True)
class OrbitResult:
    """Verdict of the monoid-orbit closure from a basepoint."""

    verdict: str  # "finite" | "infinite"
    basepoint: Fraction
    orbit: tuple[Fraction, ...] = ()  # sorted, only for finite verdicts
    words: dict[Fraction, Word] = field(default_factory=dict)
    witness: GuardHit | None = None
    witness_word: Word | None = None

    def is_finite(self) -> bool:
        return self.verdict == "finite"

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "basepoint": rat_str(self.basepoint)}
        if self.is_finite():
            out["orbit"] = [rat_str(p) for p in self.orbit]
            out["words"] = {rat_str(p): word_str(w) for p, w in
                            sorted(self.words.items())}
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
    a shortest generating word (lexicographically least among shortest,
    since the frontier is scanned in word order and maps in list order).
    """
    P = Fraction(P)
    visited: dict[Fraction, Word] = {P: ()}
    frontier: list[tuple[Word, Fraction]] = [((), P)]
    while frontier:
        next_frontier: list[tuple[Word, Fraction]] = []
        for word, x in frontier:
            for i in range(len(S)):
                reason = guard_violation(S[i], x)
                if reason is not None:
                    return OrbitResult(
                        "infinite",
                        P,
                        witness=GuardHit(x, i, reason),
                        witness_word=word,
                    )
            for i in range(len(S)):
                y = S[i](x)
                if y not in visited:
                    w = word + (i,)
                    visited[y] = w
                    next_frontier.append((w, y))
        frontier = sorted(next_frontier, key=lambda t: t[0])
    return OrbitResult(
        "finite",
        P,
        orbit=tuple(sorted(visited)),
        words=dict(visited),
    )


def is_stable_set(S: MapSet, T) -> bool:
    """True iff f(t) lies in T for every f in S and t in T."""
    pts = {Fraction(t) for t in T}
    return all(f(t) in pts for f in S for t in pts)


def _square_root_of_square_part(G: int) -> int:
    """The largest L with L^2 | G (G >= 1), by trial division."""
    L = 1
    p = 2
    while p * p <= G:
        while G % (p * p) == 0:
            G //= p * p
            L *= p
        if G % p == 0:
            G //= p
        p += 1
    return L


def finite_orbit_points(S: MapSet) -> list[OrbitResult]:
    """Complete list of rational points with finite S-orbit, in increasing
    order, each with its ``monoid_orbit`` certificate.

    A finite-orbit point passes both guards for every map, so it lies in the
    admissible grid { k/d : d^2 | G, |k/d| <= min |c_i| + 1 }, G the gcd of
    the denominators of the c_i.  With L the largest integer such that
    L^2 | G, d^2 | G holds iff d | L, so the grid is { n/L : |n| <= N } with
    N = floor((min |c_i| + 1) L).  For c = a/b the image of n/L is
    (n^2 b + a L^2) / (b L^2); it lies on the grid iff b L divides
    n^2 b + a L^2 with quotient m, |m| <= N, and is then m/L.

    A grid point with an image off the grid has an infinite orbit: that
    image violates G1 or G2 for some map of S.  So does a grid point with an
    image already known to be infinite.  Propagating these deaths backwards
    along the predecessor lists leaves the greatest S-stable subset of the
    grid.  Each survivor's orbit stays inside that finite set, hence is
    finite; each finite-orbit point's orbit is an S-stable subset of the
    grid, hence survives.  Only the survivors go through ``monoid_orbit``.
    """
    G = 0
    for f in S:
        G = math.gcd(G, f.c.denominator)
    L = _square_root_of_square_part(G)
    bound = min(abs(f.c) for f in S) + 1
    N = bound.numerator * L // bound.denominator
    size = 2 * N + 1  # grid index of n/L is n + N
    dead = bytearray(size)
    preds: list[list[int]] = [[] for _ in range(size)]
    LL = L * L
    for f in S:
        a, b = f.c.numerator, f.c.denominator
        bL = b * L
        aLL = a * LL
        # n and -n share an image, so decide n >= 0 and mirror
        for n in range(N + 1):
            m, r = divmod(n * n * b + aLL, bL)
            if r or not -N <= m <= N:
                dead[N + n] = dead[N - n] = 1
            else:
                preds[m + N].append(N + n)
                if n:
                    preds[m + N].append(N - n)
    stack = [i for i in range(size) if dead[i]]
    while stack:
        for i in preds[stack.pop()]:
            if not dead[i]:
                dead[i] = 1
                stack.append(i)
    results = []
    for i in range(size):
        if not dead[i]:
            res = monoid_orbit(S, Fraction(i - N, L))
            if not res.is_finite():
                raise ArithmeticError(
                    f"grid survivor {rat_str(res.basepoint)} of {S} has an "
                    f"infinite orbit")
            results.append(res)
    return results
