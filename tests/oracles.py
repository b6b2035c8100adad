"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the
resultant oracle is a Sylvester-matrix determinant by Laplace expansion,
the preperiodicity oracle is naive bounded iteration, the orbit-word
oracle enumerates every word by length and then lexicographically instead
of expanding a breadth-first frontier, the basepoint-list
oracle runs the guarded BFS from every point of the admissible grid instead
of pruning a residue-filtered grid in one integer pass, the search oracle
decides every tuple of the grid directly with that basepoint-list oracle
instead of by subset reduction, the periodic-point and mu oracles find
rational roots of dynatomic polynomials instead of walking the map on its
finite-orbit points, the normal-form oracle divides over Q, rescanning
for the leading term at every step, the content oracle
``gcd_then_divide`` takes one gcd over all coefficients and then divides
each by it instead of dividing once by a shrinking candidate, the
rational-root oracle finds the integer roots of the monicizing transform
a^(n-1) p(x/a) (linear and quadratic inputs through the discriminant)
instead of reconstructing fractions from lifted residues, and the
candidate oracle intersects the resultant root unions of every generator
pair instead of eliminating one pair and its components.
``FractionUniPoly`` is the univariate arithmetic over a tuple of
``Fraction``s that ``UniPoly``'s integer form replaced: coefficient loops
over Q for sums, scalar products, division, evaluation and the gcd
(Euclid's remainders, independent of ``zgcd``).
``FractionBiPoly`` is the same for ``BiPoly``: a dict of ``Fraction``s,
with sums, exact division, specialization and evaluation over Q.
``subres_resultant`` is the subresultant PRS over Z[z] with every
factor carried through, the reference for the PRS over the ring in which
the parametrization poles are units.
``schoolbook_product`` is ``BiPoly``'s product term by term, the reference
for the Kronecker product, ``schoolbook_zmul`` the same for
``_intpoly.zmul`` and ``FractionUniPoly``'s product, and
``expanded_divides`` decides whether a curve divides a product of factors
by expanding it term by term and dividing over Q, the reference for the gcd
peeling of ``verify_lemma``.  ``is_square`` is the certified rational
square root of the dynatomic and discriminant oracles, ``leading_term``
the lex-leading term the Groebner tests read, and ``squarefree_part`` the
p / gcd(p, p') by which the tests compare resultants and eliminants; the
package itself needs none of them.
``fraction_monoid_orbit`` and ``fraction_is_preperiodic`` are the two
guarded walks on ``Fraction``s, each guard tested by ``guard_violation``
over Q, the reference for the package's walks on integer pairs; with
``iterate`` and ``exact_period`` they are test-only helpers too, and so
are ``ec_neg`` and ``ec_mul``, the group negation and repeated addition on
an elliptic curve, and ``sporadic_pairs``, the catalog's two-map tuples.
``product_first_word_relation_roots`` forms a word relation as the product
of its two factors and tests the product for vanishing, squaring by ``**``
so that every square is reduced again; ``bfs_exclusion_relation`` forms
every relation of the breadth-first word order that way until one does not
vanish, the reference for ``symbolic.find_exclusion_relation``, which
decides vanishing by equalities of shared iterates and skips the relations
that an identity decides; ``ratfunc_family_accounts`` finds a
family's parameters through the ``RatFunc`` difference c1(t) - c1, the
reference for the integer numerator of ``symbolic._family_accounts``.
``whole_relation_factors`` builds a lemma's generators as the numerators
of whole relations of the iterates, the reference for the exact pieces of
``lemmas.lemma_setup``.
``horner_compose`` is ``RatFunc.compose`` as Horner over Q(t) with a
reduction after every step, the reference for its homogeneous evaluation
over Z.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from quadorbits import _intpoly as zp
from quadorbits.dynamics import GUARD_DENOM, GUARD_ESCAPE, GuardHit, \
    MapSet, MuReport, OrbitResult, PreperiodicityReport, QuadMap, Word, \
    monoid_orbit
from quadorbits.elliptic import INFINITY, Curve, ECPoint, ec_add
from quadorbits.families import ExcludedParameter, FamilyDef, ParamTuple, \
    SporadicTuple, catalog
from quadorbits.polynomials import BiPoly, ExactDivisionError, UniPoly, \
    bivariate_gcd, resultant
from quadorbits.ratfunc import RatFunc
from quadorbits.rationals import exact_rational, rat_str
from quadorbits.roots import RootReport, _lift_roots, _multiplicity, \
    _pick_prime, rational_roots
from quadorbits.search import FoundTuple, SearchSpec
from quadorbits.verifier.elimination import GeneratorFactors, \
    _divide_structural, _split_survivor_content, common_specialized_gcd
from quadorbits.verifier.lemmas import _SYSTEMS
from quadorbits.verifier.symbolic import MAX_WORD_LEN, BiRat, \
    three_cycle_parametrization


def is_square(x: Fraction) -> Fraction | None:
    """Nonnegative rational square root of x when one exists, else None.

    Because x is in lowest terms, x is a rational square iff its numerator
    and denominator are both integer squares.  Negative inputs yield None so
    callers can use this directly as a discriminant filter.
    """
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def squarefree_part(p: UniPoly) -> UniPoly:
    """Product of the distinct irreducible factors of p, via p / gcd(p, p'),
    primitive over Z with a positive leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return UniPoly.from_int(1, zp.zsquarefree(p.ints), p.var)


def ec_neg(E: Curve, P: ECPoint) -> ECPoint:
    if not E.contains(P):
        raise ValueError(f"point {P} is not on {E}")
    return P if P.is_infinity() else ECPoint(P.x, -P.y)


def ec_mul(E: Curve, n: int, P: ECPoint) -> ECPoint:
    """n * P by n additions, through -P for negative n."""
    if n < 0:
        return ec_mul(E, -n, ec_neg(E, P))
    acc = INFINITY
    for _ in range(n):
        acc = ec_add(E, acc, P)
    return acc


def sylvester_resultant(p: BiPoly, q: BiPoly, eliminate: int = 0) -> UniPoly:
    """Determinant of the Sylvester matrix with q's coefficient rows first
    (the package convention), entries being polynomials in the survivor."""
    dp = p.degree(eliminate)
    dq = q.degree(eliminate)
    survivor = p.vars[1 - eliminate]

    def rows(poly: BiPoly, deg: int, count: int) -> list[list[UniPoly]]:
        coeffs = []
        for k in range(deg, -1, -1):  # descending powers
            terms = {}
            for (i, j), c in poly.terms.items():
                a, b = (i, j) if eliminate == 0 else (j, i)
                if a == k:
                    terms[b] = c
            n = max(terms, default=-1)
            coeffs.append(UniPoly([terms.get(t, Fraction(0))
                                   for t in range(n + 1)], survivor))
        total = dp + dq
        out = []
        for shift in range(count):
            row = ([UniPoly.zero(survivor)] * shift + coeffs
                   + [UniPoly.zero(survivor)] * (total - shift - len(coeffs)))
            out.append(row)
        return out

    matrix = rows(q, dq, dp) + rows(p, dp, dq)

    def det(m: list[list[UniPoly]]) -> UniPoly:
        n = len(m)
        if n == 1:
            return m[0][0]
        acc = UniPoly.zero(survivor)
        for j in range(n):
            if m[0][j].is_zero():
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * det(minor)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    return det(matrix)


def naive_preperiodic(c: Fraction, x: Fraction, steps: int = 200
                      ) -> bool | None:
    """Iterate and look for a repeat; None when inconclusive.  A value of
    astronomical height counts as conclusively escaping."""
    seen = {x}
    cur = x
    for _ in range(steps):
        cur = cur * cur + c
        if cur in seen:
            return True
        if max(abs(cur.numerator), cur.denominator) > 10**50:
            return False
        seen.add(cur)
    return None


def guard_violation(f: QuadMap, x: Fraction) -> str | None:
    """Name of the guard x violates for f, or None if x passes both."""
    if abs(x) > abs(f.c) + 1:
        return GUARD_ESCAPE
    if f.c.denominator % (x.denominator * x.denominator) != 0:
        return GUARD_DENOM
    return None


def iterate(f: QuadMap, x: Fraction, n: int) -> Fraction:
    """f applied n times to x."""
    for _ in range(n):
        x = x * x + f.c
    return x


def exact_period(f: QuadMap, x: Fraction, max_n: int = 12) -> int | None:
    """Least n <= max_n with f^n(x) = x, else None."""
    cur = x = exact_rational(x)
    for n in range(1, max_n + 1):
        cur = f(cur)
        if cur == x:
            return n
    return None


def fraction_is_preperiodic(f: QuadMap, x: Fraction) -> PreperiodicityReport:
    """``is_preperiodic`` stepping on ``Fraction``s, the guards tested by
    ``guard_violation``."""
    x = exact_rational(x)
    seen: dict[Fraction, int] = {}
    traj: list[Fraction] = []
    cur = x
    while True:
        reason = guard_violation(f, cur)
        if reason is not None:
            return PreperiodicityReport(False,
                                        guard=GuardHit(cur, 0, reason))
        if cur in seen:
            tail = seen[cur]
            cycle = tuple(traj[tail:])
            return PreperiodicityReport(
                True,
                tail_length=tail,
                cycle_length=len(cycle),
                cycle=cycle,
            )
        seen[cur] = len(traj)
        traj.append(cur)
        cur = f(cur)


def fraction_monoid_orbit(S: MapSet, P: Fraction) -> OrbitResult:
    """``monoid_orbit`` stepping on ``Fraction``s: the same frontier, word
    order and guard order, each guard tested by ``guard_violation``."""
    P = exact_rational(P)
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
        frontier = next_frontier
    words = dict(sorted(visited.items()))
    return OrbitResult("finite", P, orbit=tuple(words), words=words)


def word_order_orbit(S: MapSet, P: Fraction
                     ) -> tuple[dict[Fraction, Word] | None, Word | None]:
    """The words ``monoid_orbit`` documents, by brute force: run through
    every word (maps applied left to right) by length and then
    lexicographically, and take the first word that reaches each point, or
    stop at the first word whose point violates a guard of some map.
    Returns (words, None) for a finite orbit, (None, witness word) for an
    infinite one.  A length that reaches no new point closes the orbit."""
    words: dict[Fraction, Word] = {}
    for length in itertools.count():
        grew = False
        for w in itertools.product(range(len(S)), repeat=length):
            x = P
            for i in w:
                x = S[i](x)
            if any(guard_violation(f, x) is not None for f in S):
                return None, w
            if x not in words:
                words[x] = w
                grew = True
        if not grew:
            return words, None


def per_point_finite_orbit_points(S: MapSet) -> list[OrbitResult]:
    """Complete list of rational points with finite S-orbit.

    Any such point passes both guards for every map, hence lies in the
    finite admissible grid { k/d : d^2 | gcd den(c_i), gcd(k, d) = 1,
    |k/d| <= min |c_i| + 1 }; running the BFS on each grid point decides the
    set exactly.
    """
    G = 0
    for f in S:
        G = math.gcd(G, f.c.denominator)
    bound = min(abs(f.c) for f in S) + 1
    results = []
    d = 1
    while d * d <= G:
        if G % (d * d) == 0:
            kmax = int(bound * d)
            for k in range(-kmax, kmax + 1):
                if math.gcd(k, d) == 1:
                    x = Fraction(k, d)
                    if abs(x) <= bound:
                        res = monoid_orbit(S, x)
                        if res.is_finite():
                            results.append(res)
        d += 1
    results.sort(key=lambda r: r.basepoint)
    return results


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


def dynatomic_periodic_points(f: QuadMap, n: int) -> set[Fraction]:
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
        return bool(dynatomic_periodic_points(f, n))
    phi = _dynatomic(f, n)
    for x in rational_roots(phi).roots:
        if exact_period(f, x, n) == n:
            return True
    return False


def dynatomic_mu_set(S: MapSet) -> MuReport:
    """Largest n in {1,2,3} with a rational point of exact period n over the
    maps of S (0 if none), plus an explicit check that no map has rational
    exact period 4, 5 or 6.  The longest cycle it reports is the longest of
    length at most 6: periods beyond 6 are outside this check."""
    mu = 0
    witnesses: dict[int, tuple[Fraction, ...]] = {}
    for n in (1, 2, 3):
        pts: list[Fraction] = []
        for f in S:
            pts.extend(sorted(dynatomic_periodic_points(f, n)))
        if pts:
            mu = n
            witnesses[n] = tuple(pts)
    higher = {
        n: any(has_rational_point_of_exact_period(f, n) for f in S)
        for n in (4, 5, 6)
    }
    longest = max([n for n in higher if higher[n]] + list(witnesses),
                  default=0)
    return MuReport(mu, witnesses, higher, longest)


def direct_search(spec: SearchSpec) -> list[FoundTuple]:
    """Brute-force grid search: the complete finite-orbit basepoint list of
    every set_size-subset of the grid, decided one tuple at a time."""
    found = []
    for cs in itertools.combinations(spec.grid(), spec.set_size):
        pts = per_point_finite_orbit_points(MapSet(cs))
        if pts:
            found.append(FoundTuple(cs, tuple(r.basepoint for r in pts)))
    return found


def naive_normal_form(f: BiPoly, gens: list[BiPoly]) -> BiPoly:
    """Remainder of f by gens over Q: reduce the lex-largest term by the
    first generator whose leading term divides it, else move it to the
    remainder."""
    gens = [g for g in gens if not g.is_zero()]
    lts = []
    for g in gens:
        e = max(g.terms)
        lts.append((e, g.terms[e]))
    rem_terms: dict[tuple[int, int], Fraction] = {}
    work = dict(f.terms)
    while work:
        e = max(work)
        c = work[e]
        for g, (eg, cg) in zip(gens, lts):
            if eg[0] <= e[0] and eg[1] <= e[1]:
                q = (e[0] - eg[0], e[1] - eg[1])
                factor = c / cg
                for ge, gc in g.terms.items():
                    te = (ge[0] + q[0], ge[1] + q[1])
                    s = work.get(te, Fraction(0)) - factor * gc
                    if s:
                        work[te] = s
                    else:
                        work.pop(te, None)
                break
        else:
            rem_terms[e] = c
            del work[e]
    return BiPoly(rem_terms, f.vars)


def gcd_then_divide(work: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(d, work / d) with d > 0 the content of a nonempty map to nonzero
    ints, in two passes: the gcd of all coefficients, then a division of
    each; the reference for ``groebner._content_split``."""
    d = math.gcd(*work.values())
    return d, {t: v // d for t, v in work.items()}


def leading_term(f: BiPoly) -> tuple[tuple[int, int], Fraction]:
    """Lex-leading exponent and coefficient of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(f.terms)
    return e, f.terms[e]


def expanded_divides(r: BiPoly, factors) -> bool:
    """Whether r divides the product of the factors, by long division over
    Q of the product expanded term by term."""
    prod = BiPoly.constant(1, r.vars)
    for f in factors:
        prod = schoolbook_product(prod, f)
    return FractionBiPoly(r.terms, r.vars).divides(
        FractionBiPoly(prod.terms, prod.vars))


def whole_relation_factors(lemma_id: str) -> list[GeneratorFactors]:
    """The generators of the lemma's ``_SYSTEMS`` row as the numerators of
    whole relations of x = word(P), built from the iterates of x under the
    target map f = x^2 + c: with u = f^2(x), f^4(x) - f^2(x) =
    (f(u) - u)(f(u) + u + 1), split by the target's variable s as
    (u - (1+s)/2)(u - (1-s)/2)(f(u) + u + 1) for c = (1 - s^2)/4 and as
    (f(u) - u)(u + (1-s)/2)(u + (1+s)/2) for c = -(3 + s^2)/4; for a
    3-cycle P1, P2, P3, the f(x) - P_i.  The reference for the pieces of
    ``lemmas._relation_pieces``."""
    row = _SYSTEMS[lemma_id]
    V = row.vars

    def embed(f: RatFunc) -> BiRat:
        return BiRat.from_ratfunc(f, V.index(f.var), V)

    maps = []
    for period, var in zip(row.periods, V):
        s = RatFunc.t(var)
        if period == 3:
            c, *cycle = three_cycle_parametrization(var)
        elif period == 1:
            c, cycle = (1 - s * s) / 4, [(1 + s) / 2]
        else:
            c, cycle = -(3 + s * s) / 4, [(-1 + s) / 2]
        maps.append((embed(c), [embed(p) for p in cycle], embed(s)))
    gens = []
    for name, word, target in row.gens:
        x = maps[row.basepoint][1][0]
        for i in word:
            x = x.square() + maps[i][0]
        c, cycle, s = maps[target]
        if row.periods[target] == 3:
            fx = x.square() + c
            rels = [fx - p for p in cycle]
        else:
            u = (x.square() + c).square() + c
            fu = u.square() + c
            half = Fraction(1, 2)
            if row.periods[target] == 1:
                rels = [u - (1 + s) * half, u - (1 - s) * half, fu + u + 1]
            else:
                rels = [fu - u, u + (1 - s) * half, u + (1 + s) * half]
        gens.append(GeneratorFactors(name, tuple(r.numerator()
                                                 for r in rels)))
    return gens


def all_pairs_candidates(gens: list[GeneratorFactors],
                         structural: list[BiPoly]) -> list[Fraction]:
    """Candidate values of vars[1]: the intersection over every generator
    pair of the rational roots of its factor-pair resultants (a zero
    resultant splits off the shared component and retries the leftover),
    together with the survivor-content roots, filtered by the common
    specialized gcd of the reduced generators.  A pair whose generators
    share a component has common zeros over every value of vars[1], so it
    constrains nothing; ValueError when no pair constrains."""
    content_roots: set[Fraction] = set()
    reduced, stripped = [], []
    for gen in gens:
        reduced.append(_divide_structural(gen, structural)[0])
        stripped.append([])
        for f in reduced[-1].factors:
            f, roots = _split_survivor_content(f)
            content_roots |= roots
            stripped[-1].append(f)
    cands: set[Fraction] | None = None
    for fi, fj in itertools.combinations(stripped, 2):
        union = set(content_roots)
        shared = False
        for a, b in itertools.product(fi, fj):
            while a.degree(0) > 0 and b.degree(0) > 0:
                r = resultant(a, b)
                if not r.is_zero():
                    if r.degree > 0:
                        union |= rational_roots(
                            squarefree_part(r)).root_set()
                    break
                shared = True
                a, roots = _split_survivor_content(
                    a.exact_divide(bivariate_gcd(a, b)))
                union |= roots
        if not shared:
            cands = union if cands is None else cands & union
    if cands is None:
        raise ValueError("every generator pair shares a component")
    return [v for v in sorted(cands)
            if common_specialized_gcd(reduced, v).degree > 0]


def _integer_roots(p: UniPoly) -> RootReport:
    """All integer roots of a primitive integer polynomial, with
    multiplicities, by modular root scan plus Hensel lifting."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    den, ints = p.den, p.ints
    if den != 1:
        raise ValueError("integer_roots expects integer coefficients")
    if zp.zcontent(ints) != 1:
        raise ValueError("integer_roots expects content 1")

    roots: dict[Fraction, int] = {}
    work = list(ints)
    # factor out powers of x
    k0 = 0
    while work and work[0] == 0:
        work = work[1:]
        k0 += 1
    if k0:
        roots[Fraction(0)] = k0
    if zp.zdeg(work) < 1:
        return RootReport(roots, method="trivial")

    sf = zp.zsquarefree(work)
    if zp.zdeg(sf) < 1:
        return RootReport(roots, method="trivial")
    p0 = _pick_prime(sf)
    # Cauchy: every root r satisfies |r| < 1 + max|a_i| / |a_n|
    bound = 2 + max(abs(c) for c in sf[:-1]) // abs(sf[-1])
    lifted, m, k = _lift_roots(sf, p0, 2 * bound)
    for r in lifted:
        cand = r if 2 * r <= m else r - m
        if abs(cand) <= bound and _horner(work, cand) == 0:
            roots[Fraction(cand)] = _multiplicity(list(work), cand, 1)
    return RootReport(roots, method="hensel", prime=p0, precision=k)


def _horner(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _roots_by_discriminant(p: UniPoly) -> RootReport:
    c = p.coeffs
    if p.degree == 1:
        return RootReport({-c[0] / c[1]: 1}, method="linear")
    a, b, cc = c[2], c[1], c[0]
    disc = b * b - 4 * a * cc
    r = is_square(disc)
    if r is None:
        return RootReport({}, method="discriminant")
    if r == 0:
        return RootReport({-b / (2 * a): 2}, method="discriminant")
    return RootReport(
        {(-b + r) / (2 * a): 1, (-b - r) / (2 * a): 1}, method="discriminant"
    )


def _rational_roots_transform(ints: list[int], a: int) -> RootReport:
    """Spec transform: roots of p <-> integer roots of a^(n-1) p(x/a)."""
    n = zp.zdeg(ints)
    # a^(n-1) p(x/a) has coefficients a_i a^(n-1-i); the top one is a_n/a = +-1
    q = [c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])]
    q.append(ints[-1] // a)
    _, q = zp.zprimitive(q)
    sub = _integer_roots(UniPoly(q, "x"))
    roots: dict[Fraction, int] = {}
    for r in sub.roots:
        x = Fraction(int(r), a)
        mult = _multiplicity(list(ints), x.numerator, x.denominator)
        if mult:
            roots[x] = mult
    return RootReport(roots, method="transform", prime=sub.prime,
                      precision=sub.precision)


def transform_rational_roots(p: UniPoly) -> RootReport:
    """The complete set of rational roots of p, with multiplicities, by the
    discriminant (degree <= 2) or the monicizing transform (at every height,
    however large a^(n-1) grows)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree <= 0:
        return RootReport({}, method="trivial")
    if p.degree <= 2:
        return _roots_by_discriminant(p)

    _, ints = zp.zprimitive(p.ints)
    roots: dict[Fraction, int] = {}
    k0 = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        k0 += 1
    if k0:
        roots[Fraction(0)] = k0
    if zp.zdeg(ints) < 1:
        return RootReport(roots, method="trivial")

    rep = _rational_roots_transform(ints, abs(ints[-1]))
    merged = dict(roots)
    merged.update(rep.roots)
    return RootReport(merged, rep.method, rep.prime, rep.precision)


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


class FractionUniPoly:
    """Reference for ``UniPoly``: its arithmetic when it stored a tuple of
    ``Fraction``s and converted to integers (``to_int``) for products,
    gcds and contents."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "x"):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.var = var

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, var: str = "x") -> "FractionUniPoly":
        return cls((), var)

    @classmethod
    def constant(cls, c, var: str = "x") -> "FractionUniPoly":
        return cls((c,), var)

    @classmethod
    def x(cls, var: str = "x") -> "FractionUniPoly":
        return cls((0, 1), var)

    @classmethod
    def from_int(cls, den: int, ints: list[int],
                 var: str = "x") -> "FractionUniPoly":
        return cls([Fraction(c, den) for c in ints], var)

    # -- basics -------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionUniPoly.constant(other, self.var)
        if not isinstance(other, FractionUniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.var == other.var or not self.coeffs or not other.coeffs
            or self.degree == 0
        )

    def __hash__(self):
        return hash((self.coeffs, self.var if self.degree > 0 else ""))

    def _check(self, other: "FractionUniPoly"):
        if self.var != other.var and self.degree > 0 and other.degree > 0:
            raise ValueError(f"mismatched variables {self.var!r} and {other.var!r}")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionUniPoly.constant(other, self.var)
        if not isinstance(other, FractionUniPoly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return FractionUniPoly(a, self.var if self.coeffs else other.var)

    __radd__ = __add__

    def __neg__(self):
        return FractionUniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionUniPoly.constant(other, self.var)
        if not isinstance(other, FractionUniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def to_int(self) -> tuple[int, list[int]]:
        """(common denominator, integer coefficient list)."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den, [int(c * den) for c in self.coeffs]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            return FractionUniPoly([c * other for c in self.coeffs], self.var)
        if not isinstance(other, FractionUniPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return FractionUniPoly.zero(self.var)
        da, a = self.to_int()
        db, b = other.to_int()
        prod = schoolbook_zmul(a, b)
        return FractionUniPoly.from_int(da * db, prod, self.var if self.degree > 0 else other.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = FractionUniPoly.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __call__(self, x):
        """Exact evaluation by Horner's rule."""
        x = _coerce(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "FractionUniPoly") -> "FractionUniPoly":
        """self(inner(x)); degrees multiply."""
        acc = FractionUniPoly.zero(inner.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    # -- division -----------------------------------------------------------
    def divmod(self, d: "FractionUniPoly") -> tuple["FractionUniPoly", "FractionUniPoly"]:
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(d)
        q: dict[int, Fraction] = {}
        rem = list(self.coeffs)
        dd, dl = d.degree, d.lc
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            c = rem[-1] / dl
            q[k] = c
            for i, dc in enumerate(d.coeffs):
                rem[k + i] -= c * dc
            while rem and rem[-1] == 0:
                rem.pop()
        nq = max(q, default=-1)
        return (
            FractionUniPoly([q.get(i, Fraction(0)) for i in range(nq + 1)], self.var),
            FractionUniPoly(rem, self.var),
        )

    def exact_divide(self, d: "FractionUniPoly") -> "FractionUniPoly":
        q, r = self.divmod(d)
        if not r.is_zero():
            raise ExactDivisionError(f"inexact division, remainder {r}", remainder=r)
        return q

    # -- content / gcd ------------------------------------------------------
    def content_primitive(self) -> tuple[Fraction, "FractionUniPoly"]:
        """p = content * primitive with coprime integer coefficients and
        positive leading coefficient on the primitive part."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content decomposition")
        den, ints = self.to_int()
        c, prim = zp.zprimitive(ints)
        return Fraction(c, den), FractionUniPoly(prim, self.var)

    def primitive(self) -> "FractionUniPoly":
        return self.content_primitive()[1]

    def gcd(self, other: "FractionUniPoly") -> "FractionUniPoly":
        """Monic gcd over Q (zero if both zero), by Euclid's remainders."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def monic(self) -> "FractionUniPoly":
        if self.is_zero():
            return self
        l = self.lc
        return FractionUniPoly([c / l for c in self.coeffs], self.var)

    def squarefree_part(self) -> "FractionUniPoly":
        """Product of the distinct irreducible factors, via p / gcd(p, p').

        Normalized to primitive integer coefficients with positive lc.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        _, ints = self.to_int()
        return FractionUniPoly(zp.zsquarefree(ints), self.var)

    # -- printing -----------------------------------------------------------
    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = rat_str(abs(c))
            else:
                xs = self.var if i == 1 else f"{self.var}^{i}"
                body = xs if abs(c) == 1 else f"{rat_str(abs(c))}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FractionUniPoly({self}, var={self.var!r})"


class FractionBiPoly:
    """Reference for ``BiPoly``: its arithmetic when it stored a dict of
    ``Fraction``s and converted to integers (``_int_terms``) for products,
    contents and the row form."""

    __slots__ = ("terms", "vars")

    def __init__(self, terms: dict, vars: tuple[str, str] = ("y", "z")):
        self.terms: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in terms.items():
            c = _coerce(c)
            if c:
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                self.terms[(i, j)] = c
        self.vars = vars

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, vars=("y", "z")) -> "FractionBiPoly":
        return cls({}, vars)

    @classmethod
    def constant(cls, c, vars=("y", "z")) -> "FractionBiPoly":
        return cls({(0, 0): c}, vars)

    @classmethod
    def from_unipoly(cls, p: UniPoly, which: int, vars=("y", "z")) -> "FractionBiPoly":
        """p as a polynomial in vars[which] alone (p's own label is not
        consulted)."""
        return cls({(i, 0) if which == 0 else (0, i): c
                    for i, c in enumerate(p.coeffs) if c}, vars)

    @classmethod
    def from_coeff_lists(cls, rows: list[list[int]], eliminate: int,
                         vars=("y", "z")) -> "FractionBiPoly":
        """Inverse of ``to_coeff_lists`` for denominator 1."""
        return cls({(a, b) if eliminate == 0 else (b, a): c
                    for a, row in enumerate(rows)
                    for b, c in enumerate(row) if c}, vars)

    @classmethod
    def variable(cls, name: str, vars=("y", "z")) -> "FractionBiPoly":
        if name == vars[0]:
            return cls({(1, 0): 1}, vars)
        if name == vars[1]:
            return cls({(0, 1): 1}, vars)
        raise ValueError(f"{name!r} is not one of {vars}")

    # -- basics -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionBiPoly.constant(other, self.vars)
        if not isinstance(other, FractionBiPoly):
            return NotImplemented
        return self.terms == other.terms and (
            self.vars == other.vars or not self.terms or not other.terms
            or max(max(i, j) for i, j in self.terms) == 0
        )

    def __hash__(self):
        # labels count only where a variable occurs, as in __eq__
        return hash((frozenset(self.terms.items()),
                     self.vars if self.total_degree() > 0 else ""))

    def degree(self, which: int) -> int:
        """Degree in vars[which]; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[which] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def _check(self, other: "FractionBiPoly"):
        if self.vars != other.vars and self.terms and other.terms:
            raise ValueError(f"mismatched variables {self.vars} and {other.vars}")

    def _int_terms(self) -> tuple[int, dict[tuple[int, int], int]]:
        """(common denominator d, exponent -> integer coefficient of d*self)."""
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        return den, {e: c.numerator * (den // c.denominator)
                     for e, c in self.terms.items()}

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionBiPoly.constant(other, self.vars)
        if not isinstance(other, FractionBiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return FractionBiPoly(out, self.vars if self.terms else other.vars)

    __radd__ = __add__

    def __neg__(self):
        return FractionBiPoly({e: -c for e, c in self.terms.items()}, self.vars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionBiPoly.constant(other, self.vars)
        if not isinstance(other, FractionBiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if not other:
                return FractionBiPoly.zero(self.vars)
            return FractionBiPoly({e: c * other for e, c in self.terms.items()}, self.vars)
        if not isinstance(other, FractionBiPoly):
            return NotImplemented
        self._check(other)
        da, a = self._int_terms()
        db, b = other._int_terms()
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        den = da * db
        return FractionBiPoly({e: Fraction(c, den) for e, c in out.items() if c},
                      self.vars if self.terms else other.vars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = FractionBiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def eval2(self, a, b) -> Fraction:
        a, b = _coerce(a), _coerce(b)
        byi: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            byi[i] = byi.get(i, Fraction(0)) + c * b**j
        acc = Fraction(0)
        for i, inner in byi.items():
            acc += inner * a**i
        return acc

    def specialize(self, which: int, value) -> UniPoly:
        """Substitute a rational for vars[which]; returns a UniPoly in the
        other variable."""
        value = _coerce(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            fixed, free = (i, j) if which == 0 else (j, i)
            out[free] = out.get(free, Fraction(0)) + c * value**fixed
        n = max(out, default=-1)
        return UniPoly([out.get(k, Fraction(0)) for k in range(n + 1)],
                       self.vars[1 - which])

    def as_unipoly(self) -> UniPoly | None:
        """This polynomial as a UniPoly if it involves only one variable."""
        if all(e[0] == 0 for e in self.terms):
            n = self.degree(1)
            return UniPoly([self.terms.get((0, k), Fraction(0)) for k in range(n + 1)],
                           self.vars[1])
        if all(e[1] == 0 for e in self.terms):
            n = self.degree(0)
            return UniPoly([self.terms.get((k, 0), Fraction(0)) for k in range(n + 1)],
                           self.vars[0])
        return None

    # -- division -----------------------------------------------------------
    def exact_divide(self, d: "FractionBiPoly") -> "FractionBiPoly":
        """Exact division by a single divisor; error carries the remainder.

        Long division by leading terms in lex order; for one divisor the
        remainder vanishes exactly when d divides self.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(d)
        dl_exp = max(d.terms)  # lex on exponent tuples
        dl_c = d.terms[dl_exp]
        rem = dict(self.terms)
        quot: dict[tuple[int, int], Fraction] = {}
        while rem:
            e = max(rem)
            if e[0] < dl_exp[0] or e[1] < dl_exp[1]:
                raise ExactDivisionError(
                    f"inexact bivariate division, remainder has leading term {e}",
                    remainder=FractionBiPoly(rem, self.vars),
                )
            q_exp = (e[0] - dl_exp[0], e[1] - dl_exp[1])
            q_c = rem[e] / dl_c
            quot[q_exp] = quot.get(q_exp, Fraction(0)) + q_c
            for de, dc in d.terms.items():
                te = (q_exp[0] + de[0], q_exp[1] + de[1])
                s = rem.get(te, Fraction(0)) - q_c * dc
                if s:
                    rem[te] = s
                else:
                    rem.pop(te, None)
        return FractionBiPoly(quot, self.vars)

    def divides(self, other: "FractionBiPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        try:
            other.exact_divide(self)
            return True
        except ExactDivisionError:
            return False

    def divide_out(self, d: "FractionBiPoly") -> tuple["FractionBiPoly", int]:
        """(q, m) with self = d^m * q and d not dividing q; one exact
        division per step.  self must be nonzero and d nonconstant."""
        m = 0
        q = self
        while True:
            try:
                q = q.exact_divide(d)
            except ExactDivisionError:
                return q, m
            m += 1

    def content_primitive(self) -> tuple[Fraction, "FractionBiPoly"]:
        """Rational content and integer-primitive part (positive lex-leading
        coefficient)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content decomposition")
        den, ints = self._int_terms()
        g = math.gcd(*ints.values())
        if self.terms[max(self.terms)] < 0:
            g = -g
        return Fraction(g, den), FractionBiPoly({e: c // g for e, c in ints.items()},
                                        self.vars)

    # -- conversions for elimination ----------------------------------------
    def to_coeff_lists(self, eliminate: int) -> tuple[int, list[list[int]]]:
        """(denominator, lists-of-int-polys) with the outer index running over
        powers of vars[eliminate] and inner int polys in the other variable."""
        den, ints = self._int_terms()
        n = self.degree(eliminate)
        rows: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        for (i, j), c in ints.items():
            a, b = (i, j) if eliminate == 0 else (j, i)
            rows[a][b] = c
        out = []
        for row in rows:
            m = max(row, default=-1)
            out.append([row.get(k, 0) for k in range(m + 1)])
        while out and not out[-1]:
            out.pop()
        return den, out

    # -- printing -----------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j)]
            factors = []
            if i:
                factors.append(self.vars[0] if i == 1 else f"{self.vars[0]}^{i}")
            if j:
                factors.append(self.vars[1] if j == 1 else f"{self.vars[1]}^{j}")
            if not factors:
                body = rat_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([rat_str(abs(c))] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"FractionBiPoly({self}, vars={self.vars})"

    def dump_terms(self) -> dict[str, str]:
        """Exponent-map dump used in verification reports."""
        return {
            f"({i},{j})": rat_str(c)
            for (i, j), c in sorted(self.terms.items())
        }


def schoolbook_product(p: BiPoly, q: BiPoly) -> BiPoly:
    """Reference for ``BiPoly``'s product: every pair of terms of the two
    integer maps, over the product of the denominators."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in p.ints.items():
        for (i2, j2), c2 in q.ints.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return BiPoly.from_int(p.den * q.den, out, p.vars if p.ints else q.vars)


def schoolbook_zmul(p: list[int], q: list[int]) -> list[int]:
    """Reference for ``_intpoly.zmul``: every pair of nonzero coefficients,
    whatever the operands' size."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return zp.ztrim(out)


def subres_resultant(p: list[list[int]], q: list[list[int]]) -> list[int]:
    """Reference for ``_intpoly.subres_resultant``: the subresultant PRS
    with Brown-Traub bookkeeping over Z[z] itself, every power of every
    factor carried through each step.  Equals the Sylvester determinant
    with p's coefficient rows first."""
    if not p or not q:
        return []
    dp, dq = len(p) - 1, len(q) - 1
    sign = 1
    A, B = list(p), list(q)
    if dp < dq:
        A, B = B, A
        if (dp * dq) % 2:
            sign = -sign
    if len(B) == 1:
        res = zp.zpow(B[0], len(A) - 1)
        return res if sign > 0 else zp.zneg(res)
    g = [1]
    h = [1]
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA % 2) and (dB % 2):
            sign = -sign
        R = zp._gprem(A, B)
        A = B
        if not R:
            return []
        denom = zp.zmul(g, zp.zpow(h, delta))
        B = [zp.zdivexact(c, denom) for c in R]
        g = A[-1]
        if delta:
            h = zp.zdivexact(zp.zpow(g, delta), zp.zpow(h, delta - 1))
        if len(B) == 1:
            dA = len(A) - 1
            res = zp.zdivexact(zp.zpow(B[0], dA), zp.zpow(h, dA - 1))
            return res if sign > 0 else zp.zneg(res)


def sporadic_pairs() -> tuple[SporadicTuple, ...]:
    """The catalog's sporadic two-map tuples, in catalog order."""
    return tuple(s for s in catalog()[1] if len(s.cs) == 2)


def product_first_word_relation_roots(tup: ParamTuple, word: Word,
                                      target: int
                                      ) -> tuple[UniPoly, list[Fraction]] | None:
    """Reference for ``symbolic.word_relation_roots``: the numerator of
    (u^2 - u + c)(u^2 + u + c + 1), u = f^2(w(P)), and its rational roots,
    or None when that product vanishes identically."""
    x = tup.P
    for i in word:
        x = x ** 2 + tup.cs[i]
    c = tup.cs[target]
    u = (x ** 2 + c) ** 2 + c
    diff = (u ** 2 - u + c) * (u ** 2 + u + c + 1)
    if diff.is_zero():
        return None
    num = diff.num.primitive()
    return num, sorted(rational_roots(num).root_set())


def bfs_exclusion_relation(tup: ParamTuple
                           ) -> tuple[Word, int, UniPoly, list[Fraction]]:
    """Reference for ``symbolic.find_exclusion_relation``: every word by
    length and then lexicographically, every target in order, each relation
    formed from scratch by ``product_first_word_relation_roots``; the first
    that does not vanish."""
    s = len(tup.cs)
    for n in range(MAX_WORD_LEN + 1):
        for w in itertools.product(range(s), repeat=n):
            for target in range(s):
                got = product_first_word_relation_roots(tup, w, target)
                if got is not None:
                    return (w, target, *got)
    raise ArithmeticError("no non-vanishing word relation up to length "
                          f"{MAX_WORD_LEN}")


def horner_compose(f: RatFunc, inner: RatFunc) -> RatFunc:
    """Reference for ``RatFunc.compose``: Horner over Q(t) on numerator and
    denominator, each step acc * inner + c followed by the full reduction
    ``RatFunc(num, den)``, and then their quotient, reduced again."""
    p, q = inner.num, inner.den

    def horner(poly: UniPoly) -> RatFunc:
        acc = RatFunc.constant(0, inner.var)
        for c in reversed(poly.coeffs):
            acc = RatFunc(acc.num * p + c * acc.den * q, acc.den * q)
        return acc

    num, den = horner(f.num), horner(f.den)
    return RatFunc(num.num * den.den, num.den * den.num)


def ratfunc_family_accounts(fam: FamilyDef, c1: Fraction, c2: Fraction,
                            basepoints) -> Fraction | None:
    """Reference for ``symbolic._family_accounts``: the parameters where
    the family's c1 equals c1 are the roots of the numerator of the reduced
    ``RatFunc`` difference."""
    diff = fam.tup.cs[0] - c1
    if diff.num.degree <= 0:
        return None
    for t0 in sorted(rational_roots(diff.num).root_set()):
        try:
            cs, P, stable = fam.instance(t0)
        except ExcludedParameter:
            continue
        if cs[1] == c2 and set(basepoints) <= {P, *stable}:
            return t0
    return None
