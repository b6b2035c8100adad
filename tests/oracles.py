"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the
resultant oracle is a Sylvester-matrix determinant by Laplace expansion,
the preperiodicity oracle is naive bounded iteration, and the search oracle
decides every tuple of the grid directly instead of by subset reduction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from quadorbits.dynamics import MapSet, finite_orbit_points
from quadorbits.polynomials import BiPoly, UniPoly
from quadorbits.search import FoundTuple, SearchSpec


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


def direct_search(spec: SearchSpec) -> list[FoundTuple]:
    """Brute-force grid search: the complete finite-orbit basepoint list of
    every set_size-subset of the grid, decided one tuple at a time."""
    found = []
    for cs in itertools.combinations(spec.grid(), spec.set_size):
        pts = finite_orbit_points(MapSet(cs))
        if pts:
            found.append(FoundTuple(cs, tuple(r.basepoint for r in pts)))
    return found
