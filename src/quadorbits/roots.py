"""Certified, complete rational-root extraction for univariate polynomials.

The engine: reduce to the squarefree part, pick a prime p0 > 50 that keeps
the reduction squarefree, read off all roots mod p0 by exhaustive scan, and
Hensel-lift each to a modulus past twice the relevant height bound.  Every
lifted candidate is verified by exact evaluation, so reported roots are
certificates.  Completeness comes from the converse direction: an integer
root stays a root mod p0 and lies within the Cauchy bound, hence is the
unique lift of its residue; a rational root u/v survives as the residue
u * v^-1 and is recovered either through the classical monicizing transform
a^(n-1) p(x/a) or, when that transform would blow up the coefficients, by
rational reconstruction from the lifted residue (u and v are bounded by the
constant and leading coefficients, so the reconstruction window is exact).

Linear and quadratic inputs short-circuit through the discriminant and the
exact rational square root instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _intpoly as zp
from .polynomials import UniPoly
from .rationals import is_square, rat_str

__all__ = ["RootReport", "integer_roots", "rational_roots"]


@dataclass(frozen=True)
class RootReport:
    """Complete root set with multiplicities and the modular trace."""

    roots: dict[Fraction, int]
    method: str
    prime: int | None = None
    precision: int | None = None  # exponent k of the lifting modulus prime**k

    def root_set(self) -> set[Fraction]:
        return set(self.roots)

    def to_dict(self) -> dict:
        out = {
            "roots": {rat_str(r): m for r, m in sorted(self.roots.items())},
            "method": self.method,
        }
        if self.prime is not None:
            out["prime"] = self.prime
            out["precision"] = self.precision
        return out


def _multiplicity(ints: list[int], num: int, den: int = 1) -> int:
    """Multiplicity of num/den as a root of the integer polynomial."""
    factor = [-num, den]
    m = 0
    while ints:
        try:
            q, r = zp.zdivmod(ints, factor)
        except ArithmeticError:  # a non-integral quotient step
            break
        if r:
            break
        ints, m = q, m + 1
    return m


def _pick_prime(sf: list[int]) -> int:
    """Smallest prime > 50 not dividing lc(sf) with sf squarefree mod p."""
    p = 53
    while True:
        if sf[-1] % p:
            g = zp.pgcd_monic(sf, zp.zderiv(sf), p)
            if zp.zdeg(g) == 0:
                return p
        p = zp.next_prime(p)


def _lift_roots(sf: list[int], p0: int, target: int) -> tuple[list[int], int, int]:
    """Hensel-lift all roots of sf mod p0 to a modulus > target.

    Returns (lifted residues, modulus, exponent).  sf must be squarefree
    mod p0, so every root is simple and Newton iteration applies.
    """
    base = zp.proots(sf, p0)
    deriv = zp.zderiv(sf)
    m, k = p0, 1
    lifted = list(base)
    while m <= target:
        m, k = m * m, 2 * k
        new = []
        for r in lifted:
            fr = _eval_mod(sf, r, m)
            dr = _eval_mod(deriv, r, m)
            new.append((r - fr * pow(dr, -1, m)) % m)
        lifted = new
    return lifted, m, k


def _eval_mod(p: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def integer_roots(p: UniPoly) -> RootReport:
    """All integer roots of a primitive integer polynomial, with
    multiplicities, by modular root scan plus Hensel lifting."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    den, ints = p.to_int()
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
        if abs(cand) <= bound and zp.zeval(work, cand) == 0:
            roots[Fraction(cand)] = _multiplicity(list(work), cand)
    return RootReport(roots, method="hensel", prime=p0, precision=k)


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


# Keep the classical monicizing transform while a^(n-1) stays small; beyond
# that the transformed coefficients dwarf the input and rational
# reconstruction from the lifted residues is the sane route.
_TRANSFORM_BIT_LIMIT = 200_000


def rational_roots(p: UniPoly) -> RootReport:
    """The complete set of rational roots of p, with multiplicities."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree <= 0:
        return RootReport({}, method="trivial")
    if p.degree <= 2:
        report = _roots_by_discriminant(p)
        # multiplicities from the discriminant path are already exact
        return report

    _, ints = p.to_int()
    _, ints = zp.zprimitive(ints)
    roots: dict[Fraction, int] = {}
    k0 = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        k0 += 1
    if k0:
        roots[Fraction(0)] = k0
    if zp.zdeg(ints) < 1:
        return RootReport(roots, method="trivial")

    a = abs(ints[-1])
    n = zp.zdeg(ints)
    if a == 1 or (n - 1) * a.bit_length() <= _TRANSFORM_BIT_LIMIT:
        rep = _rational_roots_transform(ints, a)
    else:
        rep = _rational_roots_reconstruct(ints)
    merged = dict(roots)
    merged.update(rep.roots)
    return RootReport(merged, rep.method, rep.prime, rep.precision)


def _rational_roots_transform(ints: list[int], a: int) -> RootReport:
    """Spec transform: roots of p <-> integer roots of a^(n-1) p(x/a)."""
    n = zp.zdeg(ints)
    # a^(n-1) p(x/a) has coefficients a_i a^(n-1-i); the top one is a_n/a = +-1
    q = [c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])]
    q.append(ints[-1] // a)
    _, q = zp.zprimitive(q)
    sub = integer_roots(UniPoly(q, "x"))
    roots: dict[Fraction, int] = {}
    for r in sub.roots:
        x = Fraction(int(r), a)
        mult = _multiplicity(list(ints), x.numerator, x.denominator)
        if mult:
            roots[x] = mult
    return RootReport(roots, method="transform", prime=sub.prime,
                      precision=sub.precision)


def _rational_roots_reconstruct(ints: list[int]) -> RootReport:
    """Rational roots via Hensel lifting plus rational reconstruction.

    For a rational root u/v in lowest terms of the primitive squarefree
    part: u divides the constant term, v divides the leading coefficient,
    and u = v * r mod p^k for the lifted residue r.  Lifting past
    2*|a_0|*|a_n| makes the reconstruction unique, so verifying each
    reconstructed candidate exactly yields the complete root set.
    """
    sf = zp.zsquarefree(ints)
    p0 = _pick_prime(sf)
    bound_num = abs(sf[0])
    bound_den = abs(sf[-1])
    lifted, m, k = _lift_roots(sf, p0, 2 * bound_num * bound_den)
    roots: dict[Fraction, int] = {}
    for r in lifted:
        pair = _rat_recon(r, m, bound_num, bound_den)
        if pair is None:
            continue
        u, v = pair
        if _eval_homogeneous(sf, u, v) == 0:
            x = Fraction(u, v)
            mult = _multiplicity(list(ints), x.numerator, x.denominator)
            if mult:
                roots[x] = mult
    return RootReport(roots, method="reconstruction", prime=p0, precision=k)


def _eval_homogeneous(p: list[int], u: int, v: int) -> int:
    """v^deg(p) * p(u/v), an exact integer (Horner with denominator powers)."""
    acc = 0
    vp = 1
    for c in reversed(p):
        acc = acc * u + c * vp
        vp *= v
    return acc


def _rat_recon(r: int, m: int, max_num: int, max_den: int) -> tuple[int, int] | None:
    """Unique u/v with u = v*r (mod m), |u| <= max_num, 0 < v <= max_den."""
    r0, s0 = m, 0
    r1, s1 = r % m, 1
    while r1 > max_num:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    u, v = r1, s1
    if v < 0:
        u, v = -u, -v
    if v == 0 or v > max_den or math.gcd(u, v) != 1:
        return None
    return u, v
