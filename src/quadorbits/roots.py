"""Certified, complete rational-root extraction for univariate polynomials.

One route for every degree and height (Loos 1983, "Computing rational zeros
of integral polynomials by p-adic expansion").  Strip the zero roots, take
the primitive integer form and its squarefree part f = a_n x^n + ... + a_0
(a_0 != 0), pick a prime p0 > 50 that keeps f squarefree mod p0 and does
not divide a_n, read off all roots of f mod p0 by exhaustive scan, and
Hensel-lift each to a modulus m = p0^k > 2 |a_0| |a_n|.  When 53 keeps
the primitive form itself squarefree, that form is f and p0 = 53, with no
gcd taken.

A rational root u/v of f in lowest terms has u | a_0 and v | a_n, and
v is a unit mod p0, so u/v survives as the residue u * v^-1 mod p0 and,
its lift being unique, as a lifted residue r with u = v r (mod m).  Two
fractions u/v and u'/v' within those bounds that share r satisfy
u v' = u' v (mod m) with |u v' - u' v| <= 2 |a_0| |a_n| < m, hence are
equal: rational reconstruction with numerator bound |a_0| and denominator
bound |a_n| returns u/v itself, so no root is missed.  Every reconstructed
candidate is verified by exact evaluation, so every reported root is a
certificate, and its multiplicity is counted by exact division of the
primitive form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _intpoly as zp
from .polynomials import UniPoly
from .rationals import rat_str

__all__ = ["RootReport", "rational_roots"]


class RootReport(NamedTuple):
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


def _multiplicity(ints: list[int], num: int, den: int) -> int:
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


def _squarefree_mod(f: list[int], p: int) -> bool:
    """Whether the prime p does not divide lc(f) and f is squarefree mod p.
    Then f is squarefree over Q: a repeated factor would keep its degree
    mod p and divide gcd(f, f') there."""
    return bool(f[-1] % p) and zp.zdeg(zp.pgcd_monic(f, zp.zderiv(f), p)) == 0


def _pick_prime(sf: list[int]) -> int:
    """Smallest prime > 50 not dividing lc(sf) with sf squarefree mod p."""
    p = 53
    while not _squarefree_mod(sf, p):
        p = zp.next_prime(p)
    return p


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


def rational_roots(p: UniPoly) -> RootReport:
    """The complete set of rational roots of p, with multiplicities."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    _, ints = zp.zprimitive(p.ints)
    roots: dict[Fraction, int] = {}
    k0 = 0
    while ints[0] == 0:
        ints = ints[1:]
        k0 += 1
    if k0:
        roots[Fraction(0)] = k0
    if zp.zdeg(ints) < 1:
        return RootReport(roots, method="trivial")

    if _squarefree_mod(ints, 53):
        # ints is squarefree, so it is its own squarefree part, and 53 is
        # the prime ``_pick_prime`` would return for it
        sf, p0 = ints, 53
    else:
        sf = zp.zsquarefree(ints)
        p0 = _pick_prime(sf)
    bound_num = abs(sf[0])
    bound_den = abs(sf[-1])
    lifted, m, k = _lift_roots(sf, p0, 2 * bound_num * bound_den)
    for r in lifted:
        pair = _rat_recon(r, m, bound_num, bound_den)
        if pair is None:
            continue
        u, v = pair
        if zp.zeval_homogeneous(sf, u, v) == 0:
            roots[Fraction(u, v)] = _multiplicity(ints, u, v)
    return RootReport(roots, method="reconstruction", prime=p0, precision=k)


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
