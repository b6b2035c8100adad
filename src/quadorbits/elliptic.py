"""Elliptic-curve toolkit for the curve subcase of the three-map analysis.

Affine chord-tangent group law on y^2 = x^3 + a2 x^2 + a4 x + a6 over Q,
point orders up to the Mazur bound, Lutz-Nagell integral-torsion
enumeration, and the two checks that tie the curve

    C : t^2 u^2 + t u^2 - t - u^2 = 0

to E : y^2 = x^3 - 2 x^2 + 1 via the degree-one map

    r : (t, u) -> ((-t u^2 + 1)/u^2, (t u^2 + u^2 - 1)/u^3).

Two facts are consumed as external certificates rather than re-proved:
the rank of E(Q) is zero, and rational torsion order is at most 12
(Mazur).  Everything downstream of them is verified here exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .polynomials import BiPoly, UniPoly, resultant
from .rationals import exact_rational, rat_str
from .records import Frozen, set_field
from .roots import rational_roots

__all__ = [
    "Curve",
    "ECPoint",
    "INFINITY",
    "point",
    "ec_add",
    "ec_order",
    "lutz_nagell_candidates",
    "SUBCASE_CURVE_E",
    "curve_c_poly",
    "curve_map_numerator",
    "verify_curve_map",
    "preimage_check",
    "preimages_on_c",
    "c_rational_points",
    "RANK_ZERO_CERTIFICATE",
    "MAZUR_CERTIFICATE",
]

RANK_ZERO_CERTIFICATE = (
    "external certificate: E(Q) has rank zero for E: y^2 = x^3 - 2x^2 + 1"
)
MAZUR_CERTIFICATE = (
    "external certificate (Mazur): rational torsion points have order <= 12"
)


class ECPoint(NamedTuple):
    x: Fraction | None
    y: Fraction | None

    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_infinity():
            return "inf"
        return f"({rat_str(self.x)}, {rat_str(self.y)})"


INFINITY = ECPoint(None, None)


def point(x, y) -> ECPoint:
    return ECPoint(exact_rational(x), exact_rational(y))


class Curve(Frozen):
    """y^2 = x^3 + a2 x^2 + a4 x + a6, nonsingular."""

    __slots__ = ("a2", "a4", "a6")

    def __init__(self, a2: Fraction, a4: Fraction, a6: Fraction):
        set_field(self, "a2", exact_rational(a2))
        set_field(self, "a4", exact_rational(a4))
        set_field(self, "a6", exact_rational(a6))
        if self.cubic_disc() == 0:
            raise ValueError("singular curve: zero discriminant")

    def cubic(self, var: str = "x") -> UniPoly:
        return UniPoly((self.a6, self.a4, self.a2, 1), var)

    def cubic_disc(self) -> Fraction:
        a, b, c = self.a2, self.a4, self.a6
        return (18 * a * b * c - 4 * a**3 * c + a**2 * b**2
                - 4 * b**3 - 27 * c**2)

    def contains(self, P: ECPoint) -> bool:
        if P.is_infinity():
            return True
        x = P.x
        return P.y * P.y == ((x + self.a2) * x + self.a4) * x + self.a6

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in (self.a2, self.a4, self.a6))

    def __str__(self) -> str:
        return f"y^2 = {self.cubic()}"


SUBCASE_CURVE_E = Curve(Fraction(-2), Fraction(0), Fraction(1))


def _require_on_curve(E: Curve, P: ECPoint) -> None:
    if not E.contains(P):
        raise ValueError(f"point {P} is not on {E}")


def ec_add(E: Curve, P: ECPoint, Q: ECPoint) -> ECPoint:
    """Chord-tangent sum with the point at infinity as identity."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    return _add(E, P, Q)


def _add(E: Curve, P: ECPoint, Q: ECPoint) -> ECPoint:
    """``ec_add`` of two points known to lie on E."""
    if P.is_infinity():
        return Q
    if Q.is_infinity():
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # tangent line (P == Q with y != 0)
        slope = (3 * P.x**2 + 2 * E.a2 * P.x + E.a4) / (2 * P.y)
    else:
        slope = (Q.y - P.y) / (Q.x - P.x)
    x3 = slope * slope - E.a2 - P.x - Q.x
    y3 = slope * (P.x - x3) - P.y
    return ECPoint(x3, y3)


def ec_order(E: Curve, P: ECPoint) -> int | None:
    """Least n <= 12 with n*P = infinity, or None ("exceeds 12"); by Mazur's
    bound the latter certifies infinite order."""
    _require_on_curve(E, P)
    return _order(E, P)


def _order(E: Curve, P: ECPoint) -> int | None:
    """``ec_order`` of a point known to lie on E: the multiples of P stay
    on E, so no sum is checked."""
    acc = P
    for n in range(1, 13):
        if acc.is_infinity():
            return n
        acc = _add(E, acc, P)
    return None


def lutz_nagell_candidates(E: Curve) -> set[ECPoint]:
    """All rational torsion points of an integral curve, by Lutz-Nagell:
    torsion points are integral with y = 0 or y^2 dividing the cubic
    discriminant.  Divisors come from trial division; candidates of infinite
    order (order exceeding the Mazur bound) are filtered out."""
    if not E.is_integral():
        raise ValueError("Lutz-Nagell needs integer coefficients")
    disc = abs(int(E.cubic_disc()))
    ys = {0}
    d = 1
    while d * d <= disc:
        if disc % (d * d) == 0:
            ys.add(d)
        d += 1
    out: set[ECPoint] = set()
    cubic = E.cubic()
    for y in sorted(ys):
        # the cubic is monic and integral, so its rational roots are
        # integers; each candidate solves y^2 = cubic(x), so lies on E
        for x in rational_roots(cubic - Fraction(y * y)).roots:
            for yy in ({0} if y == 0 else {y, -y}):
                cand = ECPoint(x, Fraction(yy))
                if _order(E, cand) is not None:
                    out.add(cand)
    return out


# ---------------------------------------------------------------------------
# the affine curve C and the map r onto E
# ---------------------------------------------------------------------------

_TU = ("t", "u")
_C = BiPoly.parse("t^2*u^2 + t*u^2 - t - u^2", vars=_TU)


def curve_c_poly() -> BiPoly:
    """Defining polynomial of C: t^2 u^2 + t u^2 - t - u^2, built once at
    import and shared by every caller (a ``BiPoly`` is never modified)."""
    return _C


def curve_map_numerator() -> BiPoly:
    """Numerator over u^6 of y_r^2 - (x_r^3 - 2 x_r^2 + 1) after substituting
    the components of r."""
    t = BiPoly.variable("t", _TU)
    u = BiPoly.variable("u", _TU)
    u2 = u * u
    xnum = -t * u2 + 1          # x_r = xnum / u^2
    ynum = t * u2 + u2 - 1      # y_r = ynum / u^3
    return (ynum * ynum
            - (xnum ** 3 - 2 * (xnum ** 2) * u2 + u2 ** 3))


def verify_curve_map() -> bool:
    """True iff the map r lands on E wherever C vanishes, i.e. C divides the
    numerator of y_r^2 - (x_r^3 - 2x_r^2 + 1)."""
    return _C.divides(curve_map_numerator())


def preimage_check() -> bool:
    """True iff no rational point of C with u != 0 maps to (1, 0) under r.

    Following the system {C = 0, numerator(y_r) = 0, u != 0}: eliminate t by
    a resultant, extract the rational roots in u, and back-substitute.  On C
    the vanishing of y_r's numerator t u^2 + u^2 - 1 is equivalent to
    x_r = 1, so this system captures all preimages of (1, 0).
    """
    ynum = BiPoly.parse("t*u^2 + u^2 - 1", vars=_TU)
    elim = resultant(_C, ynum)  # eliminates t, result in u
    if elim.is_zero():
        return False
    for u0 in rational_roots(elim).roots:
        if u0 == 0:
            continue
        cu = _C.specialize(1, u0)     # polynomial in t
        yu = ynum.specialize(1, u0)
        g = cu.gcd(yu)
        if g.degree > 0 and rational_roots(g).roots:
            return False
        if g.is_zero():
            return False
    return True


def preimages_on_c(target: ECPoint) -> set[tuple[Fraction, Fraction]]:
    """All rational (t, u) on C with u != 0 and r(t, u) = target (an affine
    point).  The x-equation is linear in t, so substitute
    t = (1 - x0 u^2)/u^2 into C and read off the rational u.  With
    t = N/D, N = 1 - x0 u^2 and D = u^2, the substitution is
    D^n C(N/D, u) = sum_i C_i(u) N^i D^(n-i), n = deg_t C: no quotient is
    reduced, and D^n only adds roots at u = 0, which are skipped."""
    if target.is_infinity():
        return set()
    x0, y0 = target.x, target.y
    u = UniPoly.x("u")
    N, D = 1 - x0 * u * u, u * u
    den, rows = _C.to_coeff_lists(0)
    n = len(rows) - 1
    fiber = UniPoly.zero("u")
    for i, row in enumerate(rows):
        fiber = fiber + UniPoly.from_int(den, row, "u") * N**i * D**(n - i)
    out: set[tuple[Fraction, Fraction]] = set()
    if fiber.is_zero():
        raise ArithmeticError("x-fiber lies inside C; elimination degenerates")
    for u0 in rational_roots(fiber).roots:
        if u0 == 0:
            continue
        t0 = (1 - x0 * u0**2) / u0**2
        # x_r(t0, u0) = x0 by construction; check C and y_r exactly
        if _C.eval2(t0, u0) != 0:
            continue
        if (t0 * u0**2 + u0**2 - 1) / u0**3 == y0:
            out.add((t0, u0))
    return out


def c_rational_points() -> set[tuple[Fraction, Fraction]]:
    """C(Q), assembled from the torsion points of E.

    r is a degree-one map C -> E (verify_curve_map), E(Q) is torsion by the
    rank-zero certificate, and the torsion list comes from Lutz-Nagell.  A
    point of C with u = 0 forces t = 0, giving (0, 0); every other rational
    point maps to an affine point of E(Q) and is recovered as a preimage.
    """
    pts: set[tuple[Fraction, Fraction]] = {(Fraction(0), Fraction(0))}
    for q in lutz_nagell_candidates(SUBCASE_CURVE_E):
        pts |= preimages_on_c(q)
    return pts
