"""Exact rational arithmetic primitives.

Integers are plain Python ``int`` (arbitrary precision, canonical zero) and
rationals are ``fractions.Fraction``, which already maintains the invariants
we need: lowest terms, positive denominator, zero stored as 0/1.  This module
adds the handful of operations the rest of the package relies on: exact
coercion of numbers and parsing/printing of "p/q" strings.  No floating
point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def exact_rational(x) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; anything else,
    floats and strings included, raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat(text: str) -> Fraction:
    """Parse "p/q" or the integer shorthand "p" exactly.

    Decimals are rejected on purpose: exactness is the package contract.
    """
    s = text.strip()
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"not an exact rational: {text!r}")
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        den = int(den_s)
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        return Fraction(int(num_s), den)
    return Fraction(int(s))


def rat_str(x: Fraction) -> str:
    """Print exactly; integers drop the "/1"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
