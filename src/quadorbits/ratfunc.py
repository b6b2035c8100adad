"""Arithmetic in the univariate rational function field Q(t).

Canonical form: denominator monic and coprime to the numerator, so equality
is component comparison.  Every operation reduces; composition chains stay
small because reduction happens at each step.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import UniPoly

__all__ = ["RatFunc", "PoleError", "apply_quadmap"]


class PoleError(ZeroDivisionError):
    """Specialization at a root of the denominator."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


class RatFunc:
    """Quotient of two UniPoly in the same variable, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        if den is None:
            den = UniPoly.constant(1, num.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.degree > 0 and den.degree > 0 and num.var != den.var:
            raise ValueError(f"mismatched variables {num.var!r}, {den.var!r}")
        var = num.var if num.degree > 0 else den.var
        if num.is_zero():
            num, den = UniPoly.zero(var), UniPoly.constant(1, var)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_divide(g)
                den = den.exact_divide(g)
            lc = den.lc
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, c, var: str = "t") -> "RatFunc":
        return cls(UniPoly.constant(c, var))

    @classmethod
    def t(cls, var: str = "t") -> "RatFunc":
        return cls(UniPoly.x(var))

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "RatFunc":
        """Parse "num / den" where num, den are polynomial expressions in
        parentheses or plain polynomials."""
        s = text.strip()
        if s.startswith("(") and ") / (" in s and s.endswith(")"):
            left, right = s[1:-1].split(") / (", 1)
            return cls(UniPoly.parse(left, var), UniPoly.parse(right, var))
        return cls(UniPoly.parse(s, var))

    @property
    def var(self) -> str:
        return self.num.var if self.num.degree > 0 else self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    # -- arithmetic ---------------------------------------------------------
    @staticmethod
    def _coerce(x, var) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, UniPoly):
            return RatFunc(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc.constant(x, var)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other, self.var)
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ---------------------------------------------------------
    def specialize(self, t0) -> Fraction:
        """Exact value at t0; a root of the denominator raises PoleError."""
        d = self.den(t0)
        if d == 0:
            raise PoleError(f"pole of {self} at {self.var} = {t0}", at=t0)
        return self.num(t0) / d

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """self(inner(t)) by Horner over Q(t)."""
        acc = RatFunc.constant(0, inner.var)
        for c in reversed(self.num.coeffs):
            acc = acc * inner + c
        accd = RatFunc.constant(0, inner.var)
        for c in reversed(self.den.coeffs):
            accd = accd * inner + c
        return acc / accd

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def apply_quadmap(c: RatFunc, x: RatFunc) -> RatFunc:
    """The quadratic map x^2 + c applied in Q(t), reduced."""
    return x * x + c
