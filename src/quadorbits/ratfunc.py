"""Arithmetic in the univariate rational function field Q(t).

Canonical form: denominator monic and coprime to the numerator, so equality
is component comparison.  A result is reduced by a gcd only where a factor
can cancel.  The operations below build their result as it stands, because
for a reduced a / b it is reduced already:

- the negation -a / b;
- a sum or difference with a polynomial or a constant p, (a + p b) / b,
  since gcd(a + p b, b) = gcd(a, b);
- a product or quotient by a nonzero constant k, (k a) / b;
- the square a^2 / b^2, since coprime polynomials have coprime squares;
- ``RatFunc(num, den)`` with a constant part, whose gcd is 1.

``compose`` evaluates numerator and denominator homogeneously over Z at
the inner function's numerator and denominator; the result is reduced by
construction (see its docstring), so it takes no gcd at all.
"""

from __future__ import annotations

from fractions import Fraction

from . import _intpoly as zp
from .polynomials import UniPoly, evaluate

__all__ = ["RatFunc", "PoleError"]


class PoleError(ZeroDivisionError):
    """Specialization at a root of the denominator."""


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
            if num.degree > 0 and den.degree > 0:
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

    @staticmethod
    def _reduced(num: UniPoly, den: UniPoly) -> "RatFunc":
        """num / den as given, which the caller knows to be coprime with
        den monic: no gcd is taken."""
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = num, den
        return out

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, c, var: str = "t") -> "RatFunc":
        return cls(UniPoly.constant(c, var))

    @classmethod
    def t(cls, var: str = "t") -> "RatFunc":
        return cls(UniPoly.x(var))

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "RatFunc":
        """The function text writes in var (see ``polynomials.evaluate``),
        or when var is None in the one variable it names ("x" if none),
        evaluated in Q[var] with one reduction per quotient."""
        f = evaluate(text, UniPoly.x if var is None else
                     {var: UniPoly.x(var)}.__getitem__)
        if isinstance(f, (int, Fraction)):
            return cls.constant(f, var or "x")
        return f if isinstance(f, RatFunc) else cls(f)

    @property
    def var(self) -> str:
        return self.num.var if self.num.degree > 0 else self.den.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

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

    @staticmethod
    def _scalar(f: "RatFunc"):
        """f's value if f is a nonzero constant, else None."""
        return f.num.lc if f.num.degree == 0 and f.den.degree == 0 else None

    def __add__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        num = self.num * o.den + o.num * self.den
        den = self.den * o.den
        if num and (self.den.degree == 0 or o.den.degree == 0):
            # one denominator is 1: (a + p b) / b, with den = b monic
            return RatFunc._reduced(num, den)
        return RatFunc(num, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other is self:
            # num^2 / den^2 is reduced as it stands: den^2 is monic, and
            # coprime polynomials have coprime squares
            return RatFunc._reduced(self.num * self.num, self.den * self.den)
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        for f, k in ((self, self._scalar(o)), (o, self._scalar(self))):
            if k is not None:
                return RatFunc._reduced(f.num * k, f.den)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        k = self._scalar(o)
        if k is not None:
            return RatFunc._reduced(self.num * (1 / k), self.den)
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other, self.var)
        if o is NotImplemented:
            return NotImplemented
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
            raise PoleError(f"pole of {self} at {self.var} = {t0}")
        return self.num(t0) / d

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """self(inner(t)).  For self = N / D and inner = a / b over Z this
        is N_h(a, b) / D_h(a, b), with N_h, D_h the forms of degree
        e = max(deg N, deg D) that homogenize N and D, computed by
        ``_intpoly.zcompose_homogeneous``.  A denominator that vanishes
        there raises ZeroDivisionError.

        The quotient is reduced as it stands, so only its denominator is
        made monic: N_h and D_h are coprime forms, so a common factor of
        N_h(a, b) and D_h(a, b) divides a^(2e-1) and b^(2e-1) (through
        their resultant), and a, b are coprime."""
        p, q, var = inner.num, inner.den, inner.var
        a = [c * q.den for c in p.ints]
        b = [c * p.den for c in q.ints]
        e = max(self.num.degree, self.den.degree)
        num = zp.zcompose_homogeneous(self.num.ints, a, b, e)
        den = zp.zcompose_homogeneous(self.den.ints, a, b, e)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RatFunc(UniPoly.zero(var))
        return RatFunc._reduced(
            UniPoly.from_int(self.num.den * den[-1],
                             [c * self.den.den for c in num], var),
            UniPoly.from_int(den[-1], den, var))

    def relabel(self, var: str) -> "RatFunc":
        """The same function in the variable var, equal to
        self.compose(RatFunc.t(var)); the reduced integer coefficients are
        kept as they are, so no gcd is taken."""
        return RatFunc._reduced(
            UniPoly.from_int(self.num.den, self.num.ints, var),
            UniPoly.from_int(self.den.den, self.den.ints, var))

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"

