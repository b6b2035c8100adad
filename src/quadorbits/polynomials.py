"""Exact univariate and bivariate polynomial arithmetic over Q.

Both classes store integer coefficients over one positive denominator,
with gcd(den, *ints) == 1, and compute on the integers.  ``UniPoly`` is
dense, its coefficients indexed by degree, the form on which ``_intpoly``
computes its arithmetic.  ``BiPoly`` is sparse, a map from exponent pairs
to nonzero ints; ``groebner`` reduces on that map directly.  Both carry
variable labels and refuse mixed-variable arithmetic.
``BiPoly.to_coeff_lists`` and ``BiPoly.from_coeff_lists`` convert to and
from the integer row form on which ``_intpoly`` eliminates a variable;
``localized_resultant``, ``resultant`` and ``bivariate_gcd`` are
conversion wrappers around its subresultant resultant and pseudo-remainder
gcd, with contents and denominators multiplied back so values are exact;
``localized_resultant`` leaves the powers of given linear units z - r
as exponents beside the rest.

``evaluate`` reads every polynomial, rational function and orbit
expression the package is given as text, through Python's own parser;
``UniPoly.parse`` and ``BiPoly.parse`` bind its names to variables.

Resultant sign convention, pinned by the tests: ``resultant(p, q)`` equals
the determinant of the Sylvester matrix whose top rows carry q, i.e.
lc(q)^deg(p) * prod p(beta) over the roots beta of q.  Under this convention
Res_y(y - z, y + z) = -2z.
"""

from __future__ import annotations

import ast
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from . import _intpoly as zp
from .rationals import exact_rational, rat_str

__all__ = [
    "UniPoly",
    "BiPoly",
    "ExactDivisionError",
    "evaluate",
    "localized_resultant",
    "resultant",
]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


# ---------------------------------------------------------------------------
# expression reader
# ---------------------------------------------------------------------------

def _divide(a, b):
    """a / b, exact for a rational b; see ``UniPoly.__truediv__``."""
    return a * Fraction(1, b) if isinstance(b, (int, Fraction)) else a / b


def _power(a, n):
    """a^n for an int n; a negative power is the quotient 1 / a^-n."""
    if type(n) is not int:
        raise ValueError(f"exponent {n} is not an int")
    return _divide(1, a ** -n) if n < 0 else a ** n


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: _divide, ast.Pow: _power}


def evaluate(text: str, bind):
    """The value of the expression text, read by Python's parser with "^"
    standing for "**".

    Allowed are int literals; names, whose values bind(name) gives, a
    KeyError meaning an unknown name; unary - and +; binary + - * / ^ with
    an int exponent; and a call f(arg) of a name bound to a function.
    Division by an int or a Fraction, and a negative power, stay exact; a
    quotient of UniPolys is a RatFunc.  Anything else raises ValueError: a
    float, juxtaposed factors such as "2y", an unknown name, a non-integer
    exponent, or an operation the values do not support.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError:
        raise ValueError(f"cannot read {text!r}") from None

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name):
            try:
                return bind(node.id)
            except KeyError:
                raise ValueError(f"unknown name {node.id!r} in {text!r}") \
                    from None
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            v = value(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            a, b = value(node.left), value(node.right)
            try:
                return _BINARY[type(node.op)](a, b)
            except TypeError:
                pass
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and len(node.args) == 1 and not node.keywords):
            f = value(node.func)
            # a polynomial value is not a function, though it can be
            # evaluated: "x(3)" is no reading of 3*x
            if callable(f) and not isinstance(f, UniPoly):
                return f(value(node.args[0]))
        raise ValueError(f"cannot read {ast.unparse(node)!r} in {text!r}")

    return value(tree.body)


def _read(cls, text: str, bind, label):
    """evaluate(text, bind) as a polynomial of cls labelled label."""
    p = evaluate(text, bind)
    if isinstance(p, (int, Fraction)):
        return cls.constant(p, label)
    if not isinstance(p, cls):
        raise ValueError(f"{text!r} is not a polynomial")
    return p


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q with a variable label.

    Stored as integer coefficients over one denominator: ``ints`` is a tuple
    indexed by degree with no trailing zero, ``den`` is positive and
    gcd(den, *ints) == 1, so equal polynomials have equal fields.  The
    arithmetic runs on this form in ``_intpoly``.
    """

    __slots__ = ("den", "ints", "var")

    def __init__(self, coeffs, var: str = "x"):
        cs = [exact_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._store(den, [c.numerator * (den // c.denominator) for c in cs],
                    var)

    def _store(self, den: int, ints: list[int], var: str) -> None:
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        zp.ztrim(ints)
        if den < 0:
            den, ints = -den, zp.zneg(ints)
        g = math.gcd(den, *ints)
        if g != 1:
            den //= g
            ints = [c // g for c in ints]
        self.den, self.ints, self.var = den, tuple(ints), var

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, var: str = "x") -> "UniPoly":
        return cls((), var)

    @classmethod
    def constant(cls, c, var: str = "x") -> "UniPoly":
        return cls((c,), var)

    @classmethod
    def x(cls, var: str = "x") -> "UniPoly":
        return cls((0, 1), var)

    @classmethod
    def from_int(cls, den: int, ints, var: str = "x") -> "UniPoly":
        """The polynomial ints / den for any nonzero den, normalized."""
        p = cls.__new__(cls)
        p._store(den, list(ints), var)
        return p

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "UniPoly":
        """The polynomial text writes in var (see ``evaluate``), or when var
        is None in the one variable it names ("x" if none)."""
        return _read(cls, text, cls.x if var is None else
                     {var: cls.x(var)}.__getitem__, var or "x")

    # -- basics -------------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, indexed by degree."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lc(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den and (
            self.var == other.var or self.degree <= 0)

    def __hash__(self):
        return hash((self.den, self.ints, self.var if self.degree > 0 else ""))

    def _check(self, other: "UniPoly") -> str:
        """The label of a result of self and other: the shared one, else
        that of the operand of positive degree (self's if neither)."""
        if self.var == other.var or other.degree <= 0:
            return self.var
        if self.degree <= 0:
            return other.var
        raise ValueError(f"mismatched variables {self.var!r} and {other.var!r}")

    # -- arithmetic ---------------------------------------------------------
    def _add(self, other, zop):
        """zop (``zadd`` or ``zsub``) on the integer coefficients of self
        and other over the lcm of their denominators."""
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        var = self._check(other)
        da, db = self.den, other.den
        den = math.lcm(da, db)
        a = self.ints if da == den else [c * (den // da) for c in self.ints]
        b = other.ints if db == den else [c * (den // db) for c in other.ints]
        return UniPoly.from_int(den, zop(a, b), var)

    def __add__(self, other):
        return self._add(other, zp.zadd)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly.from_int(self.den, zp.zneg(self.ints), self.var)

    def __sub__(self, other):
        return self._add(other, zp.zsub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly.from_int(self.den * other.denominator,
                                    [c * other.numerator for c in self.ints],
                                    self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        var = self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(var)
        return UniPoly.from_int(self.den * other.den,
                                zp.zmul(self.ints, other.ints), var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return UniPoly.from_int(self.den**n, zp.zpow(self.ints, n), self.var)

    def __call__(self, x):
        """Exact evaluation by one homogeneous Horner pass over Z."""
        x = exact_rational(x)
        if not self.ints:
            return Fraction(0)
        v = x.denominator
        return Fraction(zp.zeval_homogeneous(self.ints, x.numerator, v),
                        self.den * v**self.degree)

    def __truediv__(self, other):
        """The reduced quotient in Q(x), a ``ratfunc.RatFunc``."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        from .ratfunc import RatFunc  # ratfunc builds on this module
        return RatFunc(self, other)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return UniPoly.constant(other, self.var) / self

    # -- division -----------------------------------------------------------
    def divmod(self, d: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """(q, r) with self = q d + r and deg r < deg d, from the
        pseudo-division lc(d)^k self = Q d + R over Z, which is integral
        for k = deg self - deg d + 1."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(d)
        scale = d.ints[-1] ** max(0, len(self.ints) - len(d.ints) + 1)
        q, r = zp.zdivmod([c * scale for c in self.ints], d.ints)
        den = self.den * scale
        return (UniPoly.from_int(den, [c * d.den for c in q], self.var),
                UniPoly.from_int(den, r, self.var))

    def exact_divide(self, d: "UniPoly") -> "UniPoly":
        q, r = self.divmod(d)
        if not r.is_zero():
            raise ExactDivisionError(f"inexact division, remainder {r}", remainder=r)
        return q

    # -- content / gcd ------------------------------------------------------
    def content_primitive(self) -> tuple[Fraction, "UniPoly"]:
        """p = content * primitive with coprime integer coefficients and
        positive leading coefficient on the primitive part."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content decomposition")
        c, prim = zp.zprimitive(self.ints)
        return Fraction(c, self.den), UniPoly.from_int(1, prim, self.var)

    def primitive(self) -> "UniPoly":
        return self.content_primitive()[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over Q (zero if both zero)."""
        if self.is_zero():
            return other.monic() if other else UniPoly.zero(self.var)
        if other.is_zero():
            return self.monic()
        self._check(other)
        g = zp.zgcd(self.ints, other.ints)
        return UniPoly.from_int(g[-1], g, self.var)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly.from_int(self.ints[-1], self.ints, self.var)

    # -- printing -----------------------------------------------------------
    def __str__(self) -> str:
        cs = self.coeffs
        if not cs:
            return "0"
        parts = []
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
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
        return f"UniPoly({self}, var={self.var!r})"


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse bivariate polynomial over Q with variable labels.

    Stored as integer coefficients over one denominator: ``ints`` maps
    exponent pairs to nonzero ints, ``den`` is positive and
    gcd(den, *ints) == 1, so equal polynomials have equal fields.  ``_rows``
    keeps the row form of ``to_coeff_lists`` for each axis once it is built.
    """

    __slots__ = ("den", "ints", "vars", "_rows")

    def __init__(self, terms: dict, vars: tuple[str, str] = ("y", "z")):
        cs = {e: exact_rational(c) for e, c in terms.items()}
        if any(c and (e[0] < 0 or e[1] < 0) for e, c in cs.items()):
            raise ValueError("negative exponent")
        den = math.lcm(*(c.denominator for c in cs.values()))
        self._store(den, {e: c.numerator * (den // c.denominator)
                          for e, c in cs.items()}, vars)

    def _store(self, den: int, ints: dict, vars: tuple[str, str]) -> None:
        if den == 0:
            raise ZeroDivisionError("polynomial with zero denominator")
        sign = 1 if den > 0 else -1
        ints = {e: sign * c for e, c in ints.items() if c}
        g = math.gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
        self.den, self.ints, self.vars = abs(den) // g, ints, vars
        self._rows = [None, None]

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_int(cls, den: int, ints: dict, vars=("y", "z")) -> "BiPoly":
        """The polynomial ints / den for any nonzero den, normalized."""
        p = cls.__new__(cls)
        p._store(den, ints, vars)
        return p

    @classmethod
    def zero(cls, vars=("y", "z")) -> "BiPoly":
        return cls.from_int(1, {}, vars)

    @classmethod
    def constant(cls, c, vars=("y", "z")) -> "BiPoly":
        return cls({(0, 0): c}, vars)

    @classmethod
    def from_unipoly(cls, p: UniPoly, which: int, vars=("y", "z")) -> "BiPoly":
        """p as a polynomial in vars[which] alone (p's own label is not
        consulted)."""
        return cls.from_int(p.den, {(i, 0) if which == 0 else (0, i): c
                                    for i, c in enumerate(p.ints)}, vars)

    @classmethod
    def from_coeff_lists(cls, rows: list[list[int]], eliminate: int,
                         vars=("y", "z")) -> "BiPoly":
        """Inverse of ``to_coeff_lists`` for denominator 1."""
        return cls.from_int(1, {(a, b) if eliminate == 0 else (b, a): c
                                for a, row in enumerate(rows)
                                for b, c in enumerate(row)}, vars)

    @classmethod
    def variable(cls, name: str, vars=("y", "z")) -> "BiPoly":
        if name == vars[0]:
            return cls.from_int(1, {(1, 0): 1}, vars)
        if name == vars[1]:
            return cls.from_int(1, {(0, 1): 1}, vars)
        raise ValueError(f"{name!r} is not one of {vars}")

    @classmethod
    def parse(cls, text: str, vars: tuple[str, str] = ("y", "z")) -> "BiPoly":
        """The polynomial text writes in vars (see ``evaluate``)."""
        return _read(cls, text, {v: cls.variable(v, vars)
                                 for v in vars}.__getitem__, vars)

    # -- basics -------------------------------------------------------------
    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """The coefficients as Fractions, keyed by exponent pair."""
        return {e: Fraction(c, self.den) for e, c in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den and (
            self.vars == other.vars or self.total_degree() <= 0)

    def __hash__(self):
        # labels count only where a variable occurs, as in __eq__
        return hash((self.den, frozenset(self.ints.items()),
                     self.vars if self.total_degree() > 0 else ""))

    def degree(self, which: int) -> int:
        """Degree in vars[which]; -1 for the zero polynomial."""
        return max((e[which] for e in self.ints), default=-1)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.ints), default=-1)

    def _check(self, other: "BiPoly") -> tuple[str, str]:
        """The labels of a result of self and other, by the rule of
        ``UniPoly._check``."""
        if self.vars == other.vars or other.total_degree() <= 0:
            return self.vars
        if self.total_degree() <= 0:
            return other.vars
        raise ValueError(f"mismatched variables {self.vars} and {other.vars}")

    # -- arithmetic ---------------------------------------------------------
    def _add(self, other, sign: int):
        """self + sign * other on the integer coefficients over the lcm of
        the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        vars = self._check(other)
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        out = {e: c * ma for e, c in self.ints.items()}
        for e, c in other.ints.items():
            out[e] = out.get(e, 0) + mb * c
        return BiPoly.from_int(den, out, vars)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly.from_int(-self.den, self.ints, self.vars)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly.from_int(self.den * other.denominator,
                                   {e: c * other.numerator
                                    for e, c in self.ints.items()}, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        vars = self._check(other)
        pairs = len(self.ints) * len(other.ints)
        if pairs < zp.KRONECKER_PAIRS:
            out: dict[tuple[int, int], int] = {}
            for (i1, j1), c1 in self.ints.items():
                for (i2, j2), c2 in other.ints.items():
                    e = (i1 + i2, j1 + j2)
                    out[e] = out.get(e, 0) + c1 * c2
            return BiPoly.from_int(self.den * other.den, out, vars)
        rows = zp.zzmul(self.to_coeff_lists(0)[1], other.to_coeff_lists(0)[1])
        return BiPoly.from_int(self.den * other.den,
                               {(a, b): c for a, row in enumerate(rows)
                                for b, c in enumerate(row)}, vars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = BiPoly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def eval2(self, a, b) -> Fraction:
        return self.specialize(1, b)(a)

    def specialize(self, which: int, value) -> UniPoly:
        """Substitute a rational for vars[which]; returns a UniPoly in the
        other variable.  Each row of ``to_coeff_lists(1 - which)`` is
        evaluated by one homogeneous pass over Z and scaled to v^deg, v the
        value's denominator."""
        value = exact_rational(value)
        u, v = value.numerator, value.denominator
        den, rows = self.to_coeff_lists(1 - which)
        n = max(self.degree(which), 0)
        return UniPoly.from_int(
            den * v**n,
            [zp.zeval_homogeneous(r, u, v) * v**(n + 1 - len(r)) for r in rows],
            self.vars[1 - which])

    def as_unipoly(self) -> UniPoly | None:
        """This polynomial as a UniPoly if it involves only one variable."""
        for which in (1, 0):
            if all(e[1 - which] == 0 for e in self.ints):
                return UniPoly.from_int(
                    self.den, [self.ints.get((0, k) if which else (k, 0), 0)
                               for k in range(self.degree(which) + 1)],
                    self.vars[which])
        return None

    # -- division -----------------------------------------------------------
    def exact_divide(self, d: "BiPoly") -> "BiPoly":
        """Exact division by a single divisor.

        Long division over Z by leading terms in lex order, by the primitive
        part of d.  When the division is exact, every quotient step is an
        integer (Gauss's lemma), so a fractional step or a remainder term
        outside the leading term's multiples raises ExactDivisionError.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._check(d)
        content, prim = d.content_primitive()
        (la, lb), lc = max(prim.ints.items())
        rem = dict(self.ints)
        quot: dict[tuple[int, int], int] = {}
        while rem:
            e = max(rem)
            qc, r = divmod(rem[e], lc)
            if r or e[0] < la or e[1] < lb:
                raise ExactDivisionError(
                    f"inexact bivariate division at the term {e}")
            qa, qb = e[0] - la, e[1] - lb
            quot[(qa, qb)] = qc
            for (a, b), c in prim.ints.items():
                te = (qa + a, qb + b)
                s = rem.get(te, 0) - qc * c
                if s:
                    rem[te] = s
                else:
                    del rem[te]
        # self = quot * prim / self.den and d = content * prim
        return BiPoly.from_int(self.den * content.numerator,
                               {e: c * content.denominator
                                for e, c in quot.items()}, self.vars)

    def divides(self, other: "BiPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        try:
            other.exact_divide(self)
            return True
        except ExactDivisionError:
            return False

    def divide_out(self, d: "BiPoly") -> tuple["BiPoly", int]:
        """(q, m) with self = d^m * q and d not dividing q; one exact
        division per step.  self must be nonzero and d nonconstant.

        The last step always fails, so each step first runs the
        specialization test ``_intpoly.zzdivides_at_sample``: if d(y, z0)
        does not divide q(y, z0) for one integer z0, neither does d divide
        q, and the step ends without long division.  Long division decides
        every step the test lets through."""
        rows = d.to_coeff_lists(0)[1]
        m = 0
        q = self
        while zp.zzdivides_at_sample(rows, q.to_coeff_lists(0)[1]):
            try:
                q = q.exact_divide(d)
            except ExactDivisionError:
                break
            m += 1
        return q, m

    def content_primitive(self) -> tuple[Fraction, "BiPoly"]:
        """Rational content and integer-primitive part (positive lex-leading
        coefficient)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content decomposition")
        g = math.gcd(*self.ints.values())
        if self.ints[max(self.ints)] < 0:
            g = -g
        return Fraction(g, self.den), BiPoly.from_int(
            1, {e: c // g for e, c in self.ints.items()}, self.vars)

    # -- conversions for elimination ----------------------------------------
    def to_coeff_lists(self, eliminate: int) -> tuple[int, list[list[int]]]:
        """(denominator, lists-of-int-polys) with the outer index running over
        powers of vars[eliminate] and inner int polys in the other variable.
        Built on the first call for each axis and kept in ``_rows``; callers
        only read the lists, and ``_intpoly`` writes only into lists it
        built itself."""
        form = self._rows[eliminate]
        if form is None:
            rows: list[dict[int, int]] = [
                {} for _ in range(self.degree(eliminate) + 1)]
            for (i, j), c in self.ints.items():
                a, b = (i, j) if eliminate == 0 else (j, i)
                rows[a][b] = c
            form = self._rows[eliminate] = (self.den, [
                [row.get(k, 0) for k in range(max(row, default=-1) + 1)]
                for row in rows])
        return form

    # -- printing -----------------------------------------------------------
    def __str__(self) -> str:
        if not self.ints:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), reverse=True):
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
        return f"BiPoly({self}, vars={self.vars})"

    def dump_terms(self) -> dict[str, str]:
        """Exponent-map dump used in verification reports."""
        return {
            f"({i},{j})": rat_str(Fraction(c, self.den))
            for (i, j), c in sorted(self.ints.items())
        }


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def resultant(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant of p and q with respect to vars[0], a polynomial in
    vars[1]: ``localized_resultant`` with no units, so the value is exactly
    the Sylvester determinant (q's rows on top)."""
    return localized_resultant(p, q, ())[1]


def localized_resultant(p: BiPoly, q: BiPoly, roots: Sequence[int]
                        ) -> tuple[list[int], UniPoly]:
    """Resultant of p and q with respect to vars[0] over the ring in which
    every z - r, z = vars[1] and r in roots, is a unit: (e, R) such that
    the Sylvester determinant (q's rows on top) is the product of the
    (z - r)^e_r and of R, where no z - r divides R.

    Computed by the subresultant PRS on the integer rows; the cleared
    denominators are multiplied back.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    p._check(q)
    dp = p.degree(0)
    dq = q.degree(0)
    if dp <= 0 or dq <= 0:
        raise ValueError("both polynomials must have positive degree in the "
                         "eliminated variable")
    den_p, rows_p = p.to_coeff_lists(0)
    den_q, rows_q = q.to_coeff_lists(0)
    # q-rows-first convention: pass q as the first argument.
    exps, res = zp.subres_resultant(rows_q, rows_p, roots)
    return exps, UniPoly.from_int(den_q**dp * den_p**dq, res, p.vars[1])


def bivariate_gcd(p: BiPoly, q: BiPoly) -> BiPoly:
    """Gcd of two bivariate polynomials (primitive, integer coefficients).

    Computed as gcd of the contents (in the other variable) times the gcd of
    the primitive parts via the pseudo-remainder sequence in vars[0];
    the result is verified by exact division into both inputs.
    """
    if p.is_zero():
        return q.content_primitive()[1] if not q.is_zero() else q
    if q.is_zero():
        return p.content_primitive()[1]
    p._check(q)
    rows = zp.zzgcd(p.to_coeff_lists(0)[1], q.to_coeff_lists(0)[1])
    g = BiPoly.from_coeff_lists(rows, 0, p.vars).content_primitive()[1]
    if not (g.divides(p) and g.divides(q)):
        raise ArithmeticError("bivariate gcd verification failed")
    return g
