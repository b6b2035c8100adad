"""Exact univariate and bivariate polynomial arithmetic over Q.

``UniPoly`` is dense (coefficient list indexed by degree), ``BiPoly`` is a
sparse exponent map; both carry variable labels and refuse mixed-variable
arithmetic.  Resultants use the subresultant pseudo-remainder sequence on
primitive integer parts, with contents multiplied back so values are exact.

Resultant sign convention, pinned by the tests: ``resultant(p, q)`` equals
the determinant of the Sylvester matrix whose top rows carry q, i.e.
lc(q)^deg(p) * prod p(beta) over the roots beta of q.  Under this convention
Res_y(y - z, y + z) = -2z.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import _intpoly as zp

__all__ = [
    "UniPoly",
    "BiPoly",
    "ExactDivisionError",
    "resultant",
    "resultant_y",
]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


# ---------------------------------------------------------------------------
# shared term parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))")


def _parse_terms(text: str) -> dict[tuple[str, ...], Fraction]:
    """Parse '+/-' separated products of rationals and var^exp factors.

    Returns a map from sorted variable-power tuples like ("x", "x") to
    coefficients; the callers shape this into Uni/BiPoly terms.
    """
    tokens: list[str | int] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            tokens.append(int(m.group("num")))
        elif m.group("var"):
            tokens.append(m.group("var"))
        else:
            tokens.append(m.group("op"))

    terms: dict[tuple[str, ...], Fraction] = {}
    i = 0
    n = len(tokens)

    def fail():
        raise ValueError(f"bad polynomial syntax: {text!r}")

    while i < n:
        sign = 1
        while i < n and tokens[i] in ("+", "-"):
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            fail()
        coeff = Fraction(sign)
        powers: list[str] = []
        expect_factor = True
        while i < n:
            tok = tokens[i]
            if expect_factor:
                if isinstance(tok, int):
                    num = tok
                    i += 1
                    if i + 1 < n and tokens[i] == "/" and isinstance(tokens[i + 1], int):
                        coeff *= Fraction(num, tokens[i + 1])
                        i += 2
                    else:
                        coeff *= num
                elif isinstance(tok, str) and tok not in "+-*/^()":
                    var = tok
                    exp = 1
                    i += 1
                    if i + 1 < n and tokens[i] == "^" and isinstance(tokens[i + 1], int):
                        exp = tokens[i + 1]
                        i += 2
                    powers.extend([var] * exp)
                else:
                    fail()
                expect_factor = False
            elif tok == "*":
                i += 1
                expect_factor = True
            else:
                break
        if expect_factor:
            fail()
        key = tuple(sorted(powers))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {k: v for k, v in terms.items() if v}


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over Q with a variable label."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "x"):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.var = var

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
    def from_int(cls, den: int, ints: list[int], var: str = "x") -> "UniPoly":
        return cls([Fraction(c, den) for c in ints], var)

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "UniPoly":
        terms = _parse_terms(text)
        seen = {v for key in terms for v in key}
        if len(seen) > 1:
            raise ValueError(f"more than one variable in {text!r}")
        if var is None:
            var = next(iter(seen)) if seen else "x"
        elif seen and seen != {var}:
            raise ValueError(f"expected variable {var!r} in {text!r}")
        coeffs: dict[int, Fraction] = {len(k): v for k, v in terms.items()}
        n = max(coeffs, default=-1)
        return cls([coeffs.get(i, Fraction(0)) for i in range(n + 1)], var)

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
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.var == other.var or not self.coeffs or not other.coeffs
            or self.degree == 0
        )

    def __hash__(self):
        return hash((self.coeffs, self.var if self.degree > 0 else ""))

    def _check(self, other: "UniPoly"):
        if self.var != other.var and self.degree > 0 and other.degree > 0:
            raise ValueError(f"mismatched variables {self.var!r} and {other.var!r}")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a, self.var if self.coeffs else other.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
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
            return UniPoly([c * other for c in self.coeffs], self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var)
        da, a = self.to_int()
        db, b = other.to_int()
        prod = zp.zmul(a, b)
        return UniPoly.from_int(da * db, prod, self.var if self.degree > 0 else other.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.constant(1, self.var)
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

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(x)); degrees multiply."""
        acc = UniPoly.zero(inner.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    # -- division -----------------------------------------------------------
    def divmod(self, d: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
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
            UniPoly([q.get(i, Fraction(0)) for i in range(nq + 1)], self.var),
            UniPoly(rem, self.var),
        )

    def exact_divide(self, d: "UniPoly") -> "UniPoly":
        q, r = self.divmod(d)
        if not r.is_zero():
            raise ExactDivisionError(f"inexact division, remainder {r}", remainder=r)
        return q

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    # -- content / gcd ------------------------------------------------------
    def content_primitive(self) -> tuple[Fraction, "UniPoly"]:
        """p = content * primitive with coprime integer coefficients and
        positive leading coefficient on the primitive part."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content decomposition")
        den, ints = self.to_int()
        c, prim = zp.zprimitive(ints)
        return Fraction(c, den), UniPoly(prim, self.var)

    def primitive(self) -> "UniPoly":
        return self.content_primitive()[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over Q (zero if both zero)."""
        if self.is_zero():
            return other.monic() if other else UniPoly.zero(self.var)
        if other.is_zero():
            return self.monic()
        self._check(other)
        _, a = self.to_int()
        _, b = other.to_int()
        g = zp.zgcd(a, b)
        return UniPoly(g, self.var).monic()

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        l = self.lc
        return UniPoly([c / l for c in self.coeffs], self.var)

    def squarefree_part(self) -> "UniPoly":
        """Product of the distinct irreducible factors, via p / gcd(p, p').

        Normalized to primitive integer coefficients with positive lc.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        _, ints = self.to_int()
        return UniPoly(zp.zsquarefree(ints), self.var)

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
                body = _fmt_coeff(abs(c))
            else:
                xs = self.var if i == 1 else f"{self.var}^{i}"
                body = xs if abs(c) == 1 else f"{_fmt_coeff(abs(c))}*{xs}"
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
    """Sparse bivariate polynomial over Q: exponent pair -> coefficient."""

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
    def zero(cls, vars=("y", "z")) -> "BiPoly":
        return cls({}, vars)

    @classmethod
    def constant(cls, c, vars=("y", "z")) -> "BiPoly":
        return cls({(0, 0): c}, vars)

    @classmethod
    def variable(cls, name: str, vars=("y", "z")) -> "BiPoly":
        if name == vars[0]:
            return cls({(1, 0): 1}, vars)
        if name == vars[1]:
            return cls({(0, 1): 1}, vars)
        raise ValueError(f"{name!r} is not one of {vars}")

    @classmethod
    def parse(cls, text: str, vars: tuple[str, str] = ("y", "z")) -> "BiPoly":
        terms = _parse_terms(text)
        out: dict[tuple[int, int], Fraction] = {}
        for key, c in terms.items():
            i = sum(1 for v in key if v == vars[0])
            j = sum(1 for v in key if v == vars[1])
            if i + j != len(key):
                extra = {v for v in key} - set(vars)
                raise ValueError(f"unexpected variables {extra} in {text!r}")
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
        return cls(out, vars)

    # -- basics -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms and (
            self.vars == other.vars or not self.terms or not other.terms
            or max(max(i, j) for i, j in self.terms) == 0
        )

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.vars))

    def degree(self, which: int) -> int:
        """Degree in vars[which]; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[which] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def _check(self, other: "BiPoly"):
        if self.vars != other.vars and self.terms and other.terms:
            raise ValueError(f"mismatched variables {self.vars} and {other.vars}")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return BiPoly(out, self.vars if self.terms else other.vars)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({e: -c for e, c in self.terms.items()}, self.vars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if not other:
                return BiPoly.zero(self.vars)
            return BiPoly({e: c * other for e, c in self.terms.items()}, self.vars)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return BiPoly(out, self.vars if self.terms else other.vars)

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
    def exact_divide(self, d: "BiPoly") -> "BiPoly":
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
                    remainder=BiPoly(rem, self.vars),
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
        return BiPoly(quot, self.vars)

    def divides(self, other: "BiPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        try:
            other.exact_divide(self)
            return True
        except ExactDivisionError:
            return False

    def content_primitive(self) -> tuple[Fraction, "BiPoly"]:
        """Rational content and integer-primitive part (positive lex-leading
        coefficient)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content decomposition")
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, int(c * den))
        if self.terms[max(self.terms)] < 0:
            g = -g
        cont = Fraction(g, den)
        return cont, BiPoly({e: c / cont for e, c in self.terms.items()}, self.vars)

    # -- conversions for elimination ----------------------------------------
    def to_coeff_lists(self, eliminate: int) -> tuple[int, list[list[int]]]:
        """(denominator, lists-of-int-polys) with the outer index running over
        powers of vars[eliminate] and inner int polys in the other variable."""
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        n = self.degree(eliminate)
        rows: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        for (i, j), c in self.terms.items():
            a, b = (i, j) if eliminate == 0 else (j, i)
            rows[a][b] = int(c * den)
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
                body = _fmt_coeff(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_fmt_coeff(abs(c))] + factors)
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
            f"({i},{j})": _fmt_coeff(c)
            for (i, j), c in sorted(self.terms.items())
        }


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def resultant(p: BiPoly, q: BiPoly, eliminate: int = 0) -> UniPoly:
    """Resultant of p and q with respect to vars[eliminate].

    Computed by the subresultant PRS on primitive integer parts; the stripped
    contents and cleared denominators are multiplied back, so the value is
    exactly the Sylvester determinant (q's rows on top).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial")
    p._check(q)
    dp = p.degree(eliminate)
    dq = q.degree(eliminate)
    if dp <= 0 or dq <= 0:
        raise ValueError("both polynomials must have positive degree in the "
                         "eliminated variable")
    den_p, rows_p = p.to_coeff_lists(eliminate)
    den_q, rows_q = q.to_coeff_lists(eliminate)
    # q-rows-first convention: pass q as the first argument.
    res_int = zp.zzresultant(rows_q, rows_p)
    scale = Fraction(1, den_q**dp * den_p**dq)
    survivor = p.vars[1 - eliminate]
    return UniPoly([Fraction(c) * scale for c in res_int], survivor)


def resultant_y(p: BiPoly, q: BiPoly) -> UniPoly:
    """Eliminate the first variable of p and q."""
    return resultant(p, q, eliminate=0)


def bivariate_gcd(p: BiPoly, q: BiPoly, main: int = 0) -> BiPoly:
    """Gcd of two bivariate polynomials (primitive, integer coefficients).

    Computed as gcd of the contents (in the other variable) times the gcd of
    the primitive parts via the pseudo-remainder sequence in vars[main];
    the result is verified by exact division into both inputs.
    """
    if p.is_zero():
        return q.content_primitive()[1] if not q.is_zero() else q
    if q.is_zero():
        return p.content_primitive()[1]
    p._check(q)
    den_p, rows_p = p.to_coeff_lists(main)
    den_q, rows_q = q.to_coeff_lists(main)
    cont_p = zp._bicontent(rows_p)
    cont_q = zp._bicontent(rows_q)
    cont_g = zp.zgcd(cont_p, cont_q)
    a = [zp.zdivexact(r, cont_p) if r else [] for r in rows_p]
    b = [zp.zdivexact(r, cont_q) if r else [] for r in rows_q]
    if len(a) < len(b):
        a, b = b, a
    # pseudo-remainder sequence on the primitive parts
    while True:
        if not b:
            g_rows = a
            break
        if len(b) == 1:
            g_rows = [[1]]
            break
        r = zp._gprem(a, b, zp.RingZPoly)
        r = [list(c) for c in r]
        while r and not r[-1]:
            r.pop()
        if r:
            rc = zp._bicontent(r)
            r = [zp.zdivexact(c, rc) if c else [] for c in r]
        a, b = b, r
    g_rows = [list(c) for c in g_rows]
    gc = zp._bicontent(g_rows)
    g_rows = [zp.zdivexact(c, gc) if c else [] for c in g_rows]
    # assemble cont_g * primitive-gcd back into a BiPoly
    terms: dict[tuple[int, int], Fraction] = {}
    for i, row in enumerate(g_rows):
        for j, c in enumerate(row):
            if c:
                e = (i, j) if main == 0 else (j, i)
                terms[e] = Fraction(c)
    g = BiPoly(terms, p.vars)
    if cont_g != [1]:
        cont_terms = {}
        for j, c in enumerate(cont_g):
            if c:
                cont_terms[(0, j) if main == 0 else (j, 0)] = Fraction(c)
        g = g * BiPoly(cont_terms, p.vars)
    g = g.content_primitive()[1]
    if not (g.divides(p) and g.divides(q)):
        raise ArithmeticError("bivariate gcd verification failed")
    return g
