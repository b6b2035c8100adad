"""Integer-coefficient polynomial core.

Dense univariate polynomials over Z as lists of ints indexed by degree
(no trailing zeros; the zero polynomial is the empty list).  Everything the
hot paths need lives here: ring arithmetic, contents, pseudo-division,
subresultant remainder sequences, and a certified modular gcd.  The public
Fraction-coefficient classes in ``polynomials`` delegate to these helpers.

The modular gcd computes candidates mod independent 62-bit primes, combines
them by CRT, and only returns after verifying exact divisibility into both
inputs, so its answers are certificates rather than probabilistic guesses.
"""

from __future__ import annotations

import math
import random


# ---------------------------------------------------------------------------
# basic ring operations on list[int]
# ---------------------------------------------------------------------------

def ztrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def zdeg(p: list[int]) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(p) - 1


def zsub(p: list[int], q: list[int]) -> list[int]:
    out = list(p) + [0] * max(0, len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return ztrim(out)


def zneg(p: list[int]) -> list[int]:
    return [-c for c in p]


def zmul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    if len(p) > len(q):
        p, q = q, p
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return ztrim(out)


def zpow(p: list[int], n: int) -> list[int]:
    out = [1]
    base = list(p)
    while n:
        if n & 1:
            out = zmul(out, base)
        n >>= 1
        if n:
            base = zmul(base, base)
    return out


def zderiv(p: list[int]) -> list[int]:
    return ztrim([i * c for i, c in enumerate(p)][1:])


def zeval(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def zcontent(p: list[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def zprimitive(p: list[int]) -> tuple[int, list[int]]:
    """(content, primitive part); content carries the sign of the leading coeff."""
    if not p:
        raise ValueError("zero polynomial has no primitive part")
    c = zcontent(p)
    if p[-1] < 0:
        c = -c
    return c, [x // c for x in p]


def zdivmod(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Division with remainder, valid only when every quotient step stays
    integral (d monic, or the division is exact).  Raises otherwise."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    lead = d[-1]
    dd = len(d) - 1
    q = [0] * max(0, len(rem) - dd)
    while rem and len(rem) - 1 >= dd:
        c = rem[-1]
        qc, rr = divmod(c, lead)
        if rr:
            raise ArithmeticError("non-integral quotient step")
        k = len(rem) - 1 - dd
        q[k] = qc
        for i, dc in enumerate(d):
            rem[k + i] -= qc * dc
        ztrim(rem)
    return ztrim(q), rem


def zdivexact(p: list[int], d: list[int]) -> list[int]:
    q, r = zdivmod(p, d)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def zdivides(d: list[int], p: list[int]) -> bool:
    if not p:
        return True
    if not d:
        return False
    if zdeg(d) > zdeg(p):
        return False
    try:
        _, r = zdivmod(p, d)
    except ArithmeticError:
        return False
    return not r


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n += 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n


_BIG_PRIME_RNG = random.Random(0x5EED)


def random_big_prime(bits: int = 62) -> int:
    while True:
        n = _BIG_PRIME_RNG.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


# ---------------------------------------------------------------------------
# arithmetic mod p
# ---------------------------------------------------------------------------

def pmod(p: list[int], m: int) -> list[int]:
    out = [c % m for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def pgcd_monic(a: list[int], b: list[int], m: int) -> list[int]:
    """Monic gcd of a, b mod prime m (Euclid)."""
    a, b = pmod(a, m), pmod(b, m)
    while b:
        inv = pow(b[-1], -1, m)
        b = [c * inv % m for c in b]
        r = list(a)
        db = len(b) - 1
        while r and len(r) - 1 >= db:
            c = r[-1]
            k = len(r) - 1 - db
            for i, bc in enumerate(b):
                r[k + i] = (r[k + i] - c * bc) % m
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, m)
        a = [c * inv % m for c in a]
    return a


def proots(p: list[int], m: int) -> list[int]:
    """All roots of p mod prime m by exhaustive scan (m is small)."""
    pm = pmod(p, m)
    if not pm:
        return list(range(m))
    out = []
    for x in range(m):
        acc = 0
        for c in reversed(pm):
            acc = (acc * x + c) % m
        if acc == 0:
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# certified gcd over Z
# ---------------------------------------------------------------------------

def _sym(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer polynomials, positive leading coefficient.

    Modular approach: the gcd mod a good prime bounds the true degree from
    above, so a CRT-reconstructed candidate of the minimal modular degree
    that divides both inputs exactly is the gcd.  Unlucky primes only raise
    the modular degree and get discarded when a smaller degree appears.
    """
    if not a:
        return zprimitive(b)[1] if b else []
    if not b:
        return zprimitive(a)[1]
    _, pa = zprimitive(a)
    _, pb = zprimitive(b)
    if zdeg(pa) < zdeg(pb):
        pa, pb = pb, pa
    if zdeg(pb) == 0:
        return [1]
    lc = math.gcd(pa[-1], pb[-1])

    best_deg: int | None = None
    crt_mod = 0
    crt_poly: list[int] = []
    while True:
        m = random_big_prime()
        if pa[-1] % m == 0 or pb[-1] % m == 0:
            continue
        g = pgcd_monic(pa, pb, m)
        d = zdeg(g)
        if d == 0:
            return [1]
        if best_deg is None or d < best_deg:
            best_deg, crt_mod, crt_poly = d, 0, []
        elif d > best_deg:
            continue  # unlucky prime
        gl = [c * lc % m for c in g]  # normalize leading coefficient across primes
        if crt_mod == 0:
            crt_mod, crt_poly = m, gl
        else:
            inv = pow(crt_mod, -1, m)
            newmod = crt_mod * m
            comb = []
            for i in range(best_deg + 1):
                x0 = crt_poly[i] if i < len(crt_poly) else 0
                x1 = gl[i] if i < len(gl) else 0
                t = (x1 - x0) % m * inv % m
                comb.append((x0 + crt_mod * t) % newmod)
            crt_mod, crt_poly = newmod, comb
        cand = [_sym(c, crt_mod) for c in crt_poly]
        while cand and cand[-1] == 0:
            cand.pop()
        if zdeg(cand) != best_deg:
            continue
        cand = zprimitive(cand)[1]
        if zdivides(cand, pa) and zdivides(cand, pb):
            return cand


def zgcd_is_trivial(a: list[int], b: list[int]) -> bool:
    """Fast certified test that gcd(a, b) has degree 0 (single good prime)."""
    if not a or not b:
        return False
    while True:
        m = random_big_prime()
        if a[-1] % m and b[-1] % m:
            return zdeg(pgcd_monic(a, b, m)) == 0


def zsquarefree(p: list[int]) -> list[int]:
    """Primitive squarefree part p / gcd(p, p')."""
    if not p:
        raise ValueError("zero polynomial")
    _, pp = zprimitive(p)
    if zdeg(pp) <= 1:
        return pp
    dp = zderiv(pp)
    if zgcd_is_trivial(pp, dp):
        return pp
    g = zgcd(pp, dp)
    if zdeg(g) == 0:
        return pp
    return zprimitive(zdivexact(pp, g))[1]


# ---------------------------------------------------------------------------
# subresultant PRS resultants over a coefficient ring (Z[z] via RingZPoly)
# ---------------------------------------------------------------------------

class RingZPoly:
    """Coefficient-ring shim: integer polynomials in the surviving variable."""

    zero: list[int] = []
    one = [1]

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def mul(a, b):
        return zmul(a, b)

    @staticmethod
    def sub(a, b):
        return zsub(a, b)

    @staticmethod
    def divexact(a, b):
        return zdivexact(a, b)

    @staticmethod
    def power(a, n):
        return zpow(a, n)

    @staticmethod
    def neg(a):
        return zneg(a)


def _gtrim(p: list, ring) -> list:
    while p and ring.is_zero(p[-1]):
        p.pop()
    return p


def _gprem(p: list, d: list, ring) -> list:
    """Pseudo-remainder with coefficients in ``ring``."""
    dp, dd = len(p) - 1, len(d) - 1
    if dp < dd:
        return list(p)
    lead = d[-1]
    rem = list(p)
    mults = dp - dd + 1
    while rem and len(rem) - 1 >= dd:
        k = len(rem) - 1 - dd
        c = rem[-1]
        new = [ring.mul(rc, lead) for rc in rem]
        for i, dc in enumerate(d):
            new[k + i] = ring.sub(new[k + i], ring.mul(c, dc))
        rem = _gtrim(new, ring)
        mults -= 1
    if mults > 0:
        lp = ring.power(lead, mults)
        rem = [ring.mul(c, lp) for c in rem]
    return rem


def subres_resultant(p: list, q: list, ring) -> object:
    """Resultant of p, q (coefficient lists over ``ring``) via the
    subresultant PRS with Brown-Traub bookkeeping.

    Convention: equals the Sylvester determinant with p's coefficient rows
    first, i.e. lc(p)^deg(q) * prod q(alpha) over the roots alpha of p.
    """
    if not p or not q:
        return ring.zero
    dp, dq = len(p) - 1, len(q) - 1
    sign = 1
    A, B = list(p), list(q)
    if dp < dq:
        A, B = B, A
        if (dp * dq) % 2:
            sign = -sign
    if len(B) == 1:
        return _with_sign(ring.power(B[0], len(A) - 1), sign, ring)
    g = ring.one
    h = ring.one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA % 2) and (dB % 2):
            sign = -sign
        R = _gprem(A, B, ring)
        A = B
        if not R:
            return ring.zero
        denom = ring.mul(g, ring.power(h, delta))
        B = [ring.divexact(c, denom) for c in R]
        B = _gtrim(B, ring)
        g = A[-1]
        if delta:
            h = ring.divexact(ring.power(g, delta), ring.power(h, delta - 1))
        if len(B) - 1 <= 0:
            if not B:
                return ring.zero
            dA = len(A) - 1
            hfin = ring.divexact(ring.power(B[0], dA), ring.power(h, dA - 1))
            return _with_sign(hfin, sign, ring)


def _with_sign(val, sign: int, ring):
    return val if sign >= 0 else ring.neg(val)


def zzresultant(p: list[list[int]], q: list[list[int]]) -> list[int]:
    """Resultant in the eliminated variable of two bivariate polynomials,
    given as lists (indexed by eliminated-variable degree) of integer
    polynomials in the surviving variable.  Returns an integer polynomial.

    Contents (in the surviving variable) are stripped first and multiplied
    back in, which keeps the PRS small on the paper-sized inputs.
    """
    p = [list(c) for c in p]
    q = [list(c) for c in q]
    while p and not p[-1]:
        p.pop()
    while q and not q[-1]:
        q.pop()
    if not p or not q:
        return []
    cp = _bicontent(p)
    cq = _bicontent(q)
    pp = [zdivexact(c, cp) if c else [] for c in p]
    qq = [zdivexact(c, cq) if c else [] for c in q]
    scale = zmul(zpow(cp, len(q) - 1), zpow(cq, len(p) - 1))
    res = subres_resultant(pp, qq, RingZPoly)
    return zmul(scale, res)


def _bicontent(p: list[list[int]]) -> list[int]:
    """Gcd of the coefficient polynomials (the content in Z[z])."""
    g: list[int] = []
    for c in p:
        if c:
            g = zgcd(g, c) if g else zprimitive(c)[1]
            if zdeg(g) == 0:
                return [1]
    return g if g else [1]
