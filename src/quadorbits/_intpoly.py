"""Integer-coefficient polynomial core.

Dense univariate polynomials over Z as lists of ints indexed by degree
(no trailing zeros; the zero polynomial is the empty list).  Everything the
hot paths need lives here: ring arithmetic, exact square roots,
homogeneous evaluation and composition, contents, pseudo-division, and a
certified gcd.  ``UniPoly`` in ``polynomials`` stores its integer
coefficients over one denominator and computes through these helpers.

Bivariate integer polynomials reach this module in one form only, the row
form: a list of univariate rows indexed by the power of the eliminated
variable, as ``BiPoly.to_coeff_lists`` reads it off ``BiPoly``'s sparse
integer map.  This module is the only one that computes on it: contents in
the surviving variable, pseudo-remainders, subresultant resultants over
Z[z] with given linear units z - r (their powers returned apart), the
bivariate gcd, the Kronecker product ``zzmul`` of large products, and
``zzdivides_at_sample``, the one-specialization test with which
``BiPoly.divide_out`` ends most of its failing last steps;
``BiPoly.specialize`` evaluates its rows with ``zeval_homogeneous``.

``zmul`` picks its route by operand size: a scalar multiply when one
operand has a single coefficient, ``zzmul`` from KRONECKER_PAIRS term
pairs on (where ``BiPoly`` products switch too), schoolbook in between.

``zgcd`` tries GCDHEU first: the integer gcd of the two inputs' values at
a power of two above twice their largest coefficient, read back as
balanced digits, at up to six growing points.  When every point fails it
falls back to the modular gcd, which computes candidates mod the primes
above 2^61 in increasing order and combines them by CRT.  Either way a
candidate is returned only once ``zdivides`` shows that it divides both
inputs exactly, so its answers are certificates rather than probabilistic
guesses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


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


def zadd(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return ztrim(out)


def zsub(p: list[int], q: list[int]) -> list[int]:
    out = list(p) + [0] * max(0, len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return ztrim(out)


def zneg(p: list[int]) -> list[int]:
    return [-c for c in p]


def zmul(p: list[int], q: list[int]) -> list[int]:
    """Product, by the route the operands' size selects (see the module
    docstring)."""
    if not p or not q:
        return []
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        a = p[0]
        return ztrim([a * c for c in q])
    if len(p) * len(q) >= KRONECKER_PAIRS:
        return zzmul([p], [q])[0]
    out = [0] * (len(p) + len(q) - 1)
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


def zsqrt(p: list[int]) -> list[int] | None:
    """The r with positive leading coefficient and r^2 = p, or None when p
    is not a square in Z[z]: read off from the top down, then squared."""
    if not p:
        return []
    m, odd = divmod(zdeg(p), 2)
    top = math.isqrt(p[-1]) if p[-1] > 0 else 0
    if odd or top * top != p[-1]:
        return None
    r = [0] * m + [top]
    for k in range(m - 1, -1, -1):
        # the coefficient of z^(m+k) in r^2 is 2 r_m r_k plus known products
        s = p[m + k] - sum(r[i] * r[m + k - i] for i in range(k + 1, m))
        r[k] = s // (2 * top)
    return r if zmul(r, r) == p else None


def zeval_homogeneous(p: list[int], u: int, v: int) -> int:
    """v^deg(p) * p(u/v), an exact integer (Horner with denominator powers,
    plain Horner at v = 1)."""
    acc = 0
    if v == 1:
        for c in reversed(p):
            acc = acc * u + c
        return acc
    vp = 1
    for c in reversed(p):
        acc = acc * u + c * vp
        vp *= v
    return acc


def zcompose_homogeneous(c: list[int], a: list[int], b: list[int],
                         k: int) -> list[int]:
    """The sum of c[i] a^i b^(k - i), i.e. b^k c(a / b), for k >= deg(c):
    the Horner pass of ``zeval_homogeneous`` with polynomial values, its
    powers of b starting at b^(k - deg c)."""
    if not c:
        return []
    bp = zpow(b, k - len(c) + 1)
    acc: list[int] = []
    for i, ci in enumerate(reversed(c)):
        if i:
            bp = zmul(bp, b)
        acc = zmul(acc, a)
        if ci:
            acc = zadd(acc, [ci * x for x in bp])
    return acc


def zderiv(p: list[int]) -> list[int]:
    return ztrim([i * c for i, c in enumerate(p)][1:])


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

# the first 13 primes: no composite below 3317044064679887385961981 is a
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017); the first 12 miss 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3317044064679887385961981 (about
    3.3e24) with these bases."""
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


_BIG_PRIMES: list[int] = []


def _big_primes():
    """The primes above 2^61 in increasing order, extending ``_BIG_PRIMES``
    on demand, so every caller walks the same sequence."""
    i = 0
    while True:
        if i == len(_BIG_PRIMES):
            _BIG_PRIMES.append(next_prime(_BIG_PRIMES[-1] if _BIG_PRIMES
                                          else 1 << 61))
        yield _BIG_PRIMES[i]
        i += 1


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
    """Primitive gcd of integer polynomials, positive leading coefficient:
    by ``_heuristic_gcd`` when one of its evaluation points succeeds, else
    by ``_modular_gcd``.  Both answers are certified."""
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
    g = _heuristic_gcd(pa, pb)
    return g if g is not None else _modular_gcd(pa, pb)


# evaluation points GCDHEU tries before ``zgcd`` falls back to the modular
# gcd; on the paper's inputs the first point almost always succeeds
_HEURISTIC_POINTS = 6


def _heuristic_gcd(pa: list[int], pb: list[int]) -> list[int] | None:
    """GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989) on
    primitive pa, pb of degree at least 1, or None when every point fails.

    At xi = 2^k > 2 max|coeff| + 2 the integer gcd of pa(xi) and pb(xi),
    read back as symmetric xi-adic digits, is a candidate h.  Every root of
    the true gcd G lies below 1 + max|coeff| in absolute value, so
    |K(xi)| > xi / 2 for every nonconstant factor K of G.  Hence a constant
    h (|h(xi)| <= xi / 2, a multiple of G(xi)) proves G = 1, and a
    primitive part of h that divides pa and pb (the ``zdivides``
    certificate) is G itself: a further factor K of G would divide the
    content of h, which is at most xi / 2.  A failed candidate carries a
    factor shared by the cofactors' values; larger points shed it.
    """
    k = (2 * max(max(map(abs, pa)), max(map(abs, pb))) + 2).bit_length()
    for _ in range(_HEURISTIC_POINTS):
        xi = 1 << k
        g = math.gcd(zeval_homogeneous(pa, xi, 1),
                     zeval_homogeneous(pb, xi, 1))
        h = []
        while g:
            c = _sym(g, xi)
            h.append(c)
            g = (g - c) >> k
        if len(h) == 1:
            return [1]
        h = zprimitive(h)[1]
        if zdivides(h, pa) and zdivides(h, pb):
            return h
        k *= 2
    return None


def _modular_gcd(pa: list[int], pb: list[int]) -> list[int]:
    """zgcd of primitive pa, pb with deg pa >= deg pb >= 1, by the modular
    approach.

    The gcd mod a good prime bounds the true degree from
    above, so a CRT-reconstructed candidate of the minimal modular degree
    that divides both inputs exactly is the gcd.  Unlucky primes only raise
    the modular degree and get discarded when a smaller degree appears.
    """
    lc = math.gcd(pa[-1], pb[-1])

    best_deg: int | None = None
    crt_mod = 0
    crt_poly: list[int] = []
    for m in _big_primes():
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


def zsquarefree(p: list[int]) -> list[int]:
    """Primitive squarefree part p / gcd(p, p')."""
    if not p:
        raise ValueError("zero polynomial")
    _, pp = zprimitive(p)
    if zdeg(pp) <= 1:
        return pp
    g = zgcd(pp, zderiv(pp))
    if zdeg(g) == 0:
        return pp
    return zprimitive(zdivexact(pp, g))[1]


# ---------------------------------------------------------------------------
# bivariate integer polynomials in row form (rows in the surviving variable z,
# indexed by the power of the eliminated variable)
#
# The resultant is taken over Z[z] with given linear factors z - r, r an
# integer, made units: the localization of Z[z] at them is an integral
# domain, over which the subresultant PRS is valid (Brown and Traub,
# J. ACM 18, 1971; Geddes, Czapor and Labahn, *Algorithms for Computer
# Algebra*, ch. 7).  z divides a row when its constant term is 0, and
# z - r is divided out by synthetic division.  The row forms given are only
# read: every strip and quotient is a new list.
# ---------------------------------------------------------------------------

def _gprem(p: list[list[int]], d: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder of p by d in row form."""
    dp, dd = len(p) - 1, len(d) - 1
    if dp < dd:
        return list(p)
    lead = d[-1]
    rem = list(p)
    mults = dp - dd + 1
    while rem and len(rem) - 1 >= dd:
        k = len(rem) - 1 - dd
        c = rem[-1]
        rem = [zmul(rc, lead) for rc in rem]
        for i, dc in enumerate(d):
            rem[k + i] = zsub(rem[k + i], zmul(c, dc))
        while rem and not rem[-1]:
            rem.pop()
        mults -= 1
    if mults > 0:
        lp = zpow(lead, mults)
        rem = [zmul(c, lp) for c in rem]
    return rem


def _divide_root(p: list[int], r: int) -> list[int] | None:
    """p / (z - r) when p(r) = 0, else None (synthetic division)."""
    if r == 0:
        return None if p and p[0] else p[1:]
    q = [0] * (len(p) - 1)
    acc = 0
    for k in range(len(p) - 1, 0, -1):
        acc = acc * r + p[k]
        q[k - 1] = acc
    return None if p and acc * r + p[0] else q


def _strip_units(rows: list[list[int]], roots: Sequence[int]
                 ) -> tuple[list[int], list[list[int]]]:
    """(e, rest) for a nonzero row form: rows is the product of the
    (z - r)^e_r over roots and of rest, and no r is a root of every row of
    rest."""
    exps = []
    for r in roots:
        e = 0
        while None not in (q := [_divide_root(row, r) for row in rows]):
            rows, e = q, e + 1
        exps.append(e)
    return exps, rows


def subres_resultant(p: list[list[int]], q: list[list[int]],
                     roots: Sequence[int]) -> tuple[list[int], list[int]]:
    """Resultant of p, q (row form) via the subresultant PRS with
    Brown-Traub bookkeeping, over Z[z] with every z - r, r in roots, a unit.

    Returns (e, R): the resultant is the product of the (z - r)^e_r and of
    R, and no z - r divides R (R = [] when the resultant is 0).  Every PRS
    element, and g and h, is kept as such a unit times a stripped part that
    z - r does not divide: prem(u A, v B) = v^(delta + 1) u prem(A, B) for
    units u, v, and the exact division by g h^delta subtracts exponents and
    divides the stripped parts in Z[z], exactly because z - r is prime and
    divides neither the divisor nor the content of the quotient.  With no
    roots these are the PRS steps over Z[z] themselves.

    Convention: equals the Sylvester determinant with p's coefficient rows
    first, i.e. lc(p)^deg(q) * prod q(alpha) over the roots alpha of p.
    """
    if not p or not q:
        return [0] * len(roots), []
    dp, dq = len(p) - 1, len(q) - 1
    sign = 1
    (eA, A), (eB, B) = _strip_units(p, roots), _strip_units(q, roots)
    if dp < dq:
        (eA, A), (eB, B) = (eB, B), (eA, A)
        if (dp * dq) % 2:
            sign = -sign
    if len(B) == 1:
        dA = len(A) - 1
        res = zpow(B[0], dA)
        return [dA * b for b in eB], res if sign > 0 else zneg(res)
    eg, g = [0] * len(roots), [1]
    eh, h = eg, g
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA % 2) and (dB % 2):
            sign = -sign
        R = _gprem(A, B)
        if not R:
            return [0] * len(roots), []
        eR, R = _strip_units(R, roots)
        eR = [e + a + (delta + 1) * b for e, a, b in zip(eR, eA, eB)]
        eA, A = eB, B
        denom = zmul(g, zpow(h, delta))
        eB = [e - a - delta * b for e, a, b in zip(eR, eg, eh)]
        B = [zdivexact(c, denom) for c in R]
        eg, (g,) = _strip_units([A[-1]], roots)
        eg = [e + a for e, a in zip(eg, eA)]
        if delta:
            eh = [delta * a - (delta - 1) * b for a, b in zip(eg, eh)]
            h = zdivexact(zpow(g, delta), zpow(h, delta - 1))
        if len(B) == 1:
            dA = len(A) - 1
            res = zdivexact(zpow(B[0], dA), zpow(h, dA - 1))
            return ([dA * b - (dA - 1) * c for b, c in zip(eB, eh)],
                    res if sign > 0 else zneg(res))


def zzcontent(p: list[list[int]]) -> list[int]:
    """Content in Z[z] of a row-form polynomial: the primitive gcd of its
    rows, [1] when it has no polynomial content."""
    g: list[int] = []
    for c in p:
        if c:
            g = zgcd(g, c) if g else zprimitive(c)[1]
            if zdeg(g) == 0:
                return [1]
    return g if g else [1]


def _strip_content(p: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(content, primitive part) of a nonzero row-form polynomial."""
    c = zzcontent(p)
    if c == [1]:
        return c, p
    return c, [zdivexact(r, c) if r else [] for r in p]


def zzgcd(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    """Gcd of two nonzero row-form polynomials, up to an integer factor.

    The gcd of the contents in Z[z] times the gcd of the primitive parts,
    found by the primitive pseudo-remainder sequence in the eliminated
    variable.
    """
    cp, a = _strip_content(p)
    cq, b = _strip_content(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            a = [[1]]
            break
        r = _gprem(a, b)
        if r:
            r = _strip_content(r)[1]
        a, b = b, r
    cont = zgcd(cp, cq)
    if cont == [1]:
        return a
    return [zmul(cont, r) if r else [] for r in a]


# Products of at least this many term pairs, in ``zmul`` and in
# ``BiPoly.__mul__``, go through one ``zzmul`` big-integer multiply instead
# of term by term.  On the univariate products of the lemmas and cases,
# Kronecker takes 1.4-1.6 times the schoolbook time below 640 pairs, about
# the same from 640 to 1,023, and 0.72-0.77 times from 1,024 on.
KRONECKER_PAIRS = 1024


def zzmul(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    """Product of two nonzero row-form polynomials by Kronecker
    substitution (Harvey, J. Symbolic Comput. 44, 2009): the entry p[a][b]
    becomes the digit at place a * width + b of one integer, in a base
    2^bits wide enough for every product coefficient with its sign, so one
    big-integer multiply does the whole product and the digits, read back
    signed, are its coefficients.  Rows are trimmed; the outer list is not
    (its last row is nonzero, as the inputs' are).

    When both operands are even in a variable, the product is taken in its
    square and spread back: y -> y^2 in the rows, z -> z^2 in the columns,
    each of which halves both operands and so the integers multiplied."""
    if len(p + q) > 2 and not any(p[1::2] + q[1::2]):
        return _spread(zzmul(p[::2], q[::2]), [])
    if max(map(len, p + q)) > 1 \
            and not any(c for r in p + q for c in r[1::2]):
        return [_spread(r, 0) for r in
                zzmul([r[::2] for r in p], [r[::2] for r in q])]
    width = max(map(len, p)) + max(map(len, q)) - 1
    terms = min(sum(map(len, p)), sum(map(len, q)))
    # a product coefficient sums at most `terms` products, so its absolute
    # value stays below 2^(bits - 1)
    bits = (max(max(map(abs, r), default=0) for r in p).bit_length()
            + max(max(map(abs, r), default=0) for r in q).bit_length()
            + terms.bit_length() + 1)
    nbytes = (bits + 7) // 8
    count = (len(p) + len(q) - 1) * width
    # bias every digit by 2^(8 nbytes - 1), so that all are nonnegative
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
    product = _kronecker_pack(p, width, nbytes) \
        * _kronecker_pack(q, width, nbytes)
    data = (product + bias).to_bytes(count * nbytes, "little")
    half = 1 << (8 * nbytes - 1)
    digits = [int.from_bytes(data[i:i + nbytes], "little") - half
              for i in range(0, count * nbytes, nbytes)]
    return [ztrim(digits[k:k + width]) for k in range(0, count, width)]


def _spread(xs: list, pad) -> list:
    """The coefficients of F(x^2) from those of F(x), padded with pad."""
    out = [pad] * (2 * len(xs) - 1)
    out[::2] = xs
    return out


def _kronecker_pack(p: list[list[int]], width: int, nbytes: int) -> int:
    """The sum of p[a][b] * 2^(8 nbytes (a width + b)): the positive and the
    negative entries are laid out as bytes, one integer each."""
    size = len(p) * width * nbytes
    pos, neg = bytearray(size), bytearray(size)
    for a, row in enumerate(p):
        at = a * width * nbytes
        for c in row:
            if c > 0:
                pos[at:at + nbytes] = c.to_bytes(nbytes, "little")
            elif c < 0:
                neg[at:at + nbytes] = (-c).to_bytes(nbytes, "little")
            at += nbytes
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def zzdivides_at_sample(d: list[list[int]], p: list[list[int]]) -> bool:
    """False when d provably does not divide p: d(y, z0) fails to divide
    p(y, z0) in Q[y], z0 the first of 3, 4, 5, ... at which d's leading row
    does not vanish.  True says nothing: a product d * q specializes to
    d(y, z0) * q(y, z0), so only the contrapositive is a certificate.  The
    samples start past 0, +-1 and +-2, values at which the paper's curves
    meet, so that there a factor of p often shares d's specialized roots.
    Rows are indexed by the power of y, d is nonzero."""
    lead = d[-1]
    z0 = 3
    while not zeval_homogeneous(lead, z0, 1):
        z0 += 1
    d0 = ztrim([zeval_homogeneous(r, z0, 1) for r in d])
    p0 = ztrim([zeval_homogeneous(r, z0, 1) for r in p])
    return zdivides(zprimitive(d0)[1], p0)
