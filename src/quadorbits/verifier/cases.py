"""The ten-case analysis of three-map sets.

A finite-orbit point of S = {f1, f2, f3} enters, for each map, a fixed
point, a 2-cycle or a 3-cycle (longer periods are excluded by the named
axiom), so the triple reduces to two simultaneous pair classifications.
Each case consumes the statements of its pair lemmas: the catalog families
and sporadic pairs that ``families.lemma_statement`` gives, the very
entries the lemma verifier checks.  In cases 1, 2, 4 and 7 the subcases
are the ordered product of the conclusions of the lemmas on {f1, f2} and
{f1, f3}.  Each equates the shared data and disposes of what is left: a
symbolic coefficient collision, an equation with no rational roots, a
delegated elliptic-curve argument, or a concrete tuple disposed of by
``symbolic`` as in the lemmas.  The basepoint equation of two families is
factored by the code, and the factorization is certified: the pieces
multiply back to it, and each is shown irreducible without the square
root that split it.  When both lemmas are one, the subcase pairing y with
x (mirrored roles) is derived from the one pairing x with y through
sigma, the exchange of f2 and f3, and not run again: a point has a finite
orbit under a set of maps whatever their order, so each tuple of the one
is a tuple of the other with c2 and c3 exchanged.  A subcase branch in
one parameter is a ``families.ParamTuple``, specialized only by
``ParamTuple.at``; each subcase records into one ``CaseReport``.
A case whose lemmas' catalog statements do not have the shape it consumes
(so many families, so many sporadic pairs) returns one flagged report.
Every exclusion carries a re-verifiable witness (a composition word and a
point failing the iterate criterion, or a collision deduction).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .. import _intpoly as zp
from ..dynamics import OrbitResult, word_str
from ..elliptic import MAZUR_CERTIFICATE, RANK_ZERO_CERTIFICATE, \
    c_rational_points, curve_c_poly, preimage_check, verify_curve_map
from ..families import ExcludedParameter, FamilyDef, ParamTuple, \
    SporadicTuple, lemma_statement
from ..polynomials import BiPoly, UniPoly, bivariate_gcd
from ..ratfunc import PoleError, RatFunc
from ..rationals import rat_str
from ..roots import rational_roots
from .reports import CaseReport, Disposition, fmt_pair
from .symbolic import dispose_tuple, exclude_by_relation

__all__ = ["verify_theorem_case", "CASE_DESCRIPTIONS"]

CASE_DESCRIPTIONS = {
    1: "the orbit enters a fixed point for every map",
    2: "fixed points for two maps, a 2-cycle for the third",
    3: "fixed points for two maps, a 3-cycle for the third",
    4: "a fixed point for one map, 2-cycles for the other two",
    5: "a fixed point for one map, 3-cycles for the other two",
    6: "a fixed point, a 2-cycle and a 3-cycle",
    7: "the orbit enters a 2-cycle for every map",
    8: "3-cycles for every map",
    9: "2-cycles for two maps, a 3-cycle for the third",
    10: "a 2-cycle for one map, 3-cycles for the other two",
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

# a lone quadratic piece is certified irreducible at an integer a0 with
# |a0| <= _CERTIFY_BOUND
_CERTIFY_BOUND = 16


def _p_equation(PA: RatFunc, PB: RatFunc) -> BiPoly:
    """Numerator of PA(a) - PB(b) as an integer-primitive BiPoly in (a, b),
    positive lex-leading coefficient.  PA and PB are reduced, so no factor
    of PA.den(a) or PB.den(b) divides PA.num(a) PB.den(b) - PB.num(b)
    PA.den(a): that is the numerator itself."""
    V = ("a", "b")
    emb = BiPoly.from_unipoly
    num = emb(PA.num, 0, V) * emb(PB.den, 1, V) \
        - emb(PB.num, 1, V) * emb(PA.den, 0, V)
    return num if num.is_zero() else num.content_primitive()[1]


def _verify_factorization(N: BiPoly, pieces: list[BiPoly]) -> bool:
    """Certify "N factors exactly as pieces": the pieces are not constant
    and multiply to N, none has content in Z[a], two pieces are each linear
    in b, and a lone piece quadratic in b has a discriminant B^2 - 4AC that
    is negative or not a square at some integer a0, so it is not a square
    in Z[a] and the piece has no factor linear in b (found without
    ``zsqrt``, which the pieces rest on)."""
    if any(p.total_degree() <= 0 for p in pieces) or \
            not (N - math.prod(pieces)).is_zero():
        return False
    rows = [p.to_coeff_lists(1)[1] for p in pieces]
    if any(zp.zzcontent(r) != [1] for r in rows):
        return False
    if len(rows) == 2:
        return all(len(r) == 2 for r in rows)
    if len(rows) != 1 or len(rows[0]) not in (2, 3):
        return False
    if len(rows[0]) == 2:
        return True
    C, B, A = rows[0]
    disc = zp.zsub(zp.zmul(B, B), zp.zmul([4], zp.zmul(A, C)))
    for a0 in sorted(range(-_CERTIFY_BOUND, _CERTIFY_BOUND + 1), key=abs):
        d = zp.zeval_homogeneous(disc, a0, 1)
        if d < 0 or math.isqrt(d) ** 2 != d:
            return True
    return False


def _pieces(N: BiPoly) -> list[BiPoly]:
    """The irreducible factors over Q of a basepoint equation N, sorted by
    their terms, exponents descending.  PA and PB are reduced and not
    constant, so N has no content in either variable; with degree at most
    2 in b, a proper factor is linear in b.  So N splits exactly when it
    is quadratic in b, A b^2 + B b + C, and B^2 - 4AC is a square r^2 in
    Z[a]: into gcd(N, 2A b + B - r) and its cofactor."""
    rows = N.to_coeff_lists(1)[1]
    if len(rows) > 3:
        raise ValueError(f"basepoint equation {N} has degree above 2 in b")
    if len(rows) == 3:
        C, B, A = rows
        r = zp.zsqrt(zp.zsub(zp.zmul(B, B), zp.zmul([4], zp.zmul(A, C))))
        if r is not None:
            p = bivariate_gcd(N, BiPoly.from_coeff_lists(
                [zp.zsub(B, r), zp.zmul([2], A)], 1, N.vars))
            return sorted([p, N.exact_divide(p)],
                          key=lambda q: sorted(q.ints.items(), reverse=True))
    return [N]


def _solve_linear_piece(piece: BiPoly) -> tuple[int, RatFunc]:
    """For a piece linear in one variable, (which, g) with vars[which] =
    g(other variable)."""
    for which in (0, 1):
        if piece.degree(which) == 1:
            den, (n, d) = piece.to_coeff_lists(which)
            var = piece.vars[1 - which]
            return which, RatFunc(-UniPoly.from_int(den, n, var),
                                  UniPoly.from_int(den, d, var))
    raise ValueError(f"piece {piece} is not linear in either variable")


def _close(rep: CaseReport) -> CaseReport:
    rep.verdict = "pass" if not rep.flags else "flagged"
    return rep


def _record(rep: CaseReport, d: Disposition, finite: list[OrbitResult],
            P0: Fraction | None) -> None:
    """Record one disposition (no families are offered, so never "family");
    finite is its tuple's finite-orbit results and P0 the basepoint its
    exclusion witness was sought from."""
    if d.kind in ("pole", "collision"):
        rep.deductions.append(f"{d.subject}: {d.detail}, contradiction")
        return
    shown = "(" + ", ".join(d.data["c"]) + ")"
    if d.kind == "sporadic":
        entry = {
            "c": d.data["c"],
            "basepoints": d.data["basepoints"],
            "orbit_union": sorted({rat_str(q) for r in finite
                                   for q in r.orbit}),
        }
        if entry not in rep.surviving_tuples:
            rep.surviving_tuples.append(entry)
        rep.deductions.append(f"{d.subject}: tuple {shown} has finite-orbit "
                              f"points {entry['basepoints']}")
    else:
        w = dict(d.data.get("witness", {}))
        w["tuple"] = d.data["c"]
        if P0 is not None:
            w["basepoint"] = rat_str(P0)
        rep.exclusion_witnesses.append(w)
        rep.deductions.append(
            f"{d.subject}: tuple {shown} excluded (no finite-orbit "
            "points; witness recorded)")


def _run_exclusion(rep: CaseReport, tup: ParamTuple, subject: str) -> None:
    word, target, relation, roots, disposed = \
        exclude_by_relation(tup, f"{subject}, ")
    rep.deductions.append(
        f"{subject}: relation from word '{word_str(word) or 'id'}' under map "
        f"{target + 1} has degree {relation.degree}; rational roots "
        f"{[rat_str(r) for r in roots]}")
    for d, finite, P0 in disposed:
        _record(rep, d, finite, P0)


# ---------------------------------------------------------------------------
# subcase drivers
# ---------------------------------------------------------------------------

def _describe(x, y) -> str:
    """The subcase pairing conclusion x (a family or sporadic pairs) of the
    lemma on {f1, f2} with y of the lemma on {f1, f3}."""
    def side(z, k: int) -> str:
        if isinstance(z, FamilyDef):
            return f"(c1, c{k}, P) from {z.id}"
        return f"(c1, c{k}) in {{{', '.join(fmt_pair(p.cs) for p in z)}}}"
    return f"{side(x, 2)}, {side(y, 3)}"


def _subcase(case: int, sub: str, x, y) -> CaseReport:
    """Run the subcase pairing x on {f1, f2} with y on {f1, f3}."""
    if isinstance(x, FamilyDef) and isinstance(y, FamilyDef):
        return _sub_family_family(case, sub, x, y)
    if isinstance(x, FamilyDef):
        return _sub_family_pairs(case, sub, x, y, True)
    if isinstance(y, FamilyDef):
        return _sub_family_pairs(case, sub, y, x, False)
    return _sub_pairs_pairs(case, sub, x, y)


# sigma, the exchange of f2 and f3, on 1-based map numbers and word digits
_SIGMA = {1: 1, 2: 3, 3: 2}
_SIGMA_DIGITS = str.maketrans("23", "32")


def _mirror(twin: CaseReport, sub: str, description: str) -> CaseReport:
    """The subcase with the roles of f2 and f3 exchanged from twin's, read
    off twin through sigma: a tuple (c1, c2, c3) is twin's (c1, c3, c2), so
    its flags carry over, its tuples and witness tuples exchange c2 and c3,
    and a witness word and map exchange maps 2 and 3.  Its points, orbits
    and guards are twin's, since an orbit depends only on the set of maps."""
    def swap(cs: list) -> list:
        return [cs[0], cs[2], cs[1]]

    def witness(w: dict) -> dict:
        w = dict(w, tuple=swap(w["tuple"]))
        if "word" in w:
            w["word"] = w["word"].translate(_SIGMA_DIGITS)
            w["map"] = _SIGMA[w["map"]]
        return w

    return _close(CaseReport(
        twin.case, sub, description,
        [f"subcase {twin.subcase} under sigma, the exchange of f2 and f3: "
         "a point has a finite orbit under {f1, f2, f3} exactly when it has "
         f"one under {{f1, f3, f2}}, so {twin.subcase}'s tuples, witnesses "
         "and flags hold here with c2 and c3 exchanged"],
        [witness(w) for w in twin.exclusion_witnesses],
        [dict(t, c=swap(t["c"])) for t in twin.surviving_tuples],
        flags=list(twin.flags)))


def _sub_family_family(case: int, sub: str, famA: FamilyDef, famB: FamilyDef
                       ) -> CaseReport:
    """Both conclusions parametrized: equate the shared basepoint and
    follow every branch of the resulting curve."""
    rep = CaseReport(case, sub, _describe(famA, famB))
    A, B = famA.tup.relabel("a"), famB.tup.relabel("b")
    (cA1, cA2), (cB1, cB2) = A.cs, B.cs
    N = _p_equation(A.P, B.P)
    pieces = _pieces(N)
    if not _verify_factorization(N, pieces):
        rep.flags.append(f"computed factorization of the basepoint equation "
                         f"{N} as {[str(p) for p in pieces]} failed its "
                         "certificate")
        return _close(rep)
    rep.deductions.append("basepoint equation factors exactly as "
                          + " * ".join(f"({p})" for p in pieces))

    for piece in pieces:
        if piece.degree(0) > 1 and piece.degree(1) > 1:
            _elliptic_piece(rep, piece, famA, famB)
            continue
        which, val = _solve_linear_piece(piece)
        if which == 1:  # b = g(a)
            consistent = (cB1.compose(val) - cA1).is_zero()
            tup = ParamTuple((cA1, cA2, cB2.compose(val)), A.P)
            label = f"branch {piece} (b = {val})"
        else:  # a = g(b)
            consistent = (cA1.compose(val) - cB1).is_zero()
            tup = ParamTuple((cB1, cA2.compose(val), cB2), B.P)
            label = f"branch {piece} (a = {val})"
        if not consistent:
            rep.flags.append(f"{label}: the two expressions for c1 disagree")
            continue
        if (tup.cs[1] - tup.cs[2]).is_zero():
            rep.deductions.append(
                f"{label}: c2 = c3 identically, contradiction")
            continue
        _run_exclusion(rep, tup, label)
    return _close(rep)


def _elliptic_piece(rep: CaseReport, piece: BiPoly, famA: FamilyDef,
                    famB: FamilyDef) -> None:
    """The quartic basepoint curve of the conic-family pairing; its
    rational points come from the rank-zero elliptic curve."""
    C = curve_c_poly()
    if (piece.den, piece.ints) != (C.den, C.ints):
        rep.flags.append(f"unexpected nonlinear curve piece {piece}")
        return
    if not verify_curve_map():
        rep.flags.append("the degree-one map onto y^2 = x^3 - 2x^2 + 1 "
                         "failed its identity check")
        return
    if not preimage_check():
        rep.flags.append("unexpected preimages of (1, 0) on the basepoint "
                         "curve")
        return
    rep.deductions.append(
        "basepoint curve maps with degree one onto y^2 = x^3 - 2x^2 + 1; "
        + RANK_ZERO_CERTIFICATE + "; " + MAZUR_CERTIFICATE)
    pts = c_rational_points()
    rep.deductions.append(
        "rational points of the basepoint curve: "
        + ", ".join(f"({rat_str(t)}, {rat_str(u)})" for t, u in sorted(pts)))
    (cA1, cA2), PA = famA.tup.cs, famA.tup.P
    cB1, cB2 = famB.tup.cs
    # in every catalog family the basepoint's poles are among the
    # coefficients', so each pole here makes a coefficient infinite
    for (t0, u0) in sorted(pts):
        subject = f"curve point ({rat_str(t0)}, {rat_str(u0)})"
        try:
            cs = [cA1.specialize(t0), cA2.specialize(t0), cB2.specialize(u0)]
            c1_b, P0 = cB1.specialize(u0), PA.specialize(t0)
        except PoleError:
            rep.deductions.append(
                f"{subject}: a coefficient becomes infinite, contradiction")
            continue
        if cs[0] != c1_b:
            rep.flags.append(f"{subject}: inconsistent c1")
            continue
        _record(rep, *dispose_tuple(subject, cs, P0), P0)


def _sub_family_pairs(case: int, sub: str, fam: FamilyDef,
                      pairs: Sequence[SporadicTuple], fam_first: bool
                      ) -> CaseReport:
    """A family against sporadic pairs: pin the shared c1, then dispose of
    the finitely many concrete triples.

    fam_first: the family supplies (c1, c2, P) and each pair (c1, c3);
    otherwise each pair supplies (c1, c2) and the family (c1, c3, P).
    """
    rep = CaseReport(case, sub, _describe(fam, pairs) if fam_first
                     else _describe(pairs, fam))
    for sp in pairs:
        q1, q2 = sp.cs
        label = fmt_pair(sp.cs)
        eq = fam.tup.cs[0] - q1
        roots = sorted(rational_roots(eq.num).root_set()) \
            if eq.num.degree > 0 else []
        if not roots:
            rep.deductions.append(
                f"{fam.id} with {label}: c1 = {rat_str(q1)} has "
                "no rational solutions, contradiction")
            continue
        rep.deductions.append(
            f"{fam.id} with {label}: c1 = {rat_str(q1)} at "
            f"parameters {[rat_str(r) for r in roots]}")
        for s0 in roots:
            subject = f"{label}, parameter {rat_str(s0)}"
            try:
                (_, other), P0 = fam.tup.at(s0)
            except ExcludedParameter as e:  # a collision of the triple too
                what = "parametrization pole" if e.pole else \
                    "coefficient collision"
                rep.deductions.append(f"{subject}: {what}, contradiction")
                continue
            cs = [q1, other, q2] if fam_first else [q1, q2, other]
            _record(rep, *dispose_tuple(subject, cs, P0), P0)
    return _close(rep)


def _sub_pairs_pairs(case: int, sub: str, pairsA: Sequence[SporadicTuple],
                     pairsB: Sequence[SporadicTuple]) -> CaseReport:
    rep = CaseReport(case, sub, _describe(pairsA, pairsB))
    for pa in pairsA:
        for pb in pairsB:
            q1, q2 = pa.cs
            r1, r2 = pb.cs
            tag = f"{fmt_pair(pa.cs)} with {fmt_pair(pb.cs)}"
            if q1 != r1:
                rep.deductions.append(f"{tag}: the demanded values of c1 "
                                      "differ, impossible")
                continue
            if q2 == r2:
                rep.deductions.append(f"{tag}: c2 = c3, contradiction")
                continue
            _record(rep, *dispose_tuple(tag, [q1, q2, r2], None), None)
    return _close(rep)


# ---------------------------------------------------------------------------
# the ten cases
# ---------------------------------------------------------------------------

# each pair lemma's statement as the cases consume it: (number of
# families, number of sporadic pairs or "any").  Lemma 2.6 concludes the
# same unique pair as lemma 2.5, which is where the catalog states it.
_SHAPES: dict[str, tuple[int, int | str]] = {
    "2.1": (2, "any"), "2.2": (2, 2), "2.3": (1, "any"), "2.4": (0, 0),
    "2.5": (0, 1)}


def verify_theorem_case(case: int) -> list[CaseReport]:
    """Subcase reports for one of the ten period-type distributions."""
    if case not in _CASES:
        raise ValueError(f"case must be 1..10, got {case}")
    conclude, statements, *prose = _CASES[case]
    for lemma_id in statements:
        n_fams, n_pairs = _SHAPES[lemma_id]
        fams, pairs = lemma_statement(lemma_id)
        if len(fams) != n_fams or n_pairs not in ("any", len(pairs)):
            return _conclusion(case, [], [
                f"case {case} consumes {n_fams} families and {n_pairs} "
                f"sporadic pairs of lemma {lemma_id}, whose catalog "
                f"statement has {len(fams)} and {len(pairs)}"])
    return conclude(case, statements, *prose)


def _conclusions(lemma_id: str) -> tuple[list, bool]:
    """The conclusions of one statement, and whether its sporadic pairs
    stand apart: each family, then the pairs, one conclusion each when the
    cases take a set number of them and one in all when they take any."""
    fams, pairs = lemma_statement(lemma_id)
    apart = _SHAPES[lemma_id][1] != "any"
    return [*fams, *([(p,) for p in pairs] if apart else [pairs])], apart


def _subcases(case: int, statements: tuple[str, str]) -> list[CaseReport]:
    """Cases 1, 2, 4 and 7: a subcase {case}.{k} for each ordered pairing
    of a conclusion x of the lemma on {f1, f2} with a conclusion y of the
    lemma on {f1, f3}.  When the lemmas are one, a family is involved and
    y comes first, the subcase (mirrored roles) is derived from its twin
    (y, x) by ``_mirror``, not run: the two pair the same maps with f2 and
    f3 exchanged, and an orbit depends only on the set of maps.  Pairs
    meet pairs in one last subcase over all pairs, unless both statements
    list them apart."""
    first, second = statements
    (xs, x_apart), (ys, y_apart) = _conclusions(first), _conclusions(second)
    reps: list[CaseReport] = []
    done: dict[tuple[int, int], CaseReport] = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            family = isinstance(x, FamilyDef) or isinstance(y, FamilyDef)
            if not (family or x_apart and y_apart):
                continue
            sub = f"{case}.{len(reps) + 1}"
            if family and first == second and j < i:
                rep = _mirror(done[j, i], sub,
                              _describe(x, y) + " (mirrored roles)")
            else:
                rep = _subcase(case, sub, x, y)
            done[i, j] = rep
            reps.append(rep)
    if not (x_apart and y_apart):
        reps.append(_sub_pairs_pairs(case, f"{case}.{len(reps) + 1}",
                                     lemma_statement(first)[1],
                                     lemma_statement(second)[1]))
    return reps


def _conclusion(case: int, deductions: list[str],
                flags: list[str] | None = None) -> list[CaseReport]:
    return [_close(CaseReport(case, str(case), CASE_DESCRIPTIONS[case],
                              deductions, flags=flags))]


def _unique_pair(case: int, statements: tuple[str], first: str, second: str
                 ) -> list[CaseReport]:
    """Cases 3, 6 and 9: f3 has a 3-cycle, and the lemmas on {f1, f3} and
    {f2, f3} (stated by ``first`` and ``second``) both conclude the unique
    pair of the one statement, so c1 = c2."""
    _, (sp,) = lemma_statement(*statements)
    c, c3 = (rat_str(q) for q in sp.cs)
    return _conclusion(case, [
        f"{first} forces c1 = {c} and c3 = {c3}",
        f"{second} forces c2 = {c}",
        "hence c1 = c2, a contradiction"])


def _no_points(case: int, statements: tuple[str], pair: str
               ) -> list[CaseReport]:
    """Cases 5, 8 and 10: two of the maps have 3-cycles, and the one
    statement, with neither families nor pairs, rules that out."""
    return _conclusion(case, [
        f"{pair} is a pair of maps with rational 3-cycles and a common "
        "finite-orbit point, which the 3-cycle+3-cycle classification "
        "rules out"])


# case -> (conclusion, the statements it consumes, prose of the conclusion)
_CASES = {
    1: (_subcases, ("2.1", "2.1")),
    2: (_subcases, ("2.1", "2.2")),
    3: (_unique_pair, ("2.5",),
        "the fixed+3-cycle classification applied to {f1, f3}",
        "applied to {f2, f3} it"),
    4: (_subcases, ("2.2", "2.2")),
    5: (_no_points, ("2.4",), "{f2, f3}"),
    6: (_unique_pair, ("2.5",),
        "the fixed+3-cycle classification on {f1, f3}",
        "the 2-cycle+3-cycle classification on {f2, f3}"),
    7: (_subcases, ("2.3", "2.3")),
    8: (_no_points, ("2.4",), "{f1, f2}"),
    9: (_unique_pair, ("2.5",),
        "the 2-cycle+3-cycle classification on {f1, f3}",
        "applied to {f2, f3} it"),
    10: (_no_points, ("2.4",), "{f2, f3}"),
}
