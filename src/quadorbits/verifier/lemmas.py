"""Re-verification of the six pair-classification lemmas.

A lemma's system is two maps x^2 + c1 and x^2 + c2, each parametrized by
its own variable through a rational point of the period the hypothesis
names (1, 2 or 3), a basepoint P that is the first periodic point of one
of them, and relations of (word, target), each licensed by a named axiom.
If P has a finite orbit, so has x = w(P), and the target map's period
gives the relation x satisfies: f^4(x) = f^2(x) for a rational fixed
point or 2-cycle ("tail-two"), f(x) on the 3-cycle for a rational 3-cycle
("three-cycle-funnel", under "periods-at-most-3").  ``_SYSTEMS`` holds one
row per lemma, and ``lemma_setup`` builds each generator by applying the
maps along its word, as the exact pieces of ``_relation_pieces``.

Each driver takes the system in factored form, eliminates one variable by
resultants, extracts the complete rational candidate list and
back-substitutes.  A candidate pair (two parameter values) whose
coefficients hit a parametrization pole is reported as a pole; every other
pair goes to ``symbolic.dispose_tuple``, which decides collision, family
membership (with the basepoint matched), or finite-orbit points by
complete basepoint enumeration.  Each structural
curve factor is parametrized as a ``families.ParamTuple`` and analysed on
its own: collision branches are certified by a symbolic identity, family
branches by equality with the catalog family's tuple, and excluded branches
by ``symbolic.exclude_by_relation``.

The families and sporadic pairs each lemma must re-derive are not written
here: they are the catalog entries ``families.lemma_statement`` returns for
the setup's ``statement``, the same entries the ten-case analysis consumes.

The lemma ids are "2.1".."2.6"; the hypotheses they cover are, in order:
fixed+fixed, fixed+2-cycle, 2-cycle+2-cycle, 3-cycle+3-cycle,
fixed+3-cycle, 2-cycle+3-cycle.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ..dynamics import Word, word_str
from ..families import FamilyDef, ParamTuple, catalog, family_by_id, \
    family_verify_symbolic, lemma_statement
from ..groebner import Budget, BudgetExhausted, buchberger, normal_form
from ..polynomials import BiPoly, UniPoly, bivariate_gcd, evaluate
from ..ratfunc import PoleError, RatFunc
from ..rationals import rat, rat_str
from ..records import Frozen, set_field
from ..roots import rational_roots
from .elimination import GeneratorFactors, common_specialized_gcd, \
    eliminate_candidates
from .reports import CurveBranchReport, Disposition, GroebnerOutcome, \
    LemmaReport, fmt_pair
from .symbolic import BiRat, dispose_tuple, exclude_by_relation, \
    three_cycle_parametrization

__all__ = ["LEMMA_IDS", "verify_lemma", "lemma_setup"]


class BranchSpec(NamedTuple):
    curve: str
    kind: str  # "collision" | "family" | "excluded"
    y_of_s: RatFunc
    v_of_s: RatFunc
    family_id: str | None = None


class LemmaSetup(Frozen):
    """One lemma's system and statement; ``lemma_setup`` shares one per id,
    so every field is immutable."""

    __slots__ = ("lemma_id", "hypothesis", "vars", "gens", "branches",
                 "c1_of", "c2_of", "P_of", "statement", "expected_candidates",
                 "expected_partners", "axioms", "groebner_expected_degree",
                 "subtract_families", "structural")

    def __init__(self, lemma_id: str, hypothesis: str, vars: tuple[str, str],
                 gens: Sequence[GeneratorFactors],
                 branches: Sequence[BranchSpec],
                 c1_of: RatFunc, c2_of: RatFunc, P_of: RatFunc,
                 statement: str, expected_candidates: Sequence[Fraction],
                 expected_partners: Sequence[Fraction] | None,
                 axioms: Sequence[str], groebner_expected_degree: int,
                 subtract_families: bool = True):
        set_field(self, "lemma_id", lemma_id)
        set_field(self, "hypothesis", hypothesis)
        set_field(self, "vars", tuple(vars))
        # elimination takes resultants between the first two generators
        # only, so each setup lists its cheapest pair first
        set_field(self, "gens", tuple(gens))
        set_field(self, "branches", tuple(branches))
        # c1 as a function of the partner variable, c2 of the candidate
        set_field(self, "c1_of", c1_of)
        set_field(self, "c2_of", c2_of)
        # the lemma basepoint, written in the variable whose value
        # specializes it: the partner (2.1-2.3) or the candidate (2.4-2.6)
        set_field(self, "P_of", P_of)
        # the catalog lemma id whose families and sporadic pairs this lemma
        # must re-derive (see ``families.lemma_statement``)
        set_field(self, "statement", statement)
        set_field(self, "expected_candidates", tuple(expected_candidates))
        set_field(self, "expected_partners", None if expected_partners is None
                  else tuple(expected_partners))
        set_field(self, "axioms", tuple(axioms))
        set_field(self, "groebner_expected_degree", groebner_expected_degree)
        # whether finite-orbit pairs fully covered by a catalog family are
        # removed from the sporadic list (the 2-cycle/2-cycle
        # classification states its pair list without that subtraction)
        set_field(self, "subtract_families", subtract_families)
        # the branch curves, divided out of the generators before
        # elimination
        set_field(self, "structural", tuple(
            BiPoly.parse(b.curve, self.vars) for b in self.branches))

    def __reduce__(self):
        # structural is derived from the branches
        return type(self), self._values()[:-1]

    @property
    def poles(self) -> tuple[int, ...]:
        """The integer roots p of c2's denominator.  Each v - p, v the
        candidate variable, is a unit of the ring in which the elimination
        takes its resultants, so that the powers of the parametrization's
        poles (t and t + 1 for a three-cycle) never enter its PRS; there
        are none for a constant denominator."""
        roots = rational_roots(self.c2_of.den).roots
        return tuple(int(p) for p in sorted(roots) if p.denominator == 1)


class _System(NamedTuple):
    """One lemma's row of ``_SYSTEMS``.  Map i has a rational point of
    period periods[i], parametrized by vars[i]; P is the first periodic
    point of map basepoint.  Each generator (name, word, target) states the
    relation of x = word(P) under the target map; each branch is (curve,
    kind, y(s), v(s)) or, for a family branch, (curve, kind, y(s), v(s),
    family id), the functions as ``RatFunc.parse`` reads them in s."""
    hypothesis: str
    vars: tuple[str, str]
    periods: tuple[int, int]
    basepoint: int
    gens: tuple[tuple[str, Word, int], ...]
    branches: tuple[tuple[str, ...], ...]
    statement: str
    expected_candidates: tuple[str, ...]
    expected_partners: tuple[str, ...] | None
    groebner_expected_degree: int
    subtract_families: bool = True


_SYSTEMS = {
    "2.1": _System(
        "both maps have rational fixed points", ("y", "z"), (1, 1), 0,
        (("F1", (), 1), ("F2", (1, 1), 0)),
        (("y - z", "collision", "s", "s"),
         ("y + z", "collision", "s", "-s"),
         ("y - z + 2", "family", "s", "s + 2", "F-11a"),
         ("y + z + 2", "family", "s", "-s - 2", "F-11a"),
         ("y^2 - z^2 + 4", "family", "4*s / (s^2 - 1)",
          "(2*s^2 + 2) / (s^2 - 1)", "F-11b"),
         ("y^2 + 4*y - z^2 + 8", "excluded",
          "(-2*s^2 + 4*s + 2) / (s^2 - 1)", "(2*s^2 + 2) / (s^2 - 1)")),
        "2.1", ("-2", "-3/2", "-1", "1", "3/2", "2"), None, 28),
    "2.2": _System(
        "the first map has a rational fixed point, the second a rational "
        "2-cycle", ("y", "z"), (1, 2), 0,
        (("F1", (), 1), ("F2", (1, 1), 0)),
        (("y - z", "family", "s", "s", "F-12a"),
         ("y + z", "family", "s", "-s", "F-12a"),
         ("y - z + 2", "excluded", "s", "s + 2"),
         ("y + z + 2", "excluded", "s", "-s - 2"),
         ("y^2 - z^2 - 4", "collision", "(-2*s^2 - 2) / (s^2 - 1)",
          "-4*s / (s^2 - 1)"),
         ("y^2 + 4*y - z^2", "family", "-4*s^2 / (s^2 - 1)",
          "-4*s / (s^2 - 1)", "F-12b")),
        "2.2", ("-1/2", "0", "1/2"), None, 30),
    "2.3": _System(
        "both maps have rational points of period two", ("y", "z"), (2, 2),
        0, (("N", (), 1), ("A1", (1,), 0), ("A2", (0, 1, 0), 1)),
        (("y - z", "collision", "s", "s"),
         ("y + z", "collision", "s", "-s"),
         ("y^2 - z^2 - 4", "family", "-2*(s^2 + 1) / (s^2 - 1)",
          "-4*s / (s^2 - 1)", "F-22a")),
        "2.3", ("-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2"), None,
        64, subtract_families=False),
    "2.4": _System(
        "both maps have rational points of period three", ("y", "t"), (3, 3),
        1, (("N", (), 0), ("A", (1,), 0)),
        (("y - t", "collision", "s", "s"),
         ("y*t + t + 1", "collision", "-(s + 1) / s", "s"),
         ("y*t + y + 1", "collision", "-1 / (s + 1)", "s")),
        "2.4", ("-1", "0"), None, 38),
    # lemma 2.6 concludes the same unique pair as lemma 2.5
    "2.5": _System(
        "the first map has a rational fixed point, the second a rational "
        "point of period three", ("y", "t"), (1, 3), 1,
        (("N", (), 0), ("A", (1,), 0)), (),
        "2.5", ("-2", "-1/2", "1"), ("-5/2", "-3/2", "3/2", "5/2"), 68),
    "2.6": _System(
        "the first map has a rational point of period two, the second a "
        "rational point of period three", ("y", "t"), (2, 3), 1,
        (("N", (), 0), ("A", (1,), 0)), (),
        "2.5", ("-2", "-1/2", "1"),
        ("-5/2", "-3/2", "-1/2", "1/2", "3/2", "5/2"), 68),
}

LEMMA_IDS = tuple(_SYSTEMS)


def _periodic_map(period: int, var: str) -> tuple[RatFunc, list[RatFunc]]:
    """(c, points) of x^2 + c with a rational point of the period,
    parametrized by var: every point of that exact period, the first of
    which is the basepoint's.  They are the fixed points (1 +- v)/2 of
    c = (1 - v^2)/4, the 2-cycle (-1 +- v)/2 of c = -(3 + v^2)/4, or the
    3-cycle of ``three_cycle_parametrization``."""
    if period == 3:
        c, *cycle = three_cycle_parametrization(var)
        return c, cycle
    v = RatFunc.t(var)
    if period == 1:
        return (1 - v * v) / 4, [(1 + v) / 2, (1 - v) / 2]
    return -(3 + v * v) / 4, [(-1 + v) / 2, (-1 - v) / 2]


def _relation_pieces(x: BiRat, c: BiRat, period: int,
                     points: list[BiRat]) -> list[BiRat]:
    """The pieces of the relation of x under the target f(w) = w^2 + c with
    these rational points of its period: f^k(x) is a root of Phi, the
    product of the w - q over the points q of periods 1 and 2 (k = 2,
    tail-two) or of period 3 (k = 1, the funnel).  As f(p) = q gives
    f(w) - q = (w - p)(w + p), Phi(f(w)) = Phi(w) Phi(-w), and so Phi(f^2(x))
    = Phi(x) Phi(-x) Phi(-f(x)): pieces w - q grouped by q, and whole the
    quadratic of period 1 or 2 whose points are not parametrized."""
    args = [x, -x]
    if period < 3:
        args.append(-(x.square() + c))
    pieces = [w - q for q in points for w in args]
    if period == 1:
        pieces += [w.square() + w + c + 1 for w in args]
    elif period == 2:
        pieces += [w.square() - w + c for w in args]
    return pieces


@lru_cache(maxsize=None)
def lemma_setup(lemma_id: str) -> LemmaSetup:
    """The lemma's system, built once per id from its ``_SYSTEMS`` row and
    shared by every caller."""
    if lemma_id not in _SYSTEMS:
        raise KeyError(f"unknown lemma id {lemma_id!r}")
    row = _SYSTEMS[lemma_id]
    V = row.vars
    maps = [_periodic_map(p, v) for p, v in zip(row.periods, V)]

    def embed(f: RatFunc) -> BiRat:
        # f in its own variable, so that the relations are built from the
        # very formulas the report specializes
        return BiRat.from_ratfunc(f, V.index(f.var), V)

    cs = [embed(c) for c, _ in maps]
    P = maps[row.basepoint][1][0]
    gens = []
    for name, word, target in row.gens:
        x = embed(P)
        for i in word:
            x = x.square() + cs[i]
        pieces = _relation_pieces(x, cs[target], row.periods[target],
                                  [embed(q) for q in maps[target][1]])
        gens.append(GeneratorFactors(name, tuple(p.numerator()
                                                 for p in pieces)))
    axioms = []
    if 3 in row.periods:
        axioms += ["periods-at-most-3", "three-cycle-funnel"]
    if any(row.periods[target] < 3 for _, _, target in row.gens):
        axioms.append("tail-two")
    return LemmaSetup(
        lemma_id, row.hypothesis, V, gens,
        [BranchSpec(curve, kind, RatFunc.parse(y, "s"), RatFunc.parse(v, "s"),
                    *family)
         for curve, kind, y, v, *family in row.branches],
        maps[0][0], maps[1][0], P, row.statement,
        [rat(c) for c in row.expected_candidates],
        None if row.expected_partners is None
        else [rat(c) for c in row.expected_partners],
        axioms, row.groebner_expected_degree, row.subtract_families)


def _branch_tuple(setup: LemmaSetup, br: BranchSpec) -> ParamTuple:
    c1 = setup.c1_of.compose(br.y_of_s)
    c2 = setup.c2_of.compose(br.v_of_s)
    of_var = dict(zip(setup.vars, (br.y_of_s, br.v_of_s)))
    return ParamTuple((c1, c2), setup.P_of.compose(of_var[setup.P_of.var]))


def _verify_branch(setup: LemmaSetup, br: BranchSpec,
                   families: list[FamilyDef]) -> CurveBranchReport:
    # the parametrization must satisfy the curve equation identically
    on_curve = evaluate(br.curve, dict(zip(setup.vars, (
        br.y_of_s, br.v_of_s))).__getitem__).is_zero()
    tup = _branch_tuple(setup, br)
    param_doc = {setup.vars[0]: str(br.y_of_s), setup.vars[1]: str(br.v_of_s)}
    if br.kind == "collision":
        ok = on_curve and (tup.cs[0] - tup.cs[1]).is_zero()
        return CurveBranchReport(br.curve, "collision", ok,
                                 parametrization=param_doc)
    if br.kind == "family":
        fam = family_by_id(br.family_id)
        ok = on_curve and tup == fam.tup.relabel(br.y_of_s.var)
        return CurveBranchReport(br.curve, "family", ok,
                                 family_id=br.family_id,
                                 parametrization=param_doc)
    # excluded branch: find a non-vanishing word relation and dispose of
    # its complete rational root list
    word, target, relation, roots, disposed = \
        exclude_by_relation(tup, families=families)
    return CurveBranchReport(
        br.curve, "excluded", on_curve, parametrization=param_doc,
        word=word_str(word), target_map=target + 1,
        relation_degree=relation.degree,
        roots=[rat_str(r) for r in roots],
        dispositions=[d for d, _, _ in disposed])


# ---------------------------------------------------------------------------
# the groebner route
# ---------------------------------------------------------------------------

def _expand(gen: GeneratorFactors) -> BiPoly:
    """The product of the generator's pieces, at every step of the two
    operands with the fewest terms."""
    heap = [(len(f.ints), i, f) for i, f in enumerate(gen.factors)]
    heapq.heapify(heap)
    while len(heap) > 1:
        (_, i, a), (_, _, b) = heapq.heappop(heap), heapq.heappop(heap)
        ab = a * b
        heapq.heappush(heap, (len(ab.ints), i, ab))
    return heap[0][2]


def _divides_product(r: BiPoly, factors) -> bool:
    """Whether r divides the product of the factors, without expanding it:
    divide gcd(r, f) out of r for each factor f in turn.  r divides the
    product exactly when what is left of it is constant, because r / gcd(r,
    f) is coprime to f / gcd(r, f) and so divides the product of the other
    factors whenever r divides the whole."""
    for f in factors:
        r = r.exact_divide(bivariate_gcd(r, f))
        if r.total_degree() <= 0:
            return True
    return False


def groebner_route(setup: LemmaSetup, budget: Budget) -> GroebnerOutcome:
    """Attempt the Buchberger route on the expanded generators: recover a
    candidate-variable-only polynomial after dividing the structural
    cofactors out of a basis element, and confirm membership of the
    factored combination.  Budget exhaustion is an explicit outcome."""
    gens = [_expand(g) for g in setup.gens]
    try:
        basis = buchberger(gens, budget=budget)
    except BudgetExhausted as e:
        return GroebnerOutcome(
            status="budget-exhausted", pairs_done=e.pairs_done,
            max_coeff_bits=e.max_bits, basis_size=e.basis_size,
            expected_degree=setup.groebner_expected_degree,
            note=str(e))
    survivor = 1  # candidates live in vars[1]
    best: UniPoly | None = None
    for el in basis:
        q = el
        used = BiPoly.constant(1, setup.vars)
        for s in setup.structural:
            q, m = q.divide_out(s)
            if m:
                used = used * s**m
        uni = q.as_unipoly()
        if uni is not None and uni.var == setup.vars[survivor] and uni.degree > 0:
            if best is None or uni.degree < best.degree:
                best, cofactor_used = uni, used
    completed = GroebnerOutcome(
        status="completed", basis_size=len(basis),
        basis_leading_terms=[str(max(g.ints)) for g in basis],
        expected_degree=setup.groebner_expected_degree)
    if best is None:
        completed.note = "no candidate-variable eliminant found in the basis"
        return completed
    # membership of the factored combination
    F = BiPoly.from_unipoly(best, survivor, setup.vars) * cofactor_used
    completed.eliminant_degree = best.degree
    completed.eliminant_roots = [rat_str(r) for r in
                                 sorted(rational_roots(best).root_set())]
    completed.membership_holds = normal_form(F, basis).is_zero()
    return completed


# ---------------------------------------------------------------------------
# main driver
# ---------------------------------------------------------------------------

def verify_lemma(lemma_id: str, budget: Budget | None = None) -> LemmaReport:
    """Re-derive one classification lemma and compare every list against
    its statement.  Returns a report whose verdict is "pass" only when all
    candidate sets, families and sporadic pairs match exactly.  With a
    budget, the Groebner route runs first under it and the report carries
    its outcome."""
    t_start = time.perf_counter()
    setup = lemma_setup(lemma_id)
    flags: list[str] = []
    groebner_outcome: GroebnerOutcome | None = None
    if budget is not None:
        groebner_outcome = groebner_route(setup, budget)
        if groebner_outcome.status != "completed":
            flags.append("groebner route exhausted its budget; "
                         "falling back to the resultant route")

    out = eliminate_candidates(setup.gens, setup.structural, setup.poles)
    fams = list(catalog()[0]) if setup.subtract_families else []
    stated_fams, stated_pairs = lemma_statement(setup.statement)

    # back-substitution partners per candidate, from the full generators
    partner_map: dict[Fraction, list[Fraction]] = {}
    for v0 in out.candidates:
        g = common_specialized_gcd(setup.gens, v0)
        partner_map[v0] = sorted(rational_roots(g).root_set()) \
            if g.degree > 0 else []

    dispositions: list[Disposition] = []
    for v0, partners in partner_map.items():
        for y0 in partners:
            subject = f"({setup.vars[0]}, {setup.vars[1]}) = " \
                      f"({rat_str(y0)}, {rat_str(v0)})"
            point = dict(zip(setup.vars, (y0, v0)))
            # the basepoint's poles are among the coefficients' in every
            # lemma, so each pole is one where a coefficient becomes infinite
            try:
                cs = [setup.c1_of.specialize(y0), setup.c2_of.specialize(v0)]
                P0 = setup.P_of.specialize(point[setup.P_of.var])
            except PoleError:
                dispositions.append(Disposition(
                    subject, "pole",
                    "parametrization pole: a coefficient becomes infinite"))
                continue
            dispositions.append(dispose_tuple(subject, cs, P0, fams)[0])

    # curve branches
    branch_reports: list[CurveBranchReport] = []
    families_found: set[str] = set()
    for br in setup.branches:
        rep = _verify_branch(setup, br, fams)
        branch_reports.append(rep)
        if not rep.verified:
            flags.append(f"branch {br.curve}: verification failed")
        if rep.kind == "family":
            families_found.add(rep.family_id)
    sporadic_found: set[tuple[Fraction, ...]] = set()
    for d in dispositions + [d for rep in branch_reports
                             for d in rep.dispositions]:
        if d.kind == "sporadic":
            sporadic_found.add(tuple(rat(c) for c in d.data["c"]))
        elif d.kind == "family":
            families_found.add(d.data["family"])

    # components discovered during elimination must not be common to all
    # generators (that would be an undeclared stable family)
    for comp in out.components:
        if all(_divides_product(comp, g.factors) for g in setup.gens):
            flags.append(f"component {comp} divides every generator "
                         "(undeclared family?)")

    # symbolic family identities
    for fam in stated_fams:
        if not family_verify_symbolic(fam):
            flags.append(f"family {fam.id}: symbolic stability check failed")

    # compare against the lemma statement
    if out.candidates != sorted(setup.expected_candidates):
        flags.append(
            f"candidate set {[rat_str(c) for c in out.candidates]} differs "
            f"from the stated "
            f"{[rat_str(c) for c in sorted(setup.expected_candidates)]}")
    if setup.expected_partners is not None:
        all_partners = sorted({y for ys in partner_map.values() for y in ys})
        if all_partners != sorted(setup.expected_partners):
            flags.append(
                f"partner set {[rat_str(c) for c in all_partners]} differs "
                f"from the stated "
                f"{[rat_str(c) for c in sorted(setup.expected_partners)]}")
    expected_sp = {p.cs for p in stated_pairs}
    if sporadic_found != expected_sp:
        flags.append(
            f"sporadic pairs {sorted(fmt_pair(p) for p in sporadic_found)} "
            f"differ from the stated "
            f"{sorted(fmt_pair(p) for p in expected_sp)}")
    missing = {fam.id for fam in stated_fams} - families_found
    if missing:
        flags.append(f"families {missing} "
                     "not reached by any branch or candidate")

    # the statement's shape decides the form of the conclusion
    if not stated_fams and not stated_pairs:
        conclusion = ("no rational point has finite orbit under such a pair: "
                      "every candidate is a parametrization pole or a "
                      "coefficient collision")
        if sporadic_found or families_found:
            flags.append("expected no surviving tuples")
    elif not stated_fams and len(stated_pairs) == 1:
        conclusion = ("the only pair admitting a finite-orbit rational point "
                      "is " + ", ".join(fmt_pair(p.cs) for p in stated_pairs))
    else:
        conclusion = ("classification: families "
                      + ", ".join(sorted(f.id for f in stated_fams))
                      + " plus sporadic pairs "
                      + ", ".join(sorted(fmt_pair(p) for p in sporadic_found)))

    report = LemmaReport(
        lemma_id=lemma_id,
        hypothesis=setup.hypothesis,
        route="resultant" if budget is None else "groebner",
        generators={
            g.name: {
                "bidegree": list(g.bidegree()),
                "factor_bidegrees": [[f.degree(0), f.degree(1)]
                                     for f in g.factors],
                "factor_terms": [len(f.ints) for f in g.factors],
                "small_factor_dumps": [f.dump_terms() for f in g.factors
                                       if len(f.ints) <= 40],
            } for g in setup.gens
        },
        structural_divisions=out.structural_divisions,
        eliminant_degrees={"*".join(out.pair): out.eliminant_degrees},
        eliminant_total_degree=sum(out.eliminant_degrees),
        root_traces={"*".join(out.pair): out.root_traces},
        raw_candidates=[rat_str(c) for c in out.raw_candidates],
        dropped_artifacts=[rat_str(c) for c in out.dropped_artifacts],
        candidates=[rat_str(c) for c in out.candidates],
        expected_candidates=[rat_str(c) for c in
                             sorted(setup.expected_candidates)],
        partner_values={rat_str(v): [rat_str(y) for y in ys]
                        for v, ys in partner_map.items()},
        expected_partners=None if setup.expected_partners is None else
        [rat_str(c) for c in sorted(setup.expected_partners)],
        pair_dispositions=dispositions,
        curve_branches=branch_reports,
        families_found=sorted(families_found),
        sporadic_found=sorted(fmt_pair(p) for p in sporadic_found),
        expected_sporadic=sorted(fmt_pair(p.cs) for p in stated_pairs),
        conclusion=conclusion,
        axioms_used=list(setup.axioms),
        flags=flags,
        verdict="pass" if not flags else "flagged",
        groebner=groebner_outcome,
        seconds=time.perf_counter() - t_start,
    )
    return report
