"""Candidate extraction by resultants over the factored generators.

Given the generators of a lemma's system as products of pieces, the
pipeline

1. divides every declared structural factor out of every piece (to full
   multiplicity) -- this removes the root mass attached to the declared
   curves -- and drops a piece that it leaves constant;
2. takes the resultants between the factors of the first two generators,
   eliminating the first variable.  A factor pair whose resultant vanishes
   identically shares a curve component; the component is split off by a
   bivariate gcd, recorded, and the leftovers are retried.  Each resultant
   is taken as (a, r), Res = prod (v - p)^a_p * r with r prime to every
   v - p, over the ring in which v - p is a unit for each integer pole p
   of c2 (``LemmaSetup.poles``: t and t + 1 for a three-cycle, whose powers
   are most of its eliminants' degree, and none for a constant
   denominator).  The squarefree part of Res is r's times the v - p with
   a_p > 0, so the roots are unchanged, and deg Res = sum(a) + deg r;
3. takes, for each such component g, the resultants of g with every factor
   of every other generator: a common zero on g zeroes one of those factors;
4. spares resultants of steps 2 and 3 by two exact symmetries of the
   eliminated variable y (Cox, Little and O'Shea, *Ideals, Varieties, and
   Algorithms*, ch. 3).  Res(a(-y), b(-y)) = +-Res(a, b), so a pair that
   the sign flip of y maps, up to sign in each slot, onto a pair already
   eliminated reuses that pair's degree and roots.  For a = A(y^2) and
   b = B(y^2), Res(a, b) = Res_u(A, B)^2, which has the same squarefree
   part, so the pair is eliminated over u = y^2 at half the degree.
   ``eliminant_degrees`` holds deg Res(a, b) for every pair, and
   ``root_traces`` one root trace for each resultant taken;
5. collects the rational roots of these eliminants, plus the roots of any
   factor's content in the second, surviving variable (which make that
   generator vanish identically).  By the specialization property of
   resultants every value admitting a common zero is among them.

A value is kept only if the generators have a common zero on its fiber.  A
component dividing every generator would mean an undeclared stable family;
``verify_lemma`` reports it loudly rather than dropping it.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .. import _intpoly as zp
from ..polynomials import BiPoly, UniPoly, bivariate_gcd, \
    localized_resultant
from ..records import Mutable
from ..roots import rational_roots

__all__ = ["GeneratorFactors", "EliminationOutcome", "eliminate_candidates"]


class GeneratorFactors(NamedTuple):
    """A generator polynomial kept as a product of reduced factors."""

    name: str
    factors: tuple[BiPoly, ...]

    def bidegree(self) -> tuple[int, int]:
        d0 = sum(max(f.degree(0), 0) for f in self.factors)
        d1 = sum(max(f.degree(1), 0) for f in self.factors)
        return d0, d1

    def specialized_product(self, v0: Fraction) -> UniPoly:
        prod = None
        for f in self.factors:
            u = f.specialize(1, v0)
            prod = u if prod is None else prod * u
        assert prod is not None
        return prod


class EliminationOutcome(Mutable):
    def __init__(self, candidates: list[Fraction],
                 raw_candidates: list[Fraction],
                 dropped_artifacts: list[Fraction], pair: tuple[str, str],
                 eliminant_degrees: list[int],
                 structural_divisions: dict[str, dict[str, int]],
                 components: list[BiPoly], root_traces: list[dict],
                 reduced: list[GeneratorFactors]):
        self.candidates = candidates
        self.raw_candidates = raw_candidates
        self.dropped_artifacts = dropped_artifacts
        self.pair = pair  # the names of the two generators eliminated
        self.eliminant_degrees = eliminant_degrees
        self.structural_divisions = structural_divisions
        self.components = components
        self.root_traces = root_traces
        self.reduced = reduced


def common_specialized_gcd(gens: Sequence[GeneratorFactors],
                           v0: Fraction) -> UniPoly:
    """Gcd across the generators of their specializations at vars[1] = v0;
    positive degree certifies a common zero of the system over the
    algebraic closure on that fiber (gcds are stable under field
    extension)."""
    g: UniPoly | None = None
    for gen in gens:
        prod = gen.specialized_product(v0)
        g = prod if g is None else g.gcd(prod)
        if g.degree == 0:
            break
    assert g is not None
    return g


def _divide_structural(gen: GeneratorFactors, structural: Sequence[BiPoly]
                       ) -> tuple[GeneratorFactors, dict[str, int]]:
    divisions: dict[str, int] = {}
    out = []
    for f in gen.factors:
        for s in structural:
            f, m = f.divide_out(s)
            if m:
                divisions[str(s)] = divisions.get(str(s), 0) + m
        if f.is_zero():
            out.append(f)
        elif f.total_degree() > 0:
            out.append(f.content_primitive()[1])
    return GeneratorFactors(gen.name, tuple(out)), divisions


def _split_survivor_content(f: BiPoly) -> tuple[BiPoly, set[Fraction]]:
    """Strip any polynomial content in the surviving variable vars[1]; its
    rational roots make the whole factor vanish identically and count as
    candidates."""
    if f.is_zero() or f.degree(1) <= 0:
        return f, set()
    # content of f viewed in the eliminated variable
    cont = zp.zzcontent(f.to_coeff_lists(0)[1])
    roots: set[Fraction] = set()
    if len(cont) > 1:
        cp = UniPoly.from_int(1, cont, f.vars[1])
        roots = set(rational_roots(cp).root_set())
        f = f.exact_divide(BiPoly.from_unipoly(cp, 1, f.vars))
    return f, roots


def _up_to_sign(p: BiPoly) -> BiPoly:
    """p or -p, whichever has a positive lex-leading coefficient."""
    return -p if p.ints[max(p.ints)] < 0 else p


def _flip(p: BiPoly) -> BiPoly:
    """p(-y, z), with y = vars[0]."""
    return BiPoly.from_int(p.den, {e: -c if e[0] % 2 else c
                                   for e, c in p.ints.items()}, p.vars)


def _deflate(p: BiPoly) -> BiPoly | None:
    """F with p = F(y^2, z), or None when p is not even in y = vars[0]."""
    if any(i % 2 for i, _ in p.ints):
        return None
    return BiPoly.from_int(p.den, {(i // 2, j): c
                                   for (i, j), c in p.ints.items()}, p.vars)


def _squarefree_eliminant(poles: Sequence[int], exps: list[int],
                          r: UniPoly) -> UniPoly:
    """The squarefree part (``zsquarefree``) of the product of the
    (v - p)^e_p and of r, for r prime to every v - p: r's part times each
    v - p with e_p > 0, all primitive with a positive leading
    coefficient."""
    sf = zp.zsquarefree(r.ints)
    for p, e in zip(poles, exps):
        if e:
            sf = zp.zmul(sf, [-p, 1])
    return UniPoly.from_int(1, sf, r.var)


def eliminate_candidates(gens: Sequence[GeneratorFactors],
                         structural: Sequence[BiPoly],
                         poles: Sequence[int]) -> EliminationOutcome:
    """Run the factored-resultant candidate extraction (see module doc),
    eliminating vars[0] between the first two generators; the candidates
    are values of vars[1].  The resultants are taken over the ring in which
    v - p is a unit for every integer p in poles, v = vars[1]."""
    divisions: dict[str, dict[str, int]] = {}
    reduced: list[GeneratorFactors] = []
    raw: set[Fraction] = set()
    stripped: list[list[BiPoly]] = []  # the factors without their content
    for gen in gens:
        red, divisions[gen.name] = _divide_structural(gen, structural)
        reduced.append(red)
        stripped.append([])
        for f in red.factors:
            f, roots = _split_survivor_content(f)
            raw.update(roots)
            stripped[-1].append(f)

    first, second = stripped[:2]
    others = [f for factors in stripped[2:] for f in factors]
    degs: list[int] = []
    traces: list[dict] = []
    components: list[BiPoly] = []
    # (a, b) up to sign in each slot -> deg Res(a, b); Res(a(-y), b(-y)) =
    # +-Res(a, b), so a flipped pair has its twin's degree and roots
    done: dict[tuple[BiPoly, BiPoly], int] = {}

    def eliminate(a: BiPoly, b: BiPoly) -> None:
        """Add the rational roots of Res(a, b) to the raw list, with their
        trace when the resultant is taken; on an identically zero
        resultant, split off the shared component and retry the leftover
        of a."""
        while a.degree(0) > 0 and b.degree(0) > 0:
            deg = done.get((_up_to_sign(_flip(a)), _up_to_sign(_flip(b))))
            if deg is None:
                # a = A(y^2), b = B(y^2) give Res(a, b) = Res_u(A, B)^2
                A, B = _deflate(a), _deflate(b)
                even = A is not None and B is not None
                exps, r = localized_resultant(*((A, B) if even else (a, b)),
                                              poles)
                if not r.is_zero():
                    deg = (2 if even else 1) * (sum(exps) + r.degree)
                    if deg > 0:
                        rep = rational_roots(
                            _squarefree_eliminant(poles, exps, r))
                        raw.update(rep.root_set())
                        traces.append(rep.to_dict())
            if deg is not None:
                done[_up_to_sign(a), _up_to_sign(b)] = deg
                degs.append(deg)
                return
            g = bivariate_gcd(a, b)
            if g.total_degree() <= 0:
                raise ArithmeticError("zero resultant with trivial gcd")
            components.append(g)
            a, roots = _split_survivor_content(a.exact_divide(g))
            raw.update(roots)

    for a in first:
        for b in second:
            eliminate(a, b)
    for g in list(components):
        for f in others:
            eliminate(g, f)

    # the fiber filter reads the factors with their content, and drops
    # leading-coefficient artifacts such as the parametrization poles
    kept, dropped = [], []
    for v0 in sorted(raw):
        if common_specialized_gcd(reduced, v0).degree > 0:
            kept.append(v0)
        else:
            dropped.append(v0)
    return EliminationOutcome(
        candidates=kept,
        raw_candidates=sorted(raw),
        dropped_artifacts=dropped,
        pair=(gens[0].name, gens[1].name),
        eliminant_degrees=degs,
        structural_divisions=divisions,
        components=components,
        root_traces=traces,
        reduced=reduced,
    )
