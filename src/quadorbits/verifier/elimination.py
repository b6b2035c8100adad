"""Candidate extraction by resultants over the factored generators.

Given the generators of a lemma's iterate-difference system in factored
form, the pipeline

1. divides every declared structural factor out of every generator factor
   (to full multiplicity) -- this removes the root mass attached to the
   declared curves;
2. takes pairwise resultants between the factors of each pair of
   generators, eliminating the first variable.  A pair whose resultant
   vanishes identically shares a curve component; the component is split
   off by a bivariate gcd, recorded, and the leftovers are retried;
3. forms, per generator pair, the union of the rational roots of the pair
   eliminants (plus the roots of any factor's content in the second,
   surviving variable, which make that generator vanish identically);
4. intersects the per-pair unions: a parameter value admitting a common
   zero of all generators lies in every pair's union, so the intersection
   is a complete candidate list.

With two generators there is a single union.  Components surviving step 2
with only two generators would mean an undeclared stable family; they are
reported loudly rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .. import _intpoly as zp
from ..polynomials import BiPoly, UniPoly, bivariate_gcd, resultant
from ..roots import rational_roots

__all__ = ["GeneratorFactors", "EliminationOutcome", "eliminate_candidates"]


@dataclass(frozen=True)
class GeneratorFactors:
    """A generator polynomial kept as a product of reduced factors."""

    name: str
    factors: tuple[BiPoly, ...]

    def bidegree(self) -> tuple[int, int]:
        d0 = sum(max(f.degree(0), 0) for f in self.factors)
        d1 = sum(max(f.degree(1), 0) for f in self.factors)
        return d0, d1

    def specialized_product(self, which: int, v0: Fraction) -> UniPoly:
        prod = None
        for f in self.factors:
            u = f.specialize(which, v0)
            prod = u if prod is None else prod * u
        assert prod is not None
        return prod


@dataclass
class EliminationOutcome:
    candidates: list[Fraction]
    raw_candidates: list[Fraction]
    dropped_artifacts: list[Fraction]
    eliminant_degrees: dict[tuple[str, str], list[int]]
    structural_divisions: dict[str, dict[str, int]]
    components: list[tuple[str, str, BiPoly]]
    root_traces: dict[tuple[str, str], list[dict]] = field(default_factory=dict)
    reduced: list[GeneratorFactors] = field(default_factory=list)

    def eliminant_total_degree(self) -> int:
        return sum(sum(v) for v in self.eliminant_degrees.values())


def common_specialized_gcd(gens: list[GeneratorFactors], which: int,
                           v0: Fraction) -> UniPoly:
    """Gcd across the generators of their specializations at vars[which] =
    v0; positive degree certifies a common zero of the system over the
    algebraic closure on that fiber (gcds are stable under field
    extension)."""
    g: UniPoly | None = None
    for gen in gens:
        prod = gen.specialized_product(which, v0)
        g = prod if g is None else g.gcd(prod)
        if g.degree == 0:
            break
    assert g is not None
    return g


def _divide_structural(gen: GeneratorFactors, structural: list[BiPoly]
                       ) -> tuple[GeneratorFactors, dict[str, int]]:
    divisions: dict[str, int] = {}
    out = []
    for f in gen.factors:
        for s in structural:
            f, m = f.divide_out(s)
            if m:
                divisions[str(s)] = divisions.get(str(s), 0) + m
        if not f.is_zero():
            f = f.content_primitive()[1]
        out.append(f)
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
        roots = set(rational_roots(cp.squarefree_part()).root_set())
        f = f.exact_divide(BiPoly.from_unipoly(cp, 1, f.vars))
    return f, roots


def eliminate_candidates(gens: list[GeneratorFactors], structural: list[BiPoly]
                         ) -> EliminationOutcome:
    """Run the factored-resultant candidate extraction (see module doc),
    eliminating vars[0]; the candidates are values of vars[1]."""
    divisions: dict[str, dict[str, int]] = {}
    reduced: list[GeneratorFactors] = []
    content_roots: set[Fraction] = set()
    for gen in gens:
        red, div = _divide_structural(gen, structural)
        facs = []
        for f in red.factors:
            f2, roots = _split_survivor_content(f)
            content_roots |= roots
            facs.append(f2)
        reduced.append(GeneratorFactors(red.name, tuple(facs)))
        divisions[gen.name] = div

    pair_unions: list[set[Fraction]] = []
    degrees: dict[tuple[str, str], list[int]] = {}
    components: list[tuple[str, str, BiPoly]] = []
    root_traces: dict[tuple[str, str], list[dict]] = {}
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            gi, gj = reduced[i], reduced[j]
            union: set[Fraction] = set(content_roots)
            degs: list[int] = []
            traces: list[dict] = []
            for a in gi.factors:
                for b in gj.factors:
                    a_work = a
                    while True:
                        if a_work.degree(0) <= 0 or b.degree(0) <= 0:
                            break
                        r = resultant(a_work, b)
                        if not r.is_zero():
                            degs.append(r.degree)
                            if r.degree > 0:
                                rep = rational_roots(r.squarefree_part())
                                union |= rep.root_set()
                                traces.append(rep.to_dict())
                            break
                        g = bivariate_gcd(a_work, b)
                        if g.total_degree() <= 0:
                            raise ArithmeticError(
                                "zero resultant with trivial gcd")
                        components.append((gi.name, gj.name, g))
                        a_work = a_work.exact_divide(g)
                        a_work, roots = _split_survivor_content(a_work)
                        union |= roots
            pair_unions.append(union)
            degrees[(gi.name, gj.name)] = degs
            root_traces[(gi.name, gj.name)] = traces

    cands: set[Fraction] | None = None
    for union in pair_unions:
        cands = set(union) if cands is None else cands & union
    raw = sorted(cands or set())
    # keep a value only if the reduced system has a common zero on its
    # fiber; this drops leading-coefficient artifacts such as the
    # parametrization poles
    kept, dropped = [], []
    for v0 in raw:
        if common_specialized_gcd(reduced, 1, v0).degree > 0:
            kept.append(v0)
        else:
            dropped.append(v0)
    return EliminationOutcome(
        candidates=kept,
        raw_candidates=raw,
        dropped_artifacts=dropped,
        eliminant_degrees=degrees,
        structural_divisions=divisions,
        components=components,
        root_traces=root_traces,
        reduced=reduced,
    )
