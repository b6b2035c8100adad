"""Command-line front end.

Verbs: orbit, preperiodic, mu, periodic, verify lemma, verify theorem,
family verify, search.  All rationals are read and written exactly as
"p/q" (or integers); decimals are rejected.

Exit codes: 0 = pass / finite, 1 = fail / infinite, 2 = usage error,
3 = budget exhausted on an explicitly requested Groebner route.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dynamics import MapSet, QuadMap, is_preperiodic, monoid_orbit, mu_set, \
    periodic_points
from .families import catalog, family_by_id, family_verify_symbolic
from .groebner import Budget
from .rationals import rat, rat_str
from .search import SearchSpec, search
from .verifier import verify_lemma, verify_theorem
from .verifier.lemmas import LEMMA_IDS

__all__ = ["main"]


def _parse_maps(text: str) -> MapSet:
    return MapSet([rat(part) for part in text.split(",") if part.strip()])


def _emit(data: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_orbit(args) -> int:
    S = _parse_maps(args.maps)
    P = rat(args.point)
    res = monoid_orbit(S, P)
    data = res.to_dict()
    if res.is_finite():
        lines = [f"finite orbit of size {len(res.orbit)} for {S} from "
                 f"{rat_str(P)}:",
                 "  " + ", ".join(rat_str(q) for q in res.orbit)]
        _emit(data, args.format, lines)
        return 0
    g = res.witness
    lines = [f"infinite orbit for {S} from {rat_str(P)}:",
             f"  witness point {rat_str(g.point)} (word "
             f"'{data['witness']['word']}') violates the {g.reason} guard "
             f"of map {g.map_index + 1}"]
    _emit(data, args.format, lines)
    return 1


def _cmd_preperiodic(args) -> int:
    f = QuadMap(rat(args.c))
    x = rat(args.point)
    rep = is_preperiodic(f, x)
    data = rep.to_dict()
    if rep.preperiodic:
        lines = [f"{rat_str(x)} is preperiodic for {f}: tail "
                 f"{rep.tail_length}, cycle "
                 f"{{{', '.join(rat_str(q) for q in rep.cycle)}}}"]
        _emit(data, args.format, lines)
        return 0
    g = rep.guard
    lines = [f"{rat_str(x)} is not preperiodic for {f}: point "
             f"{rat_str(g.point)} violates the {g.reason} guard"]
    _emit(data, args.format, lines)
    return 1


def _cmd_mu(args) -> int:
    S = _parse_maps(args.maps)
    rep = mu_set(S)
    data = {
        "mu": rep.mu,
        "witnesses": {str(n): [rat_str(p) for p in pts]
                      for n, pts in rep.witnesses.items()},
        "higher_periods": {str(n): v for n, v in rep.higher_periods.items()},
        "hypothesis_holds_up_to_6": rep.hypothesis_holds_up_to_6(),
        "max_cycle_length": rep.max_cycle_length,
    }
    holds = rep.max_cycle_length <= 3
    lines = [f"mu({S}) = {rep.mu} over exact periods 1..3",
             "no rational cycle longer than 3 (any length): "
             + ("confirmed" if holds else "VIOLATED")]
    _emit(data, args.format, lines)
    return 0 if holds else 1


def _cmd_periodic(args) -> int:
    f = QuadMap(rat(args.c))
    pts = sorted(periodic_points(f, args.n))
    data = {"c": rat_str(f.c), "n": args.n,
            "points": [rat_str(p) for p in pts]}
    _emit(data, args.format,
          [f"rational points of exact period {args.n} for {f}: "
           + (", ".join(rat_str(p) for p in pts) if pts else "none")])
    return 0


def _cmd_verify_lemma(args) -> int:
    if args.id not in LEMMA_IDS:
        print(f"unknown lemma id {args.id!r}; choose from {LEMMA_IDS}",
              file=sys.stderr)
        return 2
    budget = Budget(max_pairs=args.max_pairs,
                    max_coeff_bits=args.max_coeff_bits)
    rep = verify_lemma(args.id, route=args.route, budget=budget)
    data = rep.to_dict()
    lines = [f"lemma {rep.lemma_id} ({rep.hypothesis})",
             f"  candidates: {rep.candidates} (expected "
             f"{rep.expected_candidates})",
             f"  sporadic pairs: {rep.sporadic_found}",
             f"  conclusion: {rep.conclusion}",
             f"  verdict: {rep.verdict}"]
    if rep.groebner is not None:
        lines.insert(-1, f"  groebner route: {rep.groebner.status}")
    for f in rep.flags:
        lines.append(f"  flag: {f}")
    _emit(data, args.format, lines)
    if args.route == "groebner" and rep.groebner is not None \
            and rep.groebner.status != "completed":
        return 3
    return 0 if rep.verdict == "pass" else 1


def _cmd_verify_theorem(args) -> int:
    cases = [args.case] if args.case else None
    summary = verify_theorem(run_lemmas=not args.skip_lemmas, cases=cases)
    data = summary.to_dict()
    lines = [f"cases run: {sorted({c.case for c in summary.cases})}",
             f"surviving triples: "
             f"{[t['c'] for t in summary.surviving_triples]}",
             f"four-map exclusion holds: "
             f"{summary.four_map_exclusion['holds']}",
             f"integral-coefficient check holds: "
             f"{summary.corollary_check['holds']}",
             f"verdict: {summary.verdict}"]
    for f in summary.flags:
        lines.append(f"flag: {f}")
    _emit(data, args.format, lines)
    return 0 if summary.verdict == "pass" else 1


def _cmd_family(args) -> int:
    try:
        fam = family_by_id(args.id)
    except KeyError:
        print(f"unknown family id {args.id!r}; known: "
              f"{[f.id for f in catalog()[0]]}", file=sys.stderr)
        return 2
    ok = family_verify_symbolic(fam)
    data = {
        "id": fam.id,
        "description": fam.description,
        "c": [str(c) for c in fam.tup.cs],
        "basepoint": str(fam.tup.P),
        "stable": fam.stable_exprs,
        "excluded_parameters": [rat_str(x) for x in
                                sorted(fam.tup.excluded_values())],
        "symbolic_identity_holds": ok,
    }
    _emit(data, args.format,
          [f"family {fam.id}: {fam.description}",
           f"  maps: {[str(c) for c in fam.tup.cs]}",
           f"  basepoint: {fam.tup.P}",
           f"  stable set: {list(fam.stable_exprs)}",
           f"  symbolic stability: {'holds' if ok else 'FAILS'}"])
    return 0 if ok else 1


def _cmd_search(args) -> int:
    if args.spec:
        try:
            with open(args.spec) as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: cannot read spec file: {e}", file=sys.stderr)
            return 2
        spec = SearchSpec.from_json(text)
    else:
        spec = SearchSpec(set_size=args.set_size,
                          denominator=args.denominator,
                          numerator_bound=args.numerator_bound)
    results = search(spec)
    data = {"spec": spec.to_dict(),
            "found": [t.to_dict() for t in results]}
    if args.output:
        try:
            with open(args.output, "w") as fh:
                json.dump(data, fh, indent=2)
                fh.write("\n")
        except OSError as e:
            print(f"error: cannot write output file: {e}", file=sys.stderr)
            return 2
    lines = [f"search over c in {{k/{spec.denominator} : |k| <= "
             f"{spec.numerator_bound}}}, sets of {spec.set_size}: "
             f"{len(results)} tuple(s)"]
    for t in results:
        d = t.to_dict()
        lines.append(f"  {d['c']} basepoints {d['basepoints']}")
    if args.output:
        lines.append(f"results written to {args.output}")
    _emit(data, args.format, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="quadorbits",
        description="exact finite-orbit computations for sets of quadratic "
                    "polynomials x^2 + c over Q")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("orbit", parents=[common],
                       help="breadth-first closure under a map set")
    p.add_argument("--maps", required=True,
                   help='comma-separated c values, e.g. "-5/16,-13/16"')
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("preperiodic", parents=[common], help="single-map preperiodicity")
    p.add_argument("--c", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_preperiodic)

    p = sub.add_parser("mu", parents=[common], help="maximum exact period over a map set")
    p.add_argument("--maps", required=True)
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("periodic", parents=[common], help="points of exact period n")
    p.add_argument("--c", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("verify", help="re-verify a lemma or the theorem")
    vsub = p.add_subparsers(dest="what", required=True)
    pl = vsub.add_parser("lemma", parents=[common])
    pl.add_argument("--id", required=True)
    pl.add_argument("--route", choices=("resultant", "groebner"),
                    default="resultant")
    pl.add_argument("--max-pairs", type=int, default=5_000,
                    help="groebner pair budget (exhaustion exits 3)")
    pl.add_argument("--max-coeff-bits", type=int, default=500_000)
    pl.set_defaults(func=_cmd_verify_lemma)
    pt = vsub.add_parser("theorem", parents=[common])
    pt.add_argument("--case", type=int, choices=range(1, 11))
    pt.add_argument("--skip-lemmas", action="store_true",
                    help="cite the pair lemmas instead of re-running them")
    pt.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("family", help="catalog family operations")
    fsub = p.add_subparsers(dest="what", required=True)
    pf = fsub.add_parser("verify", parents=[common])
    pf.add_argument("--id", required=True)
    pf.set_defaults(func=_cmd_family)

    p = sub.add_parser("search", parents=[common], help="exhaustive grid search")
    p.add_argument("--spec", help="JSON file with set_size/denominator/"
                                  "numerator_bound")
    p.add_argument("--set-size", type=int, default=3)
    p.add_argument("--denominator", type=int, default=16)
    p.add_argument("--numerator-bound", type=int, default=40)
    p.add_argument("--output", help="write the sorted results as JSON")
    p.set_defaults(func=_cmd_search)
    return ap


_VALUE_FLAGS = {"--maps", "--point", "--c", "--id", "--spec"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Fold "--maps -5/16,..." into "--maps=-5/16,..." so rational values
    starting with a minus sign survive argument parsing."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(_merge_negative_values(
        list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
