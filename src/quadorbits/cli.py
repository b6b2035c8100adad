"""Command-line front end.

Verbs: orbit, preperiodic, mu, periodic, verify lemma, verify theorem,
family verify, search.  All rationals are read and written exactly as
"p/q" (or integers); decimals are rejected.

One table, ``_VERBS``, gives each verb its handler, help and flags.  A flag
takes its value as ``--flag v`` or ``--flag=v``, and the value may start
with "-", so negative rationals need no "="; a unique prefix stands for a
flag name, and a repeated flag keeps its last value.  Text lines are built
only for ``--format text``.

Exit codes: 0 = pass / finite, 1 = fail / infinite, 2 = usage error (a
budget flag of ``verify lemma`` without ``--route groebner`` is one), 3 =
budget exhausted on an explicitly requested Groebner route.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .dynamics import MapSet, QuadMap, is_preperiodic, monoid_orbit, mu_set, \
    periodic_points
from .families import catalog, family_by_id, family_verify_symbolic
from .groebner import Budget
from .rationals import rat, rat_str
from .search import SearchSpec, search

__all__ = ["main"]


def _parse_maps(text: str) -> MapSet:
    return MapSet([rat(part) for part in text.split(",") if part.strip()])


def _emit(fmt: str, data: dict, text) -> None:
    """Print data as JSON, or the lines text() builds for --format text."""
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        for line in text():
            print(line)


def _cmd_orbit(args) -> int:
    S = _parse_maps(args.maps)
    P = rat(args.point)
    res = monoid_orbit(S, P)
    data = res.to_dict()
    g = res.witness
    _emit(args.format, data, lambda: [
        f"finite orbit of size {len(res.orbit)} for {S} from {rat_str(P)}:",
        "  " + ", ".join(map(rat_str, res.orbit))] if g is None else [
        f"infinite orbit for {S} from {rat_str(P)}:",
        f"  witness point {rat_str(g.point)} (word "
        f"'{data['witness']['word']}') violates the {g.reason} guard "
        f"of map {g.map_index + 1}"])
    return 0 if g is None else 1


def _cmd_preperiodic(args) -> int:
    f = QuadMap(rat(args.c))
    x = rat(args.point)
    rep = is_preperiodic(f, x)
    g = rep.guard
    _emit(args.format, rep.to_dict(), lambda: [
        f"{rat_str(x)} is preperiodic for {f}: tail {rep.tail_length}, "
        f"cycle {{{', '.join(map(rat_str, rep.cycle))}}}" if g is None else
        f"{rat_str(x)} is not preperiodic for {f}: point "
        f"{rat_str(g.point)} violates the {g.reason} guard"])
    return 0 if g is None else 1


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
    _emit(args.format, data, lambda: [
        f"mu({S}) = {rep.mu} over exact periods 1..3",
        "no rational cycle longer than 3 (any length): "
        + ("confirmed" if holds else "VIOLATED")])
    return 0 if holds else 1


def _cmd_periodic(args) -> int:
    f = QuadMap(rat(args.c))
    pts = sorted(periodic_points(f, args.n))
    data = {"c": rat_str(f.c), "n": args.n,
            "points": [rat_str(p) for p in pts]}
    _emit(args.format, data, lambda: [
        f"rational points of exact period {args.n} for {f}: "
        + (", ".join(data["points"]) if pts else "none")])
    return 0


def _cmd_verify_lemma(args) -> int:
    from .verifier import LEMMA_IDS, verify_lemma
    if args.id not in LEMMA_IDS:
        print(f"unknown lemma id {args.id!r}; choose from {LEMMA_IDS}",
              file=sys.stderr)
        return 2
    # a limit not given keeps its default, written once in Budget
    limits = {k: v for k, v in vars(args).items()
              if k.startswith("max_") and v is not None}
    if limits and args.route != "groebner":
        raise _usage_error("verify lemma", "--max-pairs and --max-coeff-bits "
                           "need --route groebner")
    rep = verify_lemma(args.id, Budget(**limits)
                       if args.route == "groebner" else None)
    _emit(args.format, rep.to_dict(), lambda: [
        f"lemma {rep.lemma_id} ({rep.hypothesis})",
        f"  candidates: {rep.candidates} (expected "
        f"{rep.expected_candidates})",
        f"  sporadic pairs: {rep.sporadic_found}",
        f"  conclusion: {rep.conclusion}",
        *([f"  groebner route: {rep.groebner.status}"]
          if rep.groebner is not None else []),
        f"  verdict: {rep.verdict}",
        *(f"  flag: {f}" for f in rep.flags)])
    if rep.groebner is not None and rep.groebner.status != "completed":
        return 3
    return 0 if rep.verdict == "pass" else 1


def _cmd_verify_theorem(args) -> int:
    from .verifier import verify_theorem
    cases = [args.case] if args.case else None
    summary = verify_theorem(run_lemmas=not args.skip_lemmas, cases=cases)
    _emit(args.format, summary.to_dict(), lambda: [
        f"cases run: {sorted({c.case for c in summary.cases})}",
        f"surviving triples: {[t['c'] for t in summary.surviving_triples]}",
        f"four-map exclusion holds: {summary.four_map_exclusion['holds']}",
        f"integral-coefficient check holds: "
        f"{summary.corollary_check['holds']}",
        f"verdict: {summary.verdict}",
        *(f"flag: {f}" for f in summary.flags)])
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
    _emit(args.format, data, lambda: [
        f"family {fam.id}: {fam.description}",
        f"  maps: {data['c']}",
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
    _emit(args.format, data, lambda: [
        f"search over c in {{k/{spec.denominator} : |k| <= "
        f"{spec.numerator_bound}}}, sets of {spec.set_size}: "
        f"{len(results)} tuple(s)",
        *(f"  {d['c']} basepoints {d['basepoints']}" for d in data["found"]),
        *([f"results written to {args.output}"] if args.output else [])])
    return 0


_FORMAT = ("--format", str, ("text", "json"), "text", "output format")
# verb path -> (handler, help, flags); a flag is (name, type, choices,
# default, help), type int, str or bool (a switch), default ... if required
_VERBS = {
    "orbit": (_cmd_orbit, "breadth-first closure under a map set", (
        _FORMAT, ("--maps", str, None, ..., "comma-separated c values"),
        ("--point", str, None, ..., "the basepoint"))),
    "preperiodic": (_cmd_preperiodic, "single-map preperiodicity", (
        _FORMAT, ("--c", str, None, ..., "the map x^2 + c"),
        ("--point", str, None, ..., "the point"))),
    "mu": (_cmd_mu, "maximum exact period over a map set", (
        _FORMAT, ("--maps", str, None, ..., "comma-separated c values"))),
    "periodic": (_cmd_periodic, "points of exact period n", (
        _FORMAT, ("--c", str, None, ..., "the map x^2 + c"),
        ("--n", int, None, ..., "the exact period"))),
    "verify lemma": (_cmd_verify_lemma, "re-verify a pair lemma", (
        _FORMAT, ("--id", str, None, ..., "lemma id, 2.1 to 2.6"),
        ("--route", str, ("resultant", "groebner"), "resultant", "route"),
        ("--max-pairs", int, None, None, "Groebner pair budget"),
        ("--max-coeff-bits", int, None, None,
         "Groebner coefficient-bit budget"))),
    "verify theorem": (_cmd_verify_theorem, "re-verify the theorem", (
        _FORMAT, ("--case", int, range(1, 11), None, "run this case only"),
        ("--skip-lemmas", bool, None, False, "cite the lemmas, not re-run"))),
    "family verify": (_cmd_family, "check a catalog family's stability", (
        _FORMAT, ("--id", str, None, ..., "family id, e.g. F-11b"))),
    "search": (_cmd_search, "exhaustive grid search", (
        _FORMAT, ("--spec", str, None, None, "JSON file of a SearchSpec"),
        ("--set-size", int, None, 3, "maps per set"),
        ("--denominator", int, None, 16, "the grid is c = k/denominator"),
        ("--numerator-bound", int, None, 40, "the grid has |k| <= this"),
        ("--output", str, None, None, "write the sorted results as JSON"))),
}


def _usage(path: str) -> str:
    """The usage line of a verb path, or of the verbs under a prefix."""
    if path not in _VERBS:
        return f"usage: {f'quadorbits {path}'.rstrip()} <verb> ..."
    words = [f"usage: quadorbits {path} [-h]"]
    for name, kind, choices, default, _ in _VERBS[path][2]:
        if kind is not bool:
            name += (" {%s}" % ",".join(map(str, choices)) if choices else
                     " " + name[2:].upper().replace("-", "_"))
        words.append(name if default is ... else f"[{name}]")
    return " ".join(words)


def _usage_error(path: str, message: str) -> SystemExit:
    print(f"{_usage(path)}\n{f'quadorbits {path}'.rstrip()}: error: "
          f"{message}", file=sys.stderr)
    return SystemExit(2)


def _help(path: str) -> SystemExit:
    verb = _VERBS.get(path)
    rows = [(f[0], f[4]) for f in verb[2]] if verb else \
        [(v, h) for v, (_, h, _) in _VERBS.items() if v.startswith(path)]
    print(_usage(path), "", verb[1] if verb else "exact finite-orbit "
          "computations for sets of quadratic polynomials x^2 + c over Q", "",
          *(f"  {a:18} {b}" for a, b in rows), sep="\n")
    return SystemExit(0)


def _parse(argv: list[str]):
    """The handler that argv names in ``_VERBS`` and its arguments, by
    attribute name; help exits 0 and a usage error exits 2."""
    n = 2 if " ".join(argv[:2]) in _VERBS else 1
    path = " ".join(argv[:n])
    if path not in _VERBS:
        group = path if any(v.startswith(f"{path} ") for v in _VERBS) else ""
        if argv[1 if group else 0:][:1] in (["-h"], ["--help"]):
            raise _help(group)
        raise _usage_error(group, "choose a verb from " + ", ".join(
            v for v in _VERBS if v.startswith(group)))
    handler, _, flags = _VERBS[path]
    opts = {f[0]: f[3] for f in flags}
    rest = iter(argv[n:])
    for tok in rest:
        if tok in ("-h", "--help"):
            raise _help(path)
        key, eq, value = tok.partition("=")
        match = [f for f in flags if f[0] == key] or \
            [f for f in flags if key[:2] == "--" and f[0].startswith(key)]
        if len(match) != 1:
            raise _usage_error(path, f"ambiguous option: {key} could match "
                               + ", ".join(f[0] for f in match) if match
                               else f"unrecognized arguments: {tok}")
        name, kind, choices, _, _ = match[0]
        if kind is bool:
            if eq:
                raise _usage_error(path, f"argument {name}: ignored "
                                   f"explicit argument {value!r}")
            opts[name] = True
            continue
        if not eq and (value := next(rest, None)) is None:
            raise _usage_error(path, f"argument {name}: expected one argument")
        try:
            value = kind(value)
        except ValueError:
            raise _usage_error(path, f"argument {name}: invalid "
                               f"{kind.__name__} value: {value!r}") from None
        if choices is not None and value not in choices:
            raise _usage_error(path, f"argument {name}: invalid choice: "
                               f"{value!r} (choose from "
                               f"{', '.join(map(repr, choices))})")
        opts[name] = value
    missing = [name for name, v in opts.items() if v is ...]
    if missing:
        raise _usage_error(path, "the following arguments are required: "
                           + ", ".join(missing))
    return handler, SimpleNamespace(
        **{name[2:].replace("-", "_"): v for name, v in opts.items()})


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse(list(sys.argv[1:] if argv is None else argv))
    try:
        return handler(args)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
