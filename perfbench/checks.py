"""Independent verdict checks, in the benchmark's own exact arithmetic.

Nothing here imports quadorbits.  Expected answers come from the paper
(the two exceptional triples, the sporadic pairs, the integral sharpness
pair), from planted instances whose finite orbit the generator closed
itself, or from the oracle below: a guarded orbit closure written
against the two guard lemmas alone.

Every check returns a list of problems; an empty list means the verdict is
right.
"""

from __future__ import annotations

import math
from fractions import Fraction

F = Fraction

# the two exceptional triples of the classification, with their complete
# basepoint lists
PAPER_TRIPLES = {
    (F(-21, 16), F(-13, 16), F(-5, 16)):
        tuple(F(k, 4) for k in (-5, -3, -1, 1, 3, 5)),
    (F(-13, 16), F(-5, 16), F(3, 16)):
        tuple(F(k, 4) for k in (-3, -1, 1, 3)),
}
# sporadic pairs of the paper that lie on the grid {k/16 : |k| <= 40}
PAPER_PAIRS_16 = [tuple(sorted((F(a, 16), F(b, 16)))) for a, b in (
    (-21, -5), (3, -5), (-5, -13), (-21, -13), (-37, -21), (-21, -29))]
# integral sharpness pair {x^2 - 3, x^2 - 2} with basepoint 2
SHARPNESS_PAIR = ((F(-3), F(-2)), F(2))
# the union of the two triples, which admits no finite-orbit point
FOUR_MAPS = (F(3, 16), F(-5, 16), F(-13, 16), F(-21, 16))


def guard(c: Fraction, x: Fraction) -> str | None:
    """The guard x violates for x^2 + c (escape bound or denominator
    growth), or None if x passes both."""
    if abs(x) > abs(c) + 1:
        return "escape-bound"
    if c.denominator % (x.denominator * x.denominator):
        return "denominator-growth"
    return None


def closure(cs, P: Fraction, cap: int = 100_000):
    """Orbit of P under the maps x^2 + c, c in cs: (True, orbit set) when
    finite, (False, None) when some orbit point violates a guard."""
    seen = {P}
    todo = [P]
    while todo:
        x = todo.pop()
        if any(guard(c, x) for c in cs):
            return False, None
        for c in cs:
            y = x * x + c
            if y not in seen:
                seen.add(y)
                todo.append(y)
                if len(seen) > cap:
                    raise RuntimeError("closure cap exceeded")
    return True, seen


def admissible_grid(cs):
    """Every point passing both guards for all maps: k/d with d^2 dividing
    every denominator and |k/d| <= min |c| + 1."""
    G = math.gcd(*(c.denominator for c in cs))
    bound = min(abs(c) for c in cs) + 1
    d = 1
    while d * d <= G:
        if G % (d * d) == 0:
            kmax = int(bound * d)
            for k in range(-kmax, kmax + 1):
                if math.gcd(k, d) == 1 and abs(F(k, d)) <= bound:
                    yield F(k, d)
        d += 1


def finite_points(cs) -> list[Fraction]:
    """Oracle for the complete finite-orbit basepoint list."""
    return sorted(x for x in admissible_grid(cs) if closure(cs, x)[0])


def exact_period(c: Fraction, x: Fraction, n: int) -> bool:
    y = x
    for k in range(1, n + 1):
        y = y * y + c
        if y == x:
            return k == n
    return False


def preperiodic(c: Fraction, x: Fraction) -> bool:
    return closure((c,), x)[0]


# -- per-verdict checks -----------------------------------------------------

def check_orbit(cs, P, res: dict, expect_finite: bool) -> list[str]:
    """A finite verdict must give exactly the closure of P (a stable set
    containing P); an infinite one must give a witness word whose image of
    P violates a guard.  The verdict must match the oracle's."""
    out = []
    if res["verdict"] == "finite":
        orbit = {F(q) for q in res["orbit"]}
        ok, true_orbit = closure(cs, P)
        if not ok or orbit != true_orbit:
            out.append(f"orbit of {P} under {cs} is not the returned set")
    elif res["verdict"] == "infinite":
        w = res["witness"]
        Q = P
        for i in w["word"]:
            Q = Q * Q + cs[i]
        if Q != F(w["point"]) or guard(cs[w["map"]], Q) != w["reason"]:
            out.append(f"witness for {P} under {cs} does not replay")
    else:
        out.append(f"unknown verdict {res['verdict']!r}")
    if (res["verdict"] == "finite") != expect_finite:
        out.append(f"verdict {res['verdict']} for {P} under {cs}, "
                   f"expected {'finite' if expect_finite else 'infinite'}")
    return out


def check_preperiodic(c, x, res: dict, expect: bool) -> list[str]:
    out = []
    if res["preperiodic"]:
        y = x
        for _ in range(res["tail_length"]):
            y = y * y + c
        cyc = [F(q) for q in res["cycle"]]
        if not cyc or y != cyc[0] or len(cyc) != res["cycle_length"] \
                or not exact_period(c, cyc[0], len(cyc)):
            out.append(f"cycle of {x} under x^2+{c} does not replay")
    else:
        g = F(res["guard"]["point"])
        y = x
        for _ in range(10_000):
            if y == g:
                break
            y = y * y + c
        if y != g or guard(c, g) != res["guard"]["reason"]:
            out.append(f"guard witness of {x} under x^2+{c} does not replay")
    if res["preperiodic"] != expect:
        out.append(f"preperiodic({c}, {x}) = {res['preperiodic']}, "
                   f"expected {expect}")
    return out


def check_mu(cs, res: dict, planted: dict) -> list[str]:
    """planted: {period: [points]} of cycles planted on the maps; the
    largest planted period is 3, the largest possible, so it is mu."""
    out = []
    wit = {int(n): [F(p) for p in pts]
           for n, pts in res["witnesses"].items()}
    if res["mu"] != max(planted):
        out.append(f"mu {res['mu']} for {cs}, expected {max(planted)}")
    if res["mu"] != max(wit, default=0):
        out.append(f"mu {res['mu']} disagrees with its witnesses for {cs}")
    for n, pts in wit.items():
        for p in pts:
            if not any(exact_period(c, p, n) for c in cs):
                out.append(f"witness {p} has no exact period {n} for {cs}")
    for n, pts in planted.items():
        missing = set(pts) - set(wit.get(n, ()))
        if missing:
            out.append(f"planted period-{n} points {sorted(missing)} "
                       f"missing for {cs}")
    if res["hypothesis_holds_up_to_6"] is not True:
        out.append(f"rational cycle of period 4..6 reported for {cs}")
    return out


def check_finite_points(cs, res: list, expect: list[Fraction]) -> list[str]:
    got = [F(e["basepoint"]) for e in res]
    out = []
    if got != expect:
        out.append(f"finite-orbit points of {cs}: {got}, expected {expect}")
    for e in res:
        P = F(e["basepoint"])
        ok, orbit = closure(cs, P)
        if not ok or orbit != {F(q) for q in e["orbit"]}:
            out.append(f"orbit of {P} under {cs} is not the returned set")
    return out


def check_search(spec, found: list) -> list[str]:
    """s = 3 on the 1/16 grid must be exactly the paper's two triples; every
    s = 2 hit must close by direct map application, and the paper's pairs
    (on the 1/16 grid) or the integral sharpness pair (on Z) must be among
    the hits."""
    s, d, n = spec
    hits = {tuple(F(c) for c in t["c"]): [F(p) for p in t["basepoints"]]
            for t in found}
    out = []
    if list(hits) != sorted(hits):
        out.append(f"search {spec}: hits not sorted")
    if s == 3:
        if {k: tuple(v) for k, v in hits.items()} != PAPER_TRIPLES:
            out.append(f"search {spec}: triples differ from the paper's")
        return out
    for cs, pts in hits.items():
        for P in pts:
            if not closure(cs, P)[0]:
                out.append(f"search {spec}: {P} under {cs} does not close")
    if d == 16:
        for pair in PAPER_PAIRS_16:
            if pair not in hits:
                out.append(f"search {spec}: paper pair {pair} missing")
    if d == 1:
        cs, P = SHARPNESS_PAIR
        if P not in hits.get(cs, []):
            out.append(f"search {spec}: sharpness pair missing")
    return out


def check_lemma(lemma_id: str, res: dict) -> list[str]:
    if res["verdict"] != "pass" or res["flags"]:
        return [f"lemma {lemma_id} verdict {res['verdict']}: {res['flags']}"]
    return []


def check_case(case: int, res: list) -> list[str]:
    """Every subcase passes, and every tuple it lets survive is one of the
    paper's triples (which case keeps which is checked over the pass, by
    ``check_survivors``)."""
    out = [f"case {case} subcase {r['subcase']} verdict {r['verdict']}: "
           f"{r['flags']}" for r in res if r["verdict"] != "pass" or r["flags"]]
    if not res:
        out.append(f"case {case}: no subcase reports")
    for t in res:
        for cs in t["survivors"]:
            if tuple(sorted(F(c) for c in cs)) not in PAPER_TRIPLES:
                out.append(f"case {case}: survivor {cs} is no paper triple")
    return out


def check_survivors(survivors: list) -> list[str]:
    got = {tuple(sorted(F(c) for c in cs)) for cs in survivors}
    if got != set(PAPER_TRIPLES):
        return [f"surviving triples {sorted(got)}, expected the paper's "
                f"{sorted(PAPER_TRIPLES)}"]
    return []


def check_four_map(res: dict, finite: list) -> list[str]:
    """The merged four-map set has no finite-orbit point: the oracle's
    basepoint list (``finite``) must be empty and the verdict must say so."""
    if finite or res["holds"] is not True:
        return [f"four-map exclusion {res['holds']}, oracle's finite-orbit "
                f"points {finite}"]
    return []


def check_corollary(res: dict) -> list[str]:
    """No integral c has a rational 3-cycle, and the sharpness pair has a
    finite orbit: both are the paper's, so the verdict must hold."""
    if res["holds"] is not True:
        return ["integral corollary does not hold"]
    return []


def check_groebner(res: dict, max_pairs: int,
                   max_coeff_bits: int) -> list[str]:
    """Criterion 7: a completed run gives the expected eliminant degree and
    membership; budget exhaustion is explicit and genuine -- the run went
    past the pair budget or produced a coefficient over the bit budget."""
    if res["status"] == "completed":
        if res["eliminant_degree"] != res["expected_degree"] \
                or res["membership_holds"] is not True:
            return [f"groebner {res['lemma']}: completed with degree "
                    f"{res['eliminant_degree']} / membership "
                    f"{res['membership_holds']}"]
        return []
    if res["status"] == "budget-exhausted":
        if res["pairs_done"] > max_pairs \
                or res["max_coeff_bits"] > max_coeff_bits:
            return []
        return [f"groebner {res['lemma']}: budget-exhausted after "
                f"{res['pairs_done']} pairs and {res['max_coeff_bits']} bits, "
                f"within the budget of {max_pairs} pairs and "
                f"{max_coeff_bits} bits"]
    return [f"groebner {res['lemma']}: unknown status {res['status']!r}"]
