"""Job lists of the two workloads, and the seeded query stream of
``orbits``.

A job is a JSON-ready dict naming one library call; it is all the worker
process sees.  Each job is paired with an expectation that stays in the
parent process and is checked by ``checks.check_job``.  Generation uses only
the benchmark's own arithmetic (``checks``), never quadorbits.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import checks
from checks import F

WORKLOADS = ("orbits", "verify")

# the criterion-9 searches, with s = 3 on the part |k| <= 21 of the 1/16
# grid that holds both exceptional triples: a seventh of the full grid's
# tuples, so that several passes fit in one run.  s = 4 only reruns s = 3
# and unions two hits.
SEARCH_SPECS = ((2, 16, 40), (3, 16, 21), (2, 1, 5))
LEMMA_IDS = ("2.1", "2.2", "2.3", "2.4", "2.5", "2.6")
GROEBNER_BUDGET = {"max_pairs": 120, "max_coeff_bits": 60_000}


# -- parametrizations (Walde-Russo for the 3-cycles) and paper families -----

def c_fixed(y):  # x^2 + c fixes (1 + y)/2 and (1 - y)/2
    return (1 - y * y) / 4


def c_two(z):  # 2-cycle {(-1 + z)/2, (-1 - z)/2}
    return -(3 + z * z) / 4


def c_three(t):  # 3-cycle through (t^3 + 2t^2 + t + 1) / (2t(t + 1))
    return -(t**6 + 2 * t**5 + 4 * t**4 + 8 * t**3 + 9 * t**2 + 4 * t + 1) \
        / (4 * t**2 * (t + 1) ** 2)


def x_three(t):
    return (t**3 + 2 * t**2 + t + 1) / (2 * t * (t + 1))


def cycle(c, x, n):
    out = [x]
    for _ in range(n - 1):
        out.append(out[-1] ** 2 + c)
    return out


FAMILIES = {  # parameter -> (maps, basepoint)
    "F-11a": lambda y: ([c_fixed(y), (-y * y - 4 * y - 3) / 4], (1 + y) / 2),
    "F-12a": lambda y: ([c_fixed(y), c_two(y)], (1 + y) / 2),
    "F-11b": lambda t: ([(t**4 - 18 * t**2 + 1) / (4 * (t * t - 1) ** 2),
                         (-3 * t**4 - 10 * t**2 - 3) / (4 * (t * t - 1) ** 2)],
                        (t * t + 4 * t - 1) / (2 * t * t - 2)),
    "F-22a": lambda t: ([(-7 * t**4 - 2 * t**2 - 7) / (4 * (t * t - 1) ** 2),
                         (-3 * t**4 - 10 * t**2 - 3) / (4 * (t * t - 1) ** 2)],
                        (-3 * t * t - 1) / (2 * t * t - 2)),
}
SPORADIC = [list(cs) for cs in checks.PAPER_TRIPLES] \
    + [list(p) for p in checks.PAPER_PAIRS_16]

# mu queries: a fixed list, because the cost of root-finding on the degree-64
# dynatomic polynomials varies by two orders of magnitude with the parameter
# and a seeded draw would make the run-to-run spread the seed's, not the
# code's.  It spans both regimes: t > 1 (tens of ms) and t in (0, 1) or
# t = -3/4 (about a second).
MU_SETS = (
    (("3", F(2)),), (("3", F(-3, 2)), ("2", F(1, 3))), (("3", F(5, 4)),),
    (("3", F(7)), ("1", F(1, 3))), (("3", F(-1, 6)),), (("3", F(1, 2)),),
    (("3", F(3, 2)), ("2", F(5, 7))), (("3", F(-3, 4)),),
)
# the query-stream mix: orbit and preperiodicity decisions, basepoint lists
# of small-height and of wide-grid sets; every CLI_EVERY-th query of a CLI
# verb goes through the CLI
N_ORBIT, N_PREP, N_FINITE, N_WIDE, CLI_EVERY = 900, 600, 40, 40, 5
# square-rich denominators that widen the admissible grid of a map set;
# both give grids that cost 20 to 50 ms to decide (2-core x86, Python 3.11)
WIDE_DENOMINATORS = (2**16, (2 * 3 * 5 * 7) ** 2)


def _rand_rat(rng, num: int, den: int) -> Fraction:
    return F(rng.randint(-num, num), rng.randint(1, den))


def _planted_set(rng, height: int):
    """A map set with a finite-orbit basepoint: a paper family at a seeded
    parameter of height at most ``height``, a sporadic tuple, or one map
    with a planted cycle.  Returns (maps, finite-orbit points to pick
    from)."""
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            fam = FAMILIES[rng.choice(sorted(FAMILIES))]
            try:
                cs, P = fam(_rand_rat(rng, height, height))
            except ZeroDivisionError:
                continue
            pts = [P]
        elif kind == 1:
            cs = rng.choice(SPORADIC)
            pts = [F(k, 4) for k in range(-7, 8)]
        elif kind == 2:
            y = _rand_rat(rng, height, height)
            cs, pts = [c_fixed(y)], [(1 + y) / 2, -(1 + y) / 2]
        else:
            z = _rand_rat(rng, height, height)
            cs, pts = [c_two(z)], [(-1 + z) / 2, (1 - z) / 2]
        if len(set(cs)) != len(cs):
            continue
        pts = [p for p in pts if checks.closure(cs, p)[0]]
        if pts:
            return cs, pts


def _random_point(rng, cs):
    """A point on (or just beyond) the admissible grid of cs."""
    G = math.gcd(*(c.denominator for c in cs))
    ds = [d for d in range(1, 65) if G % (d * d) == 0]
    d = rng.choice(ds)
    bound = int((min(abs(c) for c in cs) + 2) * d)
    return F(rng.randint(-bound, bound), d)


def _wide_set(rng, G: int):
    """Two maps with denominator G and 3/4 <= |c| <= 1, so the admissible
    grid, and the work to decide it, hardly depends on the seed."""
    cs = []
    while len(cs) < 2:
        k = rng.randint(3 * G // 4, G) * rng.choice((-1, 1))
        c = F(k, G)
        if c.denominator == G and c not in cs:
            cs.append(c)
    return cs


def _mu_set(spec):
    cs, planted = [], {}
    for period, p in spec:
        if period == "3":
            c = c_three(p)
            pts = cycle(c, x_three(p), 3)
        elif period == "2":
            c = c_two(p)
            pts = [(p - 1) / 2, (-1 - p) / 2]
        else:
            c = c_fixed(p)
            pts = [(1 + p) / 2, (1 - p) / 2]
        cs.append(c)
        planted.setdefault(int(period), []).extend(pts)
    return cs, planted


def orbit_queries(seed: int):
    """The seeded query stream: (jobs, expectations).

    ``N_ORBIT`` orbit decisions (planted basepoints and random points in
    turn) and ``N_PREP`` preperiodicity decisions (fixed-point, 2-cycle and
    random maps in turn; a planted or a random point); ``N_FINITE`` complete
    basepoint lists of planted small-height sets and ``N_WIDE`` of sets with
    square-rich denominators; the fixed ``MU_SETS``.  Every ``CLI_EVERY``-th
    query of each CLI verb goes through the CLI.  The seed draws the
    parameters and the order; the mix is fixed, so the latency quantiles
    fall inside the same kind of query whatever the seed.
    """
    rng = random.Random(seed)
    items = []
    for i in range(N_ORBIT):
        cs, pts = _planted_set(rng, 30)
        P = rng.choice(pts) if i % 2 else _random_point(rng, cs)
        items.append(({"op": "orbit", "maps": [str(c) for c in cs],
                       "point": str(P), "cli": i % CLI_EVERY == 0},
                      {"finite": checks.closure(cs, P)[0]}))
    for i in range(N_PREP):
        if i % 3 == 0:
            y = _rand_rat(rng, 40, 40)
            c, x = c_fixed(y), rng.choice(((1 + y) / 2, -(1 - y) / 2))
        elif i % 3 == 1:
            z = _rand_rat(rng, 40, 40)
            c, x = c_two(z), rng.choice(((z - 1) / 2, (1 - z) / 2))
        else:
            c = _rand_rat(rng, 40, 16)
        if i % 3 == 2 or i % 10 < 3:
            x = _random_point(rng, [c])
        items.append(({"op": "preperiodic", "c": str(c), "point": str(x),
                       "cli": i % CLI_EVERY == 0},
                      {"preperiodic": checks.preperiodic(c, x)}))
    for _ in range(N_FINITE):
        cs, _pts = _planted_set(rng, 6)
        items.append(({"op": "finite", "maps": [str(c) for c in cs]},
                      {"points": checks.finite_points(cs)}))
    for i in range(N_WIDE):
        cs = _wide_set(rng, WIDE_DENOMINATORS[i % len(WIDE_DENOMINATORS)])
        items.append(({"op": "finite", "maps": [str(c) for c in cs]},
                      {"points": checks.finite_points(cs)}))
    for i, spec in enumerate(MU_SETS):
        cs, planted = _mu_set(spec)
        items.append(({"op": "mu", "maps": [str(c) for c in cs],
                       "cli": i % CLI_EVERY == 0}, {"planted": planted}))
    rng.shuffle(items)
    return [j for j, _ in items], [e for _, e in items]


def verify_jobs():
    """The paper's re-derivation as the public calls ``verify_theorem()``
    makes, one job each: the six lemmas on the resultant route, the ten
    cases, the basepoint lists of the two triples, the four-map exclusion
    and the integral corollary; then criterion 7, ``groebner_route`` on
    each lemma with the budget above."""
    items = [({"op": "lemma", "lemma": lid}, None) for lid in LEMMA_IDS]
    items += [({"op": "case", "case": n}, None) for n in range(1, 11)]
    items += [({"op": "finite", "maps": [str(c) for c in cs]},
               {"points": list(pts)})
              for cs, pts in sorted(checks.PAPER_TRIPLES.items())]
    items += [({"op": "four_map"},
               {"points": checks.finite_points(checks.FOUR_MAPS)}),
              ({"op": "corollary"}, None)]
    items += [({"op": "groebner", "lemma": lid, **GROEBNER_BUDGET}, None)
              for lid in LEMMA_IDS]
    return [j for j, _ in items], [e for _, e in items]


def jobs_for(workload: str, seed: int):
    """(jobs, expectations) of one pass of a workload.  ``orbits`` is the
    searches followed by the seeded query stream; ``verify`` is the paper's
    fixed re-derivation, on the resultant route and then on the Groebner
    route."""
    if workload == "orbits":
        jobs, expects = orbit_queries(seed)
        searches = [{"op": "search", "spec": list(spec)}
                    for spec in SEARCH_SPECS]
        return searches + jobs, [None] * len(searches) + expects
    if workload == "verify":
        return verify_jobs()
    raise ValueError(f"unknown workload {workload!r}")


def digest(jobs) -> str:
    """SHA-256 of the canonical JSON of the job list."""
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_job(job: dict, expect, res) -> list[str]:
    """Problems with one verdict (an empty list when it is right)."""
    if isinstance(res, dict) and "error" in res:
        return [f"{job['op']} raised {res['error']}"]
    op = job["op"]
    if op == "orbit":
        cs = [F(c) for c in job["maps"]]
        return checks.check_orbit(cs, F(job["point"]), res, expect["finite"])
    if op == "preperiodic":
        return checks.check_preperiodic(F(job["c"]), F(job["point"]), res,
                                        expect["preperiodic"])
    if op == "mu":
        return checks.check_mu([F(c) for c in job["maps"]], res,
                               expect["planted"])
    if op == "finite":
        return checks.check_finite_points([F(c) for c in job["maps"]], res,
                                          expect["points"])
    if op == "search":
        return checks.check_search(tuple(job["spec"]), res)
    if op == "lemma":
        return checks.check_lemma(job["lemma"], res)
    if op == "case":
        return checks.check_case(job["case"], res)
    if op == "four_map":
        return checks.check_four_map(res, expect["points"])
    if op == "corollary":
        return checks.check_corollary(res)
    if op == "groebner":
        return checks.check_groebner(res, job["max_pairs"],
                                     job["max_coeff_bits"])
    return [f"unknown op {op!r}"]


def check_survivors(jobs: list, verdicts: list) -> list[str] | None:
    """The check of one pass that no single job carries: the tuples that
    survive the ten cases together must be exactly the paper's two triples.
    None for a job list without the cases."""
    cases = [v for j, v in zip(jobs, verdicts) if j["op"] == "case"]
    if not cases:
        return None
    if len(cases) != 10 or not all(isinstance(v, list) for v in cases):
        return ["surviving triples: not every case gave its reports"]
    return checks.check_survivors([t for v in cases for r in v
                                   for t in r["survivors"]])
