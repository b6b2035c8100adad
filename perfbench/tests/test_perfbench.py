"""Tests of the benchmark itself: tracing is transparent, inputs are
reproducible, and the verdict checks can fail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

import quadorbits.cli  # noqa: E402,F401
import quadorbits.verifier.lemmas  # noqa: E402,F401

# a small job list touching every worker operation
SMALL_JOBS = [
    {"op": "search", "spec": [2, 1, 5]},
    {"op": "groebner", "lemma": "2.4", "max_pairs": 5,
     "max_coeff_bits": 60_000},
    {"op": "mu", "maps": ["-301/144"], "cli": True},
    {"op": "mu", "maps": ["-301/144", "-1"]},
    {"op": "lemma", "lemma": "2.4"},
    {"op": "case", "case": 7},
    {"op": "four_map"},
    {"op": "corollary"},
]


def _snapshot() -> dict:
    """Identity of every attribute of every quadorbits module and of every
    class defined there."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("quadorbits"):
            continue
        for attr, val in vars(mod).items():
            snap[(name, attr)] = id(val)
            if inspect.isclass(val) and val.__module__ == name:
                for k, v in vars(val).items():
                    snap[(name, attr, k)] = id(v)
    return snap


def _small_stream():
    """The first 80 queries of a seeded stream, without the slow mu
    queries."""
    jobs, expects = workloads.orbit_queries(7)
    keep = [i for i, j in enumerate(jobs) if j["op"] != "mu"][:80]
    return [jobs[i] for i in keep], [expects[i] for i in keep]


def _verdicts(runner, jobs):
    return [Runner.verdict(job, runner.call(job)) for job in jobs]


def test_install_and_uninstall_leave_modules_identical():
    before = _snapshot()
    tracer = spans.Tracer()
    assert tracer.install() > 100
    assert _snapshot() != before
    tracer.uninstall()
    assert _snapshot() == before


def test_tracer_bookkeeping_stays_out_of_self_time(monkeypatch):
    """A parent calling a traced child is charged only its own work, not
    the child's wrapper: on a clock that only its work and a costly probe
    advance, the parent's self time is exactly its own work."""
    clock = [0.0]
    monkeypatch.setattr(spans, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))

    def probe(stats, args, result, exc):
        clock[0] += 1.0

    monkeypatch.setitem(spans.PROBES, "t.child", probe)
    tracer = spans.Tracer()

    def work():
        clock[0] += 0.5

    child = tracer._wrap(work, "t.child")

    def body():
        for _ in range(1000):
            clock[0] += 0.25
            child()

    tracer._wrap(body, "t.parent")()
    assert tracer.agg[("t.child", "t.parent")] == [1000, 500.0, 500.0]
    assert tracer.agg[("t.parent", spans.ROOT)][2] == 250.0


def test_traced_and_untraced_verdicts_are_identical():
    stream, expects = _small_stream()
    jobs = stream + SMALL_JOBS
    plain = _verdicts(Runner(), jobs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _verdicts(Runner(), jobs)
    finally:
        tracer.uninstall()
    assert traced == plain
    for job, expect, verdict in zip(stream, expects, plain):
        assert workloads.check_job(job, expect, verdict) == []
    funcs = tracer.summary()["functions"]
    for name in ("dynamics.monoid_orbit", "dynamics.mu_set", "cli.main",
                 "search.search", "groebner.buchberger",
                 "roots.rational_roots", "intpoly.zgcd"):
        assert funcs[name]["calls"] > 0, name
    assert 0 < tracer.stats["dynamics.monoid_orbit"]["finite"] \
        < funcs["dynamics.monoid_orbit"]["calls"]


def test_every_declared_metric_resolves():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    tracer.install()
    try:
        _verdicts(Runner(), SMALL_JOBS)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["setup_self_s"] = 0.0
    names = [m["name"] for m in bench["per_layer"]]
    traced = [{"wall_s": w, "trace": summary} for w in (2.0, 3.0, 4.0)]
    values = run.traced_metrics(names, [{"wall_s": 1.5}, {"wall_s": 2.5}],
                                traced)
    assert list(values) == names
    assert values["trace.overhead_ratio"] == 1.5
    with pytest.raises(run.BenchError):
        run.per_layer(["dynamics.no_such_function.calls"], summary, 2.0,
                      1.0)
    passes = [{"peak_rss_mb": 30.0, "latencies_ref": [0.001, 0.004, 1.0],
               "cpus_ref": [0.001, 0.003, 0.9]},
              {"peak_rss_mb": 32.0, "latencies_ref": [0.002, 0.002, 0.5],
               "cpus_ref": [0.002, 0.002, 0.5]},
              {"peak_rss_mb": 31.0, "latencies_ref": [0.003, 0.003, 0.6],
               "cpus_ref": [0.003, 0.003, 0.6]}]
    e2e = [m["name"] for m in bench["end_to_end"]]
    values = run.end_to_end(e2e, [0.3, 0.1, 0.2], passes)
    assert list(values) == e2e
    # each job at its median over the passes: 2 ms, 3 ms and 600 ms
    assert values["wall_s"] == pytest.approx(0.605)
    assert values["cpu_s"] == pytest.approx(0.605)
    assert values["query_p50_ms"] == pytest.approx(3.0)
    assert values["queries_per_s"] == pytest.approx(3 / 0.605)
    assert values["setup_s"] == 0.2 and values["peak_rss_mb"] == 31.0


def test_speed_probe_scales_to_reference_speed():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # probes at half speed around and inside [1.0, 1.5], then at full speed
    probe.starts = [0.95, 1.1, 1.3, 1.55, 3.0]
    probe.durations = [2 * ref, 2 * ref, 2 * ref, 2 * ref, ref]
    factor, inside = probe.scale(1.0, 1.5)
    assert factor == pytest.approx(0.5) and inside == pytest.approx(4 * ref)
    # no probe within the window: the nearest one
    assert probe.scale(2.0, 2.5) == (pytest.approx(0.5), 0)
    assert probe.scale(2.5, 2.8) == (pytest.approx(1.0), 0)
    assert probe.scale(5.0, 6.0) == (pytest.approx(1.0), 0)
    assert probe.scale(0.0, 0.1) == (pytest.approx(0.5), 0)
    # real samples give a usable factor
    probe.starts, probe.durations = [], []
    for _ in range(3):
        probe.sample()
    assert 0 < probe.scale(probe.starts[0], probe.starts[-1])[0]


def test_same_seed_gives_same_inputs():
    a = workloads.jobs_for("orbits", 3)
    assert workloads.digest(a[0]) == \
        workloads.digest(workloads.jobs_for("orbits", 3)[0])
    assert workloads.digest(a[0]) != \
        workloads.digest(workloads.jobs_for("orbits", 4)[0])
    assert a[1] == workloads.jobs_for("orbits", 3)[1]


def test_wrong_expected_answers_fail_the_checks():
    triples = [{"c": [str(c) for c in cs], "basepoints": [str(p) for p in ps]}
               for cs, ps in sorted(checks.PAPER_TRIPLES.items())]
    assert checks.check_search((3, 16, 40), triples) == []
    assert checks.check_search((3, 16, 40), triples[:1])
    wrong = [dict(triples[0], basepoints=triples[0]["basepoints"][1:]),
             triples[1]]
    assert checks.check_search((3, 16, 40), wrong)

    cs, P = [F(-5, 16), F(-13, 16), F(-21, 16)], F(1, 4)
    finite = {"verdict": "finite",
              "orbit": [str(F(k, 4)) for k in (-5, -3, -1, 1, 3, 5)]}
    assert checks.check_orbit(cs, P, finite, True) == []
    assert checks.check_orbit(cs, P, finite, False)
    assert checks.check_orbit(cs, P, dict(finite, orbit=finite["orbit"][1:]),
                              True)
    bogus = {"verdict": "infinite", "witness": {
        "point": "1/4", "map": 0, "reason": "escape-bound", "word": []}}
    assert checks.check_orbit(cs, P, bogus, False)

    assert checks.check_lemma("2.1", {"verdict": "pass", "flags": []}) == []
    assert checks.check_lemma("2.1", {"verdict": "flagged", "flags": ["x"]})
    case = [{"subcase": "1a", "verdict": "pass", "flags": [],
             "survivors": [triples[0]["c"]]}]
    assert checks.check_case(1, case) == []
    assert checks.check_case(1, [dict(case[0], survivors=[["-5/16",
                                                            "3/16"]])])
    assert checks.check_case(1, [dict(case[0], verdict="flagged")])
    jobs = [{"op": "case", "case": n} for n in range(1, 11)]
    verdicts = [case] + [[dict(case[0], survivors=[triples[1]["c"]])]] * 9
    assert workloads.check_survivors(jobs, verdicts) == []
    assert workloads.check_survivors(jobs, [case] * 10)
    assert workloads.check_survivors(jobs[1:], verdicts[1:])
    assert workloads.check_survivors([{"op": "four_map"}], [None]) is None
    assert checks.check_four_map({"holds": True}, []) == []
    assert checks.check_four_map({"holds": False}, [])
    assert checks.check_four_map({"holds": True}, [F(1, 4)])
    assert checks.check_corollary({"holds": True}) == []
    assert checks.check_corollary({"holds": False})

    c = workloads.c_three(F(2))
    pts = workloads.cycle(c, workloads.x_three(F(2)), 3)
    mu = {"mu": 3, "witnesses": {"3": [str(p) for p in sorted(pts)]},
          "hypothesis_holds_up_to_6": True}
    assert checks.check_mu([c], mu, {3: pts}) == []
    assert checks.check_mu([c], dict(mu, mu=2), {3: pts})
    assert checks.check_mu([c], mu, {3: pts + [F(1, 7)]})

    budget = (120, 60_000)
    done = {"lemma": "2.1", "status": "completed", "pairs_done": 0,
            "max_coeff_bits": 0, "eliminant_degree": 4, "expected_degree": 4,
            "membership_holds": True}
    assert checks.check_groebner(done, *budget) == []
    assert checks.check_groebner(dict(done, eliminant_degree=5), *budget)
    spent = dict(done, status="budget-exhausted", pairs_done=121,
                 max_coeff_bits=900)
    assert checks.check_groebner(spent, *budget) == []
    assert checks.check_groebner(dict(spent, pairs_done=40,
                                      max_coeff_bits=60_001), *budget) == []
    # giving up early, or miscounting pairs, is not budget exhaustion
    assert checks.check_groebner(dict(spent, pairs_done=1), *budget)
    assert checks.check_groebner(dict(spent, pairs_done=120), *budget)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
