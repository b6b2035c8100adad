"""The quadorbits benchmark.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout; quadorbits is imported from its
``src`` directory.  The workload's inputs are generated from ``--seed``
before any timing; every measured pass then runs in a fresh interpreter
(``worker.py``), one closed-loop client with workers=1, and its verdicts are
checked against answers that do not come from the code under test
(``checks.py``).  Passes repeat until ``--seconds`` would be exceeded (at
least one), and each job's time is its median over the passes, scaled to
reference speed (``speed.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs untraced and traced passes in turn and reports the per-layer metrics.
The last line of standard output is the JSON result; the full record
(per-pass numbers, input digest, span aggregates) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 170.0  # every run ends well within 180 s
# set-up-only interpreters before the first pass and after each pass,
# besides each pass's own: spread over the run, they sample the machine's
# slow and fast spells as the passes do
SETUPS_FIRST, SETUPS_PER_PASS = 8, 4


class BenchError(Exception):
    pass


def child(request: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON reply."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({"root": str(ROOT), **request}),
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded the time limit ({e.timeout:.0f} s)")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles, over the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def check_pass(jobs, expects, reply) -> list[list[str]]:
    """The problems with each verdict of one pass (an empty list for a
    right verdict): one entry per job, and one more for the pass-level
    check of the surviving triples where the job list has the cases."""
    verdicts = reply["verdicts"]
    found = [workloads.check_job(job, expect, verdicts[i])
             if i < len(verdicts) else ["no verdict returned"]
             for i, (job, expect) in enumerate(zip(jobs, expects))]
    survivors = workloads.check_survivors(jobs, verdicts)
    return found if survivors is None else found + [survivors]


def median_per_job(passes, key: str) -> list[float]:
    """Each job's median ``key`` time over the run's passes."""
    return [statistics.median(ts) for ts in zip(*(p[key] for p in passes))]


def end_to_end(names, setups, passes) -> dict:
    """The end-to-end metrics of a run.

    A query is one job: one library call or CLI invocation, issued by one
    closed-loop client.  Every job runs once in each pass; its time is its
    median over the passes of its time at reference speed (``speed.py``).
    ``wall_s`` and ``cpu_s`` are the sums of those times, the latency
    quantiles are taken over them and ``setup_s`` is the median of the
    run's set-ups at reference speed.  ``peak_rss_mb`` is the median over
    passes.
    """
    lat = median_per_job(passes, "latencies_ref")
    wall = sum(lat)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": sum(median_per_job(passes, "cpus_ref")),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": 1e3 * percentile(lat, 0.5),
        "query_p99_ms": 1e3 * percentile(lat, 0.99),
        "queries_per_s": len(lat) / wall,
    }
    return {n: values[n] for n in names}


def per_layer(names, summary: dict, traced_wall: float,
              overhead_ratio: float) -> dict:
    """Resolve each per-layer metric name against one traced pass.

    ``<layer>.<stat>`` sums over the layer's functions;
    ``<layer>.<function>.<stat>`` reads one function; ``calls`` and
    ``self_s`` come from the spans, other stats from the probes (a count,
    whose base is the function's ``calls``, or a maximum).  ``trace.*``
    describe the tracing itself.
    """
    funcs, stats = summary["functions"], summary["stats"]
    wrapped = set(summary["wrapped"])
    layers = {n.split(".")[0] for n in wrapped}
    job_self = sum(f["self_s"] for f in funcs.values()) \
        - summary["setup_self_s"]
    special = {
        "trace.overhead_ratio": overhead_ratio,
        "trace.coverage_ratio": job_self / traced_wall,
        "trace.unattributed_s": traced_wall - job_self,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        prefix, stat = name.rsplit(".", 1)
        if prefix in layers:
            rows = [f for n, f in funcs.items() if n.split(".")[0] == prefix]
            out[name] = sum(r[stat] for r in rows)
            continue
        if prefix not in wrapped:
            raise BenchError(f"per-layer metric {name!r} names no traced "
                             f"function")
        f = funcs.get(prefix, {"calls": 0, "self_s": 0.0})
        if stat in ("calls", "self_s"):
            out[name] = f[stat]
        else:
            out[name] = stats.get(prefix, {}).get(stat, 0)
    return out


def traced_metrics(names, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of a traced run: the median of each over the
    traced passes, and the tracing overhead as the ratio of the median
    traced to the median untraced wall time."""
    ratio = statistics.median(p["wall_s"] for p in traced) \
        / statistics.median(p["wall_s"] for p in plain)
    rows = [per_layer(names, p["trace"], p["wall_s"], ratio) for p in traced]
    return {n: statistics.median(r[n] for r in rows) for n in names}


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load": "closed loop, one client, workers=1"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + LIMIT_S

    if not (ROOT / "src" / "quadorbits" / "__init__.py").is_file():
        print(f"no quadorbits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    jobs, expects = workloads.jobs_for(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "jobs": len(jobs),
              "input_digest": workloads.digest(jobs), "machine": machine()}
    child({"mode": "setup"}, deadline)  # compile bytecode, warm the file cache

    checked: list[list[str]] = []  # problems per verdict attempted
    passes, setups = [], []
    start = time.monotonic()
    took = 0.0
    if not args.trace:
        setups += [child({"mode": "setup", "probe": True}, deadline)
                   for _ in range(SETUPS_FIRST)]
    while True:
        t0 = time.monotonic()
        if args.trace:  # an untraced and a traced pass, verdicts compared
            pair = [child({"mode": "pass", "jobs": jobs, "trace": t},
                          deadline) for t in (False, True)]
            found = [check_pass(jobs, expects, r) for r in pair]
            for problems, a, b in zip(found[1], pair[0]["verdicts"],
                                      pair[1]["verdicts"]):
                if a != b:
                    problems.append("traced and untraced verdicts differ")
            passes.append(pair)
            checked += found[0] + found[1]
        else:
            reply = child({"mode": "pass", "jobs": jobs, "probe": True},
                          deadline)
            passes.append(reply)
            setups.append(reply)
            checked += check_pass(jobs, expects, reply)
            setups += [child({"mode": "setup", "probe": True}, deadline)
                       for _ in range(SETUPS_PER_PASS)]
        now = time.monotonic()
        took = max(took, now - t0)  # the next pass may be as slow as any
        if now - start + took > args.seconds or now + took > deadline:
            break
    if args.trace:
        plain = [p for p, _ in passes]
        traced = [t for _, t in passes]
        values = traced_metrics(units, plain, traced)
        record.update(untraced_wall_s=[p["wall_s"] for p in plain],
                      traced_wall_s=[t["wall_s"] for t in traced],
                      trace=traced[0]["trace"])
    else:
        values = end_to_end(units, [s["setup_ref_s"] for s in setups],
                            passes)
        walls = [p["wall_s"] for p in passes]
        record.update(setups=[
            {k: s[k] for k in ("setup_s", "setup_ref_s", "probe_samples")}
            for s in setups], passes=[
            {k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb",
                               "latencies", "latencies_ref",
                               "probe_samples")}
            for p in passes], query_samples=sum(len(p["latencies"])
                                                for p in passes),
            wall_spread=spread(walls) if len(walls) > 1 else None)
        print(f"{len(walls)} passes, wall_s from {min(walls):.3f} to "
              f"{max(walls):.3f} s" + (f", quartile spread "
                                       f"{record['wall_spread']:.3f}"
                                       if len(walls) > 1 else ""))

    attempted = len(checked)
    failed = sum(map(bool, checked))
    problems = [p for found in checked for p in found]
    record.update(attempted=attempted, failed=failed, problems=problems[:50],
                  metrics=values)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"input digest {record['input_digest'][:16]}, "
          f"fail ratio {failed}/{attempted}; record in "
          f"{out_file.relative_to(ROOT)}")
    for p in problems[:10]:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
