"""One measured pass, in a fresh interpreter.

Reads a request from standard input -- {"root", "mode", "trace", "probe",
"jobs"} -- and writes one JSON object to standard output.  ``mode``
"setup" only imports quadorbits from ``<root>/src`` and loads the catalog;
"pass" then runs the jobs one after another (one closed-loop client,
workers=1) and reports the wall and CPU time of each job, and its verdict.
With ``trace`` the public functions are wrapped by ``spans.Tracer`` before
the catalog loads.  With ``probe`` the set-up and job times are also given
at reference speed (``speed.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

PROBES_AROUND = 5  # probe samples taken just before and just after the work


def _cpu() -> float:
    """CPU time of this process (to the nanosecond) and of its reaped
    children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` will not do: Linux carries it over from the parent through
    fork and exec, so it would read the benchmark's own (growing) size
    whenever that is the larger.  ``VmHWM`` is the high-water mark of the
    memory image exec gave this interpreter."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _orbit_dict(res) -> dict:
    if res.verdict == "finite":
        return {"verdict": "finite", "orbit": [str(q) for q in res.orbit]}
    return {"verdict": res.verdict,
            "witness": {"point": str(res.witness.point),
                        "map": res.witness.map_index,
                        "reason": res.witness.reason,
                        "word": list(res.witness_word or ())}}


def _cli_orbit(data: dict) -> dict:
    if data["verdict"] == "finite":
        return {"verdict": "finite", "orbit": data["orbit"]}
    w = data["witness"]
    return {"verdict": data["verdict"],
            "witness": {"point": w["point"], "map": w["map"] - 1,
                        "reason": w["reason"],
                        "word": [int(ch) - 1 for ch in w["word"]]}}


def _prep_dict(rep) -> dict:
    if rep.preperiodic:
        return {"preperiodic": True, "tail_length": rep.tail_length,
                "cycle_length": rep.cycle_length,
                "cycle": [str(q) for q in rep.cycle]}
    return {"preperiodic": False,
            "guard": {"point": str(rep.guard.point),
                      "reason": rep.guard.reason}}


def _mu_dict(rep) -> dict:
    return {"mu": rep.mu,
            "witnesses": {str(n): [str(p) for p in pts]
                          for n, pts in rep.witnesses.items()},
            "hypothesis_holds_up_to_6": not any(rep.higher_periods.values())}


def _at_reference_speed(probe, intervals, times, cpus) -> dict:
    """The set-up and job times, wall and CPU, scaled to reference speed
    (``speed.py``); the first interval is the set-up."""
    wall, cpu = [], []
    for (a, b), t, c in zip(intervals, times, cpus):
        factor, inside = probe.scale(a, b)
        wall.append(max(t - inside, 0.0) * factor)
        cpu.append(max(c - inside, 0.0) * factor)
    return {"setup_ref_s": wall[0], "latencies_ref": wall[1:],
            "cpus_ref": cpu[1:], "probe_samples": len(probe.durations)}


class Runner:
    """Turns jobs into library calls (timed) and raw results into the JSON
    verdicts the checks read (untimed)."""

    def __init__(self):
        from fractions import Fraction

        from quadorbits import cli, dynamics, search
        from quadorbits.groebner import Budget
        from quadorbits.verifier import cases, lemmas, theorem

        # modules, not functions: calls resolve at call time, so they go
        # through the trace wrappers when those are installed
        self.Fraction = Fraction
        self.cli, self.dyn, self.search = cli, dynamics, search
        self.cases, self.lemmas, self.theorem = cases, lemmas, theorem
        self.Budget = Budget

    def _maps(self, job):
        return self.dyn.MapSet([self.Fraction(c) for c in job["maps"]])

    def call(self, job: dict):
        op = job["op"]
        if job.get("cli"):
            if op == "preperiodic":
                argv = ["preperiodic", "--c", job["c"], "--point", job["point"]]
            else:
                argv = [op, "--maps", ",".join(job["maps"])]
                if op == "orbit":
                    argv += ["--point", job["point"]]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.cli.main(argv + ["--format", "json"])
            return ("cli", buf.getvalue())
        if op == "orbit":
            return self.dyn.monoid_orbit(self._maps(job),
                                         self.Fraction(job["point"]))
        if op == "preperiodic":
            return self.dyn.is_preperiodic(
                self.dyn.QuadMap(self.Fraction(job["c"])),
                self.Fraction(job["point"]))
        if op == "mu":
            return self.dyn.mu_set(self._maps(job))
        if op == "finite":
            return self.dyn.finite_orbit_points(self._maps(job))
        if op == "search":
            return self.search.search(self.search.SearchSpec(*job["spec"]),
                                      workers=1)
        if op == "lemma":
            return self.lemmas.verify_lemma(job["lemma"])
        if op == "case":
            return self.cases.verify_theorem_case(job["case"])
        if op == "four_map":
            return self.theorem.four_map_exclusion()
        if op == "corollary":
            return self.theorem.corollary_integral_check()
        if op == "groebner":
            budget = self.Budget(max_pairs=job["max_pairs"],
                                 max_coeff_bits=job["max_coeff_bits"])
            return self.lemmas.groebner_route(
                self.lemmas.lemma_setup(job["lemma"]), budget)
        raise ValueError(f"unknown op {op!r}")

    @staticmethod
    def verdict(job: dict, raw):
        op = job["op"]
        if isinstance(raw, tuple) and raw[0] == "cli":
            data = json.loads(raw[1])
            if op == "orbit":
                return _cli_orbit(data)
            if op == "preperiodic":
                return data
            return {k: data[k] for k in ("mu", "witnesses",
                                         "hypothesis_holds_up_to_6")}
        if op == "orbit":
            return _orbit_dict(raw)
        if op == "preperiodic":
            return _prep_dict(raw)
        if op == "mu":
            return _mu_dict(raw)
        if op == "finite":
            return [{"basepoint": str(r.basepoint),
                     "orbit": [str(q) for q in r.orbit]} for r in raw]
        if op == "search":
            return [{"c": [str(c) for c in t.cs],
                     "basepoints": [str(p) for p in t.basepoints]} for t in raw]
        if op == "lemma":
            return {"verdict": raw.verdict, "flags": raw.flags}
        if op == "case":
            return [{"subcase": r.subcase, "verdict": r.verdict,
                     "flags": r.flags,
                     "survivors": [t["c"] for t in r.surviving_tuples]}
                    for r in raw]
        if op in ("four_map", "corollary"):
            return {"holds": raw["holds"]}
        if op == "groebner":
            return {"lemma": job["lemma"], "status": raw.status,
                    "pairs_done": raw.pairs_done,
                    "max_coeff_bits": raw.max_coeff_bits,
                    "eliminant_degree": raw.eliminant_degree,
                    "expected_degree": raw.expected_degree,
                    "membership_holds": raw.membership_holds}
        raise ValueError(f"unknown op {op!r}")


def main() -> int:
    req = json.load(sys.stdin)
    out = sys.stdout
    sys.stdout = sys.stderr  # keep stray library output off the result
    root = os.path.realpath(req["root"])
    sys.path.insert(0, os.path.join(root, "src"))

    probe = None
    if req.get("probe"):
        import speed
        probe = speed.SpeedProbe()
        for _ in range(PROBES_AROUND):
            probe.sample()
        probe.start()
    t0 = time.perf_counter()
    import quadorbits.cli  # noqa: F401  (imports every layer)
    import quadorbits.verifier.lemmas  # noqa: F401
    from quadorbits import families
    tracer = None
    if req.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.job = "setup"
    families.catalog()
    t1 = time.perf_counter()
    setup_s = t1 - t0
    src = os.path.realpath(quadorbits.__file__)
    if not src.startswith(os.path.join(root, "src") + os.sep):
        print(f"quadorbits imported from {src}, not from {root}/src",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if req["mode"] == "pass":
        runner = Runner()
        jobs = req["jobs"]
        setup_self = sum(r[2] for r in tracer.agg.values()) if tracer else 0
        raws, lat, cpus, spans_ = [], [], [], []
        perf = time.perf_counter
        w0 = perf()
        for i, job in enumerate(jobs):
            if tracer:
                tracer.job = i
            c0 = _cpu()
            q0 = perf()
            try:
                raws.append(runner.call(job))
            except Exception as e:  # a raised verdict is a failed verdict
                raws.append(e)
            q1 = perf()
            lat.append(q1 - q0)
            cpus.append(_cpu() - c0)
            spans_.append((q0, q1))
        wall = perf() - w0
        if tracer:
            tracer.uninstall()
        verdicts = []
        for job, raw in zip(jobs, raws):
            if isinstance(raw, Exception):
                verdicts.append({"error": f"{type(raw).__name__}: {raw}"})
            else:
                try:
                    verdicts.append(Runner.verdict(job, raw))
                except (KeyError, ValueError, TypeError, AttributeError) as e:
                    verdicts.append({"error": f"unreadable verdict: {e!r}"})
        result.update(
            wall_s=wall, latencies=lat, cpus=cpus, spans=spans_,
            verdicts=verdicts,
            peak_rss_mb=_peak_rss_mb())
        if tracer:
            result["trace"] = tracer.summary()
            result["trace"]["setup_self_s"] = setup_self
    if probe:
        probe.stop()
        for _ in range(PROBES_AROUND):
            probe.sample()
        result.update(_at_reference_speed(
            probe, [(t0, t1)] + result.get("spans", []),
            [setup_s] + result.get("latencies", []),
            [0.0] + result.get("cpus", [])))
    result.pop("spans", None)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
