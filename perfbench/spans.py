"""Span tracing of quadorbits' public functions, installed from outside.

The tracer wraps, in every imported ``quadorbits`` module, the public
module-level functions (the module's ``__all__``, else every name without a
leading underscore, defined in that module) and the public methods of its
public classes, plus the few callables listed in ``EXTRA``.
Every module attribute that refers to a wrapped function is rebound to the
wrapper, so calls through ``from .x import f`` bindings are traced too.
``uninstall`` puts every original object back.

Each call is a span (name, start, end, parent span, job id).  Calls are
aggregated per (name, parent name) -- count, total time, self time -- so
memory stays bounded on hot boundaries such as ``monoid_orbit``; only the
first ``SPAN_CAP`` spans of each (name, parent) pair are kept individually.
Self time is a span's duration minus the time its child spans cover,
each child counted from the wrapper's entry to its exit: the tracer's own
bookkeeping is charged to no function's self time, so it shows in the
unattributed remainder of the pass instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "quadorbits"
ROOT = "<job>"
SPAN_CAP = 50

# boundaries outside the public API that carry measurable work: a
# constructor that reduces by a gcd, two helpers of the elimination and the
# entry point of the Groebner route
EXTRA = {
    "quadorbits.ratfunc": ("RatFunc.__init__",),
    "quadorbits.polynomials": ("bivariate_gcd",),
    "quadorbits.verifier.elimination": ("common_specialized_gcd",),
    "quadorbits.verifier.lemmas": ("groebner_route",),
}
# a sort key, called once per comparison (16M times in the six Groebner
# runs): a span per call would triple the traced time, so its cost stays
# in its callers' self time
SKIP = {"quadorbits.groebner": ("MonomialOrder.key",)}


def layer_of(module_name: str) -> str:
    """Layer name of a quadorbits module: its first component below the
    package, without a leading underscore (metric names start with a
    letter)."""
    parts = module_name.split(".")
    return parts[1].lstrip("_") if len(parts) > 1 else parts[0]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)


def _targets(mod):
    """(owner, attribute, raw descriptor, function, metric name) for each
    callable of ``mod`` that gets a wrapper."""
    modname = mod.__name__
    layer = layer_of(modname)
    extra = EXTRA.get(modname, ())
    names = _public_names(mod) + [n for n in extra if "." not in n]
    for name in dict.fromkeys(names):
        obj = vars(mod).get(name)
        if inspect.isfunction(obj) and obj.__module__ == modname:
            yield mod, name, obj, obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == modname:
            for attr, raw in vars(obj).items():
                qual = f"{obj.__name__}.{attr}"
                if (attr.startswith("_") and qual not in extra) \
                        or qual in SKIP.get(modname, ()):
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod,
                                                      classmethod)) else raw
                if inspect.isfunction(fn):
                    yield obj, attr, raw, fn, f"{layer}.{qual}"


class Tracer:
    """Collects spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name: str):
        stack = self._stack
        agg = self.agg
        spans = self.spans
        perf = time.perf_counter
        probe = PROBES.get(name)
        stats = self.stats.setdefault(name, {}) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = perf()
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, 0.0, self._next_id]
            stack.append(frame)
            result = err = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                pname = ROOT
                pid = None
                if parent is not None:
                    pname, pid = parent[0], parent[2]
                rec = agg.get((name, pname))
                if rec is None:
                    rec = agg[(name, pname)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if rec[0] <= SPAN_CAP:
                    spans.append((name, t0, t1, pid, frame[2], self.job))
                if probe is not None:
                    probe(stats, args, result, err)
                if parent is not None:
                    # the whole wrapper, bookkeeping included, is kept out
                    # of the parent's self time
                    parent[1] += perf() - entry
        return traced

    # -- install / uninstall ---------------------------------------------
    def install(self) -> int:
        """Wrap every target; returns the number of wrapped callables."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for owner, attr, raw, fn, name in list(_targets(mod)):
                wrapped = self._wrap(fn, name)
                wrappers[id(fn)] = wrapped
                self.wrapped.append(name)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                if owner is not mod:  # class attribute
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
        # rebind every module-level reference, including re-exports
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and inspect.isfunction(val):
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)
        return len(wrappers)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-function totals, per-(name, parent) aggregates, probe
        statistics and the kept individual spans, all JSON-ready."""
        funcs: dict[str, dict] = {}
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            f["calls"] += calls
            f["total_s"] += total
            f["self_s"] += self_s
        return {
            "wrapped": sorted(self.wrapped),
            "functions": funcs,
            "edges": [{"name": n, "parent": p, "calls": c, "total_s": t,
                       "self_s": s}
                      for (n, p), (c, t, s) in sorted(self.agg.items())],
            "stats": self.stats,
            "spans": [{"name": n, "start": a, "end": b, "parent": pid,
                       "id": sid, "job": job}
                      for n, a, b, pid, sid, job in self.spans],
        }


# -- probes: read return values and arguments at a few boundaries ---------

def _probe_finite(stats, args, result, exc):
    stats["finite"] = stats.get("finite", 0) + (
        result is not None and result.verdict == "finite")


def _probe_root_degree(stats, args, result, exc):
    stats["max_degree"] = max(stats.get("max_degree", 0), args[0].degree)


def _probe_resultant(stats, args, result, exc):
    if result is None:
        return
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.coeffs), default=0)
    stats["max_degree"] = max(stats.get("max_degree", 0), result.degree)
    stats["max_coeff_bits"] = max(stats.get("max_coeff_bits", 0), bits)


def _probe_completed(stats, args, result, exc):
    stats["completed"] = stats.get("completed", 0) + (exc is None)


PROBES = {
    "dynamics.monoid_orbit": _probe_finite,
    "roots.rational_roots": _probe_root_degree,
    "polynomials.resultant": _probe_resultant,
    "groebner.buchberger": _probe_completed,
}
