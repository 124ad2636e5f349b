"""Span tracing around subell's public functions, and the layer metrics
derived from the spans.

``Tracer.install`` replaces each traced function with a wrapper at the place
its caller looks it up: ``cli`` imports ``run`` and ``reconstruct_state`` by
name, ``certificates`` imports ``dual_multipliers``, ``top_eigenpair`` and
``spd_inverse`` by name, and the solver calls ``problem.oracle`` and
``problem.f_value`` as methods.  A target that no longer exists is skipped,
which makes the metrics that need it absent instead of failing the run.

Spans are kept in memory as ``(name, start, end, parent)`` and written out
once, after the command returns.  ``layer_metrics`` turns them into per-layer
numbers in the benchmark's parent process.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

import numpy as np

MIB = float(1 << 20)


def _count_productive(tracer, args, result):
    tracer.counters["oracles.productive"] += bool(result.productive)


def _count_run(tracer, args, result):
    tracer.counters["solver.iterations"] += len(result.records)
    tracer.run_results.append(result)


def _count_augment(tracer, args, result):
    tracer.counters["certificates.backward_steps"] += len(args[0])
    tracer.counters["certificates.mu_nonzero"] += int(np.count_nonzero(result[0]))


def _count_branch(tracer, args, result):
    mu1, mu2 = result
    if mu1 > 0.0:
        branch = "both" if mu2 > 0.0 else "cut1"
    else:
        branch = "cut2" if mu2 > 0.0 else "inactive"
    tracer.counters["support.branch." + branch] += 1


# (module where the caller looks the function up, attribute path, span name,
#  counter update run on the tracer with each call's arguments and result)
TARGETS = (
    ("subell.cli", "load_problem", "oracles.load_problem", None),
    ("subell.oracles", "Problem.oracle", "oracles.oracle", _count_productive),
    ("subell.oracles", "Problem.f_value", "oracles.f_value", None),
    ("subell.cli", "run", "solver.run", _count_run),
    ("subell.solver", "step", "solver.step", None),
    ("subell.solver", "sliding_gap", "solver.sliding_gap", None),
    ("subell.cli", "sliding_gap", "solver.sliding_gap", None),
    ("subell.cli", "reconstruct_state", "solver.reconstruct_state", None),
    ("subell.certificates", "certify_from_preliminary", "certificates.certify", None),
    ("subell.certificates", "certify_standard_ellipsoid", "certificates.certify", None),
    ("subell.certificates", "augment", "certificates.augment", _count_augment),
    ("subell.certificates", "gap", "certificates.gap", None),
    ("subell.certificates", "residual", "certificates.residual", None),
    ("subell.certificates", "dual_multipliers", "support.dual_multipliers", _count_branch),
    ("subell.certificates", "top_eigenpair", "linalg.top_eigenpair", None),
    ("subell.certificates", "spd_inverse", "linalg.spd_inverse", None),
)

# every per-layer metric with its unit; trace.overhead_s is computed by run.py
LAYER_UNITS = {
    "solver.step_us": "us", "solver.history_mb": "MB", "solver.run_self_us": "us",
    "solver.sliding_gap_us": "us", "solver.iterations": "count",
    "solver.reconstruct_state_us": "us",
    "oracles.oracle_calls": "count", "oracles.oracle_us": "us",
    "oracles.productive_frac": "ratio", "oracles.f_value_us": "us", "oracles.load_s": "s",
    "certificates.augment_calls": "count", "certificates.backward_steps": "count",
    "certificates.backward_us_per_step": "us", "certificates.certify_s": "s",
    "certificates.gap_us": "us", "certificates.mu_nonzero_frac": "ratio",
    "support.dual_multipliers_calls": "count", "support.dual_multipliers_us": "us",
    "support.branch.inactive": "count", "support.branch.cut1": "count",
    "support.branch.cut2": "count", "support.branch.both": "count",
    "linalg.top_eigenpair_calls": "count", "linalg.top_eigenpair_s": "s",
    "linalg.spd_inverse_s": "s",
    "cli.self_s": "s", "cli.out_mb": "MB",
    "trace.overhead_s": "s",
}

COUNTERS = ("oracles.productive", "solver.iterations",
            "certificates.backward_steps", "certificates.mu_nonzero",
            "support.branch.inactive", "support.branch.cut1",
            "support.branch.cut2", "support.branch.both")


class Tracer:
    """Collects spans and counters for one traced command."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.installed: set[str] = set()
        self.run_results: list = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, name, observe in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            setattr(owner, attr, self.wrap(name, fn, observe))
            self.installed.add(name)

    def history_bytes(self):
        """Bytes held by the arrays of every recorded history step, or None
        when the records are not dataclasses."""
        total = 0
        for result in self.run_results:
            for rec in result.records:
                if not dataclasses.is_dataclass(rec):
                    return None
                for field in dataclasses.fields(rec):
                    value = getattr(rec, field.name)
                    if isinstance(value, np.ndarray):
                        total += value.nbytes
        return total

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "installed": sorted(self.installed),
                "history_bytes": self.history_bytes()}


def _aggregate(spans):
    """Per span name: (calls, total seconds, seconds covered by children)."""
    calls, total, child = {}, {}, {}
    for name, start, end, parent in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= 0:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0.0) + (end - start)
    return calls, total, child


def layer_metrics(trace: dict, out_bytes: int) -> dict:
    """Per-layer metrics of one traced command.

    ``trace`` is ``Tracer.dump()`` plus the root span ``cli.main``.  A metric
    whose span was not installed is left out.
    """
    spans = [tuple(s) for s in trace["spans"]]
    c = trace["counters"]
    have = set(trace["installed"])
    calls, total, child = _aggregate(spans)

    def n(name):
        return calls.get(name, 0)

    def mean_us(name):
        return total.get(name, 0.0) / n(name) * 1e6 if n(name) else 0.0

    def self_s(name):
        return total.get(name, 0.0) - child.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    if "solver.run" in have:
        iters = c["solver.iterations"]
        m["solver.iterations"] = iters
        m["solver.run_self_us"] = ratio(self_s("solver.run"), iters) * 1e6
        if trace.get("history_bytes") is not None:
            m["solver.history_mb"] = trace["history_bytes"] / MIB
    if "solver.step" in have:
        m["solver.step_us"] = mean_us("solver.step")
    if "solver.sliding_gap" in have:
        m["solver.sliding_gap_us"] = mean_us("solver.sliding_gap")
    if "solver.reconstruct_state" in have:
        m["solver.reconstruct_state_us"] = mean_us("solver.reconstruct_state")
    if "oracles.oracle" in have:
        m["oracles.oracle_calls"] = n("oracles.oracle")
        m["oracles.oracle_us"] = mean_us("oracles.oracle")
        m["oracles.productive_frac"] = ratio(c["oracles.productive"], n("oracles.oracle"))
    if "oracles.f_value" in have:
        m["oracles.f_value_us"] = mean_us("oracles.f_value")
    if "oracles.load_problem" in have:
        m["oracles.load_s"] = total.get("oracles.load_problem", 0.0)
    if "certificates.augment" in have:
        steps = c["certificates.backward_steps"]
        m["certificates.augment_calls"] = n("certificates.augment")
        m["certificates.backward_steps"] = steps
        m["certificates.backward_us_per_step"] = \
            ratio(total.get("certificates.augment", 0.0), steps) * 1e6
        m["certificates.mu_nonzero_frac"] = ratio(c["certificates.mu_nonzero"], steps)
    if "certificates.certify" in have:
        m["certificates.certify_s"] = total.get("certificates.certify", 0.0)
    if "certificates.gap" in have:
        m["certificates.gap_us"] = mean_us("certificates.gap")
    if "support.dual_multipliers" in have:
        m["support.dual_multipliers_calls"] = n("support.dual_multipliers")
        m["support.dual_multipliers_us"] = mean_us("support.dual_multipliers")
        for branch in ("inactive", "cut1", "cut2", "both"):
            m["support.branch." + branch] = c["support.branch." + branch]
    if "linalg.top_eigenpair" in have:
        m["linalg.top_eigenpair_calls"] = n("linalg.top_eigenpair")
        m["linalg.top_eigenpair_s"] = total.get("linalg.top_eigenpair", 0.0)
    if "linalg.spd_inverse" in have:
        m["linalg.spd_inverse_s"] = total.get("linalg.spd_inverse", 0.0)
    m["cli.self_s"] = self_s("cli.main")
    m["cli.out_mb"] = out_bytes / MIB
    return m
