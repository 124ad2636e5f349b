"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the repository root; the CLI commands import subell from ``src``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from generate import max_affine_ball, write_problem  # noqa: E402
from tracer import LAYER_UNITS, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL = run.Workload(4, ("certify", "--variant", "subgrad-ellipsoid", "--iters", "64",
                         "--cadence", "16"), "max-iter")


def _cli(tmp_path, problem_path, workload):
    out = str(tmp_path / "trace.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "subell.cli", *workload.cli, "--problem", str(problem_path),
         "--out", out],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.BLAS_ENV),
        capture_output=True, text=True, check=False)
    return proc, out


def test_generator_is_deterministic_per_seed():
    a, b = max_affine_ball(7, 12), max_affine_ball(7, 12)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(max_affine_ball(8, 12)) != json.dumps(a)


def test_generator_plants_the_optimum():
    p = max_affine_ball(3, 10)
    A = np.array([r["a"] for r in p["objective"]["rows"]])
    b = np.array([r["b"] for r in p["objective"]["rows"]])
    xstar = np.array(p["xstar"])
    assert A.shape == (20, 10)
    assert np.linalg.norm(xstar) < p["set"]["radius"]
    assert abs(np.max(A @ xstar + b) - p["fstar"]) < 1e-12
    pts = np.random.default_rng(0).standard_normal((200, 10))
    assert np.all(np.max(pts @ A.T + b, axis=1) >= p["fstar"] - 1e-12)


def test_checks_pass_on_real_outputs_and_catch_a_corrupted_certificate(tmp_path):
    problem = write_problem(tmp_path / "p.json", 1, SMALL.n)
    proc, out = _cli(tmp_path, tmp_path / "p.json", SMALL)
    radius = problem["set"]["radius"]
    assert checks.check_outputs(proc.returncode, proc.stdout, proc.stderr, out,
                                "max-iter", True, radius) == []

    certs_path = out + ".certs.csv"
    text = Path(certs_path).read_text(encoding="utf-8")
    trace = checks.read_csv(out)
    row = checks.read_csv(certs_path)[0]
    raised = repr(2.0 * float(trace[int(row["k"])]["sliding_gap"]))
    Path(certs_path).write_text(text.replace(row["gap"], raised, 1), encoding="utf-8")
    problems = checks.check_outputs(proc.returncode, proc.stdout, proc.stderr, out,
                                    "max-iter", True, radius)
    assert any("above sliding gap" in p for p in problems)


def test_checks_reject_exit_code_traceback_and_wrong_termination(tmp_path):
    write_problem(tmp_path / "p.json", 2, SMALL.n)
    proc, out = _cli(tmp_path, tmp_path / "p.json", SMALL)
    args = (out, "max-iter", True, 0.5)
    assert checks.check_outputs(1, proc.stdout, proc.stderr, *args) == ["exit code 1"]
    tb = 'Traceback (most recent call last):\n  File "x.py", line 1, in <module>\n'
    assert checks.check_outputs(0, proc.stdout, tb, *args) == ["traceback on stderr"]
    assert checks.check_outputs(0, proc.stdout, "", out, "gap-threshold", True, 0.5)


def test_nonzero_exit_counts_as_failed(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    runner = run.Runner(ROOT, SMALL, work, [{"set": {"radius": 0.5}, "fstar": 0.0}],
                        deadline=time.monotonic() + 120)
    assert runner.command(False, 0) is None  # problem0.json was never written: exit 2
    assert (runner.attempted, len(runner.failures)) == (1, 1)
    assert runner.failures[0].startswith("exit code 2")

    runner.problems = [write_problem(runner.problem_path(0), 1, SMALL.n)]
    assert runner.command(False, 0) is not None
    assert (runner.attempted, len(runner.failures)) == (2, 1)


def test_layer_self_time_from_spans():
    spans = [("cli.main", 0.0, 10.0, -1), ("solver.run", 1.0, 9.0, 0),
             ("oracles.oracle", 2.0, 3.0, 1), ("solver.step", 3.0, 5.0, 1),
             ("oracles.oracle", 5.0, 6.0, 1), ("solver.step", 6.0, 8.0, 1)]
    counters = {"solver.iterations": 2, "oracles.productive": 1}
    m = layer_metrics({"spans": spans, "counters": counters, "history_bytes": None,
                       "installed": ["solver.run", "solver.step", "oracles.oracle"]}, 0)
    assert m["cli.self_s"] == 2.0
    assert m["solver.run_self_us"] == 1e6  # (8 - 6) s over 2 iterations
    assert m["solver.step_us"] == 2e6
    assert m["oracles.productive_frac"] == 0.5
    assert "linalg.top_eigenpair_s" not in m  # not installed: absent


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name
