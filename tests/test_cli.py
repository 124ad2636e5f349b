import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subell.cli
from subell import certificates as certs
from subell.cli import main
from subell.linalg import PositiveDefinitenessLost
from subell.oracles import problem_to_dict, save_problem
from subell.solver import SolverBreakdown
from subell.support import DependentConstraints, SlaterViolation

from helpers import max_affine_ball, saddle_problem


@pytest.fixture()
def problem_path(tmp_path):
    prob = max_affine_ball(np.random.default_rng(42), 2)
    path = tmp_path / "problem.json"
    save_problem(prob, path)
    return str(path)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()]
    header_meta = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return header_meta, rows


def test_missing_problem_file_exits_2(tmp_path, capsys):
    rc = main(["solve", "--problem", str(tmp_path / "nope.json"), "--iters", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_solve_writes_trace_and_summary(problem_path, tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    rc = main(["solve", "--problem", problem_path, "--variant", "subgrad-ellipsoid",
               "--iters", "100", "--out", out])
    assert rc == 0
    meta, rows = _read_csv(out)
    assert meta == ["# seed=0"]
    assert len(rows) == 100
    assert list(rows[0].keys()) == ["k", "variant", "productive", "f_value",
                                    "sliding_gap", "cert_gap", "R_k", "avrad",
                                    "Gamma_k", "wall_time_us"]
    for row in rows:
        for col in ("f_value", "R_k", "avrad", "Gamma_k"):
            assert np.isfinite(float(row[col]))
    summary = (tmp_path / "trace.csv.summary.txt").read_text(encoding="utf-8")
    assert "termination: max-iter" in summary
    assert "iterations: 100" in summary
    assert "termination" in capsys.readouterr().out


def test_epsilon_target_echoed_as_delta(problem_path, tmp_path, capsys):
    from subell.oracles import load_problem
    from subell.solver import delta_from_target
    prob = load_problem(problem_path)
    rc = main(["solve", "--problem", problem_path, "--iters", "10",
               "--epsilon", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    want = delta_from_target(0.5, prob.inner_radius, prob.variation_bound)
    assert "epsilon_target: 0.5" in out
    assert format(want, ".17g") in out


def test_solve_deterministic_apart_from_wall_time(problem_path, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert main(["solve", "--problem", problem_path, "--iters", "50",
                     "--seed", "7", "--out", out]) == 0

    def strip_wall(path):
        _, rows = _read_csv(path)
        return [{k: v for k, v in row.items() if k != "wall_time_us"}
                for row in rows]

    assert strip_wall(out1) == strip_wall(out2)


def test_certify_pow2_checkpoints(problem_path, tmp_path):
    out = str(tmp_path / "cert.csv")
    rc = main(["certify", "--problem", problem_path, "--variant",
               "subgrad-ellipsoid", "--iters", "64", "--out", out,
               "--cadence", "pow2"])
    assert rc == 0
    _, rows = _read_csv(out + ".certs.csv")
    assert [int(r["k"]) for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    assert all(r["pathway"] == "preliminary" for r in rows)
    # reported certificate gap never exceeds the sliding gap at the checkpoint
    _, trace = _read_csv(out)
    for r in rows[:-1]:
        k = int(r["k"])
        cg = float(r["gap"])
        sg = float(trace[k]["sliding_gap"])
        assert cg <= sg + 1e-9
        assert float(trace[k]["cert_gap"]) == cg
    dump = json.loads((tmp_path / "cert.csv.certs.json").read_text())
    assert len(dump["checkpoints"]) == len(rows)
    assert all(len(c["weights"]) in (int(rows[i]["k"]), 64)
               for i, c in enumerate(dump["checkpoints"]))


def test_certify_integer_stride_cadence(problem_path, tmp_path):
    out = str(tmp_path / "stride.csv")
    rc = main(["certify", "--problem", problem_path, "--variant",
               "subgrad-ellipsoid", "--iters", "50", "--out", out,
               "--cadence", "16"])
    assert rc == 0
    _, rows = _read_csv(out + ".certs.csv")
    assert [int(r["k"]) for r in rows] == [16, 32, 48, 50]


def test_certify_standard_ellipsoid_pathway(problem_path, tmp_path):
    out = str(tmp_path / "ell.csv")
    rc = main(["certify", "--problem", problem_path, "--variant", "ellipsoid",
               "--iters", "32", "--out", out])
    assert rc == 0
    _, rows = _read_csv(out + ".certs.csv")
    assert all(r["pathway"] == "min-width" for r in rows)
    assert "rho" in rows[0] and "gap_bound" in rows[0]
    assert all(float(r["rho"]) > 0 for r in rows)
    late = rows[-1]
    assert late["gap_bound"] != ""  # rho < r by k = 32 at n = 2
    assert float(late["gap"]) <= float(late["gap_bound"]) + 1e-9


def test_compare_single_variant_and_byte_identity(problem_path, tmp_path):
    out1, out2 = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
    for out in (out1, out2):
        rc = main(["compare", "--problem", problem_path, "--variants",
                   "subgradient", "--iters", "20", "--seed", "3", "--out", out])
        assert rc == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    _, rows = _read_csv(out1)
    assert list(rows[0].keys()) == ["k", "subgradient_f", "subgradient_sliding_gap",
                                    "subgradient_avrad", "subgradient_R_k"]


def test_compare_emits_regime_report(problem_path, tmp_path, capsys):
    out = str(tmp_path / "cmp.csv")
    rc = main(["compare", "--problem", problem_path,
               "--variants", "subgradient,ellipsoid,subgrad-ellipsoid",
               "--iters", "60", "--out", out])
    assert rc == 0
    report = (tmp_path / "cmp.csv.report.txt").read_text(encoding="utf-8")
    assert "crossover window" in report
    assert "dimension: 2" in report
    printed = capsys.readouterr().out
    assert "crossover" in printed


def test_environment_variables_feed_defaults(problem_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUBELL_PROBLEM", problem_path)
    monkeypatch.setenv("SUBELL_ITERS", "7")
    rc = main(["solve"])
    assert rc == 0
    assert "iterations: 7 (requested 7)" in capsys.readouterr().out
    # explicit flags win over the environment
    rc = main(["solve", "--iters", "3"])
    assert rc == 0
    assert "iterations: 3 (requested 3)" in capsys.readouterr().out


@pytest.mark.parametrize("name, value", [
    ("ITERS", "abc"), ("SEED", "1.5"), ("EPSILON", "0.1x"), ("DELTA", "x"),
])
def test_malformed_environment_value_is_a_usage_error(problem_path, monkeypatch,
                                                      capsys, name, value):
    monkeypatch.setenv("SUBELL_" + name, value)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", problem_path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"--{name.lower()}" in err and repr(value) in err


def test_flag_wins_over_malformed_environment_value(problem_path, monkeypatch, capsys):
    monkeypatch.setenv("SUBELL_ITERS", "abc")
    assert main(["solve", "--problem", problem_path, "--iters", "3"]) == 0
    assert "iterations: 3 (requested 3)" in capsys.readouterr().out


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--epsilon", "nan"),
    ("solve", "--epsilon", "inf"),
    ("solve", "--epsilon", "-1"),
    ("solve", "--delta", "nan"),
    ("solve", "--delta", "-1"),
    ("solve", "--delta", "inf"),
    ("certify", "--delta", "nan"),
    ("compare", "--epsilon", "inf"),
    ("compare", "--variants", ","),
    ("compare", "--variants", " , "),
])
def test_bad_termination_target_exits_2(problem_path, capsys, command, flag, value):
    rc = main([command, "--problem", problem_path, "--iters", "5", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


def test_zero_delta_disables_early_termination(problem_path, capsys):
    assert main(["solve", "--problem", problem_path, "--iters", "5",
                 "--delta", "0"]) == 0
    assert "termination: max-iter" in capsys.readouterr().out


def _reference_fmt(value) -> str:
    """The cell text of every CLI CSV: empty for None, 1/0 for a bool, 17
    significant digits for a float, ``str`` otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


CELLS = [None, True, False, 0, -7, 2 ** 70, "subgrad-ellipsoid", "", float("nan"),
         float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3,
         1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0,
         np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.int64(-3),
         np.bool_(True), np.float32(0.1)]


def test_csv_writer_bytes_equal_joined_cells(tmp_path):
    rng = np.random.default_rng(7)
    # rows of mixed cell types, more than two blocks' worth, so several row
    # formats and a partial last block are written
    rows = [tuple(CELLS[j] for j in rng.integers(0, len(CELLS), size=5))
            for _ in range(2 * subell.cli.CSV_BLOCK_ROWS + 17)]
    rows.append(tuple(CELLS[:5]))
    path = tmp_path / "cells.csv"
    subell.cli._write_csv(path, ("a", "b", "c", "d", "e"), iter(rows), 11)
    want = "# seed=11\na,b,c,d,e\n" + "".join(
        ",".join(_reference_fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")
    for value in CELLS:
        assert subell.cli._fmt(value) == _reference_fmt(value), repr(value)


def test_unknown_variant_in_compare_fails_cleanly(problem_path, capsys):
    rc = main(["compare", "--problem", problem_path, "--variants", "sketchy",
               "--iters", "5"])
    assert rc == 2
    assert "unknown variant" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    PositiveDefinitenessLost("negative radicand"),
    SolverBreakdown("localizer radius went negative"),
    SlaterViolation("cut leaves no interior"),
    DependentConstraints("A^T H A is numerically singular"),
    np.linalg.LinAlgError("Matrix is not positive definite"),
], ids=lambda e: type(e).__name__)
def test_numerical_failure_exits_3(problem_path, monkeypatch, capsys, exc):
    def failing_run(*args, **kwargs):
        raise exc

    monkeypatch.setattr(subell.cli, "run", failing_run)
    for command in ("solve", "certify", "compare"):
        assert main([command, "--problem", problem_path, "--iters", "5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert str(exc) in err and "Traceback" not in err


DELETE = object()
NAN, INF = float("nan"), float("inf")
MUTATIONS = [
    ("R-nan", "max", ["R"], NAN),
    ("r-inf", "max", ["r"], INF),
    ("V-nan", "max", ["V"], NAN),
    ("fstar-nan", "max", ["fstar"], NAN),
    ("radius-nan", "max", ["set", "radius"], NAN),
    ("radius-missing", "max", ["set", "radius"], DELETE),
    ("row-b-nan", "max", ["objective", "rows", 0, "b"], NAN),
    ("row-a-missing", "max", ["objective", "rows", 0, "a"], DELETE),
    ("row-not-object", "max", ["objective", "rows", 0], [1.0, 2.0]),
    ("rows-number", "max", ["objective", "rows"], 3),
    ("x0-missing", "max", ["x0"], DELETE),
    ("objective-list", "max", ["objective"], [1.0]),
    ("set-list", "max", ["set"], [0.5]),
    ("dim-null", "max", ["dim"], None),
    ("dim-fraction", "max", ["dim"], 2.5),
    ("dim-string", "max", ["dim"], "2"),
    ("R-string", "max", ["R"], "2.0"),
    ("row-a-string", "max", ["objective", "rows", 0, "a", 0], "0.5"),
    # a boolean among numbers, which numpy would cast to 1 or 0
    ("x0-bool", "max", ["x0", 0], False),
    ("row-a-bool", "max", ["objective", "rows", 0, "a", 1], True),
    ("row-b-bool", "max", ["objective", "rows", 1, "b"], False),
    ("center-bool", "max", ["set", "center", 0], True),
    ("M-bool", "saddle", ["objective", "M", 0, 0], True),
    ("radii-nan", "saddle", ["set", "radii", 1], NAN),
    ("radii-number", "saddle", ["set", "radii"], 1.0),
    ("centers-nan", "saddle", ["set", "centers", 0, 0], NAN),
    ("centers-missing", "saddle", ["set", "centers"], DELETE),
]


@pytest.mark.parametrize("kind,path,value",
                         [pytest.param(*m[1:], id=m[0]) for m in MUTATIONS])
def test_malformed_problem_file_exits_2(tmp_path, capsys, kind, path, value):
    rng = np.random.default_rng(3)
    prob = max_affine_ball(rng, 2) if kind == "max" else saddle_problem(rng, 1, 1)
    d = problem_to_dict(prob)
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d), encoding="utf-8")
    assert main(["solve", "--problem", str(bad), "--iters", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_saddle_preliminary_certificates_exit_0(tmp_path):
    path = tmp_path / "saddle.json"
    save_problem(saddle_problem(np.random.default_rng(0), 1, 1), path)
    assert main(["certify", "--problem", str(path), "--variant", "ellipsoid-cert",
                 "--iters", "200", "--out", str(tmp_path / "s.csv")]) == 0


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_module(name):
    """``perfbench/<name>.py`` imported without writing bytecode next to it."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _traced_layer_metrics(tmp_path, command):
    """The per-layer metrics of ``perfbench/child.py`` tracing ``command`` on
    the benchmark's seed-1 n=5 problem."""
    tracer = _perfbench_module("tracer")
    problem = tmp_path / "problem.json"
    _perfbench_module("generate").write_problem(problem, 1, 5)
    measure = tmp_path / "measure.json"
    out = tmp_path / "trace.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(measure), "1", "--",
         *command, "--problem", str(problem), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(measure.read_text(encoding="utf-8"))
    assert Path(record["subell_file"]).resolve().is_relative_to(ROOT / "src")
    return tracer.layer_metrics(record["trace"], out.stat().st_size)


def _assert_every_layer_metric(metrics):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # trace.overhead_s compares traced with untraced commands, in run.py
    want = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == want
    assert all(math.isfinite(v) for v in metrics.values())


def test_traced_command_reports_every_layer_metric(tmp_path):
    """A traced benchmark command yields every per-layer metric the benchmark
    declares.  The tracer skips a function it cannot find where its caller
    looks it up, and skipping drops that layer's metrics without an error,
    so moving or renaming a traced name shows up here as missing keys."""
    _assert_every_layer_metric(_traced_layer_metrics(
        tmp_path, ["solve", "--variant", "subgrad-ellipsoid", "--iters", "20"]))


@pytest.mark.parametrize("command", [
    ["certify", "--variant", "subgrad-ellipsoid", "--iters", "20", "--cadence", "5"],
    ["certify", "--variant", "ellipsoid", "--iters", "20"],
], ids=["preliminary", "min-width"])
def test_traced_certify_reports_every_layer_metric(tmp_path, command):
    """The same for both certificate pathways, whose backward sweep is one
    ``augment`` call per command."""
    metrics = _traced_layer_metrics(tmp_path, command)
    _assert_every_layer_metric(metrics)
    assert metrics["certificates.augment_calls"] == 1
    assert metrics["certificates.backward_steps"] == 20
    if command[2] == "ellipsoid":
        # the min-width state chain is a real call where the tracer hooks it
        assert metrics["solver.reconstruct_state_us"] > 0


# the two healthy runs whose backward direction cancels to rounding noise
# part-way back; before the sweep zeroed such a direction, the Gram scalars of
# the leftover noise broke Cauchy-Schwarz and the certificate pass raised
CANCELLED_DIRECTION_CASES = {
    "box-subgrad-ellipsoid": ({
        "kind": "max-of-affine", "dim": 2, "x0": [0.0, 0.0], "R": 2.0,
        "set": {"type": "box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]},
        "objective": {"rows": [
            {"a": [-1.1669466026729662, -1.8620382937446358], "b": 0.15353624045239866},
            {"a": [-0.12486587813767527, 0.5870451961453662], "b": -0.07942651090401012},
            {"a": [-0.16868475783186446, -0.7145363062737409], "b": -0.024446158303762955},
            {"a": [-0.7720605051886429, -1.1148160916252035], "b": -0.005121537415196036},
            {"a": [2.2325577438311486, 3.104345495498214], "b": -0.20271303312565278}]},
        "r": 0.5, "V": 5.407638123055293, "xstar": [0.0, 0.0]},
        "subgrad-ellipsoid", 206),
    "quadratic-ellipsoid-cert": ({
        "kind": "quadratic-over-ball", "dim": 3, "x0": [0, 0, 0], "R": 1.0,
        "set": {"type": "ball", "center": [0, 0, 0], "radius": 0.5},
        "objective": {
            "P": [[1.4705954492417834, 0.9934029462401024, -0.4472631713431489],
                  [0.9934029462401024, 1.770870040748744, -0.5949438510898581],
                  [-0.4472631713431489, -0.5949438510898581, 0.5607173008261078]],
            "q": [-1.1734968971109359, -0.8584852028573179, -0.29293163466586425]},
        "r": 0.5, "V": 4.348126855959194},
        "ellipsoid-cert", 265),
}


@pytest.mark.parametrize("case", sorted(CANCELLED_DIRECTION_CASES))
def test_cancelled_direction_certifies(tmp_path, case):
    from subell.oracles import problem_from_dict
    from subell.solver import Schedule, StrategyConfig, reconstruct_state, run, sliding_gap

    description, variant, iters = CANCELLED_DIRECTION_CASES[case]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(description), encoding="utf-8")
    out = tmp_path / "c.csv"
    assert main(["certify", "--problem", str(path), "--variant", variant,
                 "--iters", str(iters), "--out", str(out)]) == 0
    _, rows = _read_csv(str(out) + ".certs.csv")
    assert [row["pathway"] for row in rows] == ["preliminary"] * len(rows)
    prob = problem_from_dict(description)
    res = run(prob, StrategyConfig.for_variant(variant, prob.dim,
                                               schedule=Schedule("decay")), iters)
    state = None
    for row in rows:
        state = reconstruct_state(prob, res.records, int(row["k"]), res.state, start=state)
        assert float(row["gap"]) <= sliding_gap(state) + 1e-9, row["k"]
    # the final checkpoint's direction cancels part-way back, and the sweep
    # zeroes it there
    start = certs.Checkpoint.at(res.records, iters, certs.PRELIMINARY)
    mus, S0 = certs.augment(res.records, columns=start.columns)
    assert not np.any(S0) and not np.all(mus[0])
