"""subell benchmark: drive the ``subell`` CLI on generated problems.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a subell checkout.  Each command runs in a fresh child
process (``child.py``) with BLAS pinned to one thread, one child at a time,
for about S seconds, cycling over a pool of problems generated from the seed.
Every command's outputs are checked (``checks.py``).  With ``--trace 0`` the
end-to-end metrics are reported: timings as medians over the commands,
accuracies as medians over the problems.  With ``--trace 1`` untraced and
traced commands alternate, and the per-layer metrics of the traced ones are
reported as medians, together with the tracing overhead.  The last line of
stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from generate import write_problem  # noqa: E402
from tracer import LAYER_UNITS, layer_metrics  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0   # every run ends well inside the 180 s a run may take
POOL = 6              # problems per run; the accuracy metrics vary per problem
TRACED_MINIMUM = 4    # commands in a traced run: two untraced, two traced

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "best_f_err": "objective", "final_gap": "objective"}
ACCURACY = ("best_f_err", "final_gap")   # deterministic per problem


@dataclass(frozen=True)
class Workload:
    n: int
    cli: tuple[str, ...]
    termination: str

    @property
    def certify(self) -> bool:
        return self.cli[0] == "certify"


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "solve-n400": Workload(
        400, ("solve", "--variant", "subgrad-ellipsoid", "--iters", "400"), "max-iter"),
    "certify-n100": Workload(
        100, ("certify", "--variant", "subgrad-ellipsoid", "--iters", "2000",
              "--cadence", "250"), "max-iter"),
    "solve-to-eps-n30": Workload(
        30, ("solve", "--variant", "subgrad-ellipsoid", "--epsilon", "0.1",
             "--iters", "200000"), "gap-threshold"),
    "certify-minwidth-n60": Workload(
        60, ("certify", "--variant", "ellipsoid", "--iters", "2000",
             "--cadence", "pow2"), "max-iter"),
}


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        import numpy
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        openblas = None
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, env=dict(os.environ,
                                             GIT_CEILING_DIRECTORIES=str(root.parent)))
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas": openblas,
        "child_env": BLAS_ENV,
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "seed": seed,
        "load": "closed loop: one benchmark process runs one child command at a time",
    }


class Runner:
    """Runs and checks the CLI commands of one workload."""

    def __init__(self, root: Path, workload: Workload, work: Path, problems: list[dict],
                 deadline: float):
        self.root, self.workload, self.work = root, workload, work
        self.problems = problems
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.attempted = 0
        self.failures: list[str] = []

    def problem_path(self, index: int) -> Path:
        return self.work / f"problem{index}.json"

    def command(self, traced: bool, index: int, iters: str | None = None) -> dict | None:
        """Run one command on problem ``index``; return its measurements, or
        None if it failed."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        out = str(out_dir / "trace.csv")
        measure = out_dir / "measure.json"
        cli = list(self.workload.cli)
        if iters is not None:
            cli[cli.index("--iters") + 1] = iters
        args = [sys.executable, str(HERE / "child.py"), str(measure), "1" if traced else "0",
                "--", *cli, "--problem", str(self.problem_path(index)), "--out", out]
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(args, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(f"timed out after {timeout:.0f} s")
        wl, problem = self.workload, self.problems[index]
        expect = "max-iter" if iters is not None else wl.termination
        broken = checks.check_outputs(proc.returncode, proc.stdout, proc.stderr, out, expect,
                                      wl.certify, problem["set"]["radius"])
        if broken:
            return self._fail("; ".join(broken[:3]) + "\n" + proc.stderr[-2000:])
        try:
            with open(measure, encoding="utf-8") as fh:
                m = json.load(fh)
        except (OSError, ValueError) as exc:
            return self._fail(f"no measurements: {exc}")
        if not Path(m["subell_file"]).resolve().is_relative_to(self.root / "src"):
            return self._fail(f"subell imported from {m['subell_file']}, not this checkout")
        m["problem"] = index
        m["best_f_err"] = checks.best_f_err(out, problem["fstar"])
        m["final_gap"] = checks.final_gap(out, proc.stdout, wl.certify)
        if traced:
            out_bytes = sum(p.stat().st_size for p in out_dir.iterdir()
                            if p.name.startswith("trace.csv"))
            m["layers"] = layer_metrics(m.pop("trace"), out_bytes)
        return m

    def _fail(self, why: str) -> None:
        self.failures.append(why)
        return None


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    count = len(samples)
    if count < 20:
        return f"n={count}; no percentile above the median has 10 samples beyond it"
    p = math.floor(100 * (count - 10) / count)
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"n={count}; p{p} = {value:.4f}"


def measure_commands(runner: Runner, seconds: float, traced: bool) -> tuple[list, list]:
    """Commands until the next one would end after ``seconds``.

    Untraced runs cycle over the problems; traced runs alternate untraced and
    traced commands on each problem.  Returns the measurements of the
    untraced and of the traced commands that passed their checks.
    """
    plain, tagged = [], []
    minimum = TRACED_MINIMUM if traced else POOL
    t0 = time.monotonic()
    while True:
        k = runner.attempted
        use_trace = traced and k % 2 == 1
        m = runner.command(use_trace, (k // 2 if traced else k) % POOL)
        if m is not None:
            (tagged if use_trace else plain).append(m)
        n = runner.attempted
        projected = (time.monotonic() - t0) * (n + 1) / n
        if n >= minimum and projected > seconds or time.monotonic() >= runner.deadline:
            return plain, tagged


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool) -> int:
    wl = WORKLOADS[name]
    started = time.monotonic()
    work = HERE / "work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = [write_problem(work / f"problem{i}.json", seed, wl.n, i)
                    for i in range(POOL)]
        runner = Runner(root, wl, work, problems, started + RUN_LIMIT_S)
        env = environment(root, seed)
        # warm the page cache and the interpreter's imports; not measured
        runner.command(False, 0, iters="2")
        runner.attempted, runner.failures = 0, []
        ticks0 = cpu_ticks()
        plain, tagged = measure_commands(runner, seconds, traced)
        ticks1 = cpu_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for why in runner.failures:
        print(f"FAILED: {why}", file=sys.stderr)
    if not plain or (traced and not tagged):
        print("error: no command passed its checks; no result", file=sys.stderr)
        return 1

    if traced:
        metrics = _traced_metrics(plain, tagged)
    else:
        metrics = _end_to_end_metrics(plain)
    failed = len(runner.failures)
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        env["cpu_steal_share"] = round((ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 4)

    print(f"# workload {name}: subell {' '.join(wl.cli)} at n={wl.n}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# commands attempted {runner.attempted}, failed {failed}, "
          f"failed_frac {failed / runner.attempted:.4g}")
    if not traced:
        for key in ("wall_s", "cpu_s", "setup_s"):
            samples = [m[key] for m in plain]
            print(f"# {key} median of {tail_percentile(samples)}; samples: "
                  + " ".join(f"{x:.4f}" for x in samples))
        if wl.certify:
            print("# cert_gap (gap of the final certificate) = final_gap")
    for key in sorted(metrics):
        print(f"{key:40s} {metrics[key]!r:>26} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _end_to_end_metrics(plain: list[dict]) -> dict:
    """Timings: median over commands.  Accuracy: median over problems."""
    metrics = {key: statistics.median(m[key] for m in plain) for key in END_TO_END_UNITS}
    per_problem = {m["problem"]: m for m in plain}
    for key in ACCURACY:
        metrics[key] = statistics.median(m[key] for m in per_problem.values())
    return metrics


def _traced_metrics(plain: list[dict], tagged: list[dict]) -> dict:
    names = sorted(set().union(*(m["layers"] for m in tagged)))
    metrics = {k: statistics.median(m["layers"][k] for m in tagged if k in m["layers"])
               for k in names}
    metrics["trace.overhead_s"] = (statistics.median(m["wall_s"] for m in tagged)
                                   - statistics.median(m["wall_s"] for m in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "subell" / "cli.py").is_file():
        print(f"error: {root} holds no subell source tree (src/subell/cli.py)",
              file=sys.stderr)
        return 2
    return run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
