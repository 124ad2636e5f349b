"""Check that two source trees give the same CLI outputs.

Usage::

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Writes problem 0 of the benchmark's seed 1 at n = 10, 30, 60, 100 and 400
(``perfbench/generate.py`` of this checkout, imported without writing
bytecode), a small bilinear saddle problem, a small affine monotone
variational inequality and a max-of-affine problem over a box, each drawn
from a fixed seed, and a small max-of-affine problem with a zero row.  It
runs the same ten ``subell`` commands against the ``src/`` of each tree
with one BLAS thread, and compares every output file and each command's
stdout byte for byte.  Besides the benchmark's five commands, a terminal
``certify`` covers the terminal certificate pathway, a saddle ``solve``
covers trace rows with empty cells (no ``f_value``), a VI ``certify``
covers a run whose ``<c, z - x>`` and ``<c, Hc>`` differ in the last bits,
which the benchmark's max-of-affine problems do not show, a box
``certify`` covers the box's separator, whose minimizer lies outside the
box so that many steps separate, and a ``certify`` on the problem with a
zero row covers a run that ends on a zero subgradient, with preliminary
checkpoints before its terminal one.  Only the ``wall_time_us`` column of
trace CSVs and the ``problem:`` line of summaries are left out of the
comparison.  Prints ``same`` or ``DIFF`` per output and exits 1 on any
DIFF.  Under a DIFF in a certificate file (``.certs.json`` or
``.certs.csv``) one more line says how far the command's certificates
moved, read from its two ``.certs.json``: whether every checkpoint keeps
its support, the largest weight change relative to the checkpoint's
largest weight, and the largest relative gap change.  A command that exits
non-zero on either tree is printed as ``FAIL <command> (<tree>)`` and also
makes the exit code 1, even when both trees fail alike.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# (name, problem, CLI arguments before --problem and --out)
COMMANDS = (
    ("compare-n30", "max-affine-n30", ("compare", "--iters", "3000")),
    ("certify-minwidth-n60", "max-affine-n60", ("certify", "--variant", "ellipsoid",
                                                "--iters", "2000", "--cadence", "pow2")),
    ("certify-n100", "max-affine-n100", ("certify", "--variant", "subgrad-ellipsoid",
                                         "--iters", "2000", "--cadence", "250")),
    ("solve-n400", "max-affine-n400", ("solve", "--variant", "subgrad-ellipsoid",
                                       "--iters", "400")),
    ("solve-to-eps-n30", "max-affine-n30", ("solve", "--variant", "subgrad-ellipsoid",
                                            "--epsilon", "0.1", "--iters", "200000")),
    ("certify-terminal-n10", "max-affine-n10", ("certify", "--variant", "ellipsoid-cert",
                                                "--epsilon", "0.3", "--iters", "20000")),
    ("solve-saddle-n6", "saddle-n6", ("solve", "--variant", "subgrad-ellipsoid",
                                      "--iters", "500")),
    ("certify-vi-n6", "vi-n6", ("certify", "--variant", "subgrad-ellipsoid",
                                "--iters", "200", "--cadence", "25")),
    ("certify-box-n8", "box-n8", ("certify", "--variant", "subgrad-ellipsoid",
                                  "--iters", "400", "--cadence", "50")),
    ("certify-zero-n4", "zero-n4", ("certify", "--variant", "ellipsoid-cert",
                                    "--iters", "200", "--cadence", "2")),
)


def _generator():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _saddle_problem(nu: int = 3, nv: int = 3) -> dict:
    """Description of f(u, v) = u.Mv over two balls of radius 0.5, started
    at the pair of ball centers, which are off the origin so the first
    field value is nonzero."""
    rng = np.random.default_rng([SEED, nu, nv])
    M = rng.standard_normal((nu, nv))
    cu = 0.3 * rng.standard_normal(nu)
    cv = 0.3 * rng.standard_normal(nv)
    return {
        "kind": "saddle-bilinear",
        "dim": nu + nv,
        "x0": cu.tolist() + cv.tolist(),
        "R": 1.0,
        "set": {"type": "ball-product", "centers": [cu.tolist(), cv.tolist()],
                "radii": [0.5, 0.5]},
        "objective": {"M": M.tolist()},
    }


def _vi_problem(n: int = 6) -> dict:
    """Description of the operator V(x) = Mx, M skew, over the unit ball,
    started off the center, where the solution is."""
    rng = np.random.default_rng([SEED, n])
    S = rng.standard_normal((n, n))
    u = rng.standard_normal(n)
    return {
        "kind": "vi-affine-monotone",
        "dim": n,
        "x0": (0.2 * (u / np.linalg.norm(u))).tolist(),
        "R": 1.5,
        "set": {"type": "ball", "center": [0.0] * n, "radius": 1.0},
        "objective": {"M": (S - S.T).tolist(), "q": [0.0] * n},
    }


def _box_problem(n: int = 8, m: int = 16) -> dict:
    """Description of max_i <a_i, x - p> over the box [-0.5, 0.5]^n, with
    slopes of zero mean, so that f >= 0 with its minimum 0 at
    p = (1, 0, ..., 0), outside the box; started at the center."""
    rng = np.random.default_rng([SEED, n])
    A = rng.standard_normal((m, n))
    A -= A.mean(axis=0)
    p = np.zeros(n)
    p[0] = 1.0
    return {
        "kind": "max-of-affine",
        "dim": n,
        "x0": [0.0] * n,
        "R": 2.0,
        "set": {"type": "box", "lower": [-0.5] * n, "upper": [0.5] * n},
        "objective": {"rows": [{"a": a.tolist(), "b": float(-(a @ p))} for a in A]},
    }


def _zero_problem() -> dict:
    """Description of max(0, x_1 + x_2 / 2) over the ball of radius 0.5 at
    0 in R^4, started at (0.3, 0, 0, 0): the oracle answers with the zero
    row once a test point has x_1 + x_2 / 2 <= 0, an exact solution."""
    return {
        "kind": "max-of-affine",
        "dim": 4,
        "x0": [0.3, 0.0, 0.0, 0.0],
        "R": 1.0,
        "set": {"type": "ball", "center": [0.0] * 4, "radius": 0.5},
        "objective": {"rows": [{"a": [0.0] * 4, "b": 0.0},
                               {"a": [1.0, 0.5, 0.0, 0.0], "b": 0.0}]},
    }


def _problem(name: str, generate) -> dict:
    if name == "saddle-n6":
        return _saddle_problem()
    if name == "vi-n6":
        return _vi_problem()
    if name == "box-n8":
        return _box_problem()
    if name == "zero-n4":
        return _zero_problem()
    return generate.max_affine_ball(SEED, int(name.rsplit("-n", 1)[1]), 0)


def _normalized(path: Path) -> bytes:
    """File bytes with the ``wall_time_us`` column blanked in CSVs and the
    ``problem:`` line dropped from text."""
    lines = path.read_bytes().split(b"\n")
    if path.suffix == ".csv":
        header = next((i for i, line in enumerate(lines) if not line.startswith(b"#")), None)
        columns = lines[header].split(b",") if header is not None else []
        if b"wall_time_us" in columns:
            col = columns.index(b"wall_time_us")
            for i in range(header + 1, len(lines)):
                fields = lines[i].split(b",")
                if len(fields) > col:
                    fields[col] = b""
                    lines[i] = b",".join(fields)
    return b"\n".join(line for line in lines if not line.startswith(b"problem: "))


def _cert_drift(before: Path, after: Path) -> str:
    """How far the certificates of two ``.certs.json`` files differ."""
    old, new = (json.loads(p.read_text(encoding="utf-8"))["checkpoints"]
                for p in (before, after))
    if [(c["k"], c["pathway"]) for c in old] != [(c["k"], c["pathway"]) for c in new]:
        return "checkpoints differ"
    support, dweight, dgap = True, 0.0, 0.0
    for a, b in zip(old, new):
        wa = np.array(a["weights"], dtype=float)
        wb = np.array(b["weights"], dtype=float)
        support &= wa.shape == wb.shape and np.array_equal(wa > 0.0, wb > 0.0)
        if wa.shape == wb.shape and wa.size:
            scale = np.abs(wa).max()
            dweight = max(dweight, float(np.abs(wb - wa).max() / scale) if scale else
                          float(np.abs(wb).max()))
        if (a["gap"] is None) != (b["gap"] is None):
            dgap = math.inf
        elif a["gap"] is not None and a["gap"] != b["gap"]:
            dgap = max(dgap, abs(b["gap"] - a["gap"]) / abs(a["gap"]))
    return (f"{'same' if support else 'different'} support, max relative "
            f"dweight {dweight:.2g}, max relative dgap {dgap:.2g}")


def _run_tree(tree: Path, work: Path, problems: dict) -> tuple[dict, list]:
    """Run every command against ``tree``; map output name to its path, and
    list the commands that exited non-zero."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outputs, failed = {}, []
    for name, problem, args in COMMANDS:
        out_dir = work / name
        out_dir.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "subell.cli", *args, "--problem", str(problems[problem]),
             "--out", str(out_dir / "out.csv")],
            cwd=work, env=env, capture_output=True)
        (out_dir / "stdout.txt").write_bytes(proc.stdout)
        (out_dir / "exit.txt").write_text(f"{proc.returncode}\n{proc.stderr.decode()}")
        if proc.returncode != 0:
            failed.append(name)
        for path in sorted(out_dir.iterdir()):
            outputs[f"{name}/{path.name}"] = path
    return outputs, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: same_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    generate = _generator()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        problems = {}
        for name in sorted({problem for _, problem, _ in COMMANDS}):
            problems[name] = work / f"{name}.json"
            problems[name].write_text(json.dumps(_problem(name, generate)))
        before, failed_before = _run_tree(parent, work / "parent", problems)
        after, failed_after = _run_tree(change, work / "change", problems)
        diffs = 0
        for key in sorted(set(before) | set(after)):
            same = (key in before and key in after
                    and _normalized(before[key]) == _normalized(after[key]))
            diffs += not same
            print(f"{'same' if same else 'DIFF'}  {key}")
            certs = key.rsplit(".certs.", 1)[0] + ".certs.json"
            if not same and ".certs." in key and certs in before and certs in after:
                print(f"      {_cert_drift(before[certs], after[certs])}")
    fails = [f"{name} ({side})" for side, names in
             (("parent", failed_before), ("change", failed_after)) for name in names]
    for fail in fails:
        print(f"FAIL  {fail}")
    if diffs or fails:
        print(f"{diffs} DIFF, {len(fails)} FAIL")
        return 1
    print("all same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
