"""Check that two source trees give the same CLI outputs.

Usage::

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Writes problem 0 of the benchmark's seed 1 at n = 10, 30, 60, 100 and 400
(``perfbench/generate.py`` of this checkout, imported without writing
bytecode) and a small bilinear saddle problem drawn from a fixed seed,
runs the same seven ``subell`` commands against the ``src/`` of each tree
with one BLAS thread, and compares every output file and each command's
stdout byte for byte.  Besides the benchmark's five commands, a terminal
``certify`` covers the terminal certificate pathway, and a saddle ``solve``
covers trace rows with empty cells (no ``f_value``).  Only the
``wall_time_us`` column of trace CSVs and the ``problem:`` line of
summaries are left out of the comparison.  Prints ``same`` or ``DIFF`` per
output and exits 1 on any DIFF.  Under a DIFF in a certificate file
(``.certs.json`` or ``.certs.csv``) one more line says how far the
command's certificates moved, read from its two ``.certs.json``: whether
every checkpoint keeps its support, the largest weight change relative to
the checkpoint's largest weight, and the largest relative gap change.  A command that exits non-zero on either
tree is printed as ``FAIL <command> (<tree>)`` and also makes the exit code 1,
even when both trees fail alike.
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


def _problem(name: str, generate) -> dict:
    if name == "saddle-n6":
        return _saddle_problem()
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
