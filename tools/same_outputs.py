"""Check that two source trees give the same CLI outputs.

Usage::

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Writes problem 0 of the benchmark's seed 1 at n = 30, 60, 100 and 400
(``perfbench/generate.py`` of this checkout, imported without writing
bytecode), runs the same five ``subell`` commands against the ``src/`` of
each tree with one BLAS thread, and compares every output file and each
command's stdout byte for byte.  Only the ``wall_time_us`` column of trace
CSVs and the ``problem:`` line of summaries are left out of the comparison.
Prints ``same`` or ``DIFF`` per output and exits 1 on any DIFF.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# (name, n, CLI arguments before --problem and --out)
COMMANDS = (
    ("compare-n30", 30, ("compare", "--iters", "3000")),
    ("certify-minwidth-n60", 60, ("certify", "--variant", "ellipsoid", "--iters", "2000",
                                  "--cadence", "pow2")),
    ("certify-n100", 100, ("certify", "--variant", "subgrad-ellipsoid", "--iters", "2000",
                           "--cadence", "250")),
    ("solve-n400", 400, ("solve", "--variant", "subgrad-ellipsoid", "--iters", "400")),
    ("solve-to-eps-n30", 30, ("solve", "--variant", "subgrad-ellipsoid", "--epsilon", "0.1",
                              "--iters", "200000")),
)


def _generator():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _run_tree(tree: Path, work: Path, problems: dict) -> dict:
    """Run every command against ``tree``; map output name to its path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outputs = {}
    for name, n, args in COMMANDS:
        out_dir = work / name
        out_dir.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "subell.cli", *args, "--problem", str(problems[n]),
             "--out", str(out_dir / "out.csv")],
            cwd=work, env=env, capture_output=True)
        (out_dir / "stdout.txt").write_bytes(proc.stdout)
        (out_dir / "exit.txt").write_text(f"{proc.returncode}\n{proc.stderr.decode()}")
        for path in sorted(out_dir.iterdir()):
            outputs[f"{name}/{path.name}"] = path
    return outputs


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
        for n in sorted({n for _, n, _ in COMMANDS}):
            problems[n] = work / f"problem-n{n}.json"
            problems[n].write_text(json.dumps(generate.max_affine_ball(SEED, n, 0)))
        before = _run_tree(parent, work / "parent", problems)
        after = _run_tree(change, work / "change", problems)
        diffs = 0
        for key in sorted(set(before) | set(after)):
            same = (key in before and key in after
                    and _normalized(before[key]) == _normalized(after[key]))
            diffs += not same
            print(f"{'same' if same else 'DIFF'}  {key}")
    print(f"{diffs} DIFF" if diffs else "all same")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
