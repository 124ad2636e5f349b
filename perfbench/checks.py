"""Output checks for one CLI command, and the end-to-end values read from its
files.

The checks test invariants, not golden values, so a change in round-off is
never counted as a failure.  ``check_outputs`` returns the list of broken
invariants; an empty list means the command passed.
"""

from __future__ import annotations

import csv
import math
import re

TRACEBACK = re.compile(r"Traceback \(most recent call last\)|^\s*File \".*\", line \d+",
                       re.MULTILINE)
TEXT_COLUMNS = {"variant", "pathway"}
GAP_SLACK = 1e-9


def read_csv(path) -> list[dict]:
    """Rows of a CLI CSV file, skipping the ``# seed=`` header line."""
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def parse_summary(text: str) -> dict:
    """``key: value`` lines of the summary the CLI prints on stdout."""
    summary = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            summary[key.strip()] = value.strip()
    return summary


def _nonfinite(rows, where) -> list[str]:
    bad = []
    for i, row in enumerate(rows):
        for col, cell in row.items():
            if col in TEXT_COLUMNS or cell == "":
                continue
            try:
                ok = math.isfinite(float(cell))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                bad.append(f"{where} row {i} column {col}: {cell!r} is not a finite number")
    return bad


def check_outputs(exit_code, stdout, stderr, out, expect_termination, certify,
                  inner_radius):
    """Invariants of one command's exit status, printed summary, stderr and
    output files.

    ``out`` is the ``--out`` path of the command; for ``certify`` its
    certificate file sits next to it.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if TRACEBACK.search(stderr or ""):
        return ["traceback on stderr"]
    summary = parse_summary(stdout)
    try:
        trace = read_csv(out)
        certs = read_csv(out + ".certs.csv") if certify else []
    except OSError as exc:
        return [f"missing output: {exc}"]

    problems = []
    iterations = summary.get("iterations", "").split(" ")[0]
    if not iterations.isdigit() or int(iterations) != len(trace):
        problems.append(f"{len(trace)} trace rows for summary iterations {iterations!r}")
    if summary.get("termination") != expect_termination:
        problems.append(f"termination {summary.get('termination')!r}, "
                        f"expected {expect_termination!r}")
    problems += _nonfinite(trace, "trace")
    problems += _nonfinite(certs, "certs")
    if certify and not certs:
        problems.append("no certificate rows")
    if problems:
        return problems

    for row in certs:
        k = int(row["k"])
        sliding = trace[k]["sliding_gap"] if k < len(trace) else ""
        if row["gap"] and sliding:
            gap, bound = float(row["gap"]), float(sliding)
            if gap > bound + GAP_SLACK * abs(bound):
                problems.append(f"checkpoint {k}: certificate gap {gap!r} above "
                                f"sliding gap {bound!r}")
        if row["pathway"] == "min-width" and row["rho"] \
                and float(row["rho"]) < inner_radius and not row["gap_bound"]:
            problems.append(f"checkpoint {k}: rho < r but no gap_bound")
    return problems


def best_f_err(out, fstar) -> float:
    """min over productive trace rows of f_value - f*."""
    return min(float(r["f_value"]) for r in read_csv(out)
               if r["productive"] == "1" and r["f_value"]) - fstar


def final_gap(out, stdout, certify) -> float:
    """Certificate gap of the last checkpoint for ``certify``; otherwise the
    final sliding gap the summary reports."""
    if certify:
        return float(read_csv(out + ".certs.csv")[-1]["gap"])
    return float(parse_summary(stdout)["final_sliding_gap"])
