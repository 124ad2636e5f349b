"""Command-line front end: solve, certify, compare.

Every flag can also be supplied through an environment variable with the
``SUBELL_`` prefix (e.g. ``SUBELL_VARIANT=ellipsoid``); explicit flags win.
Traces are CSV with a fixed column order and 17-significant-digit decimals,
so equal runs produce equal files; summaries are plain key: value text.

The solver's history keeps no operator ``H_k``.  ``certify`` chooses the
checkpoints and their pathways and hands them to
``certificates.certify_run``, which builds every certificate, its gap,
residual and bound from one matrix-free backward sweep over the records.
The preliminary and terminal pathways start from the records alone; only
the min-width pathway replays the state at each checkpoint, chained from
the previous one (``reconstruct_state``, one n x n operator at a time), for
the direction and average radius of its ellipsoid.

Exit code 2 reports a load, validation or usage error and 3 a numerical
failure of the solver or the certificate pass, on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import islice
from operator import attrgetter

import numpy as np

from . import certificates as certs
from .linalg import PositiveDefinitenessLost
from .oracles import ProblemFormatError, load_problem
from .solver import (
    VARIANT_ELLIPSOID,
    VARIANTS,
    Schedule,
    SolverBreakdown,
    StrategyConfig,
    delta_from_target,
    reconstruct_state,
    run,
)
from .support import DependentConstraints, SlaterViolation

TRACE_COLUMNS = ("k", "variant", "productive", "f_value", "sliding_gap",
                 "cert_gap", "R_k", "avrad", "Gamma_k", "wall_time_us")
CERT_COLUMNS = ("k", "pathway", "Gamma_lambda", "S_lambda", "gap", "residual",
                "rho", "gap_bound")
CSV_BLOCK_ROWS = 1000  # rows formatted and written per block


def _cell_format(kind: type) -> str:
    """The %-format of one cell of type ``kind``: empty for None, 1/0 for a
    bool, 17 significant digits for a float (numpy's float64 included) and
    ``str`` for anything else."""
    if kind is type(None):
        return "%.0s"
    if kind is bool:
        return "%d"
    if issubclass(kind, float):
        return "%.17g"
    return "%s"


def _fmt(value) -> str:
    return _cell_format(type(value)) % (value,)


def _env_default(name: str, fallback=None):
    return os.environ.get("SUBELL_" + name.upper(), fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subell",
        description="Cutting-plane solvers with accuracy certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_variant=True):
        p.add_argument("--problem", default=_env_default("problem"),
                       help="path to a problem JSON file")
        if with_variant:
            p.add_argument("--variant", default=_env_default("variant", "subgrad-ellipsoid"),
                           choices=VARIANTS)
        # string defaults go through ``type`` like a flag's value, so a
        # malformed environment value is a usage error
        p.add_argument("--iters", type=int, default=_env_default("iters", "100"))
        p.add_argument("--schedule", default=_env_default("schedule", "decay"),
                       help="step schedule: 'decay' or 'const:K'")
        p.add_argument("--epsilon", type=float, default=_env_default("epsilon"),
                       help="target residual; sets the termination gap eps*r/(eps+V)")
        p.add_argument("--delta", type=float, default=_env_default("delta"),
                       help="explicit termination gap (overrides --epsilon)")
        p.add_argument("--out", default=_env_default("out"),
                       help="output CSV path (summary goes next to it)")
        p.add_argument("--seed", type=int, default=_env_default("seed", "0"),
                       help="seed recorded in output headers")

    ps = sub.add_parser("solve", help="run one variant, write trace and summary")
    common(ps)
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("certify", help="run and emit certificates at checkpoints")
    common(pc)
    pc.add_argument("--cadence", default=_env_default("cadence", "pow2"),
                    help="'pow2' or an integer stride between checkpoints")
    pc.set_defaults(func=cmd_certify)

    pm = sub.add_parser("compare", help="run several variants side by side")
    common(pm, with_variant=False)
    pm.add_argument("--variants", default=_env_default("variants", ",".join(VARIANTS)),
                    help="comma-separated variant list")
    pm.set_defaults(func=cmd_compare)
    return parser


def _load(args):
    if not args.problem:
        raise ProblemFormatError("no problem file given (--problem or SUBELL_PROBLEM)")
    return load_problem(args.problem)


def _delta_term(args, problem) -> tuple[float, str]:
    if args.delta is not None:
        if not (math.isfinite(args.delta) and args.delta >= 0.0):
            raise ValueError(f"--delta must be a finite number >= 0, got {args.delta!r}")
        return args.delta, f"delta_term: {_fmt(float(args.delta))} (explicit)"
    if args.epsilon is not None:
        try:
            d = delta_from_target(args.epsilon, problem.inner_radius,
                                  problem.variation_bound)
        except ValueError as exc:
            raise ValueError(f"--epsilon {args.epsilon!r}: {exc}") from exc
        return d, (f"epsilon_target: {_fmt(float(args.epsilon))}\n"
                   f"delta_term: {_fmt(d)} (= eps*r/(eps+V))")
    return 0.0, "delta_term: 0 (early termination disabled)"


def _config(args, problem) -> tuple[StrategyConfig, str]:
    delta, note = _delta_term(args, problem)
    schedule = Schedule.parse(args.schedule)
    return StrategyConfig.for_variant(args.variant, problem.dim,
                                      schedule=schedule, delta_term=delta), note


def _write_csv(path, columns, rows, seed) -> None:
    """Write tuples of cells as CSV under a ``# seed=`` line and a header.

    Each cell reads as ``_fmt`` gives it.  A row is formatted whole, with
    one %-format per sequence of cell types, and the rows go out in blocks
    of ``CSV_BLOCK_ROWS``, so the file is never held in memory at once.
    """
    formats = {}

    def line(row):
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
        return fmt % row

    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed={seed}\n")
        fh.write(",".join(columns) + "\n")
        while block := [line(row) for row in islice(rows, CSV_BLOCK_ROWS)]:
            fh.write("".join(block))


# a trace row's cells in TRACE_COLUMNS order, as one tuple
_trace_cells = attrgetter(*TRACE_COLUMNS)


def _summary(problem, args, result, extra="") -> str:
    last = result.rows[-1] if result.rows else None
    lines = [
        f"problem: {args.problem}",
        f"variant: {getattr(args, 'variant', 'n/a')}",
        f"seed: {args.seed}",
        f"iterations: {result.iterations} (requested {args.iters})",
        f"termination: {result.termination}",
    ]
    if extra:
        lines.append(extra)
    if last is not None:
        lines.append(f"final_f: {_fmt(last.f_value)}")
        lines.append(f"final_sliding_gap: {_fmt(last.sliding_gap)}")
        lines.append(f"final_R_k: {_fmt(last.R_k)}")
        lines.append(f"final_avrad: {_fmt(last.avrad)}")
        lines.append(f"final_Gamma_k: {_fmt(last.Gamma_k)}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    problem = _load(args)
    config, note = _config(args, problem)
    result = run(problem, config, args.iters)
    summary = _summary(problem, args, result, extra=note)
    if args.out:
        _write_csv(args.out, TRACE_COLUMNS, map(_trace_cells, result.rows), args.seed)
        with open(args.out + ".summary.txt", "w", encoding="utf-8") as fh:
            fh.write(summary)
    sys.stdout.write(summary)
    return 0


def _checkpoints(cadence: str, total: int) -> list[int]:
    if total < 1:
        return []
    if cadence == "pow2":
        ks, k = [], 1
        while k < total:
            ks.append(k)
            k *= 2
        ks.append(total)
        return ks
    stride = int(cadence)
    if stride < 1:
        raise ValueError("cadence stride must be positive")
    ks = list(range(stride, total, stride))
    ks.append(total)
    return ks


def cmd_certify(args) -> int:
    problem = _load(args)
    config, note = _config(args, problem)
    result = run(problem, config, args.iters)
    records = result.records
    total = len(records)
    terminal = result.termination in ("gap-threshold", "zero-subgradient")

    # the checkpoints and their pathways; only the min-width pathway needs a
    # checkpoint's state, replayed in one chain, each from the previous one
    checkpoints, state_k = [], None
    for k in _checkpoints(args.cadence, total):
        if k == total and terminal:
            checkpoints.append(certs.Checkpoint.at(records, k, certs.TERMINAL))
        elif config.variant == VARIANT_ELLIPSOID:
            state_k = reconstruct_state(problem, records, k, result.state, start=state_k)
            checkpoints.append(certs.Checkpoint.at(records, k, certs.MIN_WIDTH, state_k))
        else:
            checkpoints.append(certs.Checkpoint.at(records, k, certs.PRELIMINARY))

    cert_rows = []
    cert_dump = []
    for cp, cert, g, res, bound in certs.certify_run(problem, records, checkpoints):
        cert_rows.append((cp.k, cp.pathway, cert.gamma_weighted,
                          cert.productive_weight, g, res, cp.rho, bound))
        cert_dump.append({"k": cp.k, "pathway": cp.pathway, "gap": g,
                          "residual": res, "weights": cert.weights.tolist()})
        if cp.k < len(result.rows) and g is not None:
            result.rows[cp.k].cert_gap = g

    summary = _summary(problem, args, result, extra=note)
    summary += f"certificates: {len(cert_rows)} checkpoints (cadence {args.cadence})\n"
    if cert_rows:
        summary += f"final_cert_gap: {_fmt(cert_rows[-1][4])}\n"
        summary += f"final_cert_residual: {_fmt(cert_rows[-1][5])}\n"
    if args.out:
        _write_csv(args.out, TRACE_COLUMNS, map(_trace_cells, result.rows), args.seed)
        _write_csv(args.out + ".certs.csv", CERT_COLUMNS, cert_rows, args.seed)
        with open(args.out + ".certs.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": args.seed, "checkpoints": cert_dump}, indent=1))
            fh.write("\n")
    sys.stdout.write(summary)
    return 0


def cmd_compare(args) -> int:
    problem = _load(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError(f"--variants names no variant: {args.variants!r}")
    for v in variants:
        if v not in VARIANTS:
            raise ProblemFormatError(f"unknown variant {v!r}")
    schedule = Schedule.parse(args.schedule)
    delta, _ = _delta_term(args, problem)

    results = {}
    for v in variants:
        config = StrategyConfig.for_variant(v, problem.dim, schedule=schedule,
                                            delta_term=delta)
        results[v] = run(problem, config, args.iters)

    depth = max(len(r.rows) for r in results.values())
    columns = ["k"]
    for v in variants:
        columns += [f"{v}_f", f"{v}_sliding_gap", f"{v}_avrad", f"{v}_R_k"]
    wide = []
    for k in range(depth):
        row = [k]
        for v in variants:
            rows = results[v].rows
            if k < len(rows):
                r = rows[k]
                row += [r.f_value, r.sliding_gap, r.avrad, r.R_k]
            else:
                row += [None, None, None, None]
        wide.append(tuple(row))

    report = _regime_report(problem, variants, results)
    if args.out:
        _write_csv(args.out, tuple(columns), wide, args.seed)
        with open(args.out + ".report.txt", "w", encoding="utf-8") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def _regime_report(problem, variants, results) -> str:
    """Informational: where the measured volume decay of an ellipsoid-family
    run overtakes the 1/sqrt(k) pace of the subgradient-family proxy."""
    n, R = problem.dim, problem.R
    lo, hi = n * n * math.log(2 * n), 3 * n * n * math.log(2 * n)
    lines = [f"dimension: {n}",
             f"expected crossover window: [{lo:.1f}, {hi:.1f}] iterations"]
    ell = next((v for v in variants if v.startswith("ellipsoid")), None)
    if ell is None:
        lines.append("crossover: n/a (no ellipsoid-family variant in the comparison)")
    else:
        # last iteration at which the 1/sqrt(k) pace still beats the measured
        # volume decay; the crossover is the point after which the ellipsoid
        # curve stays below for good
        behind = [row.k for row in results[ell].rows
                  if row.k >= 1 and row.avrad >= R / math.sqrt(row.k)]
        if not behind:
            lines.append("crossover: k <= 1 (volume decay ahead from the start)")
        elif behind[-1] + 1 >= len(results[ell].rows):
            lines.append(f"crossover: not reached within {len(results[ell].rows)} iterations")
        else:
            crossover = behind[-1] + 1
            inside = lo <= crossover <= hi
            lines.append(f"crossover: k = {crossover} "
                         f"({'inside' if inside else 'outside'} the window; informational)")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PositiveDefinitenessLost, SolverBreakdown, SlaterViolation,
            DependentConstraints, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ProblemFormatError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
