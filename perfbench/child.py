"""Run one subell CLI command in this fresh process and record what it cost.

    python3 perfbench/child.py MEASURE_JSON TRACE -- <subell CLI arguments>

Writes MEASURE_JSON with ``setup_s`` (import of subell plus one
``load_problem`` of the command's problem file), ``wall_s`` (``main`` entry
to return), ``peak_rss_mb`` (this process's ``ru_maxrss``), the exit code
and where subell was imported from.  With TRACE = 1 the spans and counters
of ``tracer.Tracer`` are added; the timings then include the tracing cost.
The exit code is the command's own.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    measure_path, traced = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: child.py MEASURE_JSON TRACE -- <subell CLI arguments>")
    cli_args = argv[3:]

    t0 = time.perf_counter()
    import subell.cli
    from subell.oracles import load_problem
    try:
        load_problem(cli_args[cli_args.index("--problem") + 1])
    except (OSError, ValueError):
        pass  # the command below reports the bad problem file with exit code 2
    setup_s = time.perf_counter() - t0

    entry = subell.cli.main
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)

    t1, c1 = time.perf_counter(), time.process_time()
    code = entry(cli_args)
    wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
    sys.stdout.flush()

    record = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "subell_file": subell.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(measure_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
