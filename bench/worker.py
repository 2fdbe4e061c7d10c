"""Run one mirrorint CLI command in this fresh process and report timings.

    python3 bench/worker.py SRC SPAWN_T RESULT TRACE -- ARGV...

SRC is the directory mirrorint must be imported from, SPAWN_T the parent's
``time.monotonic()`` just before it started this process (CLOCK_MONOTONIC is
shared by all processes), RESULT the path of the JSON report written at the
end, TRACE 1 to install the span tracer. The command's stdout is whatever
file the parent gave this process; its stderr passes through.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    src, spawn_t, result_path, trace = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: worker.py SRC SPAWN_T RESULT TRACE -- ARGV...")
    argv = sys.argv[6:]

    import mirrorint.cli as cli

    imported_t = time.monotonic()
    here = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        print(f"worker: mirrorint was imported from {here}, not {src}", file=sys.stderr)
        return 97

    tracer = None
    main_fn = cli.main
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main_fn = tracing.span(tracer, "cli.main", cli.main)

    crashed = False
    start = time.perf_counter()
    try:
        code = main_fn(argv)
    except Exception:
        traceback.print_exc()
        code, crashed = 1, True
    sys.stdout.flush()
    wall_s = time.perf_counter() - start

    report = {
        "setup_s": imported_t - float(spawn_t),
        "wall_s": wall_s,
        "exit": code,
        "crashed": crashed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracing.record_gauges(tracer)
        report["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
