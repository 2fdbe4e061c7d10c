"""Record bench/golden.json: the expected outcome of every workload command.

    python3 bench/record_golden.py

Each variant of every workload runs once in a fresh directory. Its exit
code and the SHA-256 of its stdout and of every --out file become the
expected outcome, except for the known defects below, whose expected
outcome is derived from what the mathematics demands and whose observed
outcome is kept as ``known_defect`` so the benchmark can count it as a
failed operation without calling the output wrong. Re-record only when a
change is meant to alter program output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import workloads

U_2000 = "constants --which u --N 2000"
RESUMED_LEG = workloads.SPLIT_RUN[1]
UNINTERRUPTED = "sieve --p 11 --max 20000 --target H"


def _run_unit(unit, env=None) -> list:
    harness.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=harness.WORK))
    try:
        return [harness.run_command(cmd, tmp, i, env=env) for i, cmd in enumerate(unit)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _expected_u_2000() -> dict:
    # u_2000 = omega(2000) * 2000! has more than 4300 digits; the value the
    # command should print is the one it prints without that limit.
    (outcome,) = _run_unit((U_2000,), env=harness.worker_env({"PYTHONINTMAXSTRDIGITS": "0"}))
    return outcome.observed()


def _expected_resumed_leg() -> dict:
    # A run to 1000 resumed to 20000 must leave the --out file equal to the
    # stream of one uninterrupted run to 20000.
    (single,) = _run_unit((UNINTERRUPTED,))
    (out_file,) = harness.out_paths(RESUMED_LEG)
    return {"exit": 0, "stdout": harness.sha256(b""), "files": {out_file: single.stdout}}


KNOWN_DEFECTS = {
    U_2000: (
        "exits 2 (usage error): str() of the >4300-digit value trips Python's "
        "int->str digit limit on a valid request",
        _expected_u_2000,
    ),
    RESUMED_LEG: (
        "the resumed leg reopens --out with 'w', so the file keeps 13 records "
        "of the 32 an uninterrupted run writes",
        _expected_resumed_leg,
    ),
}


def main() -> int:
    harness.require_sources()
    commands = {}
    for unit in workloads.all_units():
        for outcome in _run_unit(unit):
            if outcome.crashed:
                print(f"crashed: {outcome.command}\n{outcome.stderr_tail}", file=sys.stderr)
                return 1
            commands[outcome.command] = {"expect": outcome.observed()}
    for command, (reason, expected) in KNOWN_DEFECTS.items():
        observed = commands[command]["expect"]
        expect = expected()
        if expect == observed:
            print(f"known defect no longer shows: {command}", file=sys.stderr)
            return 1
        commands[command] = {
            "expect": expect,
            "known_defect": {"reason": reason, "observed": observed},
        }
    harness.GOLDEN.write_text(
        json.dumps({"format_version": 1, "commands": commands}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(commands)} commands to {harness.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
