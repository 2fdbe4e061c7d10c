"""Cold-process execution of CLI commands and the golden-output check.

Each command runs in a fresh ``worker.py`` process, because every CLI
invocation starts with empty harmonic, B(m) and lru caches. Commands are
written with a ``{tmp}`` placeholder for their ``--out``/``--checkpoint``
files; a repetition of a workload gets a fresh directory for them, so a
leftover checkpoint never turns a first leg into a resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

COMMAND_TIMEOUT_S = 120

OK = "ok"
KNOWN_DEFECT = "known_defect"
MISMATCH = "mismatch"

# Settings the program reads from its environment; a worker must see none of
# them, so every command gets exactly the flags written in the workload.
_STRIPPED_ENV = ("MIRRORINT_ORDER", "PYTHONINTMAXSTRDIGITS", "PYTHONPATH", "PYTHONSTARTUP")


class CheckoutError(Exception):
    """The checkout has no mirrorint sources to benchmark."""


def require_sources() -> None:
    if not (SRC / "mirrorint" / "cli.py").is_file():
        raise CheckoutError(f"no mirrorint sources under {SRC}")


def worker_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _STRIPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def out_paths(command: str) -> list[str]:
    """The ``--out`` file templates a command writes, in argument order."""
    args = command.split()
    return [args[i + 1] for i, a in enumerate(args[:-1]) if a == "--out" and args[i + 1] != "-"]


@dataclass
class Outcome:
    command: str
    exit: int | None
    crashed: bool
    stdout: str
    files: dict
    wall_s: float
    setup_s: float
    maxrss_kb: int
    rows_out: int
    out_bytes: int
    trace: dict | None = None
    stderr_tail: str = ""

    def observed(self) -> dict:
        return {"exit": self.exit, "stdout": self.stdout, "files": self.files}


def run_command(
    command: str, tmp: Path, index: int, trace: bool = False, env: dict | None = None
) -> Outcome:
    """Run one command in a fresh worker; ``tmp`` holds its files."""
    argv = [a.replace("{tmp}", str(tmp)) for a in command.split()]
    stdout_path = tmp / f".stdout.{index}"
    stderr_path = tmp / f".stderr.{index}"
    result_path = tmp / f".result.{index}.json"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn_t = time.monotonic()
        try:
            returncode = subprocess.run(
                [
                    sys.executable,
                    str(BENCH / "worker.py"),
                    str(SRC),
                    repr(spawn_t),
                    str(result_path),
                    "1" if trace else "0",
                    "--",
                    *argv,
                ],
                stdout=out,
                stderr=err,
                env=env or worker_env(),
                cwd=str(tmp),
                timeout=COMMAND_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:  # the worker is killed and reaped
            returncode = None
    stdout = stdout_path.read_bytes()
    rows_out, out_bytes = stdout.count(b"\n"), len(stdout)
    files = {}
    for template in out_paths(command):
        path = Path(template.replace("{tmp}", str(tmp)))
        data = path.read_bytes() if path.is_file() else None
        files[template] = None if data is None else sha256(data)
        if data is not None:
            rows_out += data.count(b"\n")
            out_bytes += len(data)
    report = None
    if returncode == 0 and result_path.is_file():
        report = json.loads(result_path.read_text(encoding="utf-8"))
    stderr_tail = stderr_path.read_bytes()[-400:].decode("utf-8", "replace")
    if report is None:
        return Outcome(command, None, True, sha256(stdout), files, 0.0, 0.0, 0, 0, 0,
                       stderr_tail=stderr_tail)
    return Outcome(
        command=command,
        exit=report["exit"],
        crashed=report["crashed"],
        stdout=sha256(stdout),
        files=files,
        wall_s=report["wall_s"],
        setup_s=report["setup_s"],
        maxrss_kb=report["maxrss_kb"],
        rows_out=rows_out,
        out_bytes=out_bytes,
        trace=report.get("trace"),
        stderr_tail=stderr_tail,
    )


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]


def classify(entry: dict | None, outcome: Outcome) -> str:
    """OK when the outcome is the one the mathematics demands; KNOWN_DEFECT
    when it is the recorded wrong outcome of a listed defect; else MISMATCH."""
    if entry is None or outcome.crashed:
        return MISMATCH
    observed = outcome.observed()
    if observed == entry["expect"]:
        return OK
    defect = entry.get("known_defect")
    if defect is not None and observed == defect["observed"]:
        return KNOWN_DEFECT
    return MISMATCH


@dataclass
class Rep:
    """One pass over a workload's command list."""

    outcomes: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def peak_rss_mb(self) -> float:
        return max(o.maxrss_kb for o in self.outcomes) / 1024


def run_rep(commands: list[str], golden: dict, trace: bool = False) -> Rep:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK))
    rep = Rep()
    start = time.perf_counter()
    try:
        for index, command in enumerate(commands):
            outcome = run_command(command, tmp, index, trace=trace)
            status = classify(golden.get(command), outcome)
            if status == MISMATCH:
                print(
                    f"bench: output check failed: {command}\n{outcome.stderr_tail}",
                    file=sys.stderr,
                )
            rep.outcomes.append(outcome)
            rep.statuses.append(status)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rep.elapsed_s = time.perf_counter() - start
    return rep
