"""Tests of the benchmark itself (not of mirrorint):

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


def _bench(*args: str, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_self_time_is_span_minus_its_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    assert tracer.stats[("a", "b")] == [1, 2.0, 2.0]
    assert tracer.stats[("a", "c")] == [1, 0.5, 0.5]
    assert tracer.stats[("-", "a")] == [1, 10.0, 7.5]
    assert tracer.calls_under("a", "b") == 1


def test_merge_adds_work_and_keeps_largest_gauge():
    merged = Tracer()
    for entries, cache in ((3, 10), (5, 4)):
        one = Tracer()
        one.count("sieve.records", entries)
        one.gauge_max("harmonic.cache_entries", cache)
        one.stats[("-", "cli.main")] = [1, 2.0, 1.5]
        merged.merge(one.dump())
    assert merged.counters == {"sieve.records": 8, "harmonic.cache_entries": 10}
    assert merged.by_name()["cli.main"] == [2, 4.0, 3.0]


def test_flipped_stdout_byte_is_a_failed_operation_and_the_run_goes_on(tmp_path):
    golden = harness.load_golden()
    first, second = "sweep --check witness", "sweep --check witness --which u"
    stdout = _stdout_of(first, tmp_path)
    flipped = bytes([stdout[0] ^ 1]) + stdout[1:]
    tampered = dict(golden)
    tampered[first] = {"expect": dict(golden[first]["expect"], stdout=harness.sha256(flipped))}

    assert harness.run_rep([first, second], golden).statuses == [harness.OK, harness.OK]
    rep = harness.run_rep([first, second], tampered)
    assert rep.statuses == [harness.MISMATCH, harness.OK]


def _stdout_of(command: str, tmp: Path) -> bytes:
    harness.run_command(command, tmp, 0)
    return (tmp / ".stdout.0").read_bytes()


def test_golden_covers_every_command_and_lists_two_known_defects():
    golden = harness.load_golden()
    for unit in workloads.all_units():
        for command in unit:
            assert command in golden, command
    defects = sorted(c for c, entry in golden.items() if "known_defect" in entry)
    assert defects == sorted(["constants --which u --N 2000", workloads.SPLIT_RUN[1]])


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_each_known_defect_runs_once_per_repetition(seed):
    golden = harness.load_golden()
    for name, expected in (("certify", 0), ("modular", 1), ("exact", 1)):
        commands = workloads.commands(name, seed)
        assert sum("known_defect" in golden[c] for c in commands) == expected


def test_seed_fixes_the_command_list():
    assert workloads.commands("exact", 7) == workloads.commands("exact", 7)
    lists = {tuple(workloads.commands("certify", seed)) for seed in range(20)}
    assert len(lists) > 1
    # A resumed leg always directly follows the leg it resumes.
    for seed in range(20):
        commands = workloads.commands("modular", seed)
        leg = commands.index(workloads.SPLIT_RUN[1])
        assert commands[leg - 1] == workloads.SPLIT_RUN[0]


def test_worker_sees_no_order_or_digit_limit_settings(monkeypatch):
    monkeypatch.setenv("MIRRORINT_ORDER", "7")
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    env = harness.worker_env()
    assert "MIRRORINT_ORDER" not in env and "PYTHONINTMAXSTRDIGITS" not in env
    assert env["PYTHONPATH"] == str(harness.SRC)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_named_in_benchmark_json(workload, trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # Every repetition runs the whole list, and its known defects fail.
    tiny = workloads.commands(workload, 3, tiny=True)
    golden = harness.load_golden()
    repetitions, rest = divmod(result["attempted"], len(tiny))
    assert repetitions >= 1 and rest == 0
    assert result["failed"] == repetitions * sum("known_defect" in golden[c] for c in tiny)
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
