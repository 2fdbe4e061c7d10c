"""mirrorint benchmark: cold-process CLI workloads, end to end and per layer.

    python3 bench/run.py --workload certify|modular|exact|all --seed N \
        --seconds S --trace 0|1 [--tiny]

Closed loop, one client: this process runs one worker process at a time,
each running one CLI command (see workloads.py for the command lists and
why each workload exists). A repetition is one pass over the workload's
command list; repetitions run until the next one would end past --seconds
(at least one runs). Every command's exit code, stdout and --out files are
checked against golden.json.

--trace 0 reports the end-to-end metrics:
  wall_s       time from the call into cli.main(argv) to its return,
               median over repetitions per command, summed over commands
  setup_s      worker process start until mirrorint.cli is imported;
               median over all commands run
  peak_rss_mb  largest max-RSS of any worker in a repetition; median over
               repetitions
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians over them), plus
trace.overhead_s = traced minus untraced wall_s.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
line before it is a report with each metric's sample count and
ops_failed_frac (commands whose outcome is not the expected one, known
defects included, over commands attempted). ``correct`` is false when an
outcome is neither the expected one nor a recorded known defect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness
import workloads
from tracer import CONGRUENCE_CHECKS, Tracer

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


PER_LAYER = (
    ("padic.is_prime.calls", "count"),
    ("padic.is_prime.self_s", "s"),
    ("padic.vp_rational.calls", "count"),
    ("padic.vp_rational.self_s", "s"),
    ("padic.big_B_sequence.self_s", "s"),
    ("padic.B_cache_entries", "count"),
    ("harmonic.harmonic.calls", "count"),
    ("harmonic.harmonic.self_s", "s"),
    ("harmonic.cache_entries", "count"),
    ("harmonic.cache_max_bits", "bits"),
    ("harmonic.ModularHarmonicSum.advance.calls", "count"),
    ("harmonic.ModularHarmonicSum.advance.self_s", "s"),
    ("harmonic.ModularHarmonicSum.valuation.calls", "count"),
    ("harmonic.ModularHarmonicSum.valuation.self_s", "s"),
    ("harmonic.wolstenholme_valuation.calls", "count"),
    ("harmonic.wolstenholme_valuation.self_s", "s"),
    ("harmonic.check_harmonic_congruence.calls", "count"),
    ("harmonic.check_harmonic_congruence.self_s", "s"),
    ("sieve.run.self_s", "s"),
    ("sieve.candidate_frac", "frac"),
    ("sieve.hit_frac", "frac"),
    ("sieve.records", "count"),
    ("sieve.checkpoint.write_s", "s"),
    ("sieve.checkpoint.load_s", "s"),
    ("sieve.checkpoint.bytes", "bytes"),
    ("constants.xi.calls", "count"),
    ("constants.omega.calls", "count"),
    ("constants.theta.calls", "count"),
    ("constants.self_s", "s"),
    ("constants.repeat_frac", "frac"),
    ("series.PSeries.mul.calls", "count"),
    ("series.PSeries.mul.self_s", "s"),
    ("series.PSeries.truediv.self_s", "s"),
    ("series.ps_exp.self_s", "s"),
    ("series.ps_log.self_s", "s"),
    ("series.ps_pow.self_s", "s"),
    ("series.build.self_s", "s"),
    ("series.integrality_check.self_s", "s"),
    ("series.coeffs", "count"),
    ("series.max_coeff_bits", "bits"),
    *(
        (f"congruences.{check}.{field}", unit)
        for check in CONGRUENCE_CHECKS
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("congruences.sweep.self_s", "s"),
    ("congruences.rows", "count"),
    ("cli.self_s", "s"),
    ("cli.rows_out", "count"),
    ("cli.out_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(rep: harness.Rep) -> dict:
    """Per-layer metrics of one traced repetition (trace.overhead_s aside)."""
    merged = Tracer()
    for outcome in rep.outcomes:
        if outcome.trace is not None:
            merged.merge(outcome.trace)
    by_name = merged.by_name()
    counters = merged.counters

    def calls(name):
        return by_name.get(name, [0])[0]

    def total_s(name):
        return by_name.get(name, [0, 0.0])[1]

    def self_s(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    advance = "harmonic.ModularHarmonicSum.advance"
    valuation = "harmonic.ModularHarmonicSum.valuation"
    sieve_valuations = merged.calls_under("sieve.run", valuation)
    constants = ("xi", "omega", "theta", "t_conjectured", "u_conjectured")
    out = {
        "sieve.candidate_frac": ratio(sieve_valuations, merged.calls_under("sieve.run", advance)),
        "sieve.hit_frac": ratio(counters.get("sieve.records", 0), sieve_valuations),
        "sieve.checkpoint.write_s": total_s("sieve.checkpoint.write"),
        "sieve.checkpoint.load_s": total_s("sieve.checkpoint.load"),
        "constants.self_s": sum(self_s(f"constants.{n}") for n in constants),
        "constants.repeat_frac": ratio(
            counters.get("constants.repeats", 0), counters.get("constants.calls", 0)
        ),
        "cli.self_s": self_s("cli.main"),
        "cli.rows_out": sum(o.rows_out for o in rep.outcomes),
        "cli.out_bytes": sum(o.out_bytes for o in rep.outcomes),
    }
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead_s":
            continue
        if name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")])
        else:
            out[name] = counters.get(name, 0)
    return out


def median_wall_s(reps: list[harness.Rep]) -> float:
    """Sum over the command list of each command's median wall time."""
    return sum(
        statistics.median(rep.outcomes[i].wall_s for rep in reps)
        for i in range(len(reps[0].outcomes))
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload; returns the contract result plus a detail report."""
    golden = harness.load_golden()
    commands = workloads.commands(workload, seed, tiny=tiny)
    plain: list[harness.Rep] = []
    traced: list[harness.Rep] = []
    start = time.perf_counter()
    last = 0.0
    while True:
        traced_turn = trace and len(traced) < len(plain)
        rep = harness.run_rep(commands, golden, trace=traced_turn)
        (traced if traced_turn else plain).append(rep)
        last = max(last, rep.elapsed_s)
        done = time.perf_counter() - start + last > seconds
        if done and (not trace or traced):
            break

    reps = plain + traced
    statuses = [s for rep in reps for s in rep.statuses]
    attempted = len(statuses)
    failed = sum(s != harness.OK for s in statuses)
    correct = harness.MISMATCH not in statuses
    if not trace:
        setups = [o.setup_s for rep in plain for o in rep.outcomes]
        metrics = {
            "wall_s": median_wall_s(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in plain),
        }
        units = dict(END_TO_END)
        samples = {"wall_s": len(plain), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    else:
        per_rep = [layer_metrics(rep) for rep in traced]
        metrics = {
            name: statistics.median(m[name] for m in per_rep)
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = median_wall_s(traced) - median_wall_s(plain)
        units = dict(PER_LAYER)
        samples = {name: len(traced) for name in metrics}
        samples["trace.overhead_s"] = len(traced) + len(plain)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    failures = sorted(
        {o.command: s for rep in reps for o, s in zip(rep.outcomes, rep.statuses) if s != harness.OK}.items()
    )
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commands": len(commands),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "ops_failed_frac": {"value": failed / attempted, "unit": "frac", "samples": attempted},
        "metrics": {
            name: {"value": metrics[name], "unit": units[name], "samples": samples[name]}
            for name in metrics
        },
        "failures": [{"command": c, "status": s} for c, s in failures],
    }
    return {"result": result, "report": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="cheapest commands only, for tests")
    args = parser.parse_args(argv)
    try:
        harness.require_sources()
    except harness.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {n: measure(n, args.seed, args.seconds, bool(args.trace), args.tiny) for n in names}
    for run in runs.values():
        print(json.dumps(run["report"], sort_keys=True))
    if len(runs) == 1:
        (run,) = runs.values()
        final = run["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in runs.items() for m, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
