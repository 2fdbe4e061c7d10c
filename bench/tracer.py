"""Span tracer for one worker process, installed from outside the program.

Spans are opened and closed by wrappers that replace mirrorint's public
functions and methods in every namespace that holds them. Nothing is stored
per call: each closed span is folded into a counter keyed by (parent span
name, span name), so millions of ``ModularHarmonicSum.advance`` calls cost
a few dict updates and no memory. A span's self time is its duration minus
the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

ROOT = "-"

# Counters that describe a state (largest cache, widest coefficient) rather
# than work done; they combine by max, all other counters by sum.
GAUGES = frozenset(
    {
        "harmonic.cache_entries",
        "harmonic.cache_max_bits",
        "padic.B_cache_entries",
        "series.max_coeff_bits",
    }
)


class Tracer:
    """Span stack plus per-(parent, name) aggregates.

    ``stats[(parent, name)] = [calls, total_s, self_s]``; ``counters`` holds
    work counts that are not spans (rows, records, bytes, ...).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        else:
            parent_name = ROOT
        entry = self.stats.get((parent_name, name))
        if entry is None:
            entry = self.stats[(parent_name, name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge_max(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def merge(self, dump: dict) -> None:
        """Add another tracer's ``dump()``: spans and counts add up, gauges
        keep the larger value."""
        for parent, name, calls, total, self_s in dump["spans"]:
            entry = self.stats.setdefault((parent, name), [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in dump["counters"].items():
            if name in GAUGES:
                self.gauge_max(name, value)
            else:
                self.count(name, value)

    def by_name(self) -> dict[str, list]:
        """[calls, total_s, self_s] summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, self_s) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def calls_under(self, parent: str, name: str) -> int:
        entry = self.stats.get((parent, name))
        return entry[0] if entry else 0

    def dump(self) -> dict:
        return {
            "spans": [[p, n, *v] for (p, n), v in sorted(self.stats.items())],
            "counters": dict(self.counters),
        }


def span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def span_generator(tracer: Tracer, name: str, fn, counter: str):
    """Time a generator's own frames: the span is open only while the
    generator runs, not while its consumer handles a yielded item."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.count(counter)
            yield item

    return wrapper


def _coeff_bits(series) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coefficients),
        default=0,
    )


def install(tracer: Tracer) -> None:
    """Replace mirrorint's public functions with span wrappers everywhere.

    A name the program no longer has is skipped, so its metrics read 0
    instead of the traced run failing.

    ``from … import`` copies a function into the importing module, so each
    original is swapped in every ``mirrorint.*`` namespace that holds it, and
    methods are swapped on their classes (``__rmul__`` is the same function
    as ``__mul__`` and is swapped with it).
    """
    # ``mirrorint.harmonic`` as an attribute is the function the package
    # re-exports, so the modules are taken from importlib by full name.
    cli, congruences, constants, harmonic, padic, series, sieve = (
        importlib.import_module(f"mirrorint.{name}")
        for name in ("cli", "congruences", "constants", "harmonic", "padic", "series", "sieve")
    )

    seen_constants: set[tuple[str, int]] = set()

    def note_constant(name):
        def after(args, _result):
            key = (name, args[0])
            tracer.count("constants.calls")
            if key in seen_constants:
                tracer.count("constants.repeats")
            seen_constants.add(key)

        return after

    def note_series(args, result):
        tracer.count("series.coeffs", len(result.coefficients))

    def note_series_bits(args, result):
        note_series(args, result)
        tracer.gauge_max("series.max_coeff_bits", _coeff_bits(result))

    def note_checkpoint_bytes(args, result):
        tracer.count("sieve.checkpoint.bytes", len(result) + 1)

    functions = [
        (padic, "is_prime", "padic.is_prime", None),
        (padic, "vp_rational", "padic.vp_rational", None),
        (padic, "big_B_sequence", "padic.big_B_sequence", None),
        (harmonic, "harmonic", "harmonic.harmonic", None),
        (harmonic, "wolstenholme_valuation", "harmonic.wolstenholme_valuation", None),
        (harmonic, "check_harmonic_congruence", "harmonic.check_harmonic_congruence", None),
        (series, "ps_exp", "series.ps_exp", note_series),
        (series, "ps_log", "series.ps_log", note_series),
        (series, "ps_pow", "series.ps_pow", note_series_bits),
        (series, "build_F", "series.build", note_series),
        (series, "build_G", "series.build", note_series),
        (series, "build_GL", "series.build", note_series),
        (series, "build_Gtilde", "series.build", note_series),
        (series, "canonical_q", "series.build", note_series_bits),
        (series, "integrality_check", "series.integrality_check", None),
    ]
    for name in ("xi", "omega", "theta"):
        functions.append((constants, name, f"constants.{name}", note_constant(name)))
    for name in ("t_conjectured", "u_conjectured"):
        functions.append((constants, name, f"constants.{name}", None))
    for name in CONGRUENCE_CHECKS:
        functions.append((congruences, name, f"congruences.{name}", None))

    replacements = {}
    for module, attr, span_name, after in functions:
        original = getattr(module, attr, None)
        if original is not None:
            replacements[id(original)] = span(tracer, span_name, original, after)
    for attr in SWEEP_ITERATORS:
        original = getattr(congruences, attr, None)
        if original is not None:
            replacements[id(original)] = span_generator(
                tracer, "congruences.sweep", original, "congruences.rows"
            )
    for module in (padic, harmonic, sieve, constants, series, congruences, cli):
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    def patch_method(cls, attr, span_name, after=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        wrapper = span(tracer, span_name, original, after)
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, wrapper)

    patch_method(harmonic.ModularHarmonicSum, "advance", "harmonic.ModularHarmonicSum.advance")
    patch_method(
        harmonic.ModularHarmonicSum, "valuation", "harmonic.ModularHarmonicSum.valuation"
    )
    patch_method(series.PSeries, "__mul__", "series.PSeries.mul", note_series)
    patch_method(series.PSeries, "__truediv__", "series.PSeries.truediv", note_series)
    patch_method(sieve.SieveRun, "checkpoint", "sieve.checkpoint.write")
    patch_method(
        sieve.SieveCheckpoint, "dump", "sieve.checkpoint.write", note_checkpoint_bytes
    )
    load = sieve.SieveCheckpoint.__dict__.get("load")
    if isinstance(load, staticmethod):
        sieve.SieveCheckpoint.load = staticmethod(
            span(tracer, "sieve.checkpoint.load", load.__func__)
        )
    for attr in ("_iter_modular", "_iter_exact"):
        original = sieve.SieveRun.__dict__.get(attr)
        if original is not None:
            setattr(
                sieve.SieveRun,
                attr,
                span_generator(tracer, "sieve.run", original, "sieve.records"),
            )


def record_gauges(tracer: Tracer) -> None:
    """Cache sizes at the end of a command (each command starts empty)."""
    cache = getattr(sys.modules["mirrorint.harmonic"], "_HARMONIC", [])
    tracer.gauge_max("harmonic.cache_entries", len(cache))
    tracer.gauge_max(
        "harmonic.cache_max_bits",
        max((max(h.numerator.bit_length(), h.denominator.bit_length()) for h in cache), default=0),
    )
    rows = getattr(sys.modules["mirrorint.padic"], "_B_CACHE", {}).values()
    tracer.gauge_max("padic.B_cache_entries", sum(len(row) for row in rows))


CONGRUENCE_CHECKS = (
    "check_theorem_congruence",
    "check_dwork_S",
    "check_Y",
    "check_decomposition",
    "check_lemma11",
    "check_lemma12",
    "optimality_witness",
    "vp3_probe",
)

SWEEP_ITERATORS = (
    "iter_theorem_congruence",
    "iter_dwork_S",
    "iter_Y",
    "iter_decomposition",
    "iter_lemma11",
    "iter_lemma12",
    "iter_j_congruence",
    "iter_optimality_witnesses",
    "iter_wolstenholme",
)
