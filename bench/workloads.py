"""The three workloads: parameter menus and the seed -> command list rule.

A workload is a list of slots. A slot is a tuple of variants, and a variant
is a tuple of CLI command lines run in that order (a resumed sieve is two
lines sharing its files). The seed picks one variant per slot and shuffles
the slots; the program sees only the command lines. ``{tmp}`` stands for the
fresh directory of one repetition.

The costly commands are the same for every seed, and the variants of a slot
differ only where the cost does not (the N = 1 map's k, whether a sieve
streams to stdout or to --out/--checkpoint files, small sweeps). On the
shared 2-vCPU host of bench/README.md a run's median drifts by about 10%
from one minute to the next; a seed-dependent cost would add to that.

Why these three:

certify  Exact power-series arithmetic (``series``) at orders where Fraction
         growth dominates: passes for qLN/qN/qtilde with k = 1..3, the
         root probes of the README (108 passes, 324 and --root-scale 3 are
         violations) and the degenerate N = 1 map. ``sieve`` and the modular
         route of ``harmonic`` sit idle.
modular  ``harmonic``'s modular route (ModularHarmonicSum, the Wolstenholme
         pairing sum) and ``sieve`` pruning over several primes and both
         targets, with --out/--checkpoint files beside stdout streams, one
         run split into a checkpoint leg and a resumed leg, and the vp3
         probe. No Fraction or series work.
exact    The README congruence sweeps and ``constants`` at N in the low
         thousands: exact valuations in ``padic``, random access to small
         H_n, per-tuple constant recomputation, about 30k JSONL rows
         through ``cli``.

Known defects stay in the lists (see golden.json): ``constants --which u
--N 2000`` exits 2 on Python's int->str digit limit, and the resumed sieve
leg truncates its --out file.
"""

from __future__ import annotations

import random

SIEVE_MAX = 600000
CERTIFY_ORDER = 180


def _certify(spec: str, order: int = CERTIFY_ORDER) -> tuple[str]:
    return (f"certify {spec} --order {order}",)


def _sieve(p: int, target: str, files: bool = False) -> tuple[str]:
    line = f"sieve --p {p} --max {SIEVE_MAX} --target {target}"
    if files:
        line += f" --out {{tmp}}/{p}{target}.jsonl --checkpoint {{tmp}}/{p}{target}.ckpt"
    return (line,)


def _one(*lines: str) -> tuple[tuple[str, ...]]:
    """A slot with a single variant: a tuple of single-command variants."""
    return tuple((line,) for line in lines)


CERTIFY = [
    (_certify("--map qLN --L 7 --N 7 --root 108"),),
    (_certify("--map qLN --L 7 --N 7 --root 324"),),
    (_certify("--map qLN --L 5 --N 5 --root auto --root-scale 3"),),
    (_certify("--map qLN --L 3 --N 5 --k 1"),),
    (_certify("--map qN --N 3 --k 1"),),
    (_certify("--map qtilde --N 4 --k 1"),),
    (_certify("--map qN --N 3 --k 2"),),
    (_certify("--map qtilde --N 3 --k 2"),),
    (_certify("--map qLN --L 2 --N 3 --k 3"),),
    (_certify("--map qN --N 2 --k 3"),),
    tuple(_certify(f"--map qN --N 1 --k {k}", order=10) for k in (1, 2, 3)),
]

SPLIT_RUN = (
    "sieve --p 11 --max 1000 --target H --out {tmp}/split.jsonl --checkpoint {tmp}/split.ckpt",
    "sieve --p 11 --max 20000 --target H --out {tmp}/split.jsonl --checkpoint {tmp}/split.ckpt",
)

MODULAR = [
    *((_sieve(p, target), _sieve(p, target, files=True)) for p, target in ((3, "H"), (11, "H"), (7, "H"), (5, "H1"), (13, "H1"))),
    (SPLIT_RUN,),
    _one("sweep --check wolstenholme --pmax 6000", "sweep --check wolstenholme --pmin 3000 --pmax 6800"),
    _one("sweep --check vp3-probe --p 11 --N 848"),
    _one("sweep --check vp3-probe --p 11 --N 9338", "sweep --check vp3-probe --p 11 --N 10583"),
]

EXACT = [
    _one("sweep --check dworkS --p 2,3,5 --Nmax 5 --Kmax 8"),
    _one("sweep --check yms --p 2,3,5 --Nmax 5 --Kmax 8"),
    _one("sweep --check theorem-congruence --which Xi --Nmax 8"),
    _one("sweep --check theorem-congruence --which Omega --Nmax 8"),
    _one("sweep --check decomposition --p 3 --K 2"),
    _one("sweep --check lemma11"),
    _one("sweep --check lemma11 --which Omega"),
    _one("sweep --check lemma12"),
    _one("sweep --check j-mod-p"),
    _one("sweep --check witness"),
    _one("sweep --check witness --which u"),
    _one("sweep --check dworkS --p 2,3,5,7 --Nmax 5 --Kmax 8"),
    _one("sweep --check yms --p 3,5,7 --Nmax 5 --Kmax 8"),
    _one("sweep --check lemma12 --jmax 12"),
    _one("sweep --check theorem-congruence --which Xi --Nmax 8 --summax 40"),
    _one("sweep --check theorem-congruence --which Omega --Nmax 8 --summax 40"),
    _one("constants --which xi --N 2500"),
    _one("constants --which omega --N 2500"),
    _one("constants --which theta --N 3000"),
    _one("constants --which u --N 2000"),
    _one("sweep --check j-mod-p --pmax 17 --Jmax 1000", "sweep --check j-mod-p --pmax 23 --Jmax 800"),
    _one("sweep --check decomposition --p 2,3,5 --Kmax 3", "sweep --check decomposition --p 3,5,7 --Kmax 3"),
    _one("sweep --check lemma11 --mmax 20", "sweep --check lemma11 --mmax 20 --which Omega"),
    _one("sweep --check witness --Nmax 12 --pmax 200", "sweep --check witness --Nmax 12 --pmax 200 --which u"),
    _one(*(f"constants --which t --N {N}" for N in (1000, 1100))),
    _one(*(f"constants --which u --N {N}" for N in (1000, 1100))),
]

WORKLOADS = {"certify": CERTIFY, "modular": MODULAR, "exact": EXACT}

# Cheapest slot choices, for a quick end-to-end run of the whole machinery;
# each still holds the workload's known defect.
TINY = {
    "certify": [
        ("certify --map qLN --L 7 --N 7 --root 108 --order 25",),
        ("certify --map qLN --L 7 --N 7 --root 324 --order 25",),
        _certify("--map qN --N 1 --k 1", order=10),
    ],
    "modular": [SPLIT_RUN, ("sweep --check vp3-probe --p 11 --N 848",)],
    "exact": [
        ("sweep --check decomposition --p 3 --K 2",),
        ("sweep --check witness",),
        ("constants --which u --N 2000",),
    ],
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[str]:
    """The command lines of one repetition of ``workload`` for ``seed``."""
    if tiny:
        return [line for unit in TINY[workload] for line in unit]
    rng = random.Random(seed)
    units = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(units)
    return [line for unit in units for line in unit]


def all_units() -> list[tuple[str, ...]]:
    """Every variant of every workload, tiny ones included, without repeats."""
    units = []
    for slots in WORKLOADS.values():
        for slot in slots:
            units.extend(slot)
    for tiny_units in TINY.values():
        units.extend(tiny_units)
    return list(dict.fromkeys(units))
