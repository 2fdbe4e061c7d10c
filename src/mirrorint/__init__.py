"""Exact-arithmetic toolkit for p-adic valuations of harmonic numbers and
integral roots of hypergeometric mirror-type maps."""

from .constants import (
    DegenerateCase,
    omega,
    t_conjectured,
    theta,
    u_conjectured,
    xi,
)
from .harmonic import ModularHarmonicSum
from .padic import (
    INFINITE,
    big_B_sequence,
    big_B_units,
    is_prime,
    primes_upto,
    vp_rational,
)
from .series import (
    PSeries,
    canonical_q,
    dwork_criterion,
    integrality_check,
    ps_exp,
    ps_log,
)
from .sieve import (
    CheckpointError,
    SieveCheckpoint,
    SieveRun,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "DegenerateCase",
    "INFINITE",
    "ModularHarmonicSum",
    "PSeries",
    "SieveCheckpoint",
    "SieveRun",
    "big_B_sequence",
    "big_B_units",
    "canonical_q",
    "dwork_criterion",
    "integrality_check",
    "is_prime",
    "omega",
    "primes_upto",
    "ps_exp",
    "ps_log",
    "t_conjectured",
    "theta",
    "u_conjectured",
    "vp_rational",
    "xi",
]
