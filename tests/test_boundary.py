"""p is checked where it enters the program, and nowhere below that.

Every public callable that takes a prime p rejects a non-prime with
ValueError. A sweep checks its grid's primes once; the checks it runs per
row, and every private kernel, take p on trust.
"""

import inspect
from fractions import Fraction as F

import pytest

import mirrorint
from mirrorint import padic
from mirrorint.congruences import sweep
from mirrorint.series import PSeries

# Valid arguments besides p, for every name in __all__ that takes p.
VALID = {
    "ModularHarmonicSum": {},
    "SieveRun": {"max_N": 10},
    "big_B_units": {"N": 3, "k": 1, "m_max": 5, "exponent": 2},
    "dwork_criterion": {"f": PSeries([1, 1]), "g": PSeries([0, 1]), "tau": 1},
    "is_wolstenholme": {},
    "omega_indicator": {"N": 10},
    "vp_factorial": {"n": 10},
    "vp_harmonic": {"N": 10},
    "vp_rational": {"x": F(1, 2)},
    "wolstenholme_valuation": {},
    "xi_indicator": {"N": 10},
}
# A record of a run, not an entry point: its p was checked by the SieveRun
# that wrote it, and is checked again when a run resumes from it.
RECORDS = {"SieveCheckpoint"}


def takes_p(name):
    obj = getattr(mirrorint, name)
    try:
        return callable(obj) and "p" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # builtin exception types
        return False


def test_every_public_callable_taking_p_is_listed():
    assert {n for n in mirrorint.__all__ if takes_p(n)} - RECORDS == VALID.keys()


@pytest.mark.parametrize("p", [1, 4, 9])
@pytest.mark.parametrize("name", sorted(VALID))
def test_nonprime_rejected(name, p):
    with pytest.raises(ValueError, match="p must be prime"):
        getattr(mirrorint, name)(p=p, **VALID[name])


@pytest.mark.parametrize(
    "check,params,calls",
    [
        # One check per prime of the grid, none per row.
        ("dworkS", {"p": (2, 3, 5), "Nmax": 3, "Kmax": 4}, 3),
        # The primes come from primes_upto: nothing to check.
        ("j-mod-p", {"pmax": 13, "Jmax": 200}, 0),
        # Rows read H_{p-1} off one walked sum, or unchecked per prime.
        ("wolstenholme", {"pmax": 200}, 0),
        ("wolstenholme", {"pmin": 195, "pmax": 200}, 0),
    ],
)
def test_sweep_checks_primes_once(monkeypatch, check, params, calls):
    seen = []
    is_prime = padic.is_prime

    def counting(n):
        seen.append(n)
        return is_prime(n)

    monkeypatch.setattr(padic, "is_prime", counting)
    assert list(sweep(check, **params))
    assert len(seen) == calls
