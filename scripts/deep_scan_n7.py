"""Deep 3-adic scan of the coefficient sums C(m) for N = 7, k = 1.

Checks v_3(C(m)) >= 4 far beyond the desk-scale truncation order, entirely
in modular arithmetic, by congruences.coeff_C_valuations: nothing large is
ever materialised. A single index with v_3(C(m)) = 3 would certify that the
maximal integral root of the N = 7 map carries 3^2 rather than 3^3.

Usage: python scripts/deep_scan_n7.py [M_MAX]
"""

import sys
import time

from mirrorint.congruences import coeff_C_valuations

N, P = 7, 3
CAP = 4  # we test v_3 >= 4


def main(m_max: int) -> int:
    t0 = time.time()
    ms = range(1, m_max + 1)
    # A capped v is at least v0 + CAP >= CAP, so v < CAP is always exact.
    for m, (v, _) in zip(ms, coeff_C_valuations(N, P, ms, CAP)):
        if v < CAP:
            print(f"FAILURE: v_3(C({m})) = {v} < 4  (a={m % P}, K={m // P})")
            return 1
        if m % 500 == 0:
            print(f"... m={m}, {time.time() - t0:.1f}s")
    print(
        f"no index with v_3(C(m)) < 4 up to m = {m_max} "
        f"({time.time() - t0:.1f}s); the 27th root stays 3-integral"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2500))
