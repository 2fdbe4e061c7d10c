"""Deep 3-adic scan of the coefficient sums C(m) for N = 7, k = 1.

Checks v_3(C(m)) >= 4 far beyond the desk-scale truncation order, entirely
in modular arithmetic: coefficients enter through (valuation, unit mod 3^T)
pairs and harmonic numbers through scaled residues, so nothing large is ever
materialised. A single index with v_3(C(m)) = 3 would certify that the
maximal integral root of the N = 7 map carries 3^2 rather than 3^3.

Usage: python scripts/deep_scan_n7.py [M_MAX]
"""

import sys
import time

from mirrorint.harmonic import ModularHarmonicSum
from mirrorint.padic import big_B_units

N, K_OCC, P = 7, 1, 3
CAP = 4  # we test v_3 >= 4


def main(m_max: int) -> int:
    t0 = time.time()
    n_top = N * m_max
    scale = 0
    while P ** (scale + 1) <= n_top:
        scale += 1
    mod = P ** (scale + CAP + 1)

    # Scaled harmonic residues 3^scale * H_n mod 3^(scale+cap+1) at n = 7*m,
    # one forward move per m, past the indices in between.
    acc = ModularHarmonicSum(P, cap=scale + CAP + 1)
    h_res = {0: 0}
    for n in range(N, n_top + 1, N):
        acc.advance_to(n)
        x, w, _ = acc._combined()
        h_res[n] = x * P ** (scale - w) % mod

    # Coefficients as (valuation, unit mod 3^(scale+cap+1)) pairs.
    bv, bu = zip(*big_B_units(N, K_OCC, m_max, P, scale + CAP + 1))
    print(f"tables built in {time.time() - t0:.1f}s (scale {scale})")

    worst = None
    for m in range(1, m_max + 1):
        a, K = m % P, m // P
        total = 0
        for j in range(K + 1):
            hi, lo = a + j * P, K - j
            coeff = P ** (bv[hi] + bv[lo]) * bu[hi] * bu[lo] % mod
            total = (total + coeff * (h_res[N * lo] - P * h_res[N * hi])) % mod
        # total = 3^scale * C(m) mod 3^(scale+cap+1)
        v = 0
        t = total
        while t and t % P == 0 and v < scale + CAP:
            t //= P
            v += 1
        v_c = CAP if (total == 0 or v >= scale + CAP) else v - scale
        if worst is None or v_c < worst[1]:
            worst = (m, v_c)
        if v_c < CAP:
            print(f"FAILURE: v_3(C({m})) = {v_c} < 4  (a={a}, K={K})")
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
