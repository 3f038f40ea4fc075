#!/usr/bin/env python3
"""Timing survey of exact Gowers-norm computation on random phase functions.

    python scripts/u4_timing.py [max_n]

Each row times U^2, U^3 and U^4 of a random eighth-root phase on F_2^n and
ends with the process's peak RSS so far.  For n <= 3 every norm is also
compared with the definition-chasing ``direct_gowers_power``; a mismatch
exits with status 1.
"""
import random
import resource
import sys
import time

from hofa import analysis as an


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def main(max_n=8) -> int:
    rng = random.Random(0)
    status = 0
    for n in range(2, max_n + 1):
        f = an.random_unimodular_exact(rng, 2, n, 3)
        row = [f"n={n}"]
        for d in (2, 3, 4):
            t0 = time.time()
            val = an.gowers_norm(f, d)
            row.append(f"U^{d}={val.norm_float():.5f} ({time.time() - t0:.3f}s)")
            if n <= 3 and val.power_surd() != an.direct_gowers_power(f, d).power_surd():
                row.append(f"MISMATCH: U^{d} != direct_gowers_power")
                status = 1
        row.append(f"peak RSS {peak_rss_mb():.1f} MB")
        print("  ".join(row))
    return status


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 8))
