#!/usr/bin/env python3
"""Timing survey of exact Gowers-norm computation on random functions.

    python scripts/u4_timing.py [max_n]

Each row times U^2, U^3 and U^4 of one random function, each as the median
of ``REPEATS`` ``time.perf_counter`` timings after one warm call, with their
min-max spread beside it, and ends with the
largest per-call peak of traced memory (each call run once more under
``tracemalloc``, after the timed call has filled the caches, so it is the
call's own scratch) next to the process's peak RSS so far.  Seven kinds of
rows: an eighth-root phase on F_2^n, the same kind of phase written out and
read back as text (so it carries no exponent table and takes the ring-value
columns), a Z[i]-valued function (a + b i) / 4, a +-1 phase (integer values, so U^4 has no minus
half) and a sixteenth-root phase (the largest ring of the generated |tau|^2
terms) on F_2^n for n = 2..max_n, a cube-root phase on F_3^n for n =
2..min(max_n, 5), where the default budget stops U^4, and a fifth-root
phase (whose sums take the Gram fold) on F_5^n for n = 2..min(max_n, 3).  On F_2^2, F_2^3, F_3^2 and F_5^2 every norm whose
definition sums at most 2^14 derivatives (all but U^4 on F_5^2) is also
compared with the definition-chasing ``direct_gowers_power``, as exact ring
elements; a mismatch exits with status 1.
"""
import random
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

from hofa import analysis as an
from hofa.cyclotomic import ring
from hofa.serialize import dump_function, load_function


REPEATS = 5  # timed calls per norm, after the warm one


def timed(fn) -> tuple:
    """fn's median time over ``REPEATS`` calls and their min and max, in s."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times), max(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def traced_peak_mb(fn) -> float:
    """Peak traced memory of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def gaussian_function(rng, n, den=4):
    """A 1-bounded Z[i]-valued function (a + b i) / den on F_2^n."""
    pts = [(a, b) for a in range(-den, den + 1) for b in range(-den, den + 1) if a * a + b * b <= den * den]
    coeffs = np.array([pts[rng.randrange(len(pts))] for _ in range(2**n)], dtype=np.int64).T
    return an.BoundedFunction(2, n, ring(2, 2), coeffs, den)


def loaded_phase(rng, n):
    """An eighth-root phase on F_2^n written out and read back: no exponent table."""
    return load_function(dump_function(an.random_unimodular_exact(rng, 2, n, 3)))


# label, p, generator, largest n, largest n checked against the oracle
KINDS = [
    ("eighth-root phase", 2, lambda rng, n: an.random_unimodular_exact(rng, 2, n, 3), None, 3),
    ("loaded eighth-root phase", 2, loaded_phase, None, 3),
    ("Z[i] values, den 4", 2, gaussian_function, None, 3),
    ("+-1 phase", 2, lambda rng, n: an.random_unimodular_exact(rng, 2, n, 1), None, 3),
    ("sixteenth-root phase", 2, lambda rng, n: an.random_unimodular_exact(rng, 2, n, 4), None, 3),
    ("cube-root phase", 3, lambda rng, n: an.random_unimodular_exact(rng, 3, n, 1), 5, 2),
    ("fifth-root phase", 5, lambda rng, n: an.random_unimodular_exact(rng, 5, n, 1), 3, 2),
]


def same_power(a, b) -> bool:
    """Two exact U^d powers in one ring, as elements over their denominators, are equal."""
    return a.ring == b.ring and all(x * b.power_den == y * a.power_den for x, y in zip(a.power_num, b.power_num))


def main(max_n=8) -> int:
    status = 0
    for label, p, make, top, checked in KINDS:
        rng = random.Random(0)
        for n in range(2, min(max_n, top or max_n) + 1):
            f = make(rng, n)
            row, peak = [f"{label} F_{p}^{n}"], 0.0
            for d in (2, 3, 4):
                val = an.gowers_norm(f, d)  # the warm call
                med, lo, hi = timed(lambda: an.gowers_norm(f, d))
                row.append(f"U^{d}={val.norm_float():.5f} ({med:.4f}s, {lo:.4f}-{hi:.4f})")
                peak = max(peak, traced_peak_mb(lambda: an.gowers_norm(f, d)))
                if n <= checked and p ** (n * d) <= 2**14 and not same_power(val, an.direct_gowers_power(f, d)):
                    row.append(f"MISMATCH: U^{d} != direct_gowers_power")
                    status = 1
            row.append(f"tracemalloc peak {peak:.2f} MB  peak RSS {peak_rss_mb():.1f} MB")
            print("  ".join(row), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 8))
