"""Reference work for reporting timings at a fixed speed.

The kernel is Fraction Gaussian elimination of a fixed 14x14 integer matrix:
exact arithmetic like apolar's, and no apolar code.  Run as a script, a fresh
interpreter does PROCESS_REPEATS kernels, a stand-in for a cold CLI process.
This file is part of the benchmark's definition: changing it rescales every
timing.
"""

import gc
import random
import time
from fractions import Fraction

KERNEL_SECONDS = 0.005  # what one kernel is taken to cost
PROCESS_REPEATS = 30
PROCESS_SECONDS = 0.2  # what the script run is taken to cost, start-up included
_RNG = random.Random(20130507)
MATRIX = [[_RNG.randint(-9, 9) for _ in range(14)] for _ in range(14)]


def kernel(rows=MATRIX) -> int:
    """Rank by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def time_kernel() -> float:
    """Seconds one kernel takes now, with the cyclic GC off."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


if __name__ == "__main__":
    for _ in range(PROCESS_REPEATS):
        kernel()
