"""The host's speed during a run, from a fixed loop timed all through it.

The benchmark runs on shared hosts whose CPUs slow down by half or more for
minutes at a time when other tenants are busy; process CPU time slows with
them, so it does not help.  A short fixed reference loop, timed before
every chunk of simulated time a pass runs (about every 0.1 s), slows with
the host at the same moments.  A pass's time scaled by ``REFERENCE_S`` over
the loop's median time during that pass reads as seconds on a host where
the loop takes ``REFERENCE_S``.  A change to the program moves it; a
busier host mostly does not.

The loop has the two kinds of work the program spends its time in:
interpreted Python, and numpy table look-ups over small byte arrays (as in
the Reed-Solomon codec).  Contention slows the two by different amounts,
so a loop of only one kind misjudges a workload dominated by the other.
It touches no object of the program, so nothing the program does to its
own state (allocations, caches, the collector) changes what it measures.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "reference_loop", "sample"]

#: Seconds the reference loop takes on the nominal host (about its time on
#: an idle 2-vCPU Xeon VM under CPython 3), so scaled times read as seconds.
REFERENCE_S = 0.0022

PY_ITERATIONS = 20_000
NP_ROUNDS = 48

_rng = np.random.default_rng(1)
_TABLE = _rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
_A = _rng.integers(0, 256, size=4096, dtype=np.uint8)
_B = _rng.integers(0, 256, size=4096, dtype=np.uint8)


def reference_loop() -> int:
    """Integer arithmetic in the interpreter, then byte-table gathers."""
    total = 0
    for i in range(PY_ITERATIONS):
        total += i * i % 7
    acc = np.zeros_like(_A)
    for row in range(NP_ROUNDS):
        acc ^= _TABLE[row, _A] ^ _B
    return total + int(acc[0])


def sample() -> float:
    """Seconds one reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
