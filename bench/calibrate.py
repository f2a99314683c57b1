"""Machine speed probe for the benchmark.

The benchmark runs on shared machines whose speed drifts by a factor of
two within minutes, for every process alike.  `probe` times a fixed piece
of pure-Python work of the same kind as the package's (set algebra over
small tables) that belongs to the benchmark, so no change to the package
can move it.  Of the probes tried, frozenset and dict work tracked the
suite's item times over time better than a bit-mask loop did (drift
left over after scaling: 2-3% against 5-7%).  Item times are
divided by the probes taken next to them and multiplied by REFERENCE_S,
which expresses them in seconds at the speed where one probe takes
REFERENCE_S.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.001  # a round figure near one probe on a 2-core x86-64 VM, Python 3.11

_N = 5
_ADD = {(a, b): frozenset({(a + b) % _N, (a * b) % _N})
        for a in range(_N) for b in range(_N)}


def _work() -> int:
    """Set associativity scan of a fixed 5-element table, twice over:
    frozensets, dict lookups and generators, as in the package's
    set-valued code."""
    add = _ADD
    empty = frozenset()
    count = 0
    for _ in range(2):
        for a in range(_N):
            for b in range(_N):
                for c in range(_N):
                    left = empty.union(*(add[(x, c)] for x in add[(a, b)]))
                    right = empty.union(*(add[(a, y)] for y in add[(b, c)]))
                    count += left == right
    return count


def probe() -> float:
    """Seconds taken by one fixed unit of work right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
