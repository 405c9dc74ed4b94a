"""The fixed reference computation that the benchmark's times are scaled by.

The CPU this benchmark runs on is a share of a host: its speed moves by up
to 2x within seconds and stays slow or fast for minutes, longer than a run.
No statistic over one run's raw times absorbs that.  So every timed stretch
of a round is divided by the time of this computation, run on the same CPU
right before and right after it, and multiplied by ``REF_SECONDS``.

The computation does what ``dysonsym`` does most: it builds tuples of
partitions and hashes them into a dict, a few MB of short-lived objects.
It is part of the benchmark, not of ``dysonsym``, so no change to the
program changes it.  It runs in the benchmark's parent process (``run.py``),
so its memory never counts in a worker's peak.
"""

from __future__ import annotations

from time import perf_counter

# The scale of the benchmark's times: about what ``reference()`` takes on a
# 2-vCPU Intel Xeon VM (Python 3.11) in its fast stretches, so that a scaled
# time reads as seconds on such a machine.  Fixed: changing it rescales
# every time the benchmark reports.
REF_SECONDS = 0.05
REF_N = 34  # 17,977 partitions


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def reference() -> float:
    """Seconds taken by one pass of the fixed computation."""
    start = perf_counter()
    table = {lam: lam[0] - len(lam) for lam in _partitions(REF_N, REF_N)}
    histogram = {}
    for lam, rank in table.items():
        histogram[rank] = histogram.get(rank, 0) + lam.count(1)
    return perf_counter() - start
