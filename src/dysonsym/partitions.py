"""Integer partitions, rank/crank statistics, and their symmetrized moments.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty partition is ``()``.  Everything here is exact integer
arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, Tuple

Partition = Tuple[int, ...]

# Signed convention for the crank table at n = 1.
CRANK_TABLE_ONE = {-1: 1, 0: -1, 1: 1}


def check_partition(parts) -> Partition:
    """Normalize to a tuple, verifying weakly decreasing positive parts."""
    lam = tuple(parts)
    for i, part in enumerate(lam):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        if i and lam[i - 1] < part:
            raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of ``n`` in lexicographically decreasing order.

    ``partitions_of(0)`` yields only the empty partition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _one_free_partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    # Partitions of n with every part >= 2.
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 1, -1):
        for rest in _one_free_partitions(n - first, first):
            yield (first,) + rest


def partition_count(n: int) -> int:
    """p(n), the number of partitions of ``n``.

    Counts partitions part size by part size, bottom-up, so there is no
    recursion depth limit and nothing is cached between calls.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Ferrers diagram.  An involution."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def rank(lam: Partition) -> int:
    """Largest part minus number of parts."""
    if not lam:
        raise ValueError("rank of the empty partition is undefined")
    return lam[0] - len(lam)


def _count_greater(desc: Partition, bound: int) -> int:
    # Number of entries > bound in a weakly decreasing sequence.
    lo, hi = 0, len(desc)
    while lo < hi:
        mid = (lo + hi) // 2
        if desc[mid] > bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


def crank(lam: Partition) -> int:
    """Andrews-Garvan-Dyson crank of a nonempty partition.

    The largest part if there are no ones; otherwise the number of parts
    larger than the number of ones, minus the number of ones.
    """
    if not lam:
        raise ValueError("crank of the empty partition is undefined")
    ones = len(lam) - _count_greater(lam, 1)
    if ones == 0:
        return lam[0]
    return _count_greater(lam, ones) - ones


@dataclass(frozen=True)
class CountTable:
    """Exact map from a statistic value to its count, at fixed weight n.

    Treated as immutable after construction.
    """

    n: int
    counts: Dict[int, int]

    def __getitem__(self, m: int) -> int:
        return self.counts.get(m, 0)

    def support(self):
        return sorted(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "counts": [[m, self.counts[m]] for m in sorted(self.counts)]}
        )

    @classmethod
    def from_json(cls, text: str) -> "CountTable":
        data = json.loads(text)
        return cls(n=data["n"], counts={int(m): int(c) for m, c in data["counts"]})

    def to_csv(self) -> str:
        lines = ["m,count"]
        lines.extend(f"{m},{self.counts[m]}" for m in sorted(self.counts))
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def crank_counts(n: int) -> CountTable:
    """The crank count table M(., n).

    For n >= 2 this counts partitions of n by crank.  For n = 1 it returns
    the signed convention table {-1: 1, 0: -1, 1: 1}, which makes the
    moment sums come out right even though (1) itself has crank -1.
    """
    if n < 1:
        raise ValueError("crank table requires n >= 1")
    if n == 1:
        return CountTable(1, dict(CRANK_TABLE_ONE))
    counts: Dict[int, int] = {}
    # Split each partition into its block of ones (M of them) and a
    # one-free remainder; the crank only needs the remainder's part counts.
    for ones in range(n + 1):
        rest = n - ones
        for rho in _one_free_partitions(rest):
            if ones == 0:
                c = rho[0]
            else:
                c = _count_greater(rho, ones) - ones
            counts[c] = counts.get(c, 0) + 1
    return CountTable(n, counts)


@lru_cache(maxsize=None)
def rank_counts(n: int) -> CountTable:
    """The rank count table N(., n) for n >= 1."""
    if n < 1:
        raise ValueError("rank table requires n >= 1")
    counts: Dict[int, int] = {}
    for lam in partitions_of(n):
        m = rank(lam)
        counts[m] = counts.get(m, 0) + 1
    return CountTable(n, counts)


def gen_binomial(a: int, b: int) -> int:
    """Falling-factorial binomial C(a, b) = a(a-1)...(a-b+1)/b!.

    Defined for any integer a (including negatives) and b >= 0.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


def _moment(k: int, table: CountTable) -> int:
    shift = (k - 1) // 2
    return sum(gen_binomial(m + shift, k) * c for m, c in table.counts.items())


def crank_moment(k: int, n: int) -> int:
    """Symmetrized crank moment: sum over m of C(m + floor((k-1)/2), k) M(m, n)."""
    if k < 1 or n < 1:
        raise ValueError("crank_moment requires k >= 1 and n >= 1")
    return _moment(k, crank_counts(n))


def rank_moment(k: int, n: int) -> int:
    """Symmetrized rank moment: sum over m of C(m + floor((k-1)/2), k) N(m, n)."""
    if k < 1 or n < 1:
        raise ValueError("rank_moment requires k >= 1 and n >= 1")
    return _moment(k, rank_counts(n))
