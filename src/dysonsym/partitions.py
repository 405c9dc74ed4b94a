"""Integer partitions, rank/crank statistics, and their symmetrized moments.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty partition is ``()``.  Everything here is exact integer
arithmetic.

The count tables are read off generating functions rather than counted by
enumeration.  p(n) comes from Euler's pentagonal number recurrence.  The
crank table M(m, n) is the q^n coefficient of the Andrews-Garvan series
(G. E. Andrews and F. G. Garvan, "Dyson's crank of a partition", Bull. AMS
18, 1988)

    sum_n M(m, n) q^n = (1/(q)_inf) sum_{j>=1} (-1)^(j-1) q^(j(j-1)/2 + j|m|) (1 - q^j),

and the rank table N(m, n) is the coefficient of the same series with
exponent j(3j-1)/2 + j|m| (A. O. L. Atkin and H. P. F. Swinnerton-Dyer,
1954).  Each table costs O(n^1.5) integer operations instead of O(p(n)).
Enumerating the partitions of n and counting ``crank`` or ``rank`` is the
independent route the tests compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Dict, Iterator, List, Tuple

Partition = Tuple[int, ...]

# Signed convention for the crank table at n = 1: the q^1 coefficient of the
# crank generating function, which crank_counts(1) returns.
CRANK_TABLE_ONE = {-1: 1, 0: -1, 1: 1}

# Rank tables kept; the benchmark's congruence-scan workload reads 40 (every
# n up to 40).  The crank tables stay unbounded, which bench/test_bench.py
# asserts.
_RANK_CACHE = 128


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

    ``n = 0`` yields only the empty partition.
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


def _partition_numbers(n: int) -> List[int]:
    # [p(0), ..., p(n)] by Euler's pentagonal number recurrence.
    p = [1] + [0] * n
    for total in range(1, n + 1):
        value, j = 0, 1
        while j * (3 * j - 1) // 2 <= total:
            sign = 1 if j % 2 else -1
            value += sign * p[total - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= total:
                value += sign * p[total - j * (3 * j + 1) // 2]
            j += 1
        p[total] = value
    return p


def partition_count(n: int) -> int:
    """p(n), the number of partitions of ``n``, by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partition_numbers(n)[n]


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


def _gf_table(n: int, base_exponent: Callable[[int], int]) -> CountTable:
    # q^n coefficient of (1/(q)_inf) sum_{j>=1} (-1)^(j-1) q^e (1 - q^j), with
    # e = base_exponent(j) + j|m|, for every m; zero entries are dropped.
    p = _partition_numbers(n)
    by_abs = []
    for a in range(n + 1):
        value, j = 0, 1
        while (e := base_exponent(j) + j * a) <= n:
            term = p[n - e] - (p[n - e - j] if e + j <= n else 0)
            value += term if j % 2 else -term
            j += 1
        by_abs.append(value)
    return CountTable(
        n, {m: by_abs[abs(m)] for m in range(-n, n + 1) if by_abs[abs(m)]}
    )


@lru_cache(maxsize=None)
def crank_counts(n: int) -> CountTable:
    """The crank count table M(., n), from the Andrews-Garvan generating function.

    For n >= 2 this is the number of partitions of n with each crank.  At
    n = 1 the series gives the signed table {-1: 1, 0: -1, 1: 1}, not the
    crank -1 of the partition (1); that convention makes the moment sums
    come out right uniformly.
    """
    if n < 1:
        raise ValueError("crank table requires n >= 1")
    return _gf_table(n, lambda j: j * (j - 1) // 2)


@lru_cache(maxsize=_RANK_CACHE)
def rank_counts(n: int) -> CountTable:
    """The rank count table N(., n) for n >= 1.

    Read off the Atkin-Swinnerton-Dyer generating function.
    """
    if n < 1:
        raise ValueError("rank table requires n >= 1")
    return _gf_table(n, lambda j: j * (3 * j - 1) // 2)


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
