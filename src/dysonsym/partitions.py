"""Integer partitions, rank/crank statistics, and their symmetrized moments.

A partition is represented as a plain tuple of weakly decreasing positive
integers; the empty partition is ``()``.  Everything here is exact integer
arithmetic.

The count tables are read off generating functions rather than counted by
enumeration.  p(n) comes from Euler's pentagonal number recurrence, into
one table per process that every count table reads.  The crank table
M(m, n) is the q^n coefficient of the Andrews-Garvan series (G. E. Andrews
and F. G. Garvan, "Dyson's crank of a partition", Bull. AMS 18, 1988)

    sum_n M(m, n) q^n = (1/(q)_inf) sum_{j>=1} (-1)^(j-1) q^(j(j-1)/2 + j|m|) (1 - q^j),

and the rank table N(m, n) is the coefficient of the same series with
exponent j(3j-1)/2 + j|m| (A. O. L. Atkin and H. P. F. Swinnerton-Dyer,
1954).  Each table costs O(n^1.5) integer operations instead of O(p(n)).
Enumerating the partitions of n and counting ``crank`` or ``rank`` is the
independent route the tests compare against.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache
from math import comb
from operator import neg
from typing import Callable, Dict, Iterator, List, Tuple

Partition = Tuple[int, ...]

# Signed convention for the crank table at n = 1: the q^1 coefficient of the
# crank generating function, which crank_counts(1) returns.
CRANK_TABLE_ONE = {-1: 1, 0: -1, 1: 1}

# Rank tables kept; the benchmark's congruence-scan workload reads 40 (every
# n up to 40).  The crank tables stay unbounded, which bench/test_bench.py
# asserts.
_RANK_CACHE = 128

# [p(0), ..., p(N)] for the largest N asked so far in this process, read by
# partition_count and by every crank and rank table (see _partition_numbers).
# Its size is set by that N alone, as one call at N would build the same list
# anyway: about 0.09 MiB at N = 2,000, 1.5 MiB at 20,000, 6.4 MiB at 60,000.
_P_TABLE = [1]


def check_partition(parts) -> Partition:
    """Normalize to a tuple, verifying weakly decreasing positive parts.

    A part must be of type ``int`` exactly, so ``True`` (a ``bool``) is
    no part; the JSON wire formats hold parts to the same rule.
    """
    lam = tuple(parts)
    for i, part in enumerate(lam):
        if type(part) is not int or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
        if i and lam[i - 1] < part:
            raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def is_partition(parts) -> bool:
    """True iff ``check_partition`` would accept ``parts``; copies nothing.

    A value that is not iterable is no partition, so this gives False where
    ``check_partition`` raises ``TypeError``.
    """
    prev = None
    try:
        for part in parts:
            if type(part) is not int or part < 1 or (prev is not None and prev < part):
                return False
            prev = part
    except TypeError:  # only iterating can raise it: the comparisons are of ints
        return False
    return True


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of ``n`` in lexicographically decreasing order.

    Only parts <= ``max_part`` are used (all parts when it is None); a
    ``max_part`` below 1 yields nothing for n >= 1.  ``n = 0`` yields only
    the empty partition.  One list of parts is rewritten in place, as in
    Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math. 70, 1998): the
    next partition lowers the last part above 1 by one and spreads the
    weight it frees, with the ones after it, greedily over parts no larger
    than the lowered one.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    parts: List[int] = []
    # Replace parts[h:] by `total` spread over parts of size `v` at most,
    # then point h at the last part above 1 (h < 0 once all parts are 1).
    h, v, total = 0, max_part, n
    while True:
        q, r = divmod(total, v)
        parts[h:] = [v] * q
        if r:
            parts.append(r)
        if r > 1:
            h = len(parts) - 1
        elif v > 1:
            h += q - 1  # the last copy of v
        else:
            h -= 1  # parts from h on are all 1, those before are >= 2
        yield tuple(parts)
        if h < 0:
            return
        v = parts[h] - 1
        total = v + len(parts) - h  # parts[h] plus the ones after it


def _partition_numbers(n: int) -> List[int]:
    # The shared table, extended to hold at least [p(0), ..., p(n)]; callers
    # read indices <= n and never write to it.  Only the entries past its end
    # are computed, by Euler's pentagonal number theorem: p(t) is the sum of
    # sign(g) p(t - g) over the generalized pentagonal numbers g <= t, that is
    # g = j(3j - 1)/2 and j(3j + 1)/2 with sign (-1)^(j-1).  They go into a
    # new list, which then replaces the table, so a caller holding the old one
    # still holds a correct prefix and no caller sees a half-written entry.
    global _P_TABLE
    table = _P_TABLE
    if n < len(table):
        return table
    # (g, sign) in increasing order, 1, 2, 5, 7, 12, 15, ... with signs
    # + + - - + + ..., up to n (the last pair's g may pass it).
    offsets = []
    j = 1
    while (g := j * (3 * j - 1) // 2) <= n:
        sign = 1 if j % 2 else -1
        offsets += [(g, sign), (g + j, sign)]
        j += 1
    p = table + [0] * (n + 1 - len(table))
    for t in range(len(table), n + 1):
        value = 0
        for g, sign in offsets:
            if g > t:
                break
            if sign > 0:
                value += p[t - g]
            else:
                value -= p[t - g]
        p[t] = value
    _P_TABLE = p
    return p


def partition_count(n: int) -> int:
    """p(n), the number of partitions of ``n``, by Euler's pentagonal recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partition_numbers(n)[n]


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Ferrers diagram.  An involution.

    Column c has as many cells as lam has parts >= c; one pointer walks
    back over the parts as c grows, so this takes O(len(lam) + lam[0]).
    """
    if not lam:
        return ()
    cols = []
    height = len(lam)
    for c in range(1, lam[0] + 1):
        while lam[height - 1] < c:
            height -= 1
        cols.append(height)
    return tuple(cols)


def rank(lam: Partition) -> int:
    """Largest part minus number of parts."""
    if not lam:
        raise ValueError("rank of the empty partition is undefined")
    return lam[0] - len(lam)


def _count_greater(desc: Partition, bound: int) -> int:
    # Number of entries > bound in a weakly decreasing sequence: negated, the
    # entries ascend, and those > bound are the ones before -bound.
    return bisect_left(desc, -bound, key=neg)


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


def _wire_tuple(value) -> tuple:
    """The items of a JSON array.  Any other value raises ``TypeError``:
    ``tuple()`` would read a string as its characters, an object as its keys."""
    if type(value) is not list:
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return tuple(value)


class CountTable:
    """Exact map from a statistic value to its count, at fixed weight n.

    Treated as immutable after construction.  Not iterable: ``[]`` reads a
    count and a missing value reads 0, so the sequence protocol behind
    ``iter`` and ``in`` would never stop.
    """

    __slots__ = ("n", "counts")
    __iter__ = None

    def __init__(self, n: int, counts: Dict[int, int]) -> None:
        self.n = n
        self.counts = counts

    def __repr__(self) -> str:
        return f"CountTable(n={self.n!r}, counts={self.counts!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.counts) == (other.n, other.counts)

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
        """Parse the wire form; ``counts`` must be an array, ``n``, values and
        counts of type ``int``, and no value may repeat.  Every fault, nesting
        too deep for ``json.loads`` included, raises ``ValueError``."""
        try:
            data = json.loads(text)
            n, rows = data["n"], [(m, c) for m, c in _wire_tuple(data["counts"])]
        except (KeyError, TypeError, RecursionError) as exc:  # key missing, wrong kind, too deep
            raise ValueError(f"not a count table: {exc!r}") from exc
        for entry in [n] + [x for row in rows for x in row]:
            if type(entry) is not int:
                raise ValueError(f"count table entries must be integers, got {entry!r}")
        counts = dict(rows)
        if len(counts) < len(rows):
            raise ValueError("a value repeats in the count table")
        return cls(n=n, counts=counts)


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

    Defined for any integer a (including negatives) and b >= 0.  For
    a >= 0 this is ``math.comb(a, b)`` (0 when b > a); for a < 0 it is
    (-1)^b C(b - a - 1, b), since negating each of the b factors turns
    a(a-1)...(a-b+1) into (-1)^b (b-a-1)(b-a-2)...(-a).  Both cases run in
    C, so a huge b costs no loop of b steps.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    if a >= 0:
        return comb(a, b)
    value = comb(b - a - 1, b)
    return -value if b % 2 else value


def _moment(k: int, table: CountTable) -> int:
    shift = (k - 1) // 2
    return sum(gen_binomial(m + shift, k) * c for m, c in table.counts.items())


def _residues(counts: Dict[int, int], t: int) -> Tuple[int, ...]:
    # Entry i sums the counts of the values congruent to i mod t.
    out = [0] * t
    for m, c in counts.items():
        out[m % t] += c
    return tuple(out)


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
