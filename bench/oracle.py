"""Independent count tables from generating functions, in exact integers.

Nothing here imports ``dysonsym``.  p(n) comes from Euler's pentagonal
recurrence; the crank table M(m, n) from the Andrews-Garvan generating
function

    sum_n M(m, n) q^n = (1/(q)_inf) sum_{j>=1} (-1)^(j-1) q^(j(j-1)/2 + j|m|) (1 - q^j)

and the rank table N(m, n) from the Atkin-Swinnerton-Dyer analogue with
exponent j(3j-1)/2 + j|m|.  At n = 1 the crank series gives the signed
table {-1: 1, 0: -1, 1: 1}, the convention ``dysonsym`` uses.
"""

from __future__ import annotations

from math import factorial
from typing import Dict, List


def partition_numbers(limit: int) -> List[int]:
    """[p(0), ..., p(limit)] by Euler's pentagonal number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


def _tables(limit: int, base_exponent) -> List[Dict[int, int]]:
    # tables[n][m] for 1 <= n <= limit, zero entries dropped.
    p = partition_numbers(limit)
    tables: List[Dict[int, int]] = [{} for _ in range(limit + 1)]
    for a in range(limit + 1):  # a = |m|
        series = [0] * (limit + 1)  # sum_j (-1)^(j-1) q^e (1 - q^j)
        j = 1
        while base_exponent(j) + j * a <= limit:
            e = base_exponent(j) + j * a
            sign = 1 if j % 2 else -1
            series[e] += sign
            if e + j <= limit:
                series[e + j] -= sign
            j += 1
        terms = [(e, c) for e, c in enumerate(series) if c]
        for n in range(1, limit + 1):
            value = sum(c * p[n - e] for e, c in terms if e <= n)
            if value:
                tables[n][a] = value
                tables[n][-a] = value
    return tables


def crank_tables(limit: int) -> List[Dict[int, int]]:
    """M(m, n) as ``tables[n][m]`` for 1 <= n <= limit (index 0 unused)."""
    return _tables(limit, lambda j: j * (j - 1) // 2)


def rank_tables(limit: int) -> List[Dict[int, int]]:
    """N(m, n) as ``tables[n][m]`` for 1 <= n <= limit (index 0 unused)."""
    return _tables(limit, lambda j: j * (3 * j - 1) // 2)


def binomial(a: int, b: int) -> int:
    """a(a-1)...(a-b+1)/b! for any integer a and b >= 0."""
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


def moment(k: int, table: Dict[int, int]) -> int:
    """Symmetrized moment sum_m C(m + floor((k-1)/2), k) table[m]."""
    shift = (k - 1) // 2
    return sum(binomial(m + shift, k) * c for m, c in table.items())


class Oracle:
    """p(n), M(m, n) and N(m, n) for every n up to a limit, built once."""

    def __init__(self, limit: int, p_limit: int = 0):
        self.limit = limit
        self.p = partition_numbers(max(limit, p_limit))
        self.crank = crank_tables(limit)
        self.rank = rank_tables(limit)

    def mu(self, k: int, n: int) -> int:
        """Symmetrized crank moment mu_k(n)."""
        return moment(k, self.crank[n])

    def eta(self, k: int, n: int) -> int:
        """Symmetrized rank moment eta_k(n)."""
        return moment(k, self.rank[n])
