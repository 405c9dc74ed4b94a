"""Dyson's two-row symbol for partitions and its crank.

A symbol is a pair of partitions (alpha, beta) whose shape is restricted so
that the pair encodes an ordinary partition of weight
|alpha| + |beta| + len(alpha) * len(beta).
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from .partitions import Partition, check_partition, conjugate, partitions_of

# Crank histograms kept; `verify all` reads 29 (cor2.3 at n = 2..30).
_CRANK_TABLE_CACHE = 64


class DysonSymbol(NamedTuple):
    alpha: Partition
    beta: Partition

    def weight(self) -> int:
        return sum(self.alpha) + sum(self.beta) + len(self.alpha) * len(self.beta)

    def crank(self) -> int:
        return len(self.alpha) - len(self.beta)

    def to_json(self) -> str:
        # Weight is recomputed on load, never stored.
        return json.dumps({"alpha": list(self.alpha), "beta": list(self.beta)})

    @classmethod
    def from_json(cls, text: str) -> "DysonSymbol":
        data = json.loads(text)
        sym = cls(check_partition(data["alpha"]), check_partition(data["beta"]))
        if not validate_dyson(sym):
            raise ValueError(f"not a valid Dyson symbol: {sym}")
        return sym


def validate_dyson(sym: DysonSymbol) -> bool:
    """True iff the pair satisfies the structural side conditions.

    Empty alpha forces beta to repeat its largest part (so beta has at
    least two parts); a one-part alpha must be (1); a longer alpha must
    repeat its largest part.
    """
    alpha, beta = sym
    try:
        check_partition(alpha)
        check_partition(beta)
    except ValueError:
        return False
    if len(alpha) == 0:
        return len(beta) >= 2 and beta[0] == beta[1]
    if len(alpha) == 1:
        return alpha[0] == 1
    return alpha[0] == alpha[1]


def dyson_crank(sym: DysonSymbol) -> int:
    """len(alpha) - len(beta)."""
    return sym.crank()


def to_dyson_symbol(lam: Partition) -> DysonSymbol:
    """Encode a nonempty partition as a Dyson symbol of the same weight."""
    if not lam:
        raise ValueError("cannot encode the empty partition")
    ones = sum(1 for part in lam if part == 1)
    if ones == 0:
        return DysonSymbol((), conjugate(lam))
    big = [part for part in lam if part > ones]
    # Parts that are neither ones nor greater than the count of ones.
    mid = [part for part in lam if 1 < part <= ones]
    beta = tuple(part - ones for part in big)
    nu = tuple(sorted([ones] + mid, reverse=True))
    alpha = conjugate(nu)  # has exactly `ones` parts since nu's largest part is `ones`
    return DysonSymbol(alpha, beta)


def from_dyson_symbol(sym: DysonSymbol) -> Partition:
    """Decode a Dyson symbol back to the partition it encodes."""
    if not validate_dyson(sym):
        raise ValueError(f"not a valid Dyson symbol: {sym}")
    alpha, beta = sym
    if not alpha:
        return conjugate(beta)
    ones = len(alpha)
    nu = conjugate(alpha)
    # nu's largest part equals `ones`; one occurrence of it was inserted
    # during encoding and is dropped here.
    assert nu and nu[0] == ones
    mid = nu[1:]
    big = tuple(part + ones for part in beta)
    return tuple(sorted(big + mid + (1,) * ones, reverse=True))


def enumerate_dyson_symbols(n: int, method: str = "bijection") -> Tuple[DysonSymbol, ...]:
    """All Dyson symbols of weight ``n``, each exactly once.

    ``method="bijection"`` maps the partitions of n through the encoding
    (the default, linear in p(n)); ``method="structural"`` searches over
    all shape-valid pairs directly and is kept as an independent oracle.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if method == "bijection":
        return tuple(to_dyson_symbol(lam) for lam in partitions_of(n))
    if method == "structural":
        return _structural_search(n)
    raise ValueError(f"unknown method: {method}")


def _structural_search(n: int) -> Tuple[DysonSymbol, ...]:
    found = []
    for asum in range(n + 1):
        for alpha in partitions_of(asum):
            if len(alpha) == 1 and alpha[0] != 1:
                continue
            if len(alpha) > 1 and alpha[0] != alpha[1]:
                continue
            for bsum in range(n - asum + 1):
                for beta in partitions_of(bsum):
                    if not alpha and not (len(beta) >= 2 and beta[0] == beta[1]):
                        continue
                    if asum + bsum + len(alpha) * len(beta) == n:
                        found.append(DysonSymbol(alpha, beta))
    return tuple(found)


@lru_cache(maxsize=_CRANK_TABLE_CACHE)
def _crank_table(n: int) -> Dict[int, int]:
    return Counter(sym.crank() for sym in enumerate_dyson_symbols(n))


def count_f1(m: int, n: int) -> int:
    """Number of Dyson symbols of weight n with crank m, by enumeration."""
    if n < 1:
        raise ValueError("n must be positive")
    return _crank_table(n).get(m, 0)
