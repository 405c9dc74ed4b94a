"""Dyson's two-row symbol for partitions and its crank.

A symbol is a pair of partitions (alpha, beta) whose shape is restricted so
that the pair encodes an ordinary partition of weight
|alpha| + |beta| + len(alpha) * len(beta).
"""

from __future__ import annotations

import json
from functools import partial
from typing import NamedTuple, Tuple

from .partitions import (
    Partition,
    _wire_tuple,
    check_partition,
    conjugate,
    is_partition,
    partitions_of,
)


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
        """Parse and validate; every part is checked once, by ``validate_dyson``.

        ``check_partition`` runs only on a rejected symbol, to name a bad part.
        Every fault raises ``ValueError``: ``alpha`` and ``beta`` must be
        arrays, and text nested too deeply for ``json.loads`` is malformed.
        """
        try:
            data = json.loads(text)
            sym = cls(_wire_tuple(data["alpha"]), _wire_tuple(data["beta"]))
        except (KeyError, TypeError, RecursionError) as exc:  # key missing, wrong kind, too deep
            raise ValueError(f"not a Dyson symbol: {exc!r}") from exc
        if not validate_dyson(sym):
            check_partition(sym.alpha)
            check_partition(sym.beta)
            raise ValueError(f"not a valid Dyson symbol: {sym}")
        return sym


# The class's own constructor less its keyword-argument wrapper, for the
# encoding, which builds one symbol per partition from an (alpha, beta) tuple.
_new_dyson = partial(tuple.__new__, DysonSymbol)


def validate_dyson(sym: DysonSymbol) -> bool:
    """True iff both sides are partitions and the pair has Dyson's shape."""
    alpha, beta = sym
    return is_partition(alpha) and is_partition(beta) and has_dyson_shape(alpha, beta)


def has_dyson_shape(alpha: Partition, beta: Partition) -> bool:
    """The structural side conditions on a pair of partitions.

    Empty alpha forces beta to repeat its largest part (so beta has at
    least two parts); a one-part alpha must be (1); a longer alpha must
    repeat its largest part.
    """
    if len(alpha) == 0:
        return len(beta) >= 2 and beta[0] == beta[1]
    if len(alpha) == 1:
        return alpha[0] == 1
    return alpha[0] == alpha[1]


def to_dyson_symbol(lam: Partition) -> DysonSymbol:
    """Encode a nonempty partition as a Dyson symbol of the same weight.

    Checks that ``lam`` is a nonempty partition (``ValueError`` if not),
    then encodes it with ``_encode``.
    """
    if not lam:
        raise ValueError("cannot encode the empty partition")
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return _encode(lam)


def _encode(lam: Partition) -> DysonSymbol:
    """The encoding itself, for a nonempty partition that is known to be one.

    Nothing is checked: callers pass what ``partitions_of`` yields, or what
    ``to_dyson_symbol`` has checked.
    """
    ones = lam.count(1)
    if ones == 0:
        return _new_dyson(((), conjugate(lam)))
    # lam decreases: the parts > ones come first, lam[:big], then the
    # middle parts in (1, ones], lam[big:end], then the ones.
    end = len(lam) - ones
    big = end
    while big and lam[big - 1] <= ones:
        big -= 1
    # alpha is the conjugate of (ones, *middle): ones columns, column c
    # holding 1 + #{middle parts >= c} cells, which is 1 past the largest
    # middle part, lam[big].
    alpha = [1] * ones
    height = end
    for c in range(1, (lam[big] if big < end else 0) + 1):
        while lam[height - 1] < c:
            height -= 1
        alpha[c - 1] = height - big + 1
    return _new_dyson((tuple(alpha), tuple([part - ones for part in lam[:big]])))


def from_dyson_symbol(sym: DysonSymbol) -> Partition:
    """Decode a Dyson symbol back to the partition it encodes.

    The partition is beta's parts raised by len(alpha), then conjugate(alpha)
    without its largest part, then len(alpha) ones; it comes out in
    decreasing order, so nothing is sorted.
    """
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
    # Every part of big exceeds `ones` and no part of mid does, so the
    # concatenation is already weakly decreasing.
    big = tuple([part + ones for part in beta])
    return big + mid + (1,) * ones


def enumerate_dyson_symbols(n: int, method: str = "bijection") -> Tuple[DysonSymbol, ...]:
    """All Dyson symbols of weight ``n``, each exactly once.

    ``method="bijection"`` maps the partitions of n through ``_encode``
    (the default, linear in p(n)): ``partitions_of`` makes only nonempty
    partitions for n >= 1, so none is checked again.  ``method="structural"``
    takes the one level of each 1-marked symbol of n that ``marked._walk``
    builds; the walk shares no code with the encoding, so it is kept as an
    independent oracle.  Its order is the walk's, not the bijection's.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if method == "bijection":
        return tuple(map(_encode, partitions_of(n)))
    if method == "structural":
        from .marked import _walk  # here, as marked imports this module

        return tuple([_new_dyson(eta.vectors[0]) for eta in _walk(1, n)])
    raise ValueError(f"unknown method: {method}")


def count_f1(m: int, n: int) -> int:
    """Number of Dyson symbols of weight n with crank m, by enumeration.

    An oracle for ``crank_counts``: it encodes every partition of n on
    each call and keeps nothing.  It stays while the benchmark reads its
    own time as a per-layer metric (``dyson.count_f1.self_s``), which a
    deletion would turn into a missing key.
    """
    return sum(1 for sym in enumerate_dyson_symbols(n) if sym.crank() == m)
