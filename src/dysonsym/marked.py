"""k-marked Dyson symbols: structure, statistics, enumeration, bijections.

A k-marked symbol consists of k partition pairs (one per level) and an
ascending marker sequence p_1 <= ... <= p_{k-1} splitting the part ranges:
level i < k uses parts in [p_{i-1}, p_i] (with p_0 = 1), level k uses parts
>= p_{k-1}.  The top level additionally satisfies the same shape conditions
as a Dyson symbol, with p_{k-1} playing the role of the smallest allowed
part.  A 1-marked symbol is exactly a Dyson symbol.

Index conventions: ``vectors[0]`` is level 1 and ``vectors[k-1]`` is level
k; ``markers`` stores (p_1, ..., p_{k-1}) in ascending index order.  The
JSON wire format lists levels from k down to 1 and markers from p_{k-1}
down to p_1 (the order in which symbols are conventionally displayed).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, Iterator, List, Tuple

from .dyson import DysonSymbol, dyson_crank, validate_dyson
from .partitions import Partition, check_partition, crank_counts, gen_binomial, is_partition

Pair = Tuple[Partition, Partition]
Group = Tuple[tuple, Tuple[Pair, ...]]  # (statistics key, pairs); see _level_groups

# Cache bounds.  `verify all` at its default bounds touches 39 (k, n) tables,
# 266 level groupings and 355 partition lists (the benchmark's objects
# workload: 141 and 211); these bounds keep all of them.
_TABLE_CACHE = 64
_GROUP_CACHE = 512
_PARTITION_CACHE = 512


@dataclass(frozen=True)
class MarkedDysonSymbol:
    vectors: Tuple[Pair, ...]  # vectors[i] is level i+1
    markers: Tuple[int, ...]  # (p_1, ..., p_{k-1}), ascending index

    @property
    def k(self) -> int:
        return len(self.vectors)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "vectors": [
                    {"alpha": list(a), "beta": list(b)} for a, b in reversed(self.vectors)
                ],
                "p": list(reversed(self.markers)),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MarkedDysonSymbol":
        data = json.loads(text)
        vectors = tuple(
            (check_partition(v["alpha"]), check_partition(v["beta"]))
            for v in reversed(data["vectors"])
        )
        markers = tuple(reversed([int(p) for p in data["p"]]))
        if len(vectors) != data["k"] or len(markers) != data["k"] - 1:
            raise ValueError("inconsistent level/marker counts")
        eta = cls(vectors, markers)
        if not validate_marked(eta):
            raise ValueError(f"not a valid marked Dyson symbol: {eta}")
        return eta


@dataclass(frozen=True)
class SymbolStats:
    cranks: Tuple[int, ...]
    balances: Tuple[int, ...]  # last entry is 0 by convention
    large: Tuple[int, ...]
    small: Tuple[int, ...]

    @property
    def l(self) -> int:  # noqa: E741 - established notation
        return sum(self.large)

    @property
    def s(self) -> int:
        return sum(self.small)

    @property
    def D(self) -> int:
        return sum(self.balances)


def balanced_count(longer: Partition, shorter: Partition) -> int:
    """Number of balanced parts of the shorter partition against the longer.

    Scanning the shorter partition left to right, a part is balanced when
    the number of strictly larger parts in the longer partition equals the
    number of unbalanced parts seen so far; otherwise it is unbalanced.
    Both partitions are weakly decreasing, so the count of larger parts
    only grows along the scan and one pointer into ``longer`` tracks it.
    """
    if len(longer) < len(shorter):
        raise ValueError("first argument must have at least as many parts")
    unbalanced = 0
    balanced = 0
    greater = 0  # parts of `longer` strictly larger than the current part
    for part in shorter:
        while greater < len(longer) and longer[greater] > part:
            greater += 1
        if greater == unbalanced:
            balanced += 1
        else:
            unbalanced += 1
    return balanced


def _pair_stats(a: Partition, b: Partition, top: bool) -> Tuple[int, int, int, int]:
    # (crank, large, small, balance); balance is 0 for the top level.
    la, lb = len(a), len(b)
    if top:
        bal = 0
    elif la >= lb:
        bal = balanced_count(a, b)
    else:
        bal = balanced_count(b, a)
    return la - lb, max(la, lb), min(la, lb), bal


def statistics(eta: MarkedDysonSymbol) -> SymbolStats:
    """Per-level cranks, balance numbers, and large/small lengths."""
    k = eta.k
    cranks, balances, large, small = [], [], [], []
    for i, (a, b) in enumerate(eta.vectors, start=1):
        c, l_i, s_i, bal = _pair_stats(a, b, top=(i == k))
        cranks.append(c)
        balances.append(bal)
        large.append(l_i)
        small.append(s_i)
    return SymbolStats(tuple(cranks), tuple(balances), tuple(large), tuple(small))


def crank_vector(eta: MarkedDysonSymbol) -> Tuple[int, ...]:
    return tuple([len(a) - len(b) for a, b in eta.vectors])


def weight(eta: MarkedDysonSymbol) -> int:
    """Total weight: part sums, markers, and the rectangle correction term.

    The term is (l + D + k - 1)(s - D): l and s add up each level's longer
    and shorter lengths, D the balance numbers of the levels below the top.
    """
    vectors = eta.vectors
    base = sum(eta.markers)
    l = s = d = 0  # noqa: E741 - established notation
    for a, b in vectors:
        base += sum(a) + sum(b)
        if len(a) >= len(b):
            l, s = l + len(a), s + len(b)
        else:
            l, s = l + len(b), s + len(a)
    for a, b in vectors[:-1]:
        d += balanced_count(a, b) if len(a) >= len(b) else balanced_count(b, a)
    return base + (l + d + len(vectors) - 1) * (s - d)


def validate_marked(eta: MarkedDysonSymbol) -> bool:
    """True iff the marker ordering, part ranges, and top-level shape hold."""
    vectors, markers = eta.vectors, eta.markers
    k = len(vectors)
    if k < 1 or len(markers) != k - 1:
        return False
    try:
        for a, b in vectors:
            if not (is_partition(a) and is_partition(b)):
                return False
    except ValueError:  # a level that is not a pair
        return False
    if k == 1:
        # A 1-marked symbol is exactly a Dyson symbol; the (empty, single
        # part 1) pair is excluded so that the weight-n sets agree with
        # the Dyson symbols of n for every n >= 1.
        return validate_dyson(DysonSymbol(*vectors[0]))
    bounds = (1,) + markers  # bounds[i] = p_i with p_0 = 1
    if list(bounds) != sorted(bounds):
        return False
    # Each partition decreases, so its last and first parts bound the rest.
    for lo, hi, (a, b) in zip(bounds, markers, vectors):
        if a and (a[-1] < lo or a[0] > hi) or b and (b[-1] < lo or b[0] > hi):
            return False
    top_lo = markers[-1]
    a, b = vectors[-1]
    if a and a[-1] < top_lo or b and b[-1] < top_lo:
        return False
    if len(a) == 1:
        return a[0] == top_lo
    if len(a) > 1:
        return a[0] == a[1]
    if len(b) == 1:
        return b[0] == top_lo
    if len(b) >= 2:
        return b[0] == b[1]
    # Both top partitions empty: the top marker must be exposed just below,
    # either as the largest part of level k-1 or as the previous marker
    # (p_0 = 1 when k = 2).
    firsts = [p[0] for p in vectors[k - 2] if p]
    return top_lo == max(firsts + [bounds[k - 2]])


def is_strict_pair(a: Partition, b: Partition) -> bool:
    """alpha_i > beta_i for every index of beta (so alpha is the longer)."""
    if len(a) < len(b):
        return False
    return all(a[i] > b[i] for i in range(len(b)))


def is_strict(eta: MarkedDysonSymbol) -> bool:
    """True iff every level below the top is a strict bipartition."""
    return all(is_strict_pair(a, b) for a, b in eta.vectors[: eta.k - 1])


# ---------------------------------------------------------------------------
# The level walk: one search over markers and levels, shared by enumeration
# and counting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_PARTITION_CACHE)
def _partitions_in_range(lo: int, hi: int, cap: int) -> Tuple[Partition, ...]:
    """Partitions with parts in [lo, hi] and sum <= cap, sorted by sum."""
    if lo < 1 or hi < lo:
        return ((),)
    out: List[Partition] = [()]

    def rec(prefix: List[int], max_part: int, remaining: int) -> None:
        for part in range(min(max_part, remaining), lo - 1, -1):
            prefix.append(part)
            out.append(tuple(prefix))
            rec(prefix, part, remaining - part)
            prefix.pop()

    rec([], hi, cap)
    out.sort(key=lambda p: (sum(p), p))
    return tuple(out)


@lru_cache(maxsize=_GROUP_CACHE)
def _level_groups(lo: int, hi: int, cap: int) -> Tuple[Group, ...]:
    """Pairs with parts in [lo, hi] and mass <= cap, grouped by statistics.

    Keys are (mass, large, small, balance, crank, strict, exposes), in
    ascending order; ``exposes`` says whether the pair exposes ``hi`` as
    its largest part or through ``lo``, which a both-empty top level
    right above it requires.  The pairs of a group add the same to a
    symbol's weight and profile, so the walk picks groups, not pairs.
    """
    groups: Dict[tuple, List[Pair]] = {}
    candidates = _partitions_in_range(lo, hi, cap)
    for a in candidates:
        for b in candidates:
            mass = sum(a) + sum(b)
            if mass > cap:
                break
            c, l_i, s_i, bal = _pair_stats(a, b, top=False)
            exposes = max(a[:1] + b[:1] + (lo,)) == hi
            key = (mass, l_i, s_i, bal, c, is_strict_pair(a, b), exposes)
            groups.setdefault(key, []).append((a, b))
    return tuple((key, tuple(groups[key])) for key in sorted(groups))


def _top_groups(lo: int, cap: int, dyson: bool) -> Tuple[Group, ...]:
    """Top-level pairs with parts >= lo and mass <= cap, grouped by statistics.

    The top obeys the Dyson-symbol shape rules with lo as its smallest
    allowed part: alpha is empty, (lo,) or repeats its largest part; beta
    is free under a nonempty alpha and of the same shape under an empty
    one.  Keys are laid out as in ``_level_groups``, with balance 0 and
    strict True (neither counts at the top), and end with a flag for the
    both-empty pair, which needs the level below to expose ``lo``.  A
    Dyson symbol (``dyson``, k = 1) has no ((), (lo,)).  A key depends on
    beta only through its sum and length, so the betas of one (sum,
    length) are taken together.
    """

    def by_shape(betas: Tuple[Partition, ...]):
        # (sum, length) -> betas, in the ascending sums of `betas`.
        shapes: Dict[Tuple[int, int], List[Partition]] = {}
        for b in betas:
            shapes.setdefault((sum(b), len(b)), []).append(b)
        return shapes.items()

    parts = _partitions_in_range(lo, cap, cap)
    shaped = tuple(p for p in parts if p == (lo,) or len(p) > 1 and p[0] == p[1])
    under_empty = ((),) + tuple(b for b in shaped if not (dyson and b == (lo,)))
    every = by_shape(parts)
    groups: Dict[tuple, List[Pair]] = {}
    for a, shapes in (((), by_shape(under_empty)),) + tuple((a, every) for a in shaped):
        asum = sum(a)
        for (bsum, _), betas in shapes:
            mass = asum + bsum
            if mass > cap:
                break
            c, l_i, s_i, bal = _pair_stats(a, betas[0], top=True)
            key = (mass, l_i, s_i, bal, c, True, not (a or betas[0]))
            groups.setdefault(key, []).extend((a, b) for b in betas)
    return tuple((key, tuple(groups[key])) for key in sorted(groups))


def _marker_choices(k: int, n: int) -> Iterator[Tuple[int, ...]]:
    # Ascending tuples (p_1, ..., p_{k-1}) with p_1 >= 1 and sum <= n.
    def rec(depth: int, lo: int, remaining: int, prefix: Tuple[int, ...]):
        if depth == k - 1:
            yield prefix
            return
        left = k - 1 - depth  # markers still to place, each >= lo
        for p in range(lo, remaining // left + 1):
            yield from rec(depth + 1, p, remaining - p, prefix + (p,))

    yield from rec(0, 1, n, ())


def _walk(k: int, n: int, visit: Callable[[Tuple[int, ...], List[Group]], None]) -> None:
    """Call ``visit(markers, path)`` at every leaf of weight n.

    ``path`` holds one group per level, top first (``_top_groups`` for
    level k, ``_level_groups`` below it), and is reused once ``visit``
    returns.  One pair per group makes a symbol, and each symbol lies
    under exactly one leaf.  Every level, the top included, is pruned once
    the part sums plus markers exceed n, or the rectangle term
    (l + D + k - 1)(s - D) exceeds what is left of n: the term never
    shrinks as levels are added (each adds s_i - bal_i >= 0 to s - D).  A
    leaf is a level-1 group at which the term equals what is left; for
    k = 1 that is l * s = n - mass.
    """
    for markers in _marker_choices(k, n):
        bounds = (1,) + markers
        budget0 = n - sum(markers)
        path: List[Group] = []

        def descend(level: int, budget: int, l_acc: int, s_acc: int, d_acc: int,
                    need_exposed: bool) -> None:
            # `need_exposed` is set only on level k-1 under a both-empty top.
            if level == k:
                groups = _top_groups(bounds[-1], budget0, k == 1)
            else:
                groups = _level_groups(bounds[level - 1], bounds[level], budget0)
            for group in groups:
                mass, l_i, s_i, bal, _, _, flag = group[0]
                if mass > budget:
                    break
                if need_exposed and not flag:
                    continue
                l_new, s_new, d_new = l_acc + l_i, s_acc + s_i, d_acc + bal
                left = budget - mass
                rectangle = (l_new + d_new + k - 1) * (s_new - d_new)
                if rectangle > left:
                    continue
                path.append(group)
                if level > 1:
                    descend(level - 1, left, l_new, s_new, d_new, level == k and flag)
                elif rectangle == left:
                    visit(markers, path)
                path.pop()

        descend(k, budget0, 0, 0, 0, False)


@lru_cache(maxsize=_TABLE_CACHE)
def enumerate_marked(k: int, n: int) -> Tuple[MarkedDysonSymbol, ...]:
    """All k-marked Dyson symbols of weight n, in a deterministic order.

    Each leaf of ``_walk`` is expanded into its symbols, one pair from
    each level's group, the top's included.  For k = 1 these are the Dyson
    symbols of n, found by the same walk rather than by the partition
    encoding.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    out: List[MarkedDysonSymbol] = []

    def collect(markers: Tuple[int, ...], path: List[Group]) -> None:
        for pairs in product(*(pairs for _, pairs in path)):
            out.append(MarkedDysonSymbol(pairs[::-1], markers))

    _walk(k, n, collect)
    return tuple(out)


@lru_cache(maxsize=_TABLE_CACHE)
def _profile_table(k: int, n: int) -> Counter:
    """Counts of k-marked symbols of weight n by (cranks, balances, strict).

    ``balances`` are those of levels 1..k-1 and ``strict`` is
    ``is_strict``.  No symbol is built: each leaf of ``_walk`` stands for
    the product of its groups' sizes, the top's included, all with the
    same profile, which is read off the group keys.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    table: Counter = Counter()

    def tally(markers: Tuple[int, ...], path: List[Group]) -> None:
        count, cranks, balances, strict = 1, (), (), True
        for (_, _, _, bal, c, pair_strict, _), pairs in path:  # top first
            count *= len(pairs)
            cranks = (c,) + cranks
            balances = (bal,) + balances
            strict = strict and pair_strict
        table[cranks, balances[:-1], strict] += count  # the top has no balance

    _walk(k, n, tally)
    return table


@lru_cache(maxsize=_TABLE_CACHE)
def _crank_tables(k: int, n: int) -> Tuple[Counter, Counter]:
    """(all, strict) symbol counts by crank vector, read off the profile table."""
    every: Counter = Counter()
    strict: Counter = Counter()
    for (cranks, _, is_strict_symbol), count in _profile_table(k, n).items():
        every[cranks] += count
        if is_strict_symbol:
            strict[cranks] += count
    return every, strict


def count_fk(cranks: Tuple[int, ...], n: int) -> int:
    """Symbols of weight n with the given crank at every level.

    Read off the profile table, without building any symbol.
    """
    cranks = tuple(cranks)
    if not cranks:
        raise ValueError("need at least one crank")
    return _crank_tables(len(cranks), n)[0].get(cranks, 0)


def count_fk_with_balance(
    cranks: Tuple[int, ...], balances: Tuple[int, ...], n: int
) -> int:
    """Symbols with given cranks and given balance numbers below the top.

    Read off the profile table, without building any symbol.
    """
    cranks, balances = tuple(cranks), tuple(balances)
    k = len(cranks)
    if k < 2 or len(balances) != k - 1:
        raise ValueError("need k >= 2 cranks and k-1 balance numbers")
    table = _profile_table(k, n)
    return table.get((cranks, balances, True), 0) + table.get((cranks, balances, False), 0)


def count_fk_strict(cranks: Tuple[int, ...], n: int) -> int:
    """Strict symbols of weight n with the given crank vector.

    Read off the profile table, without building any symbol.
    """
    cranks = tuple(cranks)
    if len(cranks) < 2:
        raise ValueError("strict counting requires k >= 2")
    return _crank_tables(len(cranks), n)[1].get(cranks, 0)


def theorem21_rhs(cranks: Tuple[int, ...], n: int) -> int:
    """Predicted k-level count as a sum of one-level crank counts.

    Theorem 2.1 sums F_1(base + 2(t_1 + ... + t_{k-1}); n), with
    base = sum |m_i| + k - 1, over all nonnegative shift vectors t.  The
    shift vectors with sum s number C(s + k - 2, s), and Cor. 2.3 gives
    F_1(m; n) = M(-m, n), so the sum is O(n) reads of ``crank_counts(n)``.
    Needs n >= 2: at n = 1 the crank table is signed, not a count.
    """
    cranks = tuple(cranks)
    k = len(cranks)
    if k < 1 or n < 2:
        raise ValueError("need at least one crank and n >= 2")
    base = sum(abs(m) for m in cranks) + k - 1
    table = crank_counts(n)
    # C(s + k - 2, s) is C(s + k - 2, k - 2) for k >= 2 and [s == 0] for k = 1.
    return sum(
        gen_binomial(s + k - 2, s) * table[-(base + 2 * s)]
        for s in range((n - base) // 2 + 1)
    )


# ---------------------------------------------------------------------------
# The mirror map (negates one level's crank, preserves everything else)
# ---------------------------------------------------------------------------


def mirror(eta: MarkedDysonSymbol, j: int) -> MarkedDysonSymbol:
    """Negate the j-th crank (1-based), preserving weight and other cranks.

    Levels below the top are mirrored by swapping the pair.  At the top
    level the largest parts are shifted by t so that the repeated-part
    shape conditions survive; the same formula inverts itself, so the map
    is an involution.  Symbols with zero j-th crank are returned unchanged.
    """
    k = eta.k
    if not 1 <= j <= k:
        raise ValueError(f"level out of range: {j}")
    a, b = eta.vectors[j - 1]
    if len(a) == len(b):
        return eta
    if j < k:
        new_pair = (b, a)
    else:
        top_lo = eta.markers[-1] if k > 1 else 1
        if len(b) >= 2:
            t = b[0] - b[1]
        elif len(b) == 1:
            t = b[0] - top_lo
        else:
            t = 0
        new_a = (b[0] - t,) + b[1:] if b else ()
        new_b = (a[0] + t,) + a[1:] if a else ()
        new_pair = (new_a, new_b)
    vectors = eta.vectors[: j - 1] + (new_pair,) + eta.vectors[j:]
    return MarkedDysonSymbol(vectors, eta.markers)


# ---------------------------------------------------------------------------
# Merge/peel bijection between strict symbols and Dyson symbols
# ---------------------------------------------------------------------------


def phi(eta: MarkedDysonSymbol) -> DysonSymbol:
    """Merge a strict symbol with nonnegative cranks into a Dyson symbol.

    The merged alpha collects every level's alpha parts together with the
    markers; the merged beta collects the beta parts.  Weight is preserved
    and the resulting crank is (sum of level cranks) + k - 1.
    """
    if not is_strict(eta):
        raise ValueError("phi requires a strict symbol")
    if any(c < 0 for c in crank_vector(eta)):
        raise ValueError("phi requires nonnegative cranks at every level")
    alpha_parts: List[int] = list(eta.markers)
    beta_parts: List[int] = []
    for a, b in eta.vectors:
        alpha_parts.extend(a)
        beta_parts.extend(b)
    merged = DysonSymbol(
        tuple(sorted(alpha_parts, reverse=True)), tuple(sorted(beta_parts, reverse=True))
    )
    assert validate_dyson(merged), f"merge produced an invalid symbol: {merged}"
    return merged


def phi_inverse(sym: DysonSymbol, cranks: Tuple[int, ...]) -> MarkedDysonSymbol:
    """Peel a Dyson symbol into the unique strict symbol with these cranks.

    Requires every requested crank to be nonnegative and their sum plus
    k - 1 to equal the symbol's crank.  Peeling works from the top level
    down: the split point j is the largest index at which beta_j still
    dominates the alpha part m + j + 1 positions in (j = 0 when none
    does), and the next alpha part after the split becomes the marker.
    """
    cranks = tuple(cranks)
    k = len(cranks)
    if k < 1:
        raise ValueError("need at least one crank")
    if any(m < 0 for m in cranks):
        raise ValueError("cranks must be nonnegative")
    if not validate_dyson(sym):
        raise ValueError(f"not a valid Dyson symbol: {sym}")
    if dyson_crank(sym) != sum(cranks) + k - 1:
        raise ValueError(
            f"crank mismatch: symbol has {dyson_crank(sym)}, "
            f"profile requires {sum(cranks) + k - 1}"
        )
    if k == 1:
        return MarkedDysonSymbol(((sym.alpha, sym.beta),), ())
    a, b = list(sym.alpha), list(sym.beta)
    levels: List[Pair] = []
    markers_desc: List[int] = []
    for i in range(k, 1, -1):
        m = cranks[i - 1]
        j = 0
        for cand in range(len(b), 0, -1):
            if m + cand < len(a) and b[cand - 1] >= a[m + cand]:
                j = cand
                break
        levels.append((tuple(a[: m + j]), tuple(b[:j])))
        markers_desc.append(a[m + j])
        a = a[m + j + 1 :]
        b = b[j:]
    levels.append((tuple(a), tuple(b)))
    eta = MarkedDysonSymbol(tuple(reversed(levels)), tuple(reversed(markers_desc)))
    assert validate_marked(eta) and is_strict(eta), f"peeling failed: {eta}"
    assert weight(eta) == sym.weight()
    return eta
