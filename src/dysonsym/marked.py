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
from functools import lru_cache, partial, update_wrapper
from itertools import chain, product
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

from .dyson import DysonSymbol, dyson_crank, has_dyson_shape, validate_dyson
from .partitions import (
    Partition,
    check_partition,
    crank_counts,
    gen_binomial,
    is_partition,
    partitions_of,
)

Pair = Tuple[Partition, Partition]
Group = Tuple[Tuple[int, int, int, bool], Tuple[Pair, ...]]  # ((mass, A, B, flag), pairs)

# Cache bounds.  `verify all` at its default bounds fills the symbol-list cache
# (`enumerate_marked`) with 33 lists, and enumeration's cache of level
# groupings (`_level_groups`) with 173 (the benchmark's objects workload: 141);
# these bounds keep all of them.  Counting keeps one range of tables per
# k for each label (`_widest_range`): the tables of every weight up to the
# largest asked for, 3 profile and 3 full-crank ranges in `verify all`.  A
# range replaces the narrower one before it, so a store holds at most one
# range per k.  The fold's DP states, level entries and memo live for one
# range.  The wire format keeps two caches of levels, the JSON text of each
# (`_level_json`) and one shared object per decoded level (`_level`); `verify
# all` fills neither, and the objects workload fills each with 817 levels (its
# sizes (2, 14), (3, 13) and (4, 12) have 683, 462 and 214 distinct levels,
# some shared).
_TABLE_CACHE = 64
_GROUP_CACHE = 512
_LEVEL_CACHE = 2048


class MarkedDysonSymbol(NamedTuple):
    vectors: Tuple[Pair, ...]  # vectors[i] is level i+1
    markers: Tuple[int, ...]  # (p_1, ..., p_{k-1}), ascending index

    @property
    def k(self) -> int:
        return len(self.vectors)

    def to_json(self) -> str:
        """The wire form: ``{"k": k, "vectors": [levels k..1], "p": [p_{k-1}..p_1]}``.

        Byte for byte what ``json.dumps`` writes for that dict, joined from
        one fragment per level (see ``_level_fragment``), so equal levels
        are written once.
        """
        levels = ", ".join([_level_fragment(pair) for pair in reversed(self.vectors)])
        p = list(reversed(self.markers))
        # A list of ints reads the same in repr and in JSON.
        markers = repr(p) if _exact_ints(p) else json.dumps(p)
        return f'{{"k": {self.k}, "vectors": [{levels}], "p": {markers}}}'

    @classmethod
    def from_json(cls, text: str) -> "MarkedDysonSymbol":
        """Parse and validate the wire form; the inverse of ``to_json``.

        Every part is checked once, by ``validate_marked``; ``k``, parts
        and markers must be of type ``int`` (``true`` and ``1.0`` are
        rejected).  A rejected symbol is checked again part by part and
        marker by marker, so that the error names the first bad one.  Every
        fault raises ``ValueError``.  Equal levels of decoded symbols are one
        object (``_level``).
        """
        data = json.loads(text)
        try:
            vectors = tuple(
                [(tuple(v["alpha"]), tuple(v["beta"])) for v in reversed(data["vectors"])]
            )
            markers = tuple(data["p"])[::-1]
            k = data["k"]
        except (KeyError, TypeError) as exc:  # a key missing, or a value of the wrong kind
            raise ValueError(f"not a marked Dyson symbol: {exc!r}") from exc
        if type(k) is not int or len(vectors) != k or len(markers) != k - 1:
            raise ValueError("inconsistent level/marker counts")
        eta = cls(vectors, markers)
        if not validate_marked(eta):
            for a, b in vectors:
                check_partition(a)
                check_partition(b)
            for p in markers:
                if type(p) is not int:
                    message = f"markers must be integers, got {p!r}"
                    try:
                        int(p)  # "x" and NaN fail with int()'s own message
                    except (TypeError, OverflowError) as exc:  # null, a list, infinity
                        raise ValueError(message) from exc
                    raise ValueError(message)
            raise ValueError(f"not a valid marked Dyson symbol: {eta}")
        return cls(tuple([_level(pair) for pair in vectors]), markers)


# The class's own constructor less its keyword-argument wrapper, for the
# kernels that build many symbols from a (vectors, markers) tuple.
_new_marked = partial(tuple.__new__, MarkedDysonSymbol)


def _exact_ints(parts) -> bool:
    for part in parts:
        if type(part) is not int:
            return False
    return True


def _level_fragment(pair: Pair) -> str:
    """One level's ``{"alpha": [...], "beta": [...]}`` text.

    Levels of ``int`` tuples come from ``_level_json``.  Any other level
    is written directly: ``(True,) == (1,)`` and ``(1.0,) == (1,)``, so a
    cache keyed by value would give such a level another level's text, and
    a list is no cache key.
    """
    a, b = pair
    if type(a) is tuple and type(b) is tuple and _exact_ints(a) and _exact_ints(b):
        return _level_json(a, b)
    return _level_json.__wrapped__(a, b)


@lru_cache(maxsize=_LEVEL_CACHE)
def _level_json(a: Partition, b: Partition) -> str:
    return json.dumps({"alpha": list(a), "beta": list(b)})


@lru_cache(maxsize=_LEVEL_CACHE)
def _level(pair: Pair) -> Pair:
    """The first-seen pair equal to ``pair``: decoded symbols share levels.

    Only validated pairs, whose parts are ``int``, come here.
    """
    return pair


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
        return has_dyson_shape(*vectors[0])
    # The markers are ints ascending from p_0 = 1.
    lo = 1
    for p in markers:
        if type(p) is not int or p < lo:
            return False
        lo = p
    bounds = (1,) + markers  # bounds[i] = p_i with p_0 = 1
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
    for x, y in zip(a, b):
        if x <= y:
            return False
    return True


def is_strict(eta: MarkedDysonSymbol) -> bool:
    """True iff every level below the top is a strict bipartition.

    A pair is strict exactly when its crank is >= 0 and its balance 0: by
    induction on j, the ``balanced_count`` scan finds beta_1..beta_j all
    unbalanced iff at least i parts of alpha exceed each beta_i, i <= j.
    The counting tables read strictness off (crank, balance).
    """
    for a, b in eta.vectors[:-1]:
        if not is_strict_pair(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration: a walk over markers and levels that builds every symbol
# ---------------------------------------------------------------------------


def _partitions_in_range(lo: int, hi: int, cap: int) -> Tuple[Partition, ...]:
    """Partitions with parts in [lo, hi] and sum <= cap, sorted by sum."""
    if lo < 1 or hi < lo:
        return ((),)
    found = [
        p for s in range(max(cap, 0) + 1) for p in partitions_of(s, hi) if not p or p[-1] >= lo
    ]
    return tuple(sorted(found, key=lambda p: (sum(p), p)))


@lru_cache(maxsize=_GROUP_CACHE)
def _level_groups(lo: int, hi: int, cap: int) -> Tuple[Group, ...]:
    """Pairs with parts in [lo, hi] and mass <= cap, grouped by summary.

    The summaries (mass, A_i, B_i, exposes), with A_i = large + balance and
    B_i = small - balance, ascend; ``exposes`` says whether the pair
    exposes ``hi`` as its largest part or through ``lo``, which a
    both-empty top level right above it requires.  The pairs of a group
    add the same to a symbol's weight, so the walk picks groups, not pairs.
    """
    groups: Dict[tuple, List[Pair]] = {}
    candidates = _partitions_in_range(lo, hi, cap)
    for a in candidates:
        for b in candidates:
            mass = sum(a) + sum(b)
            if mass > cap:
                break
            _, l_i, s_i, bal = _pair_stats(a, b, top=False)
            exposes = max(a[:1] + b[:1] + (lo,)) == hi
            groups.setdefault((mass, l_i + bal, s_i - bal, exposes), []).append((a, b))
    return tuple((key, tuple(groups[key])) for key in sorted(groups))


def _top_groups(lo: int, cap: int, dyson: bool) -> Tuple[Group, ...]:
    """Top-level pairs with parts >= lo and mass <= cap, grouped by summary.

    The top obeys the Dyson-symbol shape rules with lo as its smallest
    allowed part: alpha is empty, (lo,) or repeats its largest part; beta
    is free under a nonempty alpha and of the same shape under an empty
    one.  A Dyson symbol (``dyson``, k = 1) has no ((), (lo,)).  The top
    has no balance, so its summary is (mass, large, small, both empty),
    laid out as in ``_level_groups`` with A = large and B = small; the
    both-empty pair needs the level below to expose ``lo``.  A summary
    depends on beta only through its sum and length, so the betas of one
    (sum, length) are taken together.
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
        for (bsum, blen), betas in shapes:
            mass = asum + bsum
            if mass > cap:
                break
            key = (mass, max(len(a), blen), min(len(a), blen), not (a or blen))
            groups.setdefault(key, []).extend((a, b) for b in betas)
    return tuple((key, tuple(groups[key])) for key in sorted(groups))


def _marker_choices(left: int, remaining: int, lo: int = 1,
                    prefix: Tuple[int, ...] = ()) -> Iterator[Tuple[int, ...]]:
    # `prefix` extended by `left` ascending markers, each >= lo, that sum
    # to at most `remaining`; (k - 1, n) gives every (p_1, ..., p_{k-1})
    # with p_1 >= 1 and sum <= n.
    if left == 0:
        yield prefix
        return
    for p in range(lo, remaining // left + 1):
        yield from _marker_choices(left - 1, remaining - p, p, prefix + (p,))


def _walk(k: int, n: int) -> List[MarkedDysonSymbol]:
    """Every k-marked symbol of weight n, built level by level, top first.

    For each marker tuple the walk descends through one group per level
    (``_top_groups`` for level k, ``_level_groups`` below it), summing
    their A and B; each leaf stands for the product of its groups' pairs.
    A level is pruned once the part sums plus markers exceed n, or the
    rectangle term (A + k - 1) B exceeds what is left of n: the term never
    shrinks as levels are added (A_i >= B_i >= 0).  A leaf is a level-1
    group at which the term equals what is left.  It shares no counting
    code with ``_fold_range``, which the tests compare it against.
    """
    out: List[MarkedDysonSymbol] = []
    tops: Dict[int, Tuple[Group, ...]] = {}  # by top marker, for this call
    for markers in _marker_choices(k - 1, n):
        bounds = (1,) + markers
        budget0 = n - sum(markers)
        top = bounds[-1]
        if top not in tops:
            # Built once, for the largest budget: the other markers are >= 1.
            tops[top] = _top_groups(top, n - top - (k - 2) if k > 1 else n, k == 1)
        _descend(out, [], markers, bounds, budget0, tops[top], k, budget0, 0, 0, False)
    return out


def _descend(out: List[MarkedDysonSymbol], path: List[Tuple[Pair, ...]],
             markers: Tuple[int, ...], bounds: Tuple[int, ...], budget0: int,
             top_groups: Tuple[Group, ...], level: int, budget: int, a_acc: int,
             b_acc: int, need_exposed: bool) -> None:
    # One level of ``_walk``: `path` holds the pair lists chosen above it,
    # `need_exposed` is set only on level k-1 under a both-empty top.  A
    # module function, not a closure: a closure that calls itself is a
    # reference cycle, and keeps what it captured alive until the cyclic
    # collector runs.
    k = len(bounds)
    if level == k:
        groups = top_groups
    else:
        groups = _level_groups(bounds[level - 1], bounds[level], budget0)
    for (mass, a_i, b_i, flag), pairs in groups:
        if mass > budget:
            break
        if need_exposed and not flag:
            continue
        a_new, b_new = a_acc + a_i, b_acc + b_i
        left = budget - mass
        rectangle = (a_new + k - 1) * b_new
        if rectangle > left:
            continue
        path.append(pairs)
        if level > 1:
            _descend(out, path, markers, bounds, budget0, top_groups,
                     level - 1, left, a_new, b_new, level == k and flag)
        elif rectangle == left:
            for chosen in product(*path):
                out.append(_new_marked((chosen[::-1], markers)))
        path.pop()


@lru_cache(maxsize=_TABLE_CACHE)
def enumerate_marked(k: int, n: int) -> Tuple[MarkedDysonSymbol, ...]:
    """All k-marked Dyson symbols of weight n, in a deterministic order.

    Built by ``_walk``; the order is not part of the interface.  For k = 1
    these are the Dyson symbols of n, found by the same walk.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    return tuple(_walk(k, n))


# ---------------------------------------------------------------------------
# Counting: one memoized fold over level histograms
# ---------------------------------------------------------------------------


def _level_states(hi: int, cap: int, k: int) -> List[Dict[tuple, int]]:
    """Counts of the pairs with parts in [lo, hi], for every lo = 1..hi
    (index lo - 1), by DP state; ``_level_entries`` reads them.

    No pair is built: one DP over the part values v = hi, ..., 1 tracks
    the pair's summary (mass, len alpha, len beta, unbalanced), with alpha
    as the longer side, ties included.  When the c beta parts equal to v
    arrive, the G = len alpha parts already read are the ones above v, and
    min(c, G - unbalanced) of the c parts are unbalanced.  The states after
    v are those for lo = v.  A state's A = len alpha + len beta -
    unbalanced and B = unbalanced; states whose own rectangle term
    (A + k - 1) B takes mass past ``cap`` are dropped, since no symbol with
    k levels holds them; both only grow, so a kept state's count is that of
    every pair with its summary, whatever ``cap``.
    """
    states: Dict[tuple, int] = {(0, 0, 0, 0): 1}
    out: List[Dict[tuple, int]] = []  # lo = hi first
    for v in range(hi, 0, -1):
        # The b beta parts equal to v, then the a alpha parts: the term
        # only grows with each, so both loops stop at the first miss.
        mid: Dict[tuple, int] = {}
        for (mass, la, lb, unbalanced), count in states.items():
            for b in range((cap - mass) // v + 1):
                lb_b = lb + b
                u = unbalanced + min(b, la - unbalanced)
                m = mass + v * b
                if m + (la + lb_b - u + k - 1) * u > cap:
                    break
                key = (m, la, lb_b, u)
                mid[key] = mid.get(key, 0) + count
        nxt: Dict[tuple, int] = {}
        for (mass, la, lb, u), count in mid.items():
            side = lb - u + k - 1  # balance + k - 1
            for a in range((cap - mass) // v + 1):
                m = mass + v * a
                if m + (la + a + side) * u > cap:
                    break
                key = (m, la + a, lb, u)
                nxt[key] = nxt.get(key, 0) + count
        out.append(nxt)
        states = nxt
    return out[::-1]


Entries = Dict[tuple, Dict[int, Dict[tuple, int]]]  # shape -> mass -> tag -> count


def _level_entries(states: Dict[tuple, int], label: Callable[[int, int], tuple]) -> Entries:
    """States of ``_level_states`` as the fold reads them: (A_i, B_i) ->
    mass -> label -> count, masses ascending.

    A state (mass, la, lb, u) with la >= lb has balance lb - u, so A_i =
    la + lb - u and B_i = u, and the label ``label(la - lb, lb - u)``; with
    la > lb it also stands for its swap, ``label(lb - la, lb - u)``.
    """
    entries: Entries = {}
    for (mass, la, lb, u), count in states.items():
        if la < lb:
            continue
        tags = entries.setdefault((la + lb - u, u), {}).setdefault(mass, {})
        tag = label(la - lb, lb - u)
        tags[tag] = tags.get(tag, 0) + count
        if la > lb:
            tag = label(lb - la, lb - u)
            tags[tag] = tags.get(tag, 0) + count
    return {shape: dict(sorted(by_mass.items())) for shape, by_mass in entries.items()}


def _top_histogram(lo: int, cap: int, k: int, dyson: bool) -> Entries:
    """The fold's top entries, (large, small, both empty) -> mass -> crank
    -> count, for the top pairs with parts >= lo; laid out as the groups of
    ``_top_groups``, with A = large and B = small.

    Counted in closed form: with P(m, L) the partitions of m into exactly L
    parts >= lo, the alphas of Dyson shape with length L >= 2 (largest part
    repeated) number P(m, L) - P(m - 1, L), since adding one to a largest
    part is a bijection onto the rest; the one alpha of length 1 is (lo,).
    Beta is free (P(m, L)) under a nonempty alpha and of alpha's shape under
    an empty one, without (lo,) for a Dyson symbol (``dyson``).  Pairs
    whose rectangle term (large + k - 1) small takes mass past ``cap`` are
    left out.
    """
    longest = cap // lo
    # parts[L][m]: partitions of m into exactly L parts >= lo (smallest part
    # lo, or every part lowered by one).
    parts = [[1] + [0] * cap]
    for length in range(1, longest + 1):
        row, below = [0] * (cap + 1), parts[-1]
        for m in range(lo * length, cap + 1):
            row[m] = row[m - length] + below[m - lo]
        parts.append(row)

    def shaped(length: int, m: int) -> int:
        if length < 2 or m < lo * length:
            return int(m == lo * length)  # (), (lo,) and too small an m
        return parts[length][m] - parts[length][m - 1]

    hist: Entries = {}
    for la in range(longest + 1):
        for lb in range(longest + 1 - la):
            large, small = max(la, lb), min(la, lb)
            room = cap - (large + k - 1) * small
            if lo * (la + lb) > room:  # the term only grows with lb
                break
            if la == 0 and dyson and lb == 1:
                continue
            betas = parts[lb] if la else [shaped(lb, m) for m in range(cap + 1)]
            for ma in range(lo * la, room - lo * lb + 1):
                ways = shaped(la, ma)  # only ma = 0 for the empty alpha
                if ways:
                    for mb in range(lo * lb, room - ma + 1):
                        if betas[mb]:
                            by_mass = hist.setdefault((large, small, la == lb == 0), {})
                            cranks = by_mass.setdefault(ma + mb, {})
                            cranks[la - lb] = cranks.get(la - lb, 0) + ways * betas[mb]
    return hist


def _fold_range(k: int, max_n: int,
                label: Callable[[int, int], tuple]) -> List[Dict[tuple, int]]:
    """Counts of k-marked symbols of every weight 1 <= n <= max_n (entry
    n), keyed by the top crank, l - s + 2D, and the labels of levels 1..k-1
    laid end to end.

    A level's label is the tuple ``label(crank, balance)``; levels whose
    labels are equal are not told apart.  The fold runs from the top
    down and chooses each level's lower marker itself, so one state stands
    for every marker prefix that reaches it.  Like ``_walk`` it reads a
    level only through its summary (mass, A_i, B_i, flag), with A - B =
    l - s + 2D, so a state below the top is (level, upper marker, weight
    left, A, B, need exposed).  It is memoized, and its value counts the
    lower levels by (A - B at the leaf, their labels).  The levels come
    from ``_level_entries`` and the top from ``_top_histogram``, pruned as
    in ``_walk``.  Under a both-empty top, level k - 1 must expose its
    upper marker hi: with lo < hi its pairs are the DP's states under hi
    less those under hi - 1, built at a larger cap; with lo = hi, all.

    No state depends on n: a level under the upper marker hi holds at most
    max_n - hi, and a DP or top histogram built for a larger weight only
    holds more states, which ``below`` prunes by what is left.  So one DP
    per upper marker, one top histogram per lower marker and one memo serve
    every n.  The top is read one (lower marker, shape, weight left under
    it) at a time; each such state is asked for once, so the memo keeps
    only the states further down, and its counts go to the weight of every
    top mass at once.
    """
    if k < 1 or max_n < 1:
        raise ValueError("k and n must be positive")
    states: Dict[int, List[Dict[tuple, int]]] = {}
    levels: Dict[Tuple[int, int, bool], Entries] = {}
    memo: Dict[tuple, Dict[tuple, int]] = {}

    def level_states(hi: int) -> List[Dict[tuple, int]]:
        if hi not in states:  # hi is a marker, so a level under it holds at most max_n - hi
            states[hi] = _level_states(hi, max_n - hi, k)
        return states[hi]

    def level_entries(lo: int, hi: int, need: bool) -> Entries:
        need = need and lo < hi
        if (lo, hi, need) not in levels:
            counts = level_states(hi)[lo - 1]
            if need:
                under = level_states(hi - 1)[lo - 1]
                counts = {s: c - under.get(s, 0) for s, c in counts.items() if c != under.get(s, 0)}
            levels[lo, hi, need] = _level_entries(counts, label)
        return levels[lo, hi, need]

    def below(level: int, hi: int, left: int, a_acc: int, b_acc: int,
              need: bool) -> Dict[tuple, int]:
        state = (level, hi, left, a_acc, b_acc, need)
        if state in memo:
            return memo[state]
        out: Dict[tuple, int] = {}
        for lo in range(1, hi + 1) if level > 1 else (1,):
            room = left - lo if level > 1 else left  # p_{level-1} = lo
            if room < 0:
                break
            for (a_i, b_i), by_mass in level_entries(lo, hi, need).items():
                a_new, b_new = a_acc + a_i, b_acc + b_i
                rectangle = (a_new + k - 1) * b_new
                if rectangle > room:
                    continue
                if level == 1:
                    for tag, count in by_mass.get(room - rectangle, {}).items():
                        key = (a_new - b_new,) + tag
                        out[key] = out.get(key, 0) + count
                    continue
                for mass, tagged in by_mass.items():
                    if mass + rectangle > room:
                        break
                    lower = below(level - 1, lo, room - mass, a_new, b_new, False).items()
                    for tag, count in tagged.items():
                        for key, ways in lower:
                            key += tag
                            out[key] = out.get(key, 0) + count * ways
        if level < k - 1:  # the top asks for each state right under it once
            memo[state] = out
        return out

    tables: List[Dict[tuple, int]] = [{} for _ in range(max_n + 1)]
    for lo in range(1, max_n + 1) if k > 1 else (1,):
        marker = lo if k > 1 else 0  # p_{k-1} = lo; a Dyson symbol has none
        # The histogram leaves out only the pairs whose term passes the
        # largest room.
        for (large, small, both_empty), by_mass in _top_histogram(
                lo, max_n - marker, k, k == 1).items():
            rectangle = (large + k - 1) * small
            # The levels below fill what the top leaves, `left`, exactly; a
            # 1-marked top is the leaf.  Each `left` is counted once and
            # serves every top mass, at weight marker + mass + left; the
            # masses do not ascend, so each is tested.
            if k > 1:
                lefts = range(rectangle, max_n - marker - min(by_mass) + 1)
            else:
                lefts = (rectangle,)
            for left in lefts:
                if k > 1:
                    lower = below(k - 1, lo, left, large, small, both_empty).items()
                else:
                    lower = [((large - small,), 1)]
                # crank -> [(key, ways)], built once for every mass, so the
                # tables of the weights this `left` reaches share their keys.
                keyed: Dict[int, list] = {}
                for mass, cranks in by_mass.items():
                    if marker + mass + left <= max_n:
                        table = tables[marker + mass + left]
                        for crank, count in cranks.items():
                            if crank not in keyed:
                                keyed[crank] = [((crank,) + key, ways) for key, ways in lower]
                            for key, ways in keyed[crank]:
                                table[key] = table.get(key, 0) + count * ways
    # `below` calls itself through its closure cell, a reference cycle that
    # holds the memo, level entries and DP states; emptying the cell frees
    # them on return instead of at the cyclic collector's next run.
    del below
    return tables


class _RangeInfo(NamedTuple):
    hits: int  # tables read from a kept range
    misses: int  # ranges built
    currsize: int  # ranges kept, one per k


def _widest_range(build: Callable[[int, int], list]) -> Callable[[int, int], object]:
    """A per-weight front end ``table(k, n)`` over ``build(k, max_n)``, which
    gives the tables of every weight up to max_n (entry n).

    ``table(k, n)`` reads entry n of the widest range built so far for k
    and builds a new range, at max_n = n, only for an n beyond it (or an n
    below 1, which ``build`` rejects); so one range per k is kept.  Like an
    ``lru_cache`` it has ``cache_info()`` and ``cache_clear()``, and takes
    the name, docstring and module of ``build``, which is ``__wrapped__``.
    """
    ranges: Dict[int, list] = {}
    hits = misses = 0

    def table(k: int, n: int):
        nonlocal hits, misses
        tables = ranges.get(k)
        if tables is not None and 0 < n < len(tables):
            hits += 1
        else:
            tables = ranges[k] = build(k, n)
            misses += 1
        return tables[n]

    def cache_info() -> _RangeInfo:
        return _RangeInfo(hits, misses, len(ranges))

    def cache_clear() -> None:
        nonlocal hits, misses
        ranges.clear()
        hits = misses = 0

    table.cache_info = cache_info
    table.cache_clear = cache_clear
    return update_wrapper(table, build)


def _profile_label(crank: int, balance: int) -> tuple:
    return crank, balance


class _Counts(NamedTuple):
    folded: Dict[tuple, int]  # the fold table, by (top crank, l - s + 2D, c_1, bal_1, ...)
    every: Counter  # by crank vector


@_widest_range
def _counts(k: int, max_n: int) -> List[_Counts]:
    """Counts of k-marked symbols of each weight n <= max_n (entry n).

    Each weight keeps its ``_fold_range`` table, with every lower level
    labelled by its (crank, balance): the key (top crank, l - s + 2D, c_1,
    bal_1, ..., c_{k-1}, bal_{k-1}) is a symbol's cranks and balances, as
    l - s is the sum of the |c_i|.  Beside it go the counts by crank
    vector, read off the keys.  No symbol and no pair is built.
    """
    tables = _fold_range(k, max_n, _profile_label)
    for n, table in enumerate(tables):
        every: Dict[tuple, int] = {}
        for key, count in table.items():
            cranks = key[2::2] + key[:1]
            every[cranks] = every.get(cranks, 0) + count
        # Counter(d) copies d into a table of just its size.
        tables[n] = _Counts(table, Counter(every))
    return tables


def _fold_key(cranks: Tuple[int, ...], balances: Tuple[int, ...]) -> tuple:
    # The key under which `_counts` keeps the symbols of these cranks and
    # lower balances: (top crank, l - s + 2D, c_1, bal_1, c_2, bal_2, ...).
    return (cranks[-1], sum(map(abs, cranks)) + 2 * sum(balances),
            *chain.from_iterable(zip(cranks, balances)))


def count_fk(cranks: Tuple[int, ...], n: int) -> int:
    """Symbols of weight n with the given crank at every level.

    One entry of the counts by crank vector, without building any symbol.
    """
    cranks = tuple(cranks)
    if not cranks:
        raise ValueError("need at least one crank")
    return _counts(len(cranks), n).every.get(cranks, 0)


def count_fk_with_balance(
    cranks: Tuple[int, ...], balances: Tuple[int, ...], n: int
) -> int:
    """Symbols with given cranks and given balance numbers below the top.

    One entry of the fold table, whose keys are the symbols' cranks and
    balances; no symbol is built.
    """
    cranks, balances = tuple(cranks), tuple(balances)
    k = len(cranks)
    if k < 2 or len(balances) != k - 1:
        raise ValueError("need k >= 2 cranks and k-1 balance numbers")
    return _counts(k, n).folded.get(_fold_key(cranks, balances), 0)


def count_fk_strict(cranks: Tuple[int, ...], n: int) -> int:
    """Strict symbols of weight n with the given crank vector.

    Strictness is read off crank and balance (see ``is_strict``): every
    lower crank is >= 0 and every balance 0.  So the count is 0 for a
    negative lower crank, and otherwise one entry of the fold table, at
    zero balances; no symbol is built.
    """
    cranks = tuple(cranks)
    k = len(cranks)
    if k < 2:
        raise ValueError("strict counting requires k >= 2")
    table = _counts(k, n).folded  # read first: it rejects a bad n
    if min(cranks[:-1]) < 0:
        return 0
    return table.get(_fold_key(cranks, (0,) * (k - 1)), 0)


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
    vectors, markers = eta
    k = len(vectors)
    if not 1 <= j <= k:
        raise ValueError(f"level out of range: {j}")
    a, b = vectors[j - 1]
    if len(a) == len(b):
        return eta
    if j < k:
        new_pair = (b, a)
    else:
        top_lo = markers[-1] if k > 1 else 1
        if len(b) >= 2:
            t = b[0] - b[1]
        elif len(b) == 1:
            t = b[0] - top_lo
        else:
            t = 0
        new_a = (b[0] - t,) + b[1:] if b else ()
        new_b = (a[0] + t,) + a[1:] if a else ()
        new_pair = (new_a, new_b)
    levels = list(vectors)
    levels[j - 1] = new_pair
    return _new_marked((tuple(levels), markers))


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
