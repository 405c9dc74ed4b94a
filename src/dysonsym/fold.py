"""The fold: counts of k-marked symbols of every weight up to a bound, by
the top crank, l - s + 2D and a label per lower level, with no symbol
built (``_fold_range``).  ``_counts`` labels each lower level with its
(crank, balance), under the keys of ``_fold_key``; the full-crank table of
``fullcrank`` uses ``_no_label``.  The walk in ``marked`` shares no code
with the fold.  Only the standard library is imported.
"""

from __future__ import annotations

from collections import Counter
from functools import update_wrapper
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Tuple

# Cache bounds.  Counting keeps one range of tables per k for each label
# (`_widest_range`): the tables of every weight up to the largest asked for,
# 3 profile and 3 full-crank ranges in `verify all`.  A range replaces the
# narrower one before it, so a store holds at most one range per k.  The
# fold's DP states, level entries and memo live for one range.  A range's
# tables share their keys across weights: one tuple per distinct key, and in
# `_counts` one per distinct crank vector, through intern dicts that live
# only while the range is built.


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
    The states do not come in mass order, so the masses are sorted: in
    ``_level_states(2, 12, 1)[0]``, shape (2, 0), mass 4 comes before 3.
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


def _top_histogram(lo: int, cap: int, k: int) -> Entries:
    """The fold's top entries, (large, small, both empty) -> mass -> crank
    -> count, for the top pairs with parts >= lo; laid out as the groups of
    ``_top_groups``, with A = large and B = small.

    Counted in closed form: with P(m, L) the partitions of m into exactly L
    parts >= lo, the alphas of Dyson shape with length L >= 2 (largest part
    repeated) number P(m, L) - P(m - 1, L), since adding one to a largest
    part is a bijection onto the rest; the one alpha of length 1 is (lo,).
    Beta is free (P(m, L)) under a nonempty alpha and of alpha's shape under
    an empty one, without (lo,) for a Dyson symbol (k = 1).  Pairs
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
            if la == 0 and k == 1 and lb == 1:
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
    n), by the top crank, l - s + 2D, and the labels of levels 1..k-1
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
    top mass at once.  Equal keys of the tables are one tuple, shared
    across weights.
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
    keys: Dict[tuple, tuple] = {}  # one tuple per distinct key, for every table
    for lo in range(1, max_n + 1) if k > 1 else (1,):
        marker = lo if k > 1 else 0  # p_{k-1} = lo; a Dyson symbol has none
        # The histogram leaves out only the pairs whose term passes the
        # largest room.
        for (large, small, both_empty), by_mass in _top_histogram(lo, max_n - marker, k).items():
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
                for mass, cranks in by_mass.items():
                    if marker + mass + left <= max_n:
                        table = tables[marker + mass + left]
                        for crank, count in cranks.items():
                            for key, ways in lower:
                                key = (crank,) + key
                                key = keys.setdefault(key, key)
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


def _no_label(crank: int, balance: int) -> tuple:
    return ()


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

    Keys are shared across weights: equal keys of the weights' tables are
    one tuple (``_fold_range`` interns them), and so are equal crank
    vectors, through an intern dict that lives only for the build.
    """
    tables = _fold_range(k, max_n, _profile_label)
    vectors: Dict[tuple, tuple] = {}
    for n, table in enumerate(tables):
        every: Dict[tuple, int] = {}
        for key, count in table.items():
            cranks = key[2::2] + key[:1]
            cranks = vectors.setdefault(cranks, cranks)
            every[cranks] = every.get(cranks, 0) + count
        # Counter(d) copies d into a table of just its size.
        tables[n] = _Counts(table, Counter(every))
    return tables


def _fold_key(cranks: Tuple[int, ...], balances: Tuple[int, ...]) -> tuple:
    # The key under which `_counts` keeps the symbols of these cranks and
    # lower balances: (top crank, l - s + 2D, c_1, bal_1, c_2, bal_2, ...).
    return (cranks[-1], sum(map(abs, cranks)) + 2 * sum(balances),
            *chain.from_iterable(zip(cranks, balances)))
