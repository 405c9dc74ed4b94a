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
Symbols decoded from canonical text share one object per distinct level;
symbols read through ``json.loads`` do not.
"""

from __future__ import annotations

import json
import re  # loaded with json
from functools import lru_cache, partial
from itertools import product, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .dyson import DysonSymbol, has_dyson_shape, validate_dyson
from .fold import _counts, _fold_key
from .partitions import (
    Partition,
    _wire_tuple,
    check_partition,
    crank_counts,
    gen_binomial,
    is_partition,
    partitions_of,
)

Pair = Tuple[Partition, Partition]
Group = Tuple[Tuple[int, int, int, bool], Tuple[Pair, ...]]  # ((mass, A, B, flag), pairs)

# Cache bounds.  The symbol-list cache (`enumerate_marked`) keeps one list,
# the last one asked for: `verify all` at its default bounds builds 33 lists,
# each read by thm2.4 only (33 misses, no hit; thm2.6 walks the symbols it
# merges and keeps no list), and the benchmark's objects workload reads each
# of its 3 lists back to back.  The walk's tables (`_walk_groups`) keep one
# table per marker pair and one per top marker, each at the widest cap
# asked for: 37 level and 13 top tables after `verify all`, 44 and 14 after
# the objects workload.  Every verify driver asks for its largest weight
# first (`cli._by_weight`), so each table is built once, at that cap (50
# builds in `verify all`), and thm2.4 ends holding its weight-2 list.  The
# mergeable part of a table (`_merging_groups`) is kept while the table is,
# at most one per kept table: 50 after `verify all`, none after the objects
# workload.  The fold's caches are bounded in `fold`.
# The mirror memo (`_mirror_images`) keeps the image of each level object
# `mirror` has mirrored, and the level as its image's image: at most
# `_LEVEL_CACHE` entries, for one symbol list, since `enumerate_marked`
# empties it whenever it builds a new list.  The objects workload leaves 732
# entries, the images of its last list.
# The wire format keeps four caches, each bounded by `_LEVEL_CACHE`.  The
# writer's memos (`_level_texts`, `_marker_texts`) hold the text of each
# level and markers object it has written; the symbols of the walk share
# the pair objects of its tables, so the objects workload's 85,139 level
# fragments take 1,441 writes, one for each of its level objects (1,000,
# 890 and 421 at its sizes (2, 14), (3, 13) and (4, 12), some shared
# between sizes), and the level memo is never emptied.  Its 44 markers
# tuples are written once each.  The reader keeps the level
# (`_fragment_level`) and the markers (`_fragment_markers`) of each
# canonical fragment of that text, one object per distinct fragment.
# `verify all` fills none of them.
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
        one fragment per level and one for the markers, each written once
        per object (see ``_level_fragment``).
        """
        vectors, markers = self
        levels = ", ".join([_level_fragment(pair) for pair in reversed(vectors)])
        return f'{{"k": {len(vectors)}, "vectors": [{levels}], "p": {_markers_text(markers)}}}'

    @classmethod
    def from_json(cls, text: str) -> "MarkedDysonSymbol":
        """Parse and validate the wire form; the inverse of ``to_json``.

        Text exactly as ``to_json`` writes it is read level fragment by
        level fragment (``_read_canonical``); any other text, and canonical
        text that holds no valid symbol, goes through ``json.loads``
        (``_read_json``).  Both routes give the same symbol, or the same
        ``ValueError``, for every text.  Equal levels, and equal markers, of
        symbols decoded from canonical text are one object
        (``_fragment_level``, ``_fragment_markers``).
        """
        eta = _read_canonical(text)
        return _read_json(text) if eta is None else eta


# The class's own constructor less its keyword-argument wrapper, for the
# kernels that build many symbols from a (vectors, markers) tuple.
_new_marked = partial(tuple.__new__, MarkedDysonSymbol)
_reversed = itemgetter(slice(None, None, -1))


def _exact_ints(parts) -> bool:
    for part in parts:
        if type(part) is not int:
            return False
    return True


# The text ``to_json`` wrote for each level and each markers tuple, by
# object: id -> (object, text), as in ``copy.deepcopy``'s memo.  An entry
# holds its object, so no other object can take its id while the entry
# lives.  Only tuples of exact ints are kept (a level as a tuple of two),
# which nothing can change; any other level or markers, a list or a
# ``True`` or ``1.0`` part, is written anew on every call.  Levels and
# markers have a memo each, so that an object passed as both never gets
# the other's text; each is emptied when it holds ``_LEVEL_CACHE`` entries.
_level_texts: Dict[int, Tuple[Pair, str]] = {}
_marker_texts: Dict[int, Tuple[Tuple[int, ...], str]] = {}


def _remember(memo: Dict[int, tuple], obj: tuple, text: str) -> None:
    if len(memo) >= _LEVEL_CACHE:
        memo.clear()
    memo[id(obj)] = (obj, text)


def _level_fragment(pair: Pair) -> str:
    """One level's ``{"alpha": [...], "beta": [...]}`` text, from
    ``_level_texts`` when this pair object has been written before."""
    entry = _level_texts.get(id(pair))
    if entry is not None:
        return entry[1]
    a, b = pair
    text = json.dumps({"alpha": list(a), "beta": list(b)})
    if type(pair) is type(a) is type(b) is tuple and _exact_ints(a) and _exact_ints(b):
        _remember(_level_texts, pair, text)
    return text


def _markers_text(markers: Tuple[int, ...]) -> str:
    """The wire list ``[p_{k-1}, ..., p_1]``, from ``_marker_texts`` when
    this markers object has been written before."""
    entry = _marker_texts.get(id(markers))
    if entry is not None:
        return entry[1]
    p = list(reversed(markers))
    if not _exact_ints(p):
        return json.dumps(p)
    text = repr(p)  # a list of ints reads the same in repr and in JSON
    if type(markers) is tuple:
        _remember(_marker_texts, markers, text)
    return text


@lru_cache(maxsize=None)
def _wire_grammar() -> Tuple[re.Pattern, re.Pattern]:
    """The canonical wire text and one level fragment of it, compiled on
    first use.  Integers are ASCII digits without a leading zero (``\\d``
    would take other scripts' digits), separators are ``", "`` and ``": "``,
    and keys come in wire order.  The symbol's levels are one group, its
    fragments joined by ``"}, {"``, which no fragment holds."""
    ints = "((?:[1-9][0-9]*(?:, [1-9][0-9]*)*)?)"
    symbol = re.compile(r'\{"k": ([1-9][0-9]*), "vectors": \[\{(.*)\}\], "p": \[%s\]\}' % ints)
    level = re.compile(r'"alpha": \[%s\], "beta": \[%s\]' % (ints, ints))
    return symbol, level


def _ints(text: str) -> Tuple[int, ...]:
    # A canonical list's contents, "3, 2, 2" or "".
    return tuple(map(int, text.split(", "))) if text else ()


@lru_cache(maxsize=_LEVEL_CACHE)
def _fragment_level(fragment: str) -> Pair:
    """The level of one canonical fragment, ``"alpha": [...], "beta":
    [...]`` without its braces; one object per distinct fragment, which
    every symbol that holds the fragment shares.

    Raises ``ValueError`` for any other text, for an int too long for
    ``int``, and for a side that is not a partition, so only valid levels
    are kept.
    """
    match = _wire_grammar()[1].fullmatch(fragment)
    if match is None:
        raise ValueError(f"not a canonical level: {fragment!r}")
    a, b = _ints(match[1]), _ints(match[2])
    if not (is_partition(a) and is_partition(b)):
        raise ValueError(f"not a level of partitions: {fragment!r}")
    return a, b


@lru_cache(maxsize=_LEVEL_CACHE)
def _fragment_markers(text: str) -> Tuple[int, ...]:
    """The markers (p_1, ..., p_{k-1}) of a canonical ``"p"`` list's
    contents, which list them from p_{k-1} down; one object per distinct
    text, which every symbol that holds the text shares.  Their order and
    place are checked per symbol, by ``_placement_holds``."""
    return _ints(text)[::-1]


def _read_canonical(text: str) -> Optional[MarkedDysonSymbol]:
    """The symbol in canonical wire text of a valid symbol, else None (as
    for bytes, which ``json.loads`` also reads).

    Each level is read and checked once per distinct fragment
    (``_fragment_level``), and each markers list read once per distinct
    text (``_fragment_markers``); each symbol gets only the placement
    checks.
    """
    match = _wire_grammar()[0].fullmatch(text) if isinstance(text, str) else None
    if match is None:
        return None
    k, levels, markers = match.groups()
    try:
        # The text lists levels k..1, vectors holds them 1..k.
        vectors = tuple([_fragment_level(fragment) for fragment in reversed(levels.split("}, {"))])
        if len(vectors) != int(k):
            return None
        eta = _new_marked((vectors, _fragment_markers(markers)))
    except ValueError:
        return None
    return eta if _placement_holds(eta) else None


def _read_json(text: str) -> MarkedDysonSymbol:
    """``from_json`` through ``json.loads``: every part is checked once, by
    ``validate_marked``; ``vectors``, ``alpha``, ``beta`` and ``p`` must be
    arrays, and ``k``, parts and markers of type ``int`` (``true`` and
    ``1.0`` are rejected).  A rejected symbol is checked again part by part
    and marker by marker, so that the error names the first bad one.  Every
    fault raises ``ValueError``.  The symbol's levels are its own objects,
    shared with no other symbol.
    """
    try:
        data = json.loads(text)
        levels = _wire_tuple(data["vectors"])[::-1]
        vectors = tuple([(_wire_tuple(v["alpha"]), _wire_tuple(v["beta"])) for v in levels])
        markers = _wire_tuple(data["p"])[::-1]
        k = data["k"]
    except (KeyError, TypeError, RecursionError) as exc:  # key missing, wrong kind, too deep
        raise ValueError(f"not a marked Dyson symbol: {exc!r}") from exc
    if type(k) is not int or len(vectors) != k or len(markers) != k - 1:
        raise ValueError("inconsistent level/marker counts")
    eta = MarkedDysonSymbol(vectors, markers)
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
    return eta


class SymbolStats(NamedTuple):
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


def statistics(eta: MarkedDysonSymbol) -> SymbolStats:
    """Per-level cranks, balance numbers, and large/small lengths, read off
    each level's terms (``_level_terms``); the top's balance is 0."""
    terms = [_level_terms(pair) for pair in eta.vectors]
    large = tuple([longer for _, longer, _, _ in terms])
    small = tuple([shorter for _, _, shorter, _ in terms])
    balances = tuple([balance for _, _, _, balance in terms[:-1]]) + (0,)
    return SymbolStats(crank_vector(eta), balances, large, small)


def crank_vector(eta: MarkedDysonSymbol) -> Tuple[int, ...]:
    return tuple([len(a) - len(b) for a, b in eta.vectors])


def weight(eta: MarkedDysonSymbol) -> int:
    """Total weight: part sums, markers, and the rectangle correction term.

    Read off each level's terms (``_level_terms``) by ``_terms_weight``.
    """
    return _terms_weight(eta, map(_level_terms, eta.vectors))


def _level_terms(pair: Pair) -> Tuple[int, int, int, int]:
    """One level's share of a symbol's weight: (part sum, longer length,
    shorter length, balance of the shorter side against the longer).  The
    balance counts only below the top, where ``_terms_weight`` reads it."""
    a, b = pair
    if len(a) < len(b):
        a, b = b, a
    return sum(a) + sum(b), len(a), len(b), balanced_count(a, b)


def _terms_weight(eta: MarkedDysonSymbol, terms: Iterable[Tuple[int, int, int, int]]) -> int:
    """eta's weight from its levels' terms (``_level_terms``), level 1
    first: the part sums, the markers and the rectangle term
    (l + D + k - 1)(s - D).  l and s add up each level's longer and shorter
    lengths, D the balance numbers of the levels below the top."""
    total = sum(eta.markers)
    l = s = d = balance = 0  # noqa: E741 - established notation
    for mass, longer, shorter, balance in terms:
        total += mass
        l += longer
        s += shorter
        d += balance
    d -= balance  # the last level is the top, whose balance does not count
    return total + (l + d + len(eta.vectors) - 1) * (s - d)


def validate_marked(eta: MarkedDysonSymbol) -> bool:
    """True iff the markers are a tuple, every side is a partition and the
    placement holds: the marker ordering, part ranges, and top-level shape
    (``_placement_holds``)."""
    if not isinstance(eta.markers, tuple):  # _placement_holds takes len() and (1,) + markers
        return False
    try:
        for a, b in eta.vectors:
            if not (is_partition(a) and is_partition(b)):
                return False
    except (TypeError, ValueError):  # a level that is not a pair
        return False
    return _placement_holds(eta)


def _placement_holds(eta: MarkedDysonSymbol) -> bool:
    """``validate_marked`` less its part checks: the marker count and order,
    the part ranges, the top level's shape and the exposure of its marker.
    Every side must be a partition."""
    vectors, markers = eta
    k = len(vectors)
    if k < 1 or len(markers) != k - 1:
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
    """Partitions with parts in [lo, hi] and sum <= cap, sorted by (sum,
    parts): by sum, and each sum's in ascending order."""
    if lo < 1 or hi < lo:
        return ((),)
    found: List[Partition] = []
    for s in range(max(cap, 0) + 1):
        # partitions_of lists each sum's partitions in decreasing order.
        found.extend(reversed([p for p in partitions_of(s, hi) if not p or p[-1] >= lo]))
    return tuple(found)


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
            pair = (a, b)
            mass, l_i, s_i, bal = _level_terms(pair)
            if mass > cap:
                break
            exposes = max(a[:1] + b[:1] + (lo,)) == hi
            groups.setdefault((mass, l_i + bal, s_i - bal, exposes), []).append(pair)
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


# The walk's tables (``_walk_groups``): (lo, hi, False) -> a level's, and
# (lo, None, dyson) -> a top's, each as (cap, groups) at the widest cap asked for.
_walk_tables: Dict[tuple, Tuple[int, Tuple[Group, ...]]] = {}
# The mergeable part of each full table, under its key (``_merging_groups``),
# dropped when the full table is rebuilt.
_merging_tables: Dict[tuple, Tuple[Group, ...]] = {}


def _walk_groups(lo: int, hi: Optional[int], cap: int, dyson: bool = False) -> Tuple[Group, ...]:
    """The groups the walk reads for one level: ``_level_groups(lo, hi,
    cap)``, or for ``hi=None`` the top's ``_top_groups(lo, cap, dyson)``,
    with every group of mass <= cap and perhaps wider ones after them.

    One table is kept per (lo, hi) and per (lo, dyson), built anew only for
    a cap beyond the one it has.  A wider table serves the walk as well:
    groups ascend by mass, ``_descend`` stops at the first one past its
    budget, and a group of mass <= cap holds the same pairs, in the same
    order, at any larger cap (the argument of ``fold._widest_range``).
    ``cache_clear()`` empties the tables and their mergeable parts.
    """
    key = (lo, hi, dyson)
    kept = _walk_tables.get(key)
    if kept is None or kept[0] < cap:
        groups = _top_groups(lo, cap, dyson) if hi is None else _level_groups(lo, hi, cap)
        kept = _walk_tables[key] = (cap, groups)
        _merging_tables.pop(key, None)
    return kept[1]


def _merging_groups(lo: int, hi: Optional[int], cap: int, dyson: bool = False) -> Tuple[Group, ...]:
    """``_walk_groups(lo, hi, cap, dyson)`` less the pairs that no symbol
    ``phi`` merges can hold: below the top the pairs that are not strict
    (``is_strict_pair``), at the top those of negative crank.

    Filtered from the kept full table, never built, and kept as long as it
    is.  Each group keeps its summary and the order of its pairs, and a
    group left empty is dropped: the walk reads a level only through its
    groups' summaries, and a leaf's symbols are the product of its groups'
    pairs, so a walk over these tables gives the symbols of a walk over the
    full ones that merge, in the same order.
    """
    groups = _walk_groups(lo, hi, cap, dyson)
    key = (lo, hi, dyson)
    kept = _merging_tables.get(key)
    if kept is None:
        keep = (lambda a, b: len(a) >= len(b)) if hi is None else is_strict_pair
        filtered = ((summary, tuple([pair for pair in pairs if keep(*pair)]))
                    for summary, pairs in groups)
        kept = _merging_tables[key] = tuple(group for group in filtered if group[1])
    return kept


def _clear_walk_tables() -> None:
    _walk_tables.clear()
    _merging_tables.clear()


_walk_groups.cache_clear = _clear_walk_tables


def _walk(k: int, n: int, merging: bool = False) -> List[MarkedDysonSymbol]:
    """Every k-marked symbol of weight n, built level by level, top first;
    with ``merging``, only those that ``phi`` merges, in the same order.

    For each marker tuple the walk descends through one group per level
    (``_top_groups`` for level k, ``_level_groups`` below it, both read
    through ``_walk_groups``, or ``_merging_groups`` with ``merging``),
    summing their A and B; each leaf stands for the product of its groups'
    pairs.  A level is pruned once the part sums plus markers exceed n, or
    the rectangle term (A + k - 1) B exceeds what is left of n: the term
    never shrinks as levels are added (A_i >= B_i >= 0).  A leaf is a
    level-1 group at which the term equals what is left.
    It shares no counting code with ``fold._fold_range``, which the tests
    and thm2.4 compare it against.
    """
    groups = _merging_groups if merging else _walk_groups
    out: List[MarkedDysonSymbol] = []
    for markers in _marker_choices(k - 1, n):
        bounds = (1,) + markers
        budget = n - sum(markers)
        top = bounds[-1]
        tables = [groups(lo, hi, budget) for lo, hi in zip(bounds, markers)]
        # The top's table is asked for at its largest budget in this walk,
        # with every other marker 1, so the walk builds it at most once.
        tables.append(groups(top, None, n - top - (k - 2), k == 1))
        _descend(out, [], markers, tables, k, budget, 0, 0, False)
    return out


def _descend(out: List[MarkedDysonSymbol], path: List[Tuple[Pair, ...]],
             markers: Tuple[int, ...], tables: List[Tuple[Group, ...]], level: int,
             budget: int, a_acc: int, b_acc: int, need_exposed: bool) -> None:
    # One level of ``_walk``: `tables[i]` holds level i+1's groups, `path`
    # the pair lists chosen above it, and `need_exposed` is set only on
    # level k-1 under a both-empty top.  A module function, not a closure:
    # a closure that calls itself is a reference cycle, and keeps what it
    # captured alive until the cyclic collector runs.
    k = len(tables)
    for (mass, a_i, b_i, flag), pairs in tables[level - 1]:
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
            _descend(out, path, markers, tables, level - 1, left, a_new, b_new,
                     level == k and flag)
        elif rectangle == left:
            # Each leaf's levels, top first in `path`, stored level 1 first.
            out.extend(map(_new_marked, zip(map(_reversed, product(*path)), repeat(markers))))
        path.pop()


@lru_cache(maxsize=1)
def enumerate_marked(k: int, n: int) -> Tuple[MarkedDysonSymbol, ...]:
    """All k-marked Dyson symbols of weight n, in a deterministic order.

    Built by ``_walk``; the order is not part of the interface.  For k = 1
    these are the Dyson symbols of n, found by the same walk.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    _mirror_images.clear()  # the images of the list this one replaces
    return tuple(_walk(k, n))


# ---------------------------------------------------------------------------
# Counting: front ends that read the tables of the fold (``fold``)
# ---------------------------------------------------------------------------


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


# The image ``mirror`` built for each level object, under a key that names
# the level's role: its id below the top, where the image is the swap, and
# (id, p_{k-1}) at the top, where it is the t-shift above p_{k-1} (1 for a
# Dyson symbol); an int is never equal to a tuple, so the roles never meet.
# An entry (level, image) holds its level, as in ``_level_texts``, and each
# is stored both ways, since the map is an involution.  Only tuple levels
# of two tuples are kept, and a top only under an int p_{k-1}; the memo is
# emptied when it is full and whenever ``enumerate_marked`` builds a list.
_mirror_images: Dict[object, Tuple[Pair, Pair]] = {}


def _mirror_pair(a: Partition, b: Partition, top_lo: Optional[int]) -> Pair:
    # One level's image: the swap (top_lo None), or the top's t-shift,
    # which is the swap at t = 0.
    if top_lo is None:
        return b, a
    if len(b) >= 2:
        t = b[0] - b[1]
    elif len(b) == 1:
        t = b[0] - top_lo
    else:
        t = 0
    if t:
        return (b[0] - t,) + b[1:], (a[0] + t,) + a[1:] if a else ()
    return b, a


def mirror(eta: MarkedDysonSymbol, j: int) -> MarkedDysonSymbol:
    """Negate the j-th crank (1-based), preserving weight and other cranks.

    Levels below the top are mirrored by swapping the pair.  At the top
    level the largest parts are shifted by t so that the repeated-part
    shape conditions survive; the same formula inverts itself, so the map
    is an involution.  When t = 0 the top is swapped too, so the image
    holds the symbol's own partition objects at level j; only t != 0 builds
    new parts.  Symbols with zero j-th crank are returned unchanged.

    Images share level objects (``_mirror_images``): the images of symbols
    that share a level object share one image of it, and mirroring an
    image back gives the symbol's own level object.

    Raises ``ValueError`` for a level out of range, and for the Dyson
    symbol ((1,), ()) (k = 1, weight 1), which has no image: no symbol of
    weight 1 has crank -1.
    """
    vectors, markers = eta
    k = len(vectors)
    if not 1 <= j <= k:
        raise ValueError(f"level out of range: {j}")
    pair = vectors[j - 1]
    a, b = pair
    if len(a) == len(b):
        return eta
    if j < k:
        top_lo, key = None, id(pair)
    else:
        if k == 1 and not b and a == (1,):
            raise ValueError("((1,), ()) has no mirror image: no symbol of weight 1 has crank -1")
        top_lo = markers[-1] if k > 1 else 1
        # None, which is no key, for a 1.0 or True that would find 1's images.
        key = (id(pair), top_lo) if type(top_lo) is int else None
    entry = _mirror_images.get(key)
    if entry is not None:
        new_pair = entry[1]
    else:
        new_pair = _mirror_pair(a, b, top_lo)
        if key is not None and type(pair) is type(a) is type(b) is tuple:
            if len(_mirror_images) >= _LEVEL_CACHE - 1:
                _mirror_images.clear()
            _mirror_images[key] = (pair, new_pair)
            if _mirror_pair(*new_pair, top_lo) == pair:  # so on every valid level
                back = id(new_pair) if top_lo is None else (id(new_pair), top_lo)
                _mirror_images[back] = (new_pair, pair)
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
    if sym.crank() != sum(cranks) + k - 1:
        raise ValueError(
            f"crank mismatch: symbol has {sym.crank()}, "
            f"profile requires {sum(cranks) + k - 1}"
        )
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
