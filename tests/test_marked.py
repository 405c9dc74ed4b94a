import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from dysonsym import (
    DysonSymbol,
    MarkedDysonSymbol,
    balanced_count,
    count_f1,
    count_fk,
    count_fk_strict,
    count_fk_with_balance,
    crank_counts,
    crank_moment,
    crank_vector,
    enumerate_dyson_symbols,
    enumerate_marked,
    is_strict,
    mirror,
    partitions_of,
    phi,
    phi_inverse,
    statistics,
    theorem21_rhs,
    validate_dyson,
    validate_marked,
    weight,
)
from dysonsym import cli, fold, fullcrank, marked
from dysonsym.fold import (
    _counts,
    _fold_range,
    _level_entries,
    _level_states,
    _no_label,
    _profile_label,
    _top_histogram,
)
from dysonsym.marked import (
    _LEVEL_CACHE,
    _fragment_level,
    _fragment_markers,
    _level_groups,
    _level_terms,
    _level_texts,
    _marker_texts,
    _mirror_images,
    _partitions_in_range,
    _read_canonical,
    _read_json,
    _top_groups,
    _walk,
    _walk_groups,
    _walk_tables,
    _wire_grammar,
    is_strict_pair,
)
from dysonsym.partitions import check_partition

from test_dyson import partitions_up_to_200
from golden_data import (
    BIG_DYSON,
    BIG_PEELED,
    BIG_PROFILE,
    BIG_THREE_MARKED,
    TWO_MARKED_OF_FIVE,
    two_marked_symbol,
)


def test_balanced_count_example():
    # ((3,3,1,1),(3,2,2)): the first 3 is balanced, both 2s are not.
    assert balanced_count((3, 3, 1, 1), (3, 2, 2)) == 1
    assert balanced_count((2, 1), ()) == 0
    with pytest.raises(ValueError):
        balanced_count((1,), (1, 1))


def test_big_example_statistics():
    stats = statistics(BIG_THREE_MARKED)
    assert stats.cranks == (-1, 0, 2)
    assert stats.balances == (1, 1, 0)
    assert stats.large == (3, 3, 3)
    assert stats.small == (2, 3, 1)
    assert stats.l == 9
    assert stats.s == 6
    assert stats.D == 2
    assert validate_marked(BIG_THREE_MARKED)
    assert weight(BIG_THREE_MARKED) == 97


def test_two_marked_of_five_table():
    expected = {two_marked_symbol(row) for row in TWO_MARKED_OF_FIVE}
    assert len(expected) == 35
    for eta in expected:
        assert validate_marked(eta)
        assert weight(eta) == 5
    assert set(enumerate_marked(2, 5)) == expected


def test_one_marked_equals_dyson():
    for n in range(1, 13):
        dyson = {(s.alpha, s.beta) for s in enumerate_dyson_symbols(n)}
        marked = {eta.vectors[0] for eta in enumerate_marked(1, n)}
        assert marked == dyson


def test_enumerated_symbols_are_valid():
    for k in (2, 3):
        for n in range(1, 10):
            syms = enumerate_marked(k, n)
            assert len(set(syms)) == len(syms)
            for eta in syms:
                assert validate_marked(eta)
                assert weight(eta) == n


def test_total_count_equals_moment():
    # The number of (k+1)-marked symbols of n is the 2k-th crank moment.
    for n in range(2, 13):
        assert len(enumerate_marked(2, n)) == crank_moment(2, n)
    for n in range(2, 9):
        assert len(enumerate_marked(3, n)) == crank_moment(4, n)


def test_validate_marked_rejects_bad_shapes():
    # Markers must be weakly increasing.
    assert not validate_marked(
        MarkedDysonSymbol((((), ()), ((), ()), ((3, 3), ())), (3, 2))
    )
    # Part out of range at level 1.
    assert not validate_marked(MarkedDysonSymbol((((3,), ()), ((2, 2), ())), (2,)))
    # Top level single alpha part must equal the marker.
    assert not validate_marked(MarkedDysonSymbol((((), ()), ((3,), ())), (2,)))
    assert validate_marked(MarkedDysonSymbol((((), ()), ((2,), ())), (2,)))
    # Both top partitions empty: marker must be exposed below (or be 1).
    assert validate_marked(MarkedDysonSymbol((((2, 1), ()), ((), ())), (2,)))
    assert not validate_marked(MarkedDysonSymbol((((1, 1), ()), ((), ())), (2,)))
    assert validate_marked(MarkedDysonSymbol((((), ()), ((), ())), (1,)))
    assert not validate_marked(MarkedDysonSymbol((((), ()), ((), ())), (2,)))
    assert validate_marked(
        MarkedDysonSymbol((((), ()), ((), ()), ((), ())), (2, 2))
    )


def test_count_fk_against_formula():
    for n in range(2, 11):
        for m1 in range(-3, 4):
            for m2 in range(-3, 4):
                assert count_fk((m1, m2), n) == theorem21_rhs((m1, m2), n)


# F_1(m; n) by enumeration, each (m, n) counted once per test run.
memo_count_f1 = lru_cache(maxsize=None)(count_f1)


def product_theorem21_rhs(cranks, n):
    """Theorem 2.1's right-hand side read literally: one F_1 term, counted
    by enumeration, per shift vector (t_1, ..., t_{k-1})."""
    k = len(cranks)
    base = sum(abs(m) for m in cranks) + k - 1
    shifts = product(range((n - base) // 2 + 1), repeat=k - 1)
    return sum(memo_count_f1(base + 2 * sum(t), n) for t in shifts)


def signed_profiles(k, bound):
    return [m for m in product(range(-bound, bound + 1), repeat=k) if sum(map(abs, m)) <= bound]


def test_signed_profiles_are_the_sign_flips_of_the_nonnegative_ones():
    for k in range(0, 5):
        for bound in range(-1, 9):
            profiles = list(cli._signed_profiles(k, bound))
            assert len(profiles) == len(set(profiles)), (k, bound)
            assert set(profiles) == set(signed_profiles(k, bound)), (k, bound)


def test_profiles_of_sum_are_the_nonnegative_profiles_of_that_sum_in_order():
    for k in range(1, 5):
        for total in range(0, 11):
            want = [m for m in cli._nonneg_profiles(k, total) if sum(m) == total]
            assert list(cli._profiles_of_sum(k, total)) == want, (k, total)


def test_theorem21_rhs_matches_the_shift_vector_sum():
    for k in range(1, 5):
        for n in range(2, 15):
            for m in signed_profiles(k, n - k + 2):
                assert theorem21_rhs(m, n) == product_theorem21_rhs(m, n), (m, n)
    with pytest.raises(ValueError):
        theorem21_rhs((0, 0), 1)


def test_fiber_symmetry_under_sign_flip():
    for n in range(2, 11):
        for m1 in range(0, 4):
            for m2 in range(0, 4):
                base = count_fk((m1, m2), n)
                assert base == count_fk((-m1, m2), n)
                assert base == count_fk((m1, -m2), n)
                assert base == count_fk((-m1, -m2), n)


def test_mirror_is_crank_negating_involution():
    # The one symbol of weight 1 with a nonzero crank has no image.
    (dyson_one,) = [eta for eta in enumerate_marked(1, 1) if crank_vector(eta) != (0,)]
    assert dyson_one.vectors == (((1,), ()),)
    with pytest.raises(ValueError, match="no symbol of weight 1 has crank -1"):
        mirror(dyson_one, 1)
    for k in (1, 2, 3):
        for n in range(1, 9):
            for eta in enumerate_marked(k, n):
                if eta == dyson_one:
                    continue
                cranks = crank_vector(eta)
                for j in range(1, k + 1):
                    mu = mirror(eta, j)
                    if cranks[j - 1] == 0:
                        assert mu == eta
                        continue
                    assert validate_marked(mu)
                    assert weight(mu) == n
                    want = cranks[: j - 1] + (-cranks[j - 1],) + cranks[j:]
                    assert crank_vector(mu) == want
                    assert mirror(mu, j) == eta


def mirror_formula(eta, j):
    """``mirror``'s formula with every top image built from new tuples, the
    reference for ``mirror``, whose t = 0 top image holds eta's parts."""
    vectors, markers = eta
    k = len(vectors)
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
    return MarkedDysonSymbol(tuple(levels), markers)


def test_mirror_matches_the_formula_and_shares_an_unshifted_top():
    shared = 0
    for k in range(1, 5):
        for n in range(1, 13):
            for eta in enumerate_marked(k, n):
                if eta.vectors == (((1,), ()),):  # no image (see the involution test)
                    continue
                for j in range(1, k + 1):
                    image = mirror(eta, j)
                    assert image == mirror_formula(eta, j), (eta, j)
                    a, b = eta.vectors[j - 1]
                    if j == k and len(a) != len(b) and image.vectors[-1] == (b, a):
                        # t = 0: the image's top holds the symbol's own parts.
                        assert image.vectors[-1][0] is b and image.vectors[-1][1] is a
                        shared += 1
    assert shared > 0


def test_mirror_rejects_bad_level():
    eta = enumerate_marked(2, 4)[0]
    with pytest.raises(ValueError):
        mirror(eta, 0)
    with pytest.raises(ValueError):
        mirror(eta, 3)


def test_mirroring_an_image_back_gives_the_symbols_own_level():
    mirrored = 0
    for eta in enumerate_marked(3, 10):
        for j, crank in enumerate(crank_vector(eta), start=1):
            if crank:
                image = mirror(eta, j)
                assert image == mirror_formula(eta, j), (eta, j)
                assert mirror(image, j).vectors[j - 1] is eta.vectors[j - 1], (eta, j)
                mirrored += 1
    assert mirrored > 0


def test_images_of_symbols_that_share_a_level_share_its_image():
    symbols = enumerate_marked(3, 10)
    images = {}  # (j, p_2 at the top, level object id) -> image level objects
    for j in (1, 2, 3):
        for eta in symbols:
            role = eta.markers[-1] if j == 3 else None
            images.setdefault((j, role, id(eta.vectors[j - 1])), []).append(
                mirror(eta, j).vectors[j - 1])
    shared = [levels for levels in images.values() if len(levels) > 1]
    assert shared
    for levels in shared:
        assert all(level is levels[0] for level in levels), levels[0]


@pytest.mark.parametrize("top_first", [False, True])
def test_a_level_gets_its_image_in_each_role(top_first):
    # One decoded level object that is level 2 of one symbol and the top of
    # another: a swap in the first, a shift by t = 1 in the second.
    lower, top = (
        MarkedDysonSymbol.from_json(
            MarkedDysonSymbol(vectors, markers).to_json())
        for vectors, markers in (
            ((((), (1, 1, 1)), ((1, 1), (2,)), ((), ())), (1, 2)),
            ((((), ()), ((), ()), ((1, 1), (2,))), (1, 1)),
        )
    )
    assert lower in enumerate_marked(3, 10) and top in enumerate_marked(3, 10)
    assert lower.vectors[1] is top.vectors[2]
    calls = [(lower, 2), (top, 3)]
    for eta, j in calls[::-1] if top_first else calls:
        image = mirror(eta, j)
        assert image == mirror_formula(eta, j), (eta, j)
        assert mirror(image, j) == eta
    assert mirror(lower, 2).vectors[1] == ((2,), (1, 1))
    assert mirror(top, 3).vectors[2] == ((1,), (2, 1))


def test_mirror_keeps_no_way_back_that_the_formula_does_not_take():
    # Not a symbol: beta = (3,) under an empty alpha must be (p_1,).  Its
    # top's image, ((1,), ()), swaps to ((), (1,)), not back to the top.
    eta = MarkedDysonSymbol((((), ()), ((), (3,))), (1,))
    assert not validate_marked(eta)
    image = mirror(eta, 2)
    assert image == mirror_formula(eta, 2)
    assert mirror(image, 2) == mirror_formula(image, 2) != eta


def test_mirror_keeps_no_image_of_a_level_that_can_change():
    eta = BIG_THREE_MARKED
    j = next(j for j, crank in enumerate(crank_vector(eta)[:-1], start=1) if crank)
    # A list level, mutated between two calls.
    level = list(eta.vectors[j - 1])
    listed = MarkedDysonSymbol(eta.vectors[: j - 1] + (level,) + eta.vectors[j:], eta.markers)
    assert mirror(listed, j) == mirror_formula(listed, j)
    level.reverse()
    assert mirror(listed, j) == mirror_formula(listed, j)
    assert mirror(listed, j).vectors[j - 1] == tuple(eta.vectors[j - 1])
    # A tuple level of two lists.
    a, b = eta.vectors[j - 1]
    nested = MarkedDysonSymbol(
        eta.vectors[: j - 1] + ((list(a), list(b)),) + eta.vectors[j:], eta.markers)
    assert mirror(nested, j) == mirror_formula(nested, j)
    kept = [held for held, _ in _mirror_images.values()]
    assert not any(held is level or held is nested.vectors[j - 1] for held in kept)


def test_the_mirror_memo_is_bounded_and_lives_for_one_symbol_list():
    symbols = enumerate_marked(3, 10)
    # Copies with fresh level objects, kept alive, fill the memo past its
    # bound without a new list.
    copies = [MarkedDysonSymbol(tuple((a, b) for a, b in eta.vectors), eta.markers)
              for eta in symbols]
    largest = emptied = 0
    for eta in copies:
        for j in (1, 2, 3):
            before = len(_mirror_images)
            assert mirror(eta, j) == mirror_formula(eta, j)
            assert len(_mirror_images) <= _LEVEL_CACHE
            largest = max(largest, len(_mirror_images))
            emptied += len(_mirror_images) < before
    assert largest >= _LEVEL_CACHE - 1 and emptied
    # A hit keeps the memo; a miss, which builds a new list, empties it.
    for eta in symbols:
        mirror(eta, 3)
    kept = dict(_mirror_images)
    assert kept and enumerate_marked(3, 10) is symbols
    assert _mirror_images == kept
    enumerate_marked(3, 9)
    assert not _mirror_images


def test_balance_refinement_matches_strict_counts():
    for n in range(2, 11):
        for m1 in range(0, 4):
            for m2 in range(0, 4):
                for t1 in range(0, 3):
                    assert count_fk_with_balance(
                        (m1, m2), (t1,), n
                    ) == count_fk_strict((m1 + 2 * t1, m2), n)


COUNTING_ERRORS = [
    (count_fk, ((), 5), "need at least one crank"),
    (count_fk, ((1,), 0), "k and n must be positive"),
    (count_fk, ((1, -1), -2), "k and n must be positive"),
    (count_fk_with_balance, ((1, 2), (), 5), "need k >= 2 cranks and k-1 balance numbers"),
    (count_fk_with_balance, ((1, 2), (0,), 0), "k and n must be positive"),
    (count_fk_strict, ((1,), 5), "strict counting requires k >= 2"),
    (count_fk_strict, ((1, 2), 0), "k and n must be positive"),
]


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("front_end,args,message", COUNTING_ERRORS)
def test_counting_front_ends_reject_bad_input(front_end, args, message, warm):
    # The same error whether or not tables of larger weights are kept.
    if warm:
        for k in (1, 2):
            count_fk((0,) * k, 8)
    with pytest.raises(ValueError, match=f"^{message}$"):
        front_end(*args)


def test_strict_counts_collapse_to_one_level():
    for n in range(2, 11):
        for m1 in range(0, 4):
            for m2 in range(0, 4):
                assert count_fk_strict((m1, m2), n) == count_f1(m1 + m2 + 1, n)


def test_phi_preserves_weight_and_crank():
    for k in (2, 3):
        for n in range(2, 10):
            for eta in enumerate_marked(k, n):
                cranks = crank_vector(eta)
                if not is_strict(eta) or any(c < 0 for c in cranks):
                    continue
                merged = phi(eta)
                assert merged.weight() == n
                assert merged.crank() == sum(cranks) + k - 1
                assert phi_inverse(merged, cranks) == eta


def test_phi_inverse_then_phi():
    for k in (2, 3):
        for n in range(2, 10):
            for sym in enumerate_dyson_symbols(n):
                c = sym.crank()
                if c != k - 1:
                    continue
                eta = phi_inverse(sym, (0,) * k)
                assert is_strict(eta)
                assert phi(eta) == sym


def test_phi_inverse_at_one_level_is_the_symbol_itself():
    # k = 1 takes the general peel, which peels no marker.
    count = 0
    for n in range(1, 16):
        for sym in enumerate_dyson_symbols(n):
            c = sym.crank()
            if c >= 0:
                count += 1
                assert phi_inverse(sym, (c,)) == MarkedDysonSymbol(((sym.alpha, sym.beta),), ())
    assert count == 369


def test_peeling_golden_example():
    assert BIG_DYSON.weight() == 127
    eta = phi_inverse(BIG_DYSON, BIG_PROFILE)
    assert eta == BIG_PEELED
    assert weight(eta) == 127
    assert phi(eta) == BIG_DYSON


def test_phi_rejects_invalid_input():
    # A strict symbol with a negative top crank cannot be merged.
    eta = MarkedDysonSymbol((((), ()), ((), (2, 2))), (2,))
    assert validate_marked(eta)
    with pytest.raises(ValueError):
        phi(eta)
    with pytest.raises(ValueError):
        phi_inverse(BIG_DYSON, (1, 1))  # crank mismatch


def test_json_round_trip():
    eta = BIG_THREE_MARKED
    assert MarkedDysonSymbol.from_json(eta.to_json()) == eta


def test_from_json_rejects_invalid_symbol():
    # Level 1 holds the part 5, above its marker 2.
    text = (
        '{"k": 2, "vectors": [{"alpha": [9], "beta": []}, {"alpha": [5], "beta": []}],'
        ' "p": [2]}'
    )
    with pytest.raises(ValueError):
        MarkedDysonSymbol.from_json(text)


def reference_to_json(eta):
    """The wire form as one ``json.dumps`` of the whole symbol."""
    return json.dumps(
        {
            "k": eta.k,
            "vectors": [{"alpha": list(a), "beta": list(b)} for a, b in reversed(eta.vectors)],
            "p": list(reversed(eta.markers)),
        }
    )


@pytest.mark.parametrize("k,n", [(1, 10), (2, 12), (3, 10), (4, 9)])
def test_to_json_matches_one_dumps_of_the_symbol(k, n):
    symbols = enumerate_marked(k, n)
    for eta in symbols:
        assert eta.to_json() == reference_to_json(eta)
        # Both decoders' symbols: shared levels and markers, and fresh ones.
        for decoded in (_read_canonical(eta.to_json()), _read_json(eta.to_json())):
            assert decoded == eta and decoded.to_json() == reference_to_json(eta)
    # A mirror image holds, at its mirrored level, a pair object that no
    # symbol of the list holds.
    for j in range(1, k + 1):
        for eta in symbols:
            image = mirror(eta, j)
            assert image.to_json() == reference_to_json(image)


def test_to_json_writes_list_levels_anew_on_every_call():
    eta = BIG_THREE_MARKED
    level = list(eta.vectors[0])
    listed = MarkedDysonSymbol(
        (level, [list(part) for part in eta.vectors[1]]) + eta.vectors[2:], list(eta.markers)
    )
    assert listed.to_json() == reference_to_json(listed) == eta.to_json()
    level[0] = (3, 3)  # the same list object, another level
    assert listed.to_json() == reference_to_json(listed) != eta.to_json()
    assert id(level) not in _level_texts and id(listed.markers) not in _marker_texts
    # A tuple level that holds a list is no more fixed than the list.
    part = [2]
    nested = MarkedDysonSymbol((((1, 1), (part, 1, 1)),) + eta.vectors[1:], eta.markers)
    before = nested.to_json()
    assert before == reference_to_json(nested)
    part[0] = 3
    assert nested.to_json() == reference_to_json(nested) != before
    # A written level object passed as the markers is written as markers.
    eta.to_json()
    swapped = MarkedDysonSymbol(eta.vectors, eta.vectors[0])
    assert swapped.to_json() == reference_to_json(swapped)


def test_to_json_is_right_after_the_level_memo_has_filled():
    _level_texts.clear()
    written = []
    for k, n in ((2, 14), (3, 12)):
        for eta in enumerate_marked(k, n):
            # Images share level objects; those of every level j still
            # write more of them than the memo holds.
            for symbol in (eta,) + tuple(mirror(eta, j) for j in range(1, k + 1)):
                assert symbol.to_json() == reference_to_json(symbol)
                written.extend(symbol.vectors)
                assert len(_level_texts) <= _LEVEL_CACHE
    assert len({id(level) for level in written}) > _LEVEL_CACHE
    # Every entry still holds the object it is keyed by.
    assert all(key == id(level) for key, (level, _) in _level_texts.items())


def test_decoded_symbols_share_their_markers():
    for k, n in ((2, 12), (3, 10), (4, 9)):
        _fragment_markers.cache_clear()
        decoded = [MarkedDysonSymbol.from_json(eta.to_json()) for eta in enumerate_marked(k, n)]
        seen = {}
        for eta in decoded:
            assert seen.setdefault(eta.markers, eta.markers) is eta.markers, (k, n, eta)
        assert _fragment_markers.cache_info().currsize == len(seen)


def test_decoded_symbols_share_their_levels():
    # Canonical text: levels equal by value are one object, within a symbol,
    # across symbols and across two decodes of the same text.
    for k, n in ((2, 12), (3, 10)):
        _fragment_level.cache_clear()
        symbols = enumerate_marked(k, n)
        texts = [eta.to_json() for eta in symbols]
        first = [MarkedDysonSymbol.from_json(text) for text in texts]
        second = [MarkedDysonSymbol.from_json(text) for text in texts]
        assert first == second == list(symbols)
        seen = {}
        for eta in first + second:
            for level in eta.vectors:
                assert seen.setdefault(level, level) is level, (k, n, level)


@pytest.mark.parametrize("twin", [True, 1.0])
def test_to_json_keeps_non_int_parts_out_of_the_level_cache(twin):
    eta = BIG_THREE_MARKED  # level 1 is ((1, 1), (2, 1, 1))
    odd = MarkedDysonSymbol((((1, twin), (2, 1, 1)),) + eta.vectors[1:], eta.markers)
    assert odd == eta  # equal by value, so one value-keyed entry would serve both
    for order in ((eta, odd), (odd, eta)):
        _level_texts.clear()
        for symbol in order:
            assert symbol.to_json() == reference_to_json(symbol)
        assert id(odd.vectors[0]) not in _level_texts
    # Markers are written by the same rule: a bool stays ``true``.
    odd_marker = MarkedDysonSymbol(eta.vectors, (twin, 4))
    assert odd_marker.to_json() == reference_to_json(odd_marker)


# k = 2 with marker 1: level 1 is ((1,), ()) and so is the top.
ONE_MARKED_AT_ONE = (
    '{"k": 2, "vectors": [{"alpha": [1], "beta": []}, {"alpha": [1], "beta": []}], "p": %s}'
)


def test_from_json_rejects_boolean_parts():
    text = ONE_MARKED_AT_ONE % "[1]"
    assert MarkedDysonSymbol.from_json(text) == MarkedDysonSymbol(
        (((1,), ()), ((1,), ())), (1,)
    )
    top = text.replace('"alpha": [1]', '"alpha": [true]', 1)
    bottom = text.replace('"alpha": [1], "beta": []}]', '"alpha": [true], "beta": []}]')
    dyson = '{"k": 1, "vectors": [{"alpha": [true], "beta": [true, true]}], "p": []}'
    for bad in (top, bottom, dyson):
        assert bad != text
        with pytest.raises(ValueError, match="positive integers, got True"):
            MarkedDysonSymbol.from_json(bad)


@pytest.mark.parametrize("marker", ["1.5", '"1"', "true", "1.0"])
def test_markers_must_be_ints(marker):
    with pytest.raises(ValueError, match="markers must be integers"):
        MarkedDysonSymbol.from_json(ONE_MARKED_AT_ONE % f"[{marker}]")
    value = json.loads(marker)
    assert not validate_marked(MarkedDysonSymbol((((1,), ()), ((1,), ())), (value,)))


def test_from_json_names_the_first_bad_part_or_marker():
    # One fault each; the messages are those of the part and marker checks.
    text = ONE_MARKED_AT_ONE
    with pytest.raises(ValueError, match="weakly decreasing"):
        MarkedDysonSymbol.from_json(text.replace("[1]", "[1, 2]", 1) % "[1]")
    with pytest.raises(ValueError, match="invalid literal"):
        MarkedDysonSymbol.from_json(text % '["x"]')
    with pytest.raises(ValueError, match="markers must be integers, got None"):
        MarkedDysonSymbol.from_json(text % "[null]")
    with pytest.raises(ValueError, match="inconsistent level/marker counts"):
        MarkedDysonSymbol.from_json(text % "[1, 1]")
    for k in ('"2"', "2.0"):
        with pytest.raises(ValueError, match="inconsistent level/marker counts"):
            MarkedDysonSymbol.from_json((text % "[1]").replace('"k": 2', f'"k": {k}'))
    with pytest.raises(ValueError, match="not a valid marked Dyson symbol"):
        MarkedDysonSymbol.from_json(text % "[2]")


# Malformed texts, each with the exception its fault raises inside the
# parser; ``from_json`` chains it as the cause of its ValueError.
MALFORMED = [
    (MarkedDysonSymbol, '{"vectors": [{"alpha": [1], "beta": []}], "p": []}', KeyError),
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": [1]}], "p": []}', KeyError),
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": [1], "beta": []}]}', KeyError),
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": 5, "beta": []}], "p": []}', TypeError),
    (MarkedDysonSymbol, ONE_MARKED_AT_ONE % "[null]", TypeError),
    (MarkedDysonSymbol, ONE_MARKED_AT_ONE % "[[1]]", TypeError),
    (MarkedDysonSymbol, '{"k": 2, "vectors": [5, {"alpha": [1], "beta": []}], "p": [1]}', TypeError),
    (MarkedDysonSymbol, "[" + ONE_MARKED_AT_ONE % "[1]" + "]", TypeError),
    (MarkedDysonSymbol, ONE_MARKED_AT_ONE % "[1e400]", OverflowError),
    # A string or an object where an array belongs.
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": [1], "beta": []}], "p": ""}', TypeError),
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": [1], "beta": []}], "p": {}}', TypeError),
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": "", "beta": [2, 2]}], "p": []}', TypeError),
    (MarkedDysonSymbol, '{"k": 1, "vectors": [{"alpha": [1], "beta": ""}], "p": []}', TypeError),
    (MarkedDysonSymbol, '{"k": 0, "vectors": "", "p": ""}', TypeError),
    pytest.param(MarkedDysonSymbol, "[" * 100000, RecursionError, id="marked-deep-nesting"),
    (DysonSymbol, '{"alpha": [1]}', KeyError),
    (DysonSymbol, '{"beta": [1]}', KeyError),
    (DysonSymbol, '{"alpha": 5, "beta": []}', TypeError),
    (DysonSymbol, '[{"alpha": [1], "beta": []}]', TypeError),
    (DysonSymbol, '{"alpha": "", "beta": [2, 2]}', TypeError),
    (DysonSymbol, '{"alpha": {}, "beta": {"2": 1, "3": 1}}', TypeError),
    pytest.param(DysonSymbol, "[" * 100000, RecursionError, id="dyson-deep-nesting"),
]


@pytest.mark.parametrize("cls,text,cause", MALFORMED)
def test_from_json_raises_only_value_error(cls, text, cause):
    with pytest.raises(ValueError) as caught:
        cls.from_json(text)
    assert isinstance(caught.value.__cause__, cause)


def test_wire_caches_are_bounded():
    assert _fragment_level.cache_parameters()["maxsize"] == _LEVEL_CACHE
    assert _fragment_markers.cache_parameters()["maxsize"] == _LEVEL_CACHE


def outcome(read, text):
    """What ``read(text)`` gives: the symbol, or the error's type, message
    and cause type."""
    try:
        return "value", read(text)
    except Exception as exc:  # every kind, so that a new one shows up as a difference
        return "error", type(exc), str(exc), type(exc.__cause__)


@pytest.mark.parametrize("k,n", [(1, 10), (2, 12), (3, 10), (4, 9)])
def test_canonical_reader_matches_the_json_route(k, n):
    _fragment_level.cache_clear()
    for eta in enumerate_marked(k, n):
        for symbol in (eta,) + tuple(mirror(eta, j) for j in range(1, k + 1)):
            text = symbol.to_json()
            fast = _read_canonical(text)
            assert fast is not None, text
            slow = _read_json(text)
            assert fast == slow == symbol


def replace_first(old, new):
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


# A 3-marked symbol: levels ((1,), ()), ((2, 2), (2,)) and ((11, 11), ()).
THREE_MARKED = (
    '{"k": 3, "vectors": [{"alpha": [11, 11], "beta": []}, {"alpha": [2, 2], "beta": [2]},'
    ' {"alpha": [1], "beta": []}], "p": [2, 1]}'
)
NEAR_CANONICAL = {
    "spacing": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "indent": lambda text: json.dumps(json.loads(text), indent=1),
    "key order": lambda text: json.dumps(json.loads(text), sort_keys=True),
    "true": replace_first('"alpha": [1]', '"alpha": [true]'),
    "1.0": replace_first('"alpha": [1]', '"alpha": [1.0]'),
    "1e0": replace_first('"alpha": [1]', '"alpha": [1e0]'),
    "+1": replace_first('"alpha": [1]', '"alpha": [+1]'),
    "01": replace_first('"alpha": [1]', '"alpha": [01]'),
    # int() reads "1\u0661" as 11, and so would a reader that took any \\d.
    "arabic-indic digit": replace_first("[11, 11]", "[1\u0661, 1\u0661]"),
    "marker 1.0": replace_first('"p": [2, 1]', '"p": [2, 1.0]'),
    "k 3.0": replace_first('"k": 3', '"k": 3.0'),
    "5000-digit part": replace_first('"alpha": [1]', '"alpha": [1%s]' % ("0" * 4999)),
    "5000-digit marker": replace_first('"p": [2, 1]', '"p": [2, 1%s]' % ("0" * 4999)),
    "5000-digit k": replace_first('"k": 3', '"k": 3%s' % ("0" * 4999)),
    "trailing newline": lambda text: text + "\n",
    "leading space": lambda text: " " + text,
    # Canonical texts of no valid symbol: a fragment, then the placement, fails.
    "increasing parts": replace_first("[2, 2]", "[2, 3]"),
    "zero part": replace_first('"beta": [2]', '"beta": [0]'),
    "part above its marker": replace_first('"alpha": [1]', '"alpha": [3]'),
    "markers descending": replace_first('"p": [2, 1]', '"p": [1, 2]'),
    "one marker short": replace_first('"p": [2, 1]', '"p": [2]'),
    "k off by one": replace_first('"k": 3', '"k": 4'),
}


def test_three_marked_text_is_canonical():
    eta = MarkedDysonSymbol((((1,), ()), ((2, 2), (2,)), ((11, 11), ())), (1, 2))
    assert validate_marked(eta) and eta.to_json() == THREE_MARKED
    assert _read_canonical(THREE_MARKED) == eta


# The near-canonical texts that hold the symbol; every other row is an error.
OTHER_LAYOUTS = {"spacing", "indent", "key order", "trailing newline", "leading space"}


@pytest.mark.parametrize("case", sorted(NEAR_CANONICAL))
def test_near_canonical_texts_take_the_json_route(case):
    text = NEAR_CANONICAL[case](THREE_MARKED)
    assert text != THREE_MARKED
    assert _read_canonical(text) is None
    assert outcome(MarkedDysonSymbol.from_json, text) == outcome(_read_json, text)
    assert outcome(_read_json, text)[0] == ("value" if case in OTHER_LAYOUTS else "error")


def test_only_levels_of_partitions_enter_the_fragment_cache():
    one_level = '{"k": 1, "vectors": [{"alpha": %s, "beta": []}], "p": []}'
    _fragment_level.cache_clear()
    for bad in ("[1, 2]", "[0]", "[1%s]" % ("0" * 4999)):
        with pytest.raises(ValueError):
            MarkedDysonSymbol.from_json(one_level % bad)
    assert _fragment_level.cache_info().currsize == 0
    # A level of partitions is kept even when its symbol fails the placement.
    with pytest.raises(ValueError, match="not a valid marked Dyson symbol"):
        MarkedDysonSymbol.from_json(one_level % "[2]")
    assert _fragment_level.cache_info().currsize == 1


MUTATION_ALPHABET = '0123456789 ,[]{}":.-+e'
MUTATION_SOURCES = [THREE_MARKED] + [
    eta.to_json() for k, n in ((1, 6), (2, 6), (3, 5)) for eta in enumerate_marked(k, n)[::5]
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_single_character_edits_give_the_same_outcome_on_both_routes(data):
    text = data.draw(st.sampled_from(MUTATION_SOURCES))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.integers(0, len(text) - (kind != "insert")))
        char = data.draw(st.sampled_from(MUTATION_ALPHABET))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    assert outcome(MarkedDysonSymbol.from_json, text) == outcome(_read_json, text)


def test_the_wire_grammar_is_compiled_on_first_use():
    code = (
        "import dysonsym.marked as m; "
        "assert m._wire_grammar.cache_info().currsize == 0; "
        "m.MarkedDysonSymbol.from_json(m.enumerate_marked(2, 3)[0].to_json()); "
        "assert m._wire_grammar.cache_info().currsize == 1"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(marked.__file__)))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)


def test_validate_marked_is_false_on_levels_that_are_not_pairs_of_partitions():
    assert not validate_marked(MarkedDysonSymbol((5,), ()))
    assert not validate_marked(MarkedDysonSymbol((((1,), 5),), ()))
    assert not validate_marked(MarkedDysonSymbol(((None, ()),), ()))


def test_validate_marked_is_false_on_markers_that_are_not_a_tuple():
    assert not validate_marked(MarkedDysonSymbol((((1,), ()),), 5))
    assert not validate_marked(MarkedDysonSymbol((((1,), ()),), None))
    assert not validate_marked(MarkedDysonSymbol((((2,), ()), ((), ())), [2]))
    assert validate_marked(MarkedDysonSymbol((((2,), ()), ((), ())), (2,)))


def quadratic_balanced_count(longer, shorter):
    # The definition read literally: rescan `longer` for every part.
    unbalanced = balanced = 0
    for part in shorter:
        if sum(1 for x in longer if x > part) == unbalanced:
            balanced += 1
        else:
            unbalanced += 1
    return balanced


partitions = st.lists(st.integers(1, 12), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@given(partitions, partitions)
def test_balanced_count_matches_quadratic_definition(p, q):
    longer, shorter = (p, q) if len(p) >= len(q) else (q, p)
    assert balanced_count(longer, shorter) == quadratic_balanced_count(longer, shorter)


@settings(max_examples=200)
@given(partitions_up_to_200(), partitions_up_to_200(), st.integers(0, 3))
def test_strict_pair_is_crank_at_least_zero_and_balance_zero(a, b, shift):
    # The counting tables read strictness off (crank, balance).  alpha with
    # its parts lowered by shift > 0 is a strict pair; by 0, alpha itself.
    for beta in (b, tuple(part - shift for part in a if part > shift)):
        crank, balance = len(a) - len(beta), _level_terms((a, beta))[3]
        assert is_strict_pair(a, beta) == (crank >= 0 and balance == 0), (a, beta)


@pytest.mark.parametrize("k,n", [(2, 12), (3, 10), (4, 9)])
def test_strict_symbols_have_lower_cranks_at_least_zero_and_balance_zero(k, n):
    seen = set()
    for eta in enumerate_marked(k, n):
        stats = statistics(eta)
        lower = zip(stats.cranks[:-1], stats.balances[:-1])
        strict = is_strict(eta)
        assert strict == all(crank >= 0 and balance == 0 for crank, balance in lower), eta
        seen.add(strict)
    assert seen == {False, True}


def indexwise_is_strict(eta):
    """The nested all() that is_strict and is_strict_pair replaced, kept as
    their oracle."""
    return all(
        len(a) >= len(b) and all(a[i] > b[i] for i in range(len(b)))
        for a, b in eta.vectors[: eta.k - 1]
    )


@pytest.mark.parametrize("k,n", [(2, 10), (3, 9), (4, 8)])
def test_is_strict_matches_the_indexwise_oracle(k, n):
    symbols = enumerate_marked(k, n)
    images = [mirror(eta, j) for eta in symbols for j in range(1, k + 1)]
    seen = set()
    for eta in [*symbols, *images]:
        strict = is_strict(eta)
        assert strict == indexwise_is_strict(eta), eta
        seen.add(strict)
    assert seen == {False, True}


def profile(symbols):
    """The symbols counted by the documented fold key, (top crank,
    l - s + 2D, c_1, bal_1, ..., c_{k-1}, bal_{k-1}), read off ``statistics``."""
    out = Counter()
    for eta in symbols:
        stats = statistics(eta)
        key = (stats.cranks[-1], stats.l - stats.s + 2 * stats.D)
        for crank, balance in zip(stats.cranks[:-1], stats.balances):
            key += (crank, balance)
        out[key] += 1
    return out


@pytest.mark.parametrize("k,max_n", [(1, 12), (2, 14), (3, 14), (4, 12)])
def test_profile_table_matches_enumeration(k, max_n):
    for n in range(1, max_n + 1):
        assert _counts(k, n).folded == profile(enumerate_marked(k, n)), (k, n)


@pytest.mark.parametrize("k,n", [(2, 12), (3, 10), (4, 9)])
def test_balance_and_strict_lookups_match_enumeration(k, n):
    # Every (cranks, balances) that occurs, zero balances under every crank
    # vector, and the strict count of every crank vector, negative lower
    # cranks included.
    by_balance, strict = Counter(), Counter()
    for eta in enumerate_marked(k, n):
        stats = statistics(eta)
        by_balance[stats.cranks, stats.balances[:-1]] += 1
        strict[stats.cranks] += is_strict(eta)
    zero = (0,) * (k - 1)
    for cranks, balances in list(by_balance) + [(cranks, zero) for cranks in strict]:
        assert count_fk_with_balance(cranks, balances, n) == by_balance[cranks, balances]
    for cranks, count in strict.items():
        assert count_fk_strict(cranks, n) == count, cranks
    # Symbols with a negative lower crank and zero balances exist, and are
    # not strict.
    assert any(min(cranks[:-1]) < 0 and by_balance[cranks, zero] for cranks in strict)


def brute_force_marked(k, n):
    """Every k-marked symbol of weight n, read off the definition alone.

    Tries every marker tuple, in any order, and at each level every pair
    of partitions whose masses fit in what the markers and the levels
    before it leave of n; keeps what ``validate_marked`` accepts at
    weight n.  It shares no shape rule or pruning with the level walk.
    """
    pairs = [
        [(a, b) for s in range(m + 1) for a in partitions_of(s) for b in partitions_of(m - s)]
        for m in range(n + 1)
    ]

    def levels(count, budget):
        if count == 0:
            yield ()
            return
        for m in range(budget + 1):
            for pair in pairs[m]:
                for rest in levels(count - 1, budget - m):
                    yield (pair,) + rest

    found = []
    for markers in product(range(1, n + 1), repeat=k - 1):
        for vectors in levels(k, n - sum(markers)):
            eta = MarkedDysonSymbol(vectors, markers)
            if validate_marked(eta) and weight(eta) == n:
                found.append(eta)
    return found


@pytest.mark.parametrize("k,max_n", [(1, 16), (2, 12), (3, 10), (4, 9)])
def test_walk_matches_brute_force_oracle(k, max_n):
    for n in range(1, max_n + 1):
        oracle = brute_force_marked(k, n)
        symbols = enumerate_marked(k, n)
        assert len(symbols) == len(oracle) and set(symbols) == set(oracle), (k, n)
        assert _counts(k, n).folded == profile(oracle), (k, n)


def nested_counts(items):
    """shape -> mass -> tag -> count, from (shape, mass, tag) triples."""
    out = {}
    for shape, mass, tag in items:
        tags = out.setdefault(shape, {}).setdefault(mass, {})
        tags[tag] = tags.get(tag, 0) + 1
    return out


def recursive_partitions_in_range(lo, hi, cap):
    """The recursive builder ``_partitions_in_range`` replaced, kept as its
    oracle: parts in [lo, hi], sum <= cap, sorted by (sum, parts)."""
    if lo < 1 or hi < lo:
        return ((),)
    out = [()]

    def extend(prefix, max_part, remaining):
        for part in range(min(max_part, remaining), lo - 1, -1):
            out.append(prefix + (part,))
            extend(prefix + (part,), part, remaining - part)

    extend((), hi, cap)
    return tuple(sorted(out, key=lambda p: (sum(p), p)))


def test_partitions_in_range_matches_the_recursive_oracle():
    for lo in range(0, 14):
        for hi in range(lo - 1, 14):
            for cap in range(-1, 15):
                assert _partitions_in_range(lo, hi, cap) == recursive_partitions_in_range(
                    lo, hi, cap
                ), (lo, hi, cap)


def level_pair_entries(lo, hi, cap, k, need):
    """``_level_entries``' layout, read off the pairs ``_level_groups`` lists.

    Each pair's (mass, A_i, B_i) is checked against its group's key, and
    its label comes from its crank and ``_level_terms``; pairs whose own
    rectangle term takes mass past cap, and under ``need`` pairs whose
    group does not expose hi, are left out."""
    items = []
    for (mass, a_i, b_i, exposes), pairs in _level_groups(lo, hi, cap):
        for a, b in pairs:
            _, large, small, bal = _level_terms((a, b))
            crank = len(a) - len(b)
            assert (sum(a) + sum(b), large + bal, small - bal) == (mass, a_i, b_i)
            if mass + (a_i + k - 1) * b_i <= cap and (exposes or not need):
                items.append(((a_i, b_i), mass, _profile_label(crank, bal)))
    return nested_counts(items)


def top_pair_entries(lo, cap, k, dyson):
    """``_top_histogram``'s layout, read off the pairs ``_top_groups`` lists."""
    items = []
    for (mass, large, small, both_empty), pairs in _top_groups(lo, cap, dyson):
        for a, b in pairs:
            _, l_i, s_i, _ = _level_terms((a, b))
            crank, bal = len(a) - len(b), 0  # the top has no balance
            assert (sum(a) + sum(b), l_i, s_i, bal) == (mass, large, small, 0)
            assert both_empty == (a == b == ())
            if mass + (large + k - 1) * small <= cap:
                items.append(((large, small, both_empty), mass, crank))
    return nested_counts(items)


@pytest.mark.parametrize("k", [1, 3])
def test_level_states_match_the_pair_lists(k):
    # The part-value DP against `_level_groups`, which lists every pair.
    # Under lo < hi the pairs that expose hi are those under hi less those
    # under hi - 1, whose DP the fold builds at a larger cap; under lo = hi
    # every pair exposes hi.
    cap = 14
    for hi in range(1, 13):
        states = _level_states(hi, cap, k)
        under = _level_states(hi - 1, cap + 1, k)
        for lo in range(1, hi + 1):
            counts = states[lo - 1]
            exposing = counts
            if lo < hi:
                below = under[lo - 1]
                exposing = {s: c - below.get(s, 0) for s, c in counts.items()
                            if c != below.get(s, 0)}
                assert min(exposing.values(), default=1) > 0, (lo, hi)
            for need, kept in ((False, counts), (True, exposing)):
                entries = _level_entries(kept, _profile_label)
                assert entries == level_pair_entries(lo, hi, cap, k, need), (lo, hi, need)
                for by_mass in entries.values():  # the fold stops at the first mass too large
                    assert list(by_mass) == sorted(by_mass)


def test_level_states_leave_masses_unordered():
    # Why `_level_entries` sorts the masses: its input is not in mass order.
    states = _level_states(2, 12, 1)[0]
    masses = [m for m, la, lb, u in states if la >= lb and (la + lb - u, u) == (2, 0)]
    assert masses != sorted(masses)


@pytest.mark.parametrize("k", [1, 2])
def test_top_histogram_matches_the_top_pair_lists(k):
    # The closed-form top against `_top_groups`, which lists every pair; a
    # 1-marked top is a Dyson symbol's.
    for lo in range(1, 6):
        for cap in range(0, 14):
            expected = top_pair_entries(lo, cap, k, k == 1)
            assert _top_histogram(lo, cap, k) == expected, (lo, cap)


@pytest.mark.parametrize("label", [_profile_label, _no_label])
@pytest.mark.parametrize("k,max_n", [(1, 14), (2, 14), (3, 12), (4, 10)])
def test_fold_range_tables_do_not_depend_on_the_cap(k, max_n, label):
    # The table of weight n from one fold up to max_n is the table of a
    # fold up to n: the DPs and top histograms of the larger cap only hold
    # states that the smaller weights prune.
    tables = _fold_range(k, max_n, label)
    for n in range(1, max_n + 1):
        assert tables[n] == _fold_range(k, n, label)[n], (k, n)


def test_counts_share_their_keys_across_weights():
    _counts.cache_clear()
    _counts(3, 12)
    reference = _fold_range(3, 12, _profile_label)
    keys, vectors = {}, {}
    for n in range(1, 13):
        counts = _counts(3, n)
        assert counts.folded == reference[n], n
        for key in counts.folded:
            assert keys.setdefault(key, key) is key, (n, key)
        for cranks in counts.every:
            assert vectors.setdefault(cranks, cranks) is cranks, (n, cranks)
    assert _counts.cache_info().misses == 1
    # Keys repeat across weights, as the crank vectors do.
    assert len(keys) < sum(len(reference[n]) for n in range(1, 13))


FOLD_NAMES = (
    "_level_states", "Entries", "_level_entries", "_top_histogram", "_fold_range",
    "_RangeInfo", "_widest_range", "_profile_label", "_no_label", "_Counts", "_counts",
    "_fold_key",
)


def defined_names(module):
    # The names a module's source binds at its top level by def, class or =.
    tree = ast.parse(open(module.__file__).read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_fold_is_its_own_module_and_imports_only_the_standard_library():
    tree = ast.parse(open(fold.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)  # no relative import
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
    assert imported and imported <= set(sys.stdlib_module_names) | {"__future__"}, imported
    assert set(FOLD_NAMES) <= defined_names(fold)
    assert not set(FOLD_NAMES) & (defined_names(marked) | defined_names(fullcrank))
    for name in FOLD_NAMES:
        if name != "Entries":  # a typing alias, which has no module of its own
            assert getattr(fold, name).__module__ == "dysonsym.fold", name
    # The front ends stay where the benchmark names them.
    assert fullcrank.full_crank_table.__module__ == "dysonsym.fullcrank"
    assert count_fk.__module__ == "dysonsym.marked"


@pytest.mark.parametrize(
    "build",
    [lambda: enumerate_marked.__wrapped__(3, 12), lambda: _fold_range(3, 12, _profile_label)],
    ids=["enumerate_marked", "fold_range"],
)
def test_enumeration_and_fold_leave_no_reference_cycles(build):
    # A closure that calls itself is a reference cycle: the walk's top groups
    # and path, or the fold's memo and DP states, would stay alive until the
    # cyclic collector runs.  Cold caches run every enumeration helper.
    enumerate_marked.cache_clear()
    _walk_groups.cache_clear()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()


def exact_walk_groups(lo, hi, cap, dyson=False):
    # `_walk_groups` without its tables: each level's groups built at the cap asked for.
    return _top_groups(lo, cap, dyson) if hi is None else _level_groups(lo, hi, cap)


def widest_walk_keys(k, max_n):
    """The keys of the tables that walks of k levels up to weight max_n
    ask for, each with the largest cap asked for, read off the ascending
    marker tuples with sum <= n."""
    widest = {}
    for n in range(1, max_n + 1):
        for markers in combinations_with_replacement(range(1, n + 1), k - 1):
            if sum(markers) > n:
                continue
            bounds = (1,) + markers
            asked = [((lo, hi, False), n - sum(markers)) for lo, hi in zip(bounds, markers)]
            asked.append(((bounds[-1], None, k == 1), n - bounds[-1] - (k - 2) if k > 1 else n))
            for key, cap in asked:
                widest[key] = max(widest.get(key, cap), cap)
    return widest


def test_object_suites_keep_one_symbol_list_and_one_walk_table_per_marker():
    enumerate_marked.cache_clear()
    _walk_groups.cache_clear()
    assert all(verdict.passed for verdict in cli.verify_thm24(3, 12))
    assert all(verdict.passed for verdict in cli.verify_thm26(3, 12))
    assert enumerate_marked.cache_info().currsize == 1
    # One table per (lo, hi) and per (top marker, dyson), at the widest cap
    # that the walks asked for.
    widest = widest_walk_keys(3, 12)
    assert {key: cap for key, (cap, groups) in _walk_tables.items()} == widest
    for (lo, hi, dyson), (cap, groups) in _walk_tables.items():
        assert groups == exact_walk_groups(lo, hi, cap, dyson)


def test_a_walk_inside_the_kept_tables_builds_no_table(monkeypatch):
    builds = []

    def counted(build):
        def wrapper(*args):
            builds.append((build.__name__,) + args)
            return build(*args)
        return wrapper

    _walk_groups.cache_clear()
    _walk(3, 12)
    monkeypatch.setattr(marked, "_level_groups", counted(marked._level_groups))
    monkeypatch.setattr(marked, "_top_groups", counted(marked._top_groups))
    for n in range(1, 13):
        _walk(3, n)
    assert builds == []
    # A wider walk rebuilds tables in place, at its own caps.
    _walk(3, 13)
    assert builds
    assert {key: cap for key, (cap, groups) in _walk_tables.items()} == widest_walk_keys(3, 13)


def test_object_suites_build_each_walk_table_once(capsys, monkeypatch):
    # Walking n = 2..max_n upward rebuilt each table as its cap grew: 260
    # builds at the default rows of thm2.4 and thm2.6 for the 50 tables kept.
    builds = []
    for name in ("_level_groups", "_top_groups"):
        build = getattr(marked, name)
        monkeypatch.setattr(marked, name,
                            lambda *args, name=name, build=build: builds.append(name) or build(*args))
    enumerate_marked.cache_clear()
    _walk_groups.cache_clear()
    assert all(verdict.passed for verdict in cli.verify_thm24(3, 12))
    assert len(builds) == len(_walk_tables) == len(widest_walk_keys(3, 12))
    enumerate_marked.cache_clear()
    _walk_groups.cache_clear()
    builds.clear()
    assert cli.main(["verify", "thm2.4"]) == cli.main(["verify", "thm2.6"]) == 0
    capsys.readouterr()
    assert Counter(builds) == {"_level_groups": 37, "_top_groups": 13}
    assert len(_walk_tables) == 50


def test_object_suites_leave_their_smallest_symbol_list_cached():
    # The one-entry list cache used to end each suite holding its largest
    # list, (3, 12), alive through the suites that `verify all` runs next.
    # thm2.6 walks only the symbols it merges and leaves the cache as it
    # found it; it used to build all 11 lists of its row again.
    enumerate_marked.cache_clear()
    cli.verify_thm24(3, 12)
    info = enumerate_marked.cache_info()
    assert all(verdict.passed for verdict in cli.verify_thm26(3, 12))
    assert enumerate_marked.cache_info() == info
    enumerate_marked(3, 2)
    assert enumerate_marked.cache_info().misses == info.misses


def merges(eta):
    # What phi takes: a top crank >= 0 and a strict pair at every lower level.
    (a, b) = eta.vectors[-1]
    return len(a) >= len(b) and is_strict(eta)


def fold_merging_count(k, n):
    # The symbols phi merges, counted by the fold, which shares no code with
    # the walk: the strict counts of the crank vectors with a top crank >= 0
    # (count_fk_strict is 0 at a negative lower crank), or at k = 1 the
    # symbols of crank >= 0.
    every = _counts(k, n).every
    if k == 1:
        return sum(count for (m,), count in every.items() if m >= 0)
    return sum(count_fk_strict(cranks, n) for cranks in every if cranks[-1] >= 0)


@pytest.mark.parametrize("k, max_n", [(1, 14), (2, 14), (3, 14), (4, 12)])
def test_the_merging_walk_is_the_merging_part_of_the_enumeration(k, max_n):
    # In order, so thm2.6 reads the symbols that filtering enumerate_marked
    # gave it, and as many as the fold counts.
    _walk_groups.cache_clear()
    for n in range(1, max_n + 1):
        walked = _walk(k, n, merging=True)
        assert walked == [eta for eta in enumerate_marked(k, n) if merges(eta)], (k, n)
        assert len(walked) == fold_merging_count(k, n), (k, n)


def mergeable_part(key, groups):
    # A full table's groups less the pairs no merge holds, empty groups dropped.
    lo, hi, dyson = key
    keep = (lambda a, b: len(a) >= len(b)) if hi is None else is_strict_pair
    kept = [(summary, tuple(pair for pair in pairs if keep(*pair))) for summary, pairs in groups]
    return tuple((summary, pairs) for summary, pairs in kept if pairs)


def test_merging_tables_are_filtered_from_the_kept_tables_and_cleared_with_them(monkeypatch):
    builds = []
    for name in ("_level_groups", "_top_groups"):
        build = getattr(marked, name)
        monkeypatch.setattr(marked, name,
                            lambda *args, name=name, build=build: builds.append(name) or build(*args))
    _walk_groups.cache_clear()
    for n in range(12, 1, -1):
        _walk(3, n, merging=True)
    # The full tables the walk that keeps every symbol keeps, each built
    # once, and one mergeable part of each, holding the full table's pairs.
    widest = widest_walk_keys(3, 12)
    assert len(builds) == len(_walk_tables) == len(widest)
    assert {key: cap for key, (cap, groups) in _walk_tables.items()} == widest
    assert marked._merging_tables.keys() == _walk_tables.keys()
    for key, (cap, groups) in _walk_tables.items():
        assert marked._merging_tables[key] == mergeable_part(key, groups)
        held = {id(pair) for summary, pairs in groups for pair in pairs}
        assert all(id(pair) in held for summary, pairs in marked._merging_tables[key] for pair in pairs)
    # A wider walk rebuilds full tables, and their mergeable parts with them.
    before = dict(_walk_tables)
    _walk(3, 13, merging=True)
    rebuilt = [key for key in before if _walk_tables[key] is not before[key]]
    assert rebuilt
    for key, (cap, groups) in _walk_tables.items():
        assert marked._merging_tables[key] == mergeable_part(key, groups)
    _walk_groups.cache_clear()
    assert not _walk_tables and not marked._merging_tables


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_walk_over_kept_tables_matches_the_exact_tables(monkeypatch, k):
    # Weights ascending make the kept tables grow; descending, every walk
    # reads tables wider than it asks for.  Both must give the symbols, in
    # the order, of a walk whose every table is built at the cap asked for.
    _walk_groups.cache_clear()
    weights = list(range(1, 13)) + list(range(12, 0, -1))
    kept = [_walk(k, n) for n in weights]
    monkeypatch.setattr(marked, "_walk_groups", exact_walk_groups)
    assert kept == [_walk(k, n) for n in weights]


# sha256 over repr(enumerate_marked(k, n)) for n = first..last in turn: the
# rows that thm2.4 and thm2.6 read, and the objects workload's sizes.
ENUMERATION_DIGESTS = {
    (1, 1, 12): "69cb0813d9802008387fd2915201a4a2cfa1b08a3a6af765114ebb87d18fccd9",
    (2, 1, 12): "4d8483e64f80fccb313502bc0927d374fcbf5de27404c57df91b1a64a2d4453c",
    (3, 1, 12): "dc8cb514a449ca9325cf7016815fa3b09fd9e2547c7d4f5b41703eca73a2f010",
    (2, 14, 14): "14891763dca40c3f7c084ded64d2aad97c8616f2e95bb447721d0f3d46fde590",
    (3, 13, 13): "d07ec3e5668f6eeb32b643b3732329a6ad3eaa880beadc6d501c310e332e690f",
    (4, 12, 12): "9b9bcee9832aab80aed6c8449cd844b24ee833330515527a889a4378620d2d5d",
}


def test_enumerations_keep_their_symbols_and_order():
    _walk_groups.cache_clear()
    enumerate_marked.cache_clear()
    for (k, first, last), digest in ENUMERATION_DIGESTS.items():
        h = hashlib.sha256()
        for n in range(first, last + 1):
            h.update(repr(enumerate_marked(k, n)).encode())
        assert h.hexdigest() == digest, (k, first, last)


def test_one_marked_counts_match_the_crank_generating_function():
    # Cor. 2.3: F_1(m; n) = M(-m, n), past the n that enumeration reaches.
    for n in range(2, 25):
        crank = crank_counts(n)
        assert sum(_counts(1, n).every.values()) == sum(crank[m] for m in range(-n, n + 1))
        for m in range(-n, n + 1):
            assert count_fk((m,), n) == crank[-m], (n, m)


def statistics_weight(eta):
    """The weight read off ``statistics``, as ``weight`` once computed it."""
    stats = statistics(eta)
    base = sum(sum(a) + sum(b) for a, b in eta.vectors) + sum(eta.markers)
    return base + (stats.l + stats.D + eta.k - 1) * (stats.s - stats.D)


def copying_validate_marked(eta):
    """``validate_marked`` as it was: every partition copied through
    ``check_partition``, every part tested against its range."""
    k = eta.k
    if k < 1 or len(eta.markers) != k - 1:
        return False
    try:
        for a, b in eta.vectors:
            check_partition(a)
            check_partition(b)
    except ValueError:
        return False
    if k == 1:
        return validate_dyson(DysonSymbol(*eta.vectors[0]))
    bounds = (1,) + eta.markers
    if any(bounds[i] > bounds[i + 1] for i in range(k - 1)):
        return False
    for i in range(1, k):
        lo, hi = bounds[i - 1], bounds[i]
        a, b = eta.vectors[i - 1]
        for part in a + b:
            if part < lo or part > hi:
                return False
    top_lo = bounds[k - 1]
    a, b = eta.vectors[k - 1]
    for part in a + b:
        if part < top_lo:
            return False
    if len(a) == 1:
        return a[0] == top_lo
    if len(a) > 1:
        return a[0] == a[1]
    if len(b) == 1:
        return b[0] == top_lo
    if len(b) >= 2:
        return b[0] == b[1]
    firsts = [p[0] for p in eta.vectors[k - 2] if p]
    return top_lo == max(firsts + [bounds[k - 2]])


@pytest.mark.parametrize("k,n", [(2, 10), (3, 9), (4, 8)])
def test_weight_matches_the_statistics_oracle(k, n):
    for eta in enumerate_marked(k, n):
        assert weight(eta) == statistics_weight(eta) == n
        for j in range(1, k + 1):
            mu = mirror(eta, j)
            assert weight(mu) == statistics_weight(mu)


def replace_part(eta, level, side, index, value):
    vectors = [list(pair) for pair in eta.vectors]
    parts = list(vectors[level][side])
    parts[index] = value
    vectors[level][side] = tuple(parts)
    return MarkedDysonSymbol(tuple(tuple(pair) for pair in vectors), eta.markers)


def range_perturbations(eta):
    """Every symbol made by pushing one part just outside its range while
    the partition stays decreasing: a first part above p_i, a last part
    below p_{i-1}, or a last top part below p_{k-1}."""
    bounds = (1,) + eta.markers
    k = eta.k
    for level, pair in enumerate(eta.vectors):
        lo = bounds[level]
        for side, parts in enumerate(pair):
            if not parts:
                continue
            if level < k - 1:
                yield replace_part(eta, level, side, 0, bounds[level + 1] + 1)
            yield replace_part(eta, level, side, len(parts) - 1, lo - 1)


@pytest.mark.parametrize("k,n", [(2, 10), (3, 9), (4, 8)])
def test_validate_marked_range_tests_match_the_copying_oracle(k, n):
    for eta in enumerate_marked(k, n):
        assert validate_marked(eta)
        for bad in range_perturbations(eta):
            assert validate_marked(bad) == copying_validate_marked(bad), bad


PERTURBATIONS = (
    "none", "zero", "negative", "float", "str", "above left",
    "above level", "below level", "below top",
)


@settings(max_examples=300)
@given(st.data())
def test_validate_marked_matches_the_copying_oracle(data):
    k, n = data.draw(st.sampled_from([(1, 8), (2, 8), (3, 7), (4, 6)]))
    symbols = enumerate_marked(k, n)
    eta = symbols[data.draw(st.integers(0, len(symbols) - 1))]
    kind = data.draw(st.sampled_from(PERTURBATIONS))
    bounds = (1,) + eta.markers
    # (level, side, index) of every part.  The range perturbations keep
    # the partition decreasing: they raise a first part or lower a last one.
    places = [
        (i, side, j)
        for i, pair in enumerate(eta.vectors)
        for side in (0, 1)
        for j in range(len(pair[side]))
    ]
    last = [(i, side, j) for i, side, j in places if j == len(eta.vectors[i][side]) - 1]
    pool = {
        "none": [None],
        "above left": [place for place in places if place[2] > 0],
        "above level": [place for place in places if place[0] < k - 1 and place[2] == 0],
        "below level": [place for place in last if place[0] < k - 1],
        "below top": [place for place in last if place[0] == k - 1],
    }.get(kind, places)
    if not pool:
        return
    place = data.draw(st.sampled_from(pool))
    if place is not None:
        level, side, index = place
        parts = eta.vectors[level][side]
        part = parts[index]
        if kind == "zero":
            value = 0
        elif kind == "negative":
            value = -data.draw(st.integers(1, 5))
        elif kind == "float":
            value = float(part)
        elif kind == "str":
            value = str(part)
        elif kind == "above left":
            value = parts[index - 1] + data.draw(st.integers(1, 3))
        elif kind == "above level":
            value = bounds[level + 1] + data.draw(st.integers(1, 3))
        elif kind == "below level":
            value = bounds[level] - data.draw(st.integers(1, 3))
        else:  # below the top marker
            value = bounds[k - 1] - data.draw(st.integers(1, 3))
        eta = replace_part(eta, level, side, index, value)
    assert validate_marked(eta) == copying_validate_marked(eta), (kind, eta)
    if kind == "none":
        assert validate_marked(eta)
