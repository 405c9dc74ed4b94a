import gc
import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dysonsym import (
    DysonSymbol,
    MarkedDysonSymbol,
    balanced_count,
    count_fk,
    count_fk_strict,
    count_fk_with_balance,
    crank_counts,
    crank_moment,
    crank_vector,
    dyson_crank,
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
from dysonsym import cli, marked
from dysonsym.fullcrank import _no_label
from dysonsym.marked import (
    _counts,
    _fold_range,
    _level,
    _level_json,
    _level_entries,
    _level_groups,
    _level_states,
    _pair_stats,
    _partitions_in_range,
    _profile_label,
    _top_groups,
    _top_histogram,
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


def product_theorem21_rhs(cranks, n):
    """Theorem 2.1's right-hand side read literally: one F_1 term, counted
    by enumeration, per shift vector (t_1, ..., t_{k-1})."""
    from dysonsym import count_f1

    k = len(cranks)
    base = sum(abs(m) for m in cranks) + k - 1
    shifts = product(range((n - base) // 2 + 1), repeat=k - 1)
    return sum(count_f1(base + 2 * sum(t), n) for t in shifts)


def signed_profiles(k, bound):
    return [m for m in product(range(-bound, bound + 1), repeat=k) if sum(map(abs, m)) <= bound]


def test_signed_profiles_are_the_sign_flips_of_the_nonnegative_ones():
    for k in range(0, 5):
        for bound in range(-1, 9):
            profiles = list(cli._signed_profiles(k, bound))
            assert len(profiles) == len(set(profiles)), (k, bound)
            assert set(profiles) == set(signed_profiles(k, bound)), (k, bound)


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
    for k in (1, 2, 3):
        for n in range(2, 9):
            for eta in enumerate_marked(k, n):
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


def test_mirror_rejects_bad_level():
    eta = enumerate_marked(2, 4)[0]
    with pytest.raises(ValueError):
        mirror(eta, 0)
    with pytest.raises(ValueError):
        mirror(eta, 3)


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
    from dysonsym import count_f1

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
                assert dyson_crank(merged) == sum(cranks) + k - 1
                assert phi_inverse(merged, cranks) == eta


def test_phi_inverse_then_phi():
    for k in (2, 3):
        for n in range(2, 10):
            for sym in enumerate_dyson_symbols(n):
                c = dyson_crank(sym)
                if c != k - 1:
                    continue
                eta = phi_inverse(sym, (0,) * k)
                assert is_strict(eta)
                assert phi(eta) == sym


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
    # A mirror image holds a fresh pair object at its mirrored level.
    for j in range(1, k + 1):
        for eta in symbols:
            image = mirror(eta, j)
            assert image.to_json() == reference_to_json(image)


def test_decoded_symbols_share_their_levels():
    symbols = enumerate_marked(3, 10)
    texts = [eta.to_json() for eta in symbols]
    first = [MarkedDysonSymbol.from_json(text) for text in texts]
    second = [MarkedDysonSymbol.from_json(text) for text in texts]
    assert first == second == list(symbols)
    for one, two in zip(first, second):
        assert all(p is q for p, q in zip(one.vectors, two.vectors))
    # Equal levels of different symbols are one object as well.
    tops = {}
    for eta in first:
        assert tops.setdefault(eta.vectors[-1], eta.vectors[-1]) is eta.vectors[-1]


@pytest.mark.parametrize("twin", [True, 1.0])
def test_to_json_keeps_non_int_parts_out_of_the_level_cache(twin):
    eta = BIG_THREE_MARKED  # level 1 is ((1, 1), (2, 1, 1))
    odd = MarkedDysonSymbol((((1, twin), (2, 1, 1)),) + eta.vectors[1:], eta.markers)
    assert odd == eta  # equal by value, so one value-keyed entry would serve both
    for order in ((eta, odd), (odd, eta)):
        _level_json.cache_clear()
        for symbol in order:
            assert symbol.to_json() == reference_to_json(symbol)
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
    (DysonSymbol, '{"alpha": [1]}', KeyError),
    (DysonSymbol, '{"beta": [1]}', KeyError),
    (DysonSymbol, '{"alpha": 5, "beta": []}', TypeError),
    (DysonSymbol, '[{"alpha": [1], "beta": []}]', TypeError),
]


@pytest.mark.parametrize("cls,text,cause", MALFORMED)
def test_from_json_raises_only_value_error(cls, text, cause):
    with pytest.raises(ValueError) as caught:
        cls.from_json(text)
    assert isinstance(caught.value.__cause__, cause)


def test_wire_caches_are_bounded():
    assert _level_json.cache_parameters()["maxsize"] is not None
    assert _level.cache_parameters()["maxsize"] is not None


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
        crank, _, _, balance = _pair_stats(a, beta, top=False)
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
    its label comes from ``_pair_stats``; pairs whose own rectangle term
    takes mass past cap, and under ``need`` pairs whose group does not
    expose hi, are left out."""
    items = []
    for (mass, a_i, b_i, exposes), pairs in _level_groups(lo, hi, cap):
        for a, b in pairs:
            crank, large, small, bal = _pair_stats(a, b, top=False)
            assert (sum(a) + sum(b), large + bal, small - bal) == (mass, a_i, b_i)
            if mass + (a_i + k - 1) * b_i <= cap and (exposes or not need):
                items.append(((a_i, b_i), mass, _profile_label(crank, bal)))
    return nested_counts(items)


def top_pair_entries(lo, cap, k, dyson):
    """``_top_histogram``'s layout, read off the pairs ``_top_groups`` lists."""
    items = []
    for (mass, large, small, both_empty), pairs in _top_groups(lo, cap, dyson):
        for a, b in pairs:
            crank, l_i, s_i, bal = _pair_stats(a, b, top=True)
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


@pytest.mark.parametrize("k", [1, 2])
def test_top_histogram_matches_the_top_pair_lists(k):
    # The closed-form top against `_top_groups`, which lists every pair.
    for dyson in (False, True):
        for lo in range(1, 6):
            for cap in range(0, 14):
                expected = top_pair_entries(lo, cap, k, dyson)
                assert _top_histogram(lo, cap, k, dyson) == expected, (lo, cap, dyson)


@pytest.mark.parametrize("label", [_profile_label, _no_label])
@pytest.mark.parametrize("k,max_n", [(1, 14), (2, 14), (3, 12), (4, 10)])
def test_fold_range_tables_do_not_depend_on_the_cap(k, max_n, label):
    # The table of weight n from one fold up to max_n is the table of a
    # fold up to n: the DPs and top histograms of the larger cap only hold
    # states that the smaller weights prune.
    tables = _fold_range(k, max_n, label)
    for n in range(1, max_n + 1):
        assert tables[n] == _fold_range(k, n, label)[n], (k, n)


def test_verify_thm21_runs_one_fold(monkeypatch):
    runs = []

    def counted(k, max_n, label):
        runs.append((k, max_n))
        return fold(k, max_n, label)

    fold = marked._fold_range
    monkeypatch.setattr(marked, "_fold_range", counted)
    _counts.cache_clear()
    assert all(verdict.passed for verdict in cli.verify_thm21(2, 14))
    assert runs == [(2, 14)]
    # A narrower weight reads the kept range; a wider one replaces it.
    assert count_fk((1, 0), 9) == theorem21_rhs((1, 0), 9)
    assert runs == [(2, 14)]
    assert count_fk((1, 0), 15) == theorem21_rhs((1, 0), 15)
    assert runs == [(2, 14), (2, 15)]
    assert _counts.cache_info().currsize == 1


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
    _level_groups.cache_clear()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
