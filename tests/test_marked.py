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
from dysonsym.marked import (
    _level_counts,
    _level_groups,
    _level_states,
    _profile_table,
    _top_groups,
    _top_histogram,
)
from dysonsym.partitions import check_partition

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


def profile(symbols):
    return Counter(
        (stats.cranks, stats.balances[:-1], is_strict(eta))
        for eta in symbols
        for stats in [statistics(eta)]
    )


def enumerated_profile(k, n):
    return profile(enumerate_marked(k, n))


@pytest.mark.parametrize("k,max_n", [(1, 12), (2, 14), (3, 14), (4, 12)])
def test_profile_table_matches_enumeration(k, max_n):
    for n in range(1, max_n + 1):
        assert _profile_table(k, n) == enumerated_profile(k, n), (k, n)


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
        assert _profile_table(k, n) == profile(oracle), (k, n)


def group_sizes(groups, cap, k):
    """Pair counts of a group list, without the pairs whose own rectangle
    term (large + balance + k - 1)(small - balance) takes mass past cap."""
    sizes = {}
    for key, pairs in groups:
        mass, large, small, bal = key[:4]
        if mass + (large + bal + k - 1) * (small - bal) <= cap:
            sizes[key] = len(pairs)
    return sizes


@pytest.mark.parametrize("k", [1, 3])
def test_level_states_match_the_pair_lists(k):
    # The part-value DP against `_level_groups`, which lists every pair.
    cap = 14
    for hi in range(1, 13):
        states = _level_states(hi, cap, k)
        for lo in range(1, hi + 1):
            counts = {}
            for key, count in _level_counts(states[lo - 1], lo == hi):
                counts[key] = counts.get(key, 0) + count
            assert counts == group_sizes(_level_groups(lo, hi, cap), cap, k), (lo, hi)


@pytest.mark.parametrize("k", [1, 2])
def test_top_histogram_matches_the_top_pair_lists(k):
    # The closed-form top against `_top_groups`, which lists every pair.
    for dyson in (False, True):
        for lo in range(1, 6):
            for cap in range(0, 14):
                expected = group_sizes(_top_groups(lo, cap, dyson), cap, k)
                assert _top_histogram(lo, cap, k, dyson) == expected, (lo, cap, dyson)


def test_one_marked_counts_match_the_crank_generating_function():
    # Cor. 2.3: F_1(m; n) = M(-m, n), past the n that enumeration reaches.
    for n in range(2, 25):
        table = _profile_table(1, n)
        crank = crank_counts(n)
        assert sum(table.values()) == sum(crank[m] for m in range(-n, n + 1))
        for m in range(-n, n + 1):
            assert table[(m,), (), True] == crank[-m], (n, m)


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
