from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from dysonsym import (
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
    validate_marked,
    weight,
)
from dysonsym.marked import _profile_table

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


def test_one_marked_counts_match_the_crank_generating_function():
    # Cor. 2.3: F_1(m; n) = M(-m, n), past the n that enumeration reaches.
    for n in range(2, 25):
        table = _profile_table(1, n)
        crank = crank_counts(n)
        assert sum(table.values()) == sum(crank[m] for m in range(-n, n + 1))
        for m in range(-n, n + 1):
            assert table[(m,), (), True] == crank[-m], (n, m)
