import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from dysonsym import (
    CountTable,
    conjugate,
    crank,
    crank_counts,
    crank_moment,
    gen_binomial,
    partition_count,
    partitions_of,
    rank,
    rank_counts,
    rank_moment,
)
from dysonsym import partitions
from dysonsym.partitions import (
    CRANK_TABLE_ONE,
    _count_greater,
    _partition_numbers,
    check_partition,
    is_partition,
)


def test_partitions_of_small():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(1)) == [(1,)]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_count_matches_enumeration():
    for n in range(12):
        assert partition_count(n) == len(list(partitions_of(n)))


def test_partition_count_known_values():
    # Classical values of p(n).
    assert partition_count(10) == 42
    assert partition_count(20) == 627
    assert partition_count(40) == 37338
    assert partition_count(80) == 15796476


def test_partition_count_has_no_recursion_limit():
    # A recursive count overflowed the stack near n = 330 on a cold cache.
    assert partition_count(1000) == 24061467864032622473692149727991


def test_partition_count_grows_one_table_in_a_fresh_process():
    # Out of order: each request either extends the table or reads a prefix.
    code = (
        "import dysonsym.partitions as P; "
        "assert P._P_TABLE == [1]; "
        "values = [P.partition_count(n) for n in (400, 7, 250, 1, 1000)]; "
        "assert values == [6727090051741041926, 15, 230793554364681, 1, "
        "24061467864032622473692149727991], values; "
        "assert len(P._P_TABLE) == 1001"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(partitions.__file__)))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)


def test_count_tables_and_partition_count_read_the_same_numbers():
    weights = list(range(2, 301))
    random.Random(22).shuffle(weights)
    for n in weights:
        assert crank_counts(n).total() == rank_counts(n).total() == partition_count(n), n


def test_a_larger_request_keeps_the_table_it_extends():
    held = _partition_numbers(120)
    before = list(held)
    larger = _partition_numbers(len(held) + 50)
    assert len(larger) == len(held) + 51
    assert larger[: len(held)] == before
    # The held list is replaced, not written to, so it reads as it did.
    assert held == before and partitions._P_TABLE is larger


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    assert check_partition([3, 1]) == (3, 1)


def test_a_value_that_is_not_iterable_is_no_partition():
    for value in (5, None, 1.5):
        assert not is_partition(value)
        with pytest.raises(TypeError):
            check_partition(value)


def test_booleans_are_not_parts():
    for parts in ([True], [True, True], [2, True], [False]):
        assert not is_partition(parts)
        with pytest.raises(ValueError, match="positive integers"):
            check_partition(parts)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(st.integers(1, 12))
def test_conjugate_is_involution(n):
    for lam in partitions_of(n):
        assert conjugate(conjugate(lam)) == lam


def recursive_partitions_of(n, max_part=None):
    """The recursive generator partitions_of replaced, kept as its oracle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in recursive_partitions_of(n - first, first):
            yield (first,) + rest


def cellwise_conjugate(lam):
    """Column heights counted one cell at a time."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def test_partitions_of_matches_the_recursive_oracle():
    for n in range(26):
        for max_part in [None] + list(range(n + 2)):
            assert list(partitions_of(n, max_part)) == list(
                recursive_partitions_of(n, max_part)
            ), (n, max_part)


def test_partitions_of_below_the_oracle_bounds():
    assert list(partitions_of(0, -1)) == list(recursive_partitions_of(0, -1)) == [()]
    assert list(partitions_of(3, -1)) == list(recursive_partitions_of(3, -1)) == []
    with pytest.raises(ValueError):
        next(partitions_of(-1))


def test_partitions_of_counts_reach_p_n():
    for n in range(46):
        assert sum(1 for _ in partitions_of(n)) == partition_count(n)


def test_conjugate_matches_the_cellwise_oracle():
    for n in range(26):
        for lam in recursive_partitions_of(n):
            assert conjugate(lam) == cellwise_conjugate(lam)
            assert conjugate(conjugate(lam)) == lam


def test_rank_and_crank_examples():
    assert rank((4,)) == 3
    assert rank((1, 1, 1, 1)) == -3
    assert crank((4,)) == 4
    assert crank((2, 1, 1)) == -2
    assert crank((1, 1, 1, 1)) == -4
    assert crank((3, 1)) == 0
    with pytest.raises(ValueError):
        crank(())
    with pytest.raises(ValueError):
        rank(())


def test_rank_crank_conjugate_symmetry():
    # rank(conjugate) = -rank; crank table is symmetric in m.
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert rank(conjugate(lam)) == -rank(lam)
    for n in range(2, 21):
        table = crank_counts(n)
        for m in table.support():
            assert table[m] == table[-m]


def test_crank_counts_n1_convention():
    # The q^1 coefficient of the crank generating function, with no special case.
    assert crank_counts(1).counts == CRANK_TABLE_ONE


def test_crank_counts_match_direct_enumeration():
    for n in range(2, 16):
        direct = {}
        for lam in partitions_of(n):
            c = crank(lam)
            direct[c] = direct.get(c, 0) + 1
        assert crank_counts(n).counts == direct


def test_rank_counts_match_direct_enumeration():
    for n in range(1, 26):
        assert rank_counts(n).counts == Counter(rank(lam) for lam in partitions_of(n))


def test_count_tables_sum_to_pn():
    # Far beyond the reach of enumeration (p(300) is about 9.3e15): both
    # tables sum to p(n), are symmetric in m, and mu_2(n) = n p(n).
    for n in range(1, 301):
        p_n = partition_count(n)
        for table in (crank_counts(n), rank_counts(n)):
            assert table.total() == p_n
            assert all(table[m] == table[-m] for m in table.support())
        assert crank_moment(2, n) == n * p_n


def test_count_table_serialization_round_trip():
    table = crank_counts(6)
    assert CountTable.from_json(table.to_json()) == table
    parsed = json.loads(table.to_json())
    assert parsed["n"] == 6


def test_count_table_repr_and_equality():
    table = crank_counts(5)
    assert repr(table) == "CountTable(n=5, counts={-5: 1, -3: 1, -1: 1, 0: 1, 1: 1, 3: 1, 5: 1})"
    parsed = CountTable.from_json(table.to_json())
    assert parsed == table and parsed is not table
    assert CountTable(n=5, counts=dict(table.counts)) == table
    assert CountTable(4, table.counts) != table
    assert table != (5, table.counts)


def test_count_table_is_not_iterable():
    # [] reads 0 for a missing value and never raises IndexError, so the
    # sequence protocol behind `in` and `list` used to loop forever.
    table = crank_counts(5)
    with pytest.raises(TypeError):
        4 in table
    with pytest.raises(TypeError):
        list(table)


def test_count_tables_round_trip_through_json():
    for n in range(1, 31):
        for table in (crank_counts(n), rank_counts(n)):
            assert CountTable.from_json(table.to_json()) == table


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"n": 5.0, "counts": [[1, 2]]}', "integers, got 5.0"),
        ('{"n": true, "counts": [[1, 2]]}', "integers, got True"),
        ('{"n": 5, "counts": [[1.5, 2]]}', "integers, got 1.5"),
        ('{"n": 5, "counts": [[true, 2]]}', "integers, got True"),
        ('{"n": 5, "counts": [[1, "3"]]}', "integers, got '3'"),
        ('{"n": 5, "counts": [[1, 2.0]]}', "integers, got 2.0"),
        ('{"n": 5, "counts": [[1.5, 2], [true, "3"]]}', "integers, got 1.5"),
        ('{"n": 5, "counts": [[1, 2], [0, 1], [1, 3]]}', "repeats"),
        ('{"n": 5, "counts": [[1, 2], [1, 2]]}', "repeats"),
        ('{"n": 5}', "not a count table"),
        ('{"n": 5, "counts": 3}', "not a count table"),
        ('{"n": 3, "counts": ""}', "not a count table"),
        ('{"n": 3, "counts": {}}', "not a count table"),
        pytest.param("[" * 100000, "RecursionError", id="deep-nesting"),
    ],
)
def test_count_table_from_json_rejects_what_it_would_coerce(text, message):
    with pytest.raises(ValueError, match=message):
        CountTable.from_json(text)


def test_gen_binomial_negative_and_positive():
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-1, 4) == 1
    assert gen_binomial(-2, 4) == 5
    assert gen_binomial(3, 0) == 1
    assert gen_binomial(2, 5) == 0
    with pytest.raises(ValueError):
        gen_binomial(3, -1)


@given(st.integers(-30, 30), st.integers(0, 8))
def test_gen_binomial_pascal_recurrence(a, b):
    if b >= 1:
        assert gen_binomial(a, b) == gen_binomial(a - 1, b) + gen_binomial(a - 1, b - 1)


def falling_factorial_binomial(a, b):
    """The product loop gen_binomial replaced, kept as its oracle."""
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


def test_gen_binomial_matches_the_falling_factorial_oracle():
    for a in range(-40, 41):
        for b in range(16):
            assert gen_binomial(a, b) == falling_factorial_binomial(a, b), (a, b)


def test_count_greater_matches_a_linear_count():
    for n in range(21):
        for lam in partitions_of(n):
            for bound in range(n + 2):
                assert _count_greater(lam, bound) == sum(part > bound for part in lam), (lam, bound)


def test_moments_of_a_huge_order_vanish_at_once():
    # Every term is C(m + 500000, 1000001) with |m| <= 40, so 0; the product
    # loop took a million steps per term and then divided by 1000001!.
    assert crank_moment(10**6 + 1, 40) == 0
    assert rank_moment(10**6 + 1, 40) == 0


def test_moment_known_values():
    # mu_2(5) = 35; spt(n) = mu_2(n) - eta_2(n).
    assert crank_moment(2, 5) == 35
    spt = {1: 1, 2: 3, 3: 5, 4: 10, 5: 14, 6: 26, 7: 35, 8: 57, 9: 80, 10: 119}
    for n, value in spt.items():
        assert crank_moment(2, n) - rank_moment(2, n) == value


def test_odd_moments_vanish():
    for k in (1, 3, 5, 7):
        for n in range(1, 21):
            assert crank_moment(k, n) == 0
            assert rank_moment(k, n) == 0
