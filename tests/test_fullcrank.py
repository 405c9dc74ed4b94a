import json

import pytest
from hypothesis import given, settings, strategies as st

from dysonsym import (
    Verdict,
    barck_brute,
    barck_closed_form,
    ck_brute,
    ck_closed_form,
    count_full_crank,
    count_full_crank_residue,
    crank_counts,
    crank_moment,
    enumerate_marked,
    full_crank,
    gen_binomial,
    partition_count,
    series_coefficients,
    theorem43_rhs,
    verify_theorem31,
)

from golden_data import BIG_THREE_MARKED


def test_full_crank_of_big_example():
    # l=9, s=6, D=2, k=3, top crank 2 > 0: 9-6+4+2 = 9.
    assert full_crank(BIG_THREE_MARKED) == 9


def test_full_crank_sign_tracks_top_crank():
    for eta in enumerate_marked(2, 6):
        from dysonsym import crank_vector

        value = full_crank(eta)
        if crank_vector(eta)[-1] > 0:
            assert value >= 0
        else:
            assert value <= 0


def test_full_crank_table_totals():
    for k in (1, 2, 3):
        for n in range(2, 10):
            total = sum(count_full_crank(k, m, n) for m in range(-n - k, n + k + 1))
            assert total == len(enumerate_marked(k, n))


def test_theorem43_closed_form_small():
    for k in (1, 2, 3):
        for n in range(2, 12):
            for m in range(-n, n + 1):
                assert count_full_crank(k, m, n) == theorem43_rhs(k, m, n)


def test_theorem43_rhs_value():
    # C(5+2-2, 2) * M(5, 7): M(5,7) counts partitions of 7 with crank 5.
    assert crank_counts(7)[5] == 1
    assert theorem43_rhs(2, 5, 7) == gen_binomial(5, 2) * 1


def test_count_full_crank_residue():
    for k in (1, 2):
        for n in range(2, 9):
            table_total = sum(count_full_crank_residue(k, i, 5, n) for i in range(5))
            assert table_total == len(enumerate_marked(k, n))
    with pytest.raises(ValueError):
        count_full_crank_residue(2, 5, 5, 6)
    with pytest.raises(ValueError):
        count_full_crank(2, 0, 1)


def test_full_crank_residue_values_at_five():
    # The 35 two-marked symbols of 5 classified by full crank mod 5.
    assert count_full_crank(2, 5, 5) == 10
    assert count_full_crank(2, -5, 5) == 15
    assert count_full_crank_residue(2, 0, 5, 5) == 25


def test_ck_closed_form_known_values():
    # c_k(j) = C(2k+j, 2k) + C(2k+j-1, 2k).
    assert ck_closed_form(1, 0) == 1
    assert ck_closed_form(1, 1) == 4
    assert ck_closed_form(2, 0) == 1
    assert ck_closed_form(2, 1) == 6


def test_ck_brute_matches_closed_form():
    for k in range(1, 5):
        for j in range(0, 26):
            assert ck_brute(k, j) == ck_closed_form(k, j)


def test_ck_brute_literal_small():
    # Independent literal enumeration of the solutions at tiny sizes.
    from itertools import product

    for k in (1, 2):
        for j in range(0, 7):
            count = 0
            for ms in product(range(-j, j + 1), repeat=k + 1):
                rest = j - sum(abs(m) for m in ms)
                if rest < 0 or rest % 2:
                    continue
                # distribute rest/2 over k nonnegative t_i
                count += gen_binomial(rest // 2 + k - 1, k - 1)
            assert count == ck_brute(k, j)


def test_barck_matches_closed_form():
    # The solution-count identity is stated for m >= 1.
    for k in range(1, 5):
        for m in range(1, 26):
            assert barck_brute(k, m) == barck_closed_form(k, m)
    # Below the admissible range both sides vanish for k >= 2.
    for k in range(2, 5):
        for m in range(-3, k - 1):
            assert barck_brute(k, m) == barck_closed_form(k, m) == 0


def test_series_coefficients_match():
    for k in range(1, 5):
        coeffs = series_coefficients(k, 25)
        assert coeffs == [ck_closed_form(k, j) for j in range(26)]


def test_series_coefficients_errors():
    with pytest.raises(ValueError):
        series_coefficients(0, 5)
    with pytest.raises(ValueError):
        ck_brute(1, -1)


def test_verdict_serialization():
    v = verify_theorem31(1, 5)
    assert v.passed
    assert v.lhs == 35 and v.rhs == 35
    data = json.loads(v.to_json())
    assert data["pass"] is True
    assert data["identity"] == "thm3.1"
    assert not Verdict("x", 1, 2, 0, 1).passed


@settings(deadline=None)
@given(st.integers(1, 2), st.integers(2, 9))
def test_theorem31_random_points(k, n):
    assert verify_theorem31(k, n).passed


def test_counting_past_the_verify_bounds_builds_no_symbol():
    # Past the default `verify` bounds, against the generating-function
    # tables: Theorem 3.1 for 3-marked symbols of 20 (mu_4(20)) and
    # Theorem 4.3 for k = 3 at n = 18.
    misses = enumerate_marked.cache_info().misses
    verdict = verify_theorem31(2, 20)
    assert verdict.passed and verdict.lhs == crank_moment(4, 20)
    for m in range(-18, 19):
        assert count_full_crank(3, m, 18) == theorem43_rhs(3, m, 18)
    assert enumerate_marked.cache_info().misses == misses
