import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dysonsym import (
    Verdict,
    barck_brute,
    barck_closed_form,
    ck_brute,
    ck_closed_form,
    count_full_crank,
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

from dysonsym import cli, fullcrank, marked, partitions
from dysonsym.congruence import MAX_MODULUS
from dysonsym.fullcrank import full_crank_table
from dysonsym.fold import _counts
from dysonsym.partitions import _residues

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


def test_full_crank_residues_count_every_symbol():
    # The residue classes mod 5 that mod-identity reads partition the symbols.
    for k in (1, 2):
        for n in range(2, 9):
            assert sum(_residues(full_crank_table(k, n), 5)) == len(enumerate_marked(k, n))
    with pytest.raises(ValueError):
        count_full_crank(2, 0, 1)


FULL_CRANK_ERRORS = [
    (full_crank_table, (0, 5), "k and n must be positive"),
    (full_crank_table, (2, 0), "k and n must be positive"),
    (full_crank_table, (2, -1), "k and n must be positive"),
    (count_full_crank, (2, 0, 1), "n must be at least 2"),
]


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("front_end,args,message", FULL_CRANK_ERRORS)
def test_full_crank_front_ends_reject_bad_input(front_end, args, message, warm):
    # The same error whether or not tables of larger weights are kept.
    if warm:
        full_crank_table(2, 8)
    with pytest.raises(ValueError, match=f"^{message}$"):
        front_end(*args)


def test_full_crank_residue_values_at_five():
    # The 35 two-marked symbols of 5 classified by full crank mod 5.
    assert count_full_crank(2, 5, 5) == 10
    assert count_full_crank(2, -5, 5) == 15
    assert _residues(full_crank_table(2, 5), 5)[0] == 25


def test_full_crank_residue_at_a_large_modulus():
    # At the largest modulus mod-identity takes, each class holds one crank.
    residues = _residues(full_crank_table(2, 5), MAX_MODULUS)
    assert residues[5] == 10
    assert residues[MAX_MODULUS - 5] == 15
    assert residues[0] == 0


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


def test_one_brute_force_list_gives_ck_brute_at_every_j():
    # verify gf-ck reads ck_brute(k, j) for every j <= 25 off this one list.
    for k in range(1, 5):
        assert fullcrank._solution_counts(25, k + 1, 0, k) == [ck_brute(k, j) for j in range(26)]


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


def test_barck_is_the_binomial_of_theorem43_rhs():
    # The lemma behind theorem43_rhs: at m >= 1 its binomial counts the
    # positive-top solutions that barck_brute counts by convolution.
    for k in (1, 2, 3):
        for n in (2, 5, 9):
            for m in range(1, n + 1):
                assert theorem43_rhs(k, m, n) == barck_brute(k, m) * crank_counts(n)[m]


def test_series_coefficients_match():
    for k in range(1, 5):
        coeffs = series_coefficients(k, 25)
        assert coeffs == [ck_closed_form(k, j) for j in range(26)]


def test_power_matches_repeated_convolution():
    # The loop series_coefficients and _solution_counts ran before, kept as oracle.
    for poly in ([1, -1], [1, 2, 2, 2, 2], [0, 1, 1, 1], [1, 0, 1, 0, 1]):
        for order in range(0, 9):
            for e in range(0, 10):
                power = [1]
                for _ in range(e):
                    power = fullcrank._convolve(power, poly, order)
                assert fullcrank._power(poly, e, order) == power + [0] * (order + 1 - len(power))


def test_gfck_at_a_huge_level_returns_at_once():
    # (1 - q)^(2k+1) and ck_brute's k + 1 variables used to take one
    # convolution per factor, so k = 1,000,001 did not return.
    (verdict,) = cli.verify_gfck(1000001, 25)
    assert verdict.passed and verdict.lhs == verdict.rhs == 26


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
    assert v.to_json() == '{"identity": "thm3.1", "k": 1, "n": 5, "lhs": 35, "rhs": 35, "pass": true}'
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


def profile_full_crank_table(k, n):
    """The full-crank histogram read off the profile table's cranks and
    balances: l - s is the sum of the |c_i|, so the statistic follows from
    them, and the key's l - s + 2D must agree."""
    table = Counter()
    for key, count in _counts(k, n).folded.items():
        cranks, balances = key[2::2] + key[:1], key[3::2]
        spread = sum(map(abs, cranks)) + 2 * sum(balances)
        assert key[1] == spread, key
        magnitude = spread + k - 1
        table[magnitude if cranks[-1] > 0 else -magnitude] += count
    return table


@pytest.mark.parametrize("k,max_n", [(1, 14), (2, 12), (3, 10), (4, 9)])
def test_full_crank_table_matches_the_profile_table_and_the_symbols(k, max_n):
    for n in range(1, max_n + 1):
        table = full_crank_table(k, n)
        assert table == profile_full_crank_table(k, n), (k, n)
        assert table == Counter(full_crank(eta) for eta in enumerate_marked(k, n)), (k, n)


def test_counting_reads_no_crank_table(monkeypatch):
    # The left-hand sides of thm2.1, thm3.1 and thm4.3 must not come from
    # the generating-function side they are checked against.
    def forbidden(n):
        raise AssertionError("counting read crank_counts")

    for module in (partitions, marked, fullcrank):
        monkeypatch.setattr(module, "crank_counts", forbidden)
    # `__wrapped__` builds the range up to n afresh, past the kept tables.
    for k, n in ((1, 12), (2, 12), (3, 10), (4, 9)):
        folded = _counts.__wrapped__(k, n)[n].folded
        assert sum(folded.values()) == len(enumerate_marked(k, n))
        assert sum(full_crank_table.__wrapped__(k, n)[n].values()) == len(enumerate_marked(k, n))


@pytest.mark.parametrize("n", [32, 40])
def test_extended_tier_at_large_n(n):
    # Theorem 3.1 for 2- and 3-marked symbols, and Theorem 4.3 for
    # k = 1..3, at n = 32 and 40 (the verify defaults stop at 14), against
    # the generating-function side: mu_2k(n) and C(m + k - 2, 2k - 2) M(m, n).
    for k in (1, 2):
        verdict = verify_theorem31(k, n)
        assert verdict.passed and verdict.lhs == crank_moment(2 * k, n), k
    for k in (1, 2, 3):
        for m in range(-n, n + 1):
            assert count_full_crank(k, m, n) == theorem43_rhs(k, m, n), (k, m)
        assert sum(full_crank_table(k, n).values()) == sum(
            theorem43_rhs(k, m, n) for m in range(-n, n + 1)
        ), k
