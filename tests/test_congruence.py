import json
import tracemalloc
from operator import eq

import pytest

from dysonsym import (
    CongruenceWitness,
    crank_counts,
    crank_residue_table,
    is_prime,
    partition_count,
    scan_progressions,
    verify_modular_identity,
)
from dysonsym.congruence import (
    MAX_MODULUS,
    MIN_POINTS,
    _binomial_lemma_holds,
    _residue_sides,
    binomial_congruence_holds,
    prime_power,
)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert not is_prime(-7)


def test_crank_residue_table_examples():
    assert crank_residue_table(5, 4) == (1, 1, 1, 1, 1)
    for n in range(2, 20):
        assert crank_residue_table(1, n) == (partition_count(n),)
    # Equidistribution at 9 = 5*1+4.
    assert crank_residue_table(5, 9) == (6, 6, 6, 6, 6)


def test_crank_residue_table_totals_and_symmetry():
    for t in (3, 5, 7, 11):
        for n in range(2, 31):
            table = crank_residue_table(t, n)
            assert sum(table) == partition_count(n)
            for i in range(1, t):
                assert table[i] == table[t - i]


def test_crank_residue_table_errors():
    with pytest.raises(ValueError):
        crank_residue_table(5, 1)
    with pytest.raises(ValueError):
        crank_residue_table(0, 5)
    # A table has t entries, so none is built past the largest modulus.
    for t in (MAX_MODULUS + 1, 5**30):
        with pytest.raises(ValueError, match="exceeds the largest modulus"):
            crank_residue_table(t, 5)


def test_binomial_congruence():
    for i in range(5):
        assert binomial_congruence_holds(2, 5, 1, i, range(-10, 11))


def test_modular_identity_enumerate_small():
    v = verify_modular_identity(2, 5, 1, 6)
    assert v.passed
    lhs, rhs = _residue_sides(2, 5, 1, 6, "enumerate")
    assert len(lhs) == 5
    assert lhs == rhs


def test_binomial_lemma_is_checked_once_per_shift_bound():
    # The lemma depends on n only through t_bound = n // p^r + 1, which
    # takes the values 1, 2, 3 for n = 2..14 and p^r = 5; both routes share it.
    _binomial_lemma_holds.cache_clear()
    for method in ("enumerate", "closed"):
        for n in range(2, 15):
            verdict = verify_modular_identity(2, 5, 1, n, method=method)
            lhs, rhs = _residue_sides(2, 5, 1, n, method)
            assert (verdict.lhs, verdict.rhs) == (sum(map(eq, lhs, rhs)), len(lhs))
    info = _binomial_lemma_holds.cache_info()
    assert (info.misses, info.hits) == (3, 23)
    _binomial_lemma_holds.cache_clear()


def test_modular_identity_boundary_k():
    # k = (p+1)/2 is the boundary of the hypothesis.
    for n in range(2, 13):
        assert verify_modular_identity(3, 5, 1, n).passed
    with pytest.raises(ValueError):
        verify_modular_identity(4, 5, 1, 6)


def test_modular_identity_closed_form_agrees():
    for n in range(2, 15):
        enum = verify_modular_identity(2, 5, 1, n, method="enumerate")
        closed = verify_modular_identity(2, 5, 1, n, method="closed")
        assert enum.passed and closed.passed


def test_modular_identity_extra_triples():
    # Boundary and higher-power cases beyond the main three triples.
    for n in range(2, 11):
        assert verify_modular_identity(4, 7, 1, n).passed
        assert verify_modular_identity(2, 5, 2, n).passed
    for n in range(2, 15):
        assert verify_modular_identity(4, 7, 1, n, method="closed").passed
        assert verify_modular_identity(2, 5, 2, n, method="closed").passed


def test_modular_identity_input_validation():
    with pytest.raises(ValueError):
        verify_modular_identity(2, 4, 1, 6)  # p not prime
    with pytest.raises(ValueError):
        verify_modular_identity(2, 3, 1, 6)  # p < 5
    with pytest.raises(ValueError):
        verify_modular_identity(2, 5, 0, 6)
    with pytest.raises(ValueError):
        verify_modular_identity(2, 5, 1, 6, method="nope")
    with pytest.raises(ValueError, match="exceeds the largest modulus"):
        verify_modular_identity(2, 5, 30, 3, method="closed")


def test_scanner_finds_ramanujan_witness():
    witnesses = scan_progressions(5, 1, k=1, a_max=5, n_max=49)
    moment = {(w.A, w.B) for w in witnesses if w.kind == "moment"}
    assert (5, 4) in moment
    # Degenerate progression 1n+0 covers every n, so it cannot hold.
    assert (1, 0) not in moment


def test_scanner_crank_residue_kind():
    witnesses = scan_progressions(5, 1, a_max=5, n_max=49)
    kinds = {w.kind for w in witnesses}
    assert kinds <= {"crank-residue"}
    # M(i,5;5n+4) = p(5n+4)/5, which is not divisible by 5 at n=4
    # (p(4)... p(9)/5 = 6), so no crank-residue witness on 5n+4 here.
    assert all((w.A, w.B) != (5, 4) for w in witnesses)


def test_scanner_is_deterministic():
    base = scan_progressions(5, 1, k=1, a_max=4, n_max=40)
    again = scan_progressions(5, 1, k=1, a_max=4, n_max=40)
    assert base == again


def test_scanner_builds_only_the_tables_it_reads():
    # Each progression stops at its first failing value, so no progression
    # gets as far as n = 22 or n = 26: 27 of the 29 tables for n = 2..30.
    crank_counts.cache_clear()
    scan_progressions(5, 1, k=1, a_max=10, n_max=30)
    assert crank_counts.cache_info().misses == 27


def test_scanner_keeps_no_list_of_a_progressions_values():
    # No progression holds past its first few values, but each used to
    # list its values, about n_max / A ints, before it read any: 58 MiB at
    # n_max = 10^6.
    scan_progressions(5, 1, n_max=10**6)  # the crank tables it reads
    tracemalloc.start()
    try:
        assert scan_progressions(5, 1, n_max=10**6) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_scanner_input_validation():
    with pytest.raises(ValueError):
        scan_progressions(4, 1)
    with pytest.raises(ValueError):
        scan_progressions(5, 0)
    with pytest.raises(ValueError):
        scan_progressions(5, 1, k=-1)
    with pytest.raises(ValueError, match="exceeds the largest modulus"):
        scan_progressions(5, 30, n_max=10)
    # Bounds that leave nothing to scan used to return no witness, as if
    # every progression had failed.
    for a_max in (0, -5):
        with pytest.raises(ValueError, match="a_max must be positive"):
            scan_progressions(5, 1, a_max=a_max)
    for n_max in (1, 0, -3):
        with pytest.raises(ValueError, match="n_max must be at least 2"):
            scan_progressions(5, 1, n_max=n_max)
    # n = 2 and 3 are values to scan, though too few for MIN_POINTS.
    assert scan_progressions(5, 1, k=1, a_max=1, n_max=2) == []
    assert scan_progressions(5, 1, k=1, n_max=3) == []


def test_prime_power_stops_at_the_largest_modulus():
    # A residue table has p^r entries, so no power past the bound is built.
    assert prime_power(5, 8) == 5**8 <= MAX_MODULUS
    assert prime_power(7, 7) == 7**7 <= MAX_MODULUS
    for p, r in ((5, 9), (11, 6), (1_000_003, 1), (5, 10**9)):
        with pytest.raises(ValueError, match=f"{p}\\^{r} exceeds"):
            prime_power(p, r)


def test_scanner_min_points():
    # mu_2(25n + 4) vanishes mod 5 (Ramanujan's 5n + 4), but 25n + 4 has
    # only 2 values in [2, 53], 4 and 29, and a progression needs
    # MIN_POINTS = 3; n = 54 is its third.
    assert MIN_POINTS == 3
    witnesses = scan_progressions(5, 1, k=1, a_max=25, n_max=53)
    assert [w for w in witnesses if (w.A, w.B) == (25, 4)] == []
    witnesses = scan_progressions(5, 1, k=1, a_max=25, n_max=54)
    assert [(w.kind, w.points) for w in witnesses if (w.A, w.B) == (25, 4)] == [("moment", 3)]


def test_witness_json():
    w = CongruenceWitness(5, 1, 5, 4, "moment", 1, 79, True, 16)
    data = json.loads(w.to_json())
    assert data == {
        "p": 5, "r": 1, "A": 5, "B": 4, "kind": "moment",
        "k": 1, "n_max": 79, "holds": True, "points": 16,
    }
    assert w.to_json() == (
        '{"p": 5, "r": 1, "A": 5, "B": 4, "kind": "moment", '
        '"k": 1, "n_max": 79, "holds": true, "points": 16}'
    )


def test_scanner_stops_at_the_largest_a_that_can_report():
    # At n_max = 79 and 3 points, A = 38 is the last step with 3 values in
    # [2, 79] (2, 40, 78); a_max = 3000 must add no witness and no
    # O(a_max^2) loop over progressions that cannot report.
    capped = scan_progressions(5, 1, k=1, a_max=38, n_max=79)
    assert len(capped) == 61
    assert scan_progressions(5, 1, k=1, a_max=3000, n_max=79) == capped
