"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

All checks are exact integer equalities at the stated bounds.
"""

import sys

from dysonsym import (
    crank_counts,
    crank_moment,
    crank_residue_table,
    enumerate_dyson_symbols,
    enumerate_marked,
    partition_count,
    rank_moment,
    statistics,
    weight,
)
from dysonsym import cli

from golden_data import (
    BIG_THREE_MARKED,
    DYSON_OF_FOUR,
    TWO_MARKED_OF_FIVE,
    two_marked_symbol,
)


def report(number: int, label: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label}", file=sys.stderr)
    assert ok, f"criterion {number} failed: {label}"


def test_01_golden_values():
    ok = crank_moment(2, 5) == 35
    golden = {two_marked_symbol(row) for row in TWO_MARKED_OF_FIVE}
    syms = enumerate_marked(2, 5)
    ok = ok and len(syms) == 35 and set(syms) == golden
    dyson = enumerate_dyson_symbols(4)
    ok = ok and len(dyson) == 5 and set(dyson) == set(DYSON_OF_FOUR)
    report(1, "mu_2(5)=35, the 35 two-marked symbols, the 5 Dyson symbols of 4", ok)


def test_02_example_object():
    stats = statistics(BIG_THREE_MARKED)
    ok = (
        stats.cranks == (-1, 0, 2)
        and stats.balances == (1, 1, 0)
        and weight(BIG_THREE_MARKED) == 97
    )
    report(2, "3-marked example has c=(-1,0,2), b=(1,1,0), weight 97", ok)


def test_03_peeling_example():
    from golden_data import BIG_DYSON, BIG_PEELED, BIG_PROFILE
    from dysonsym import phi, phi_inverse

    eta = phi_inverse(BIG_DYSON, BIG_PROFILE)
    ok = (
        eta == BIG_PEELED
        and weight(eta) == 127
        and phi(eta) == BIG_DYSON
        and BIG_DYSON.weight() == 127
    )
    report(3, "peeling the weight-127 symbol with profile (1,1,0) round-trips", ok)


def test_04_crank_negation():
    verdicts = cli.verify_cor23(1, 30)
    report(4, "M(-m,n)=F_1(m;n) for n<=30 and crank negation for n<=25",
           all(v.passed for v in verdicts))


def test_05_marked_count_formula():
    verdicts = cli.verify_thm21(2, 14) + cli.verify_thm21(3, 12)
    report(5, "count_fk matches the shifted one-level sum (k=2 n<=14, k=3 n<=12)",
           all(v.passed for v in verdicts))


def test_06_mirror_symmetry():
    verdicts = [v for k in (1, 2, 3) for v in cli.verify_thm24(k, 12)]
    report(6, "sign-flip fiber invariance and mirror round trip (k<=3, n<=12)",
           all(v.passed for v in verdicts))


def test_07_balance_refinement():
    verdicts = cli.verify_thm25(2, 12) + cli.verify_thm25(3, 12)
    report(7, "balance-refined counts equal shifted strict counts (k=2,3, n<=12)",
           all(v.passed for v in verdicts))


def test_08_moment_interpretation():
    verdicts = cli.verify_thm31(1, 14) + cli.verify_thm31(2, 10)
    report(8, "(k+1)-marked count equals mu_2k(n) (k=1 n<=14, k=2 n<=10)",
           all(v.passed for v in verdicts))


def test_09_full_crank_closed_form():
    verdicts = [v for k in (1, 2, 3) for v in cli.verify_thm43(k, 14)]
    report(9, "full-crank counts equal binomial x M(m,n) (k<=3, n<=14)",
           all(v.passed for v in verdicts))


def test_10_generating_function():
    import time

    start = time.time()
    verdicts = [v for k in (1, 2, 3, 4) for v in cli.verify_gfck(k, 25)]
    elapsed = time.time() - start
    ok = all(v.passed for v in verdicts) and elapsed < 1.0
    report(10, f"series vs closed form vs brute force (k<=4, j<=25, {elapsed:.2f}s)", ok)


def test_11_modular_identity():
    verdicts = [
        v
        for k, p, r in ((2, 5, 1), (3, 5, 1), (2, 7, 1))
        for v in cli.verify_mod_identity_suite(k, 40, p, r)
    ]
    report(11, "NC_k(i,p^r;n) congruence, enumeration n<=14 and closed form n<=40",
           all(v.passed for v in verdicts))


def test_12_sanity_suite():
    ok = True
    for k in range(0, 4):
        for n in range(1, 21):
            ok = ok and crank_moment(2 * k + 1, n) == 0
            ok = ok and rank_moment(2 * k + 1, n) == 0
    for n in range(2, 41):
        ok = ok and crank_counts(n).total() == partition_count(n)
    n = 4
    while n <= 49:
        table = crank_residue_table(5, n)
        ok = ok and len(set(table)) == 1
        n += 5
    report(12, "odd moments vanish, tables sum to p(n), crank equidistribution at 5n+4", ok)
