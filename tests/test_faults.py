"""Fault injection: each kernel fault makes exactly its identities fail.

Each row patches one kernel where the verify drivers read it, runs
``verify all`` at its default bounds, and compares the verdicts that fail
with the row's.  A route that no suite can make fail would show up here as
a row whose fault changes nothing.  Every count and object cache is
cleared, and the shared table of partition numbers restored, before and
after each row, so that no faulted table outlives it.
"""

import json

import pytest

from dysonsym import cli, congruence, dyson, fold, fullcrank, marked, partitions
from dysonsym.cli import main
from dysonsym.dyson import DysonSymbol, _encode
from dysonsym.fullcrank import series_coefficients
from dysonsym.fold import _fold_range
from dysonsym.marked import (
    MarkedDysonSymbol,
    crank_vector,
    enumerate_marked,
    is_strict,
    mirror,
    phi_inverse,
    weight,
)
from dysonsym.congruence import crank_residue_table
from dysonsym.partitions import CountTable, _partition_numbers, crank_counts, gen_binomial

CACHES = (
    partitions.crank_counts,
    fold._counts,
    fullcrank.full_crank_table,
    marked.enumerate_marked,
    marked._walk_groups,
    congruence._binomial_lemma_holds,
)


@pytest.fixture
def clean_caches():
    table = partitions._P_TABLE
    for cache in CACHES:
        cache.cache_clear()
    marked._mirror_images.clear()  # so no row reads an earlier row's images
    yield
    for cache in CACHES:
        cache.cache_clear()
    marked._mirror_images.clear()
    partitions._P_TABLE = table


def crank_counts_off(m, n, by):
    # M(m, n) + by.
    def faulty(weight):
        table = crank_counts(weight)
        if weight != n:
            return table
        counts = dict(table.counts)
        counts[m] += by
        return CountTable(weight, counts)

    return faulty


def binomial_off_at_five_two(a, b):
    # C(5, 2) + 1.
    return gen_binomial(a, b) + ((a, b) == (5, 2))


def residues_off_at_ten(t, n):
    # Entry 3 of every residue table of n = 10, plus 1.
    table = crank_residue_table(t, n)
    if n != 10:
        return table
    return table[:3] + (table[3] + 1,) + table[4:]


def partition_numbers_off_at_ten():
    # p(10) + 1 in the shared table, which every crank and rank table reads.
    # `verify all` reads p(n) for n <= 40 only, so this table of p(0..100)
    # is never extended, and p(10) stays its one fault.
    table = _partition_numbers(100)[:101]
    table[10] += 1
    return table


def fold_off_at(n):
    # The first entry of the table of weight n, plus 1, in every range the
    # fold builds: profile counts (thm2.1, thm2.4, thm2.5) and full cranks,
    # cor2.3's F_1 among them, alike.
    def faulty(k, max_n, label):
        tables = _fold_range(k, max_n, label)
        if max_n >= n:
            table = dict(tables[n])
            table[next(iter(table))] += 1
            tables[n] = table
        return tables

    return faulty


def series_off_at_seven(k, order):
    # Coefficient 7 of every series, plus 1.
    coeffs = series_coefficients(k, order)
    return coeffs[:7] + [coeffs[7] + 1] + coeffs[8:]


def encoding_swapped_at_431(lam):
    # Wraps the encoding bound at import, so that patching dyson._encode
    # cannot make the fault call itself.
    sym = _encode(lam)
    return DysonSymbol(sym.beta, sym.alpha) if tuple(lam) == (4, 3, 1) else sym


def mirror_fixing_once_at_two():
    # Fires on the first 2-marked symbol of weight 2 that thm2.4 mirrors,
    # whichever weight the driver visits first.
    fired = []

    def faulty(eta, j):
        if not fired and eta.k == 2 and weight(eta) == 2:
            fired.append(eta)
            return eta
        return mirror(eta, j)

    return faulty


def mirror_orbit(eta):
    # eta and its images under the mirror maps of every level.
    orbit = {eta}
    for j in range(1, eta.k + 1):
        orbit |= {mirror(mu, j) for mu in orbit}
    return orbit


def walk_dropping_an_orbit_at_two_ten():
    # enumerate_marked(2, 10) less its first mirror orbit of 4 symbols
    # none of which is strict with nonnegative cranks: thm2.6 reads no
    # member, and every symbol left keeps its mirror images, so only the
    # comparison of the walk with the fold can see the loss.
    symbols = enumerate_marked(2, 10)
    dropped = next(
        orbit
        for orbit in map(mirror_orbit, symbols)
        if len(orbit) == 4
        and not any(is_strict(mu) and min(crank_vector(mu)) >= 0 for mu in orbit)
    )
    kept = tuple(eta for eta in symbols if eta not in dropped)
    assert len(kept) == len(symbols) - 4

    def faulty(k, n):
        return kept if (k, n) == (2, 10) else enumerate_marked(k, n)

    return faulty


def merging_walk_dropping_one_at_two_nine():
    # The first symbol that the walk of the symbols phi merges gives at
    # (2, 9) goes missing: its merge does not peel back to a merged symbol.
    def faulty(k, n, merging=False):
        walked = marked._walk(k, n, merging)
        return walked[1:] if (k, n, merging) == (2, 9, True) else walked

    return faulty


def merging_walk_adding_one_at_two_nine():
    # A symbol of (2, 9) that phi rejects, a lower level not strict under
    # a top crank >= 0, joins the walk: the driver catches phi's
    # ValueError and fails the symbol as one check.
    extra = next(
        eta for eta in marked._walk(2, 9)
        if len(eta.vectors[-1][0]) >= len(eta.vectors[-1][1]) and not is_strict(eta)
    )

    def faulty(k, n, merging=False):
        walked = marked._walk(k, n, merging)
        return walked + [extra] if (k, n, merging) == (2, 9, True) else walked

    return faulty


def brute_list_off_at_seven(target, signed, positive, even):
    # Entry 7 of every brute-force solution list, plus 1.
    counts = fullcrank._solution_counts(target, signed, positive, even)
    return counts[:7] + [counts[7] + 1] + counts[8:]


def peel_shifting_markers_at_nine(sym, cranks):
    eta = phi_inverse(sym, cranks)
    if sym.weight() == 9 and tuple(cranks) == (1, 1):
        return MarkedDysonSymbol(eta.vectors, tuple(p + 1 for p in eta.markers))
    return eta


def verdicts(identity, k, ns):
    return {(identity, k, n) for n in ns}


def both_primes(route, k, ns):
    return {(f"mod-identity[p={p},r=1,{route}]", k, n) for p in (5, 7) for n in ns}


# C(5, 2) + 1 fails thm3.1 and thm4.3 at every n from 5 to their bound 14
# but 6, where M(5, 6) = 0; every n of both mod-identity routes at k = 2;
# and gf-ck's series.
BINOMIAL_FAILS = (
    verdicts("thm3.1", 1, (5, *range(7, 15)))
    | verdicts("thm4.3", 2, (5, *range(7, 15)))
    | verdicts("gf-ck", 1, (25,))
    | both_primes("closed", 2, range(2, 41))
    | both_primes("enumerate", 2, range(2, 15))
)

# Every mod-identity row, (k, p) = (2, 5), (3, 5) and (2, 7), on both
# routes, at n = 10 only.
RESIDUE_FAILS = {
    (f"mod-identity[p={p},r=1,{route}]", k, 10)
    for k, p in ((2, 5), (3, 5), (2, 7))
    for route in ("closed", "enumerate")
}

# p(10) reaches M(m, n) for every n >= 10.  mod-identity's closed route
# does not see it: both of its sides sum the same M (ROADMAP item 2, gap b).
PARTITION_NUMBER_FAILS = (
    verdicts("cor2.3", 1, range(10, 31))
    | verdicts("thm2.1", 2, range(11, 15))
    | verdicts("thm2.1", 3, (12,))
    | verdicts("thm3.1", 1, range(11, 15))
    | verdicts("thm4.3", 1, range(10, 15))
    | verdicts("thm4.3", 2, range(11, 15))
    | verdicts("thm4.3", 3, range(12, 15))
    | both_primes("enumerate", 2, range(11, 14))
    | verdicts("mod-identity[p=5,r=1,enumerate]", 2, (14,))
    | verdicts("mod-identity[p=5,r=1,enumerate]", 3, (12, 14))
)

# The fold's n = 10 tables feed every counting suite of marked symbols at
# n = 10, cor2.3's F_1 (the k = 1 full-crank table) and the enumerate route
# of mod-identity; gf-ck reads its series, so it does not see it.
FOLD_FAILS = (
    {("cor2.3", 1, 10)}
    | {(identity, k, 10) for identity in ("thm2.1", "thm2.5") for k in (2, 3)}
    | {(identity, k, 10) for identity in ("thm2.4", "thm4.3") for k in (1, 2, 3)}
    | {("thm3.1", k, 10) for k in (1, 2)}
    | both_primes("enumerate", 2, (10,))
    | {("mod-identity[p=5,r=1,enumerate]", 3, 10)}
)

# (name, modules whose binding of it is patched, fault factory, failing
# verdicts as (identity, k, n)).  crank_counts, gen_binomial and the fold
# are patched in every module that reads them, crank_residue_table in
# congruence, its one reader, and the table of partition numbers in
# partitions, which owns it; the others only in the cli, whose drivers are
# their one reader among the suites (the walk's cli binding is read by
# thm2.6 only; thm2.4 walks through enumerate_marked).  The encoding is
# read only by cor2.3's object check, whose F_1 is the fold's.  It has a
# second row, patched in dyson too: thm2.6 then peels the swapped symbol,
# which phi_inverse rejects, and counts it as a missing peel.
FAULTS = {
    "crank_counts": (
        "crank_counts", (cli, congruence, fullcrank, marked, partitions),
        lambda: crank_counts_off(0, 10, 5), {("cor2.3", 1, 10), ("thm4.3", 1, 10)},
    ),
    "to_dyson_symbol": (
        "_encode", (cli,),
        lambda: encoding_swapped_at_431, {("cor2.3-object", 1, 8)},
    ),
    "to_dyson_symbol_everywhere": (
        "_encode", (cli, dyson),
        lambda: encoding_swapped_at_431,
        {("cor2.3-object", 1, 8), ("thm2.6", 1, 8), ("thm2.6", 2, 8)},
    ),
    "fold": ("_fold_range", (fullcrank, fold), lambda: fold_off_at(10), FOLD_FAILS),
    # cor2.3's F_1 is the fold's at every n, and past OBJECT_MAX_N no other
    # suite reads a weight that large.
    "fold_past_the_object_cap": (
        "_fold_range", (fullcrank, fold), lambda: fold_off_at(28), {("cor2.3", 1, 28)},
    ),
    "series_coefficients": (
        "series_coefficients", (cli,), lambda: series_off_at_seven,
        {("gf-ck", k, 25) for k in (1, 2, 3, 4)},
    ),
    "brute_force_list": (
        "_solution_counts", (cli,), lambda: brute_list_off_at_seven,
        {("gf-ck", k, 25) for k in (1, 2, 3, 4)},
    ),
    "mirror": ("mirror", (cli,), mirror_fixing_once_at_two, {("thm2.4", 2, 2)}),
    "walk": ("enumerate_marked", (cli,), walk_dropping_an_orbit_at_two_ten, {("thm2.4", 2, 10)}),
    "merging_walk_dropping": (
        "_walk", (cli,), merging_walk_dropping_one_at_two_nine, {("thm2.6", 2, 9)},
    ),
    "merging_walk_adding": (
        "_walk", (cli,), merging_walk_adding_one_at_two_nine, {("thm2.6", 2, 9)},
    ),
    "phi_inverse": (
        "phi_inverse", (cli,), lambda: peel_shifting_markers_at_nine, {("thm2.6", 2, 9)},
    ),
    "gen_binomial": (
        "gen_binomial", (congruence, fullcrank, marked, partitions),
        lambda: binomial_off_at_five_two, BINOMIAL_FAILS,
    ),
    "crank_residue_table": (
        "crank_residue_table", (congruence,), lambda: residues_off_at_ten, RESIDUE_FAILS,
    ),
    "partition_numbers": (
        "_P_TABLE", (partitions,), partition_numbers_off_at_ten, PARTITION_NUMBER_FAILS,
    ),
}


def failing_verdicts(capsys):
    code = main(["verify", "all", "--format", "json"])
    verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failing = {(v["identity"], v["k"], v["n"]) for v in verdicts if not v["pass"]}
    # A fault reads as failing verdicts, never as a usage error: every
    # verdict is printed.
    assert len(verdicts) == 387
    assert code == (1 if failing else 0)
    return failing


def test_verify_all_passes_without_a_fault(capsys, clean_caches):
    assert failing_verdicts(capsys) == set()


def test_cor23_past_its_default_row_sees_a_crank_fault(monkeypatch, clean_caches):
    # `verify all` reads M(m, 35) only through mod-identity's closed route,
    # whose two sides sum the same M, so it passes this fault; cor2.3 run
    # past its default row of 30 compares M(3, 35) with the fold's F_1.
    for module in (cli, congruence, fullcrank, marked, partitions):
        monkeypatch.setattr(module, "crank_counts", crank_counts_off(3, 35, 1))
    failing = {(v.identity, v.k, v.n) for v in cli.verify_cor23(1, 40) if not v.passed}
    assert failing == {("cor2.3", 1, 35)}


@pytest.mark.parametrize("row", sorted(FAULTS))
def test_each_fault_fails_exactly_its_identities(row, capsys, monkeypatch, clean_caches):
    name, modules, make_fault, expected = FAULTS[row]
    fault = make_fault()
    for module in modules:
        monkeypatch.setattr(module, name, fault)
    assert failing_verdicts(capsys) == expected
    # Nothing replaced the fault while the suites ran.
    assert all(getattr(module, name) is fault for module in modules)
