"""Fault injection: each kernel fault makes exactly its identities fail.

Each row patches one kernel where the verify drivers read it, runs
``verify all`` at its default bounds, and compares the verdicts that fail
with the row's.  A route that no suite can make fail would show up here as
a row whose fault changes nothing.  Every count and object cache is
cleared before and after each row, so that no faulted table outlives it.
"""

import json

import pytest

from dysonsym import cli, congruence, fullcrank, marked, partitions
from dysonsym.cli import main
from dysonsym.dyson import DysonSymbol, to_dyson_symbol
from dysonsym.marked import MarkedDysonSymbol, mirror, phi_inverse
from dysonsym.partitions import CountTable, crank_counts

CACHES = (
    partitions.crank_counts,
    partitions.rank_counts,
    marked._counts,
    fullcrank.full_crank_table,
    marked.enumerate_marked,
    marked._level_groups,
)


@pytest.fixture
def clean_caches():
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def crank_counts_off_at_ten(n):
    # M(0, 10) + 5.
    table = crank_counts(n)
    if n != 10:
        return table
    counts = dict(table.counts)
    counts[0] += 5
    return CountTable(n, counts)


def encoding_swapped_at_431(lam):
    sym = to_dyson_symbol(lam)
    return DysonSymbol(sym.beta, sym.alpha) if tuple(lam) == (4, 3, 1) else sym


def mirror_fixing_once_at_two():
    fired = []

    def faulty(eta, j):
        if not fired and eta.k == 2:
            fired.append(eta)
            return eta
        return mirror(eta, j)

    return faulty


def peel_shifting_markers_at_nine(sym, cranks):
    eta = phi_inverse(sym, cranks)
    if sym.weight() == 9 and tuple(cranks) == (1, 1):
        return MarkedDysonSymbol(eta.vectors, tuple(p + 1 for p in eta.markers))
    return eta


# (name, modules whose binding of it is patched, fault factory, failing
# verdicts as (identity, k, n)).  crank_counts is patched in every module
# that reads it; the others only in the cli, whose drivers are their one
# reader among the suites (thm2.6 also encodes, and a swapped symbol there
# is rejected as a usage error rather than counted).
FAULTS = {
    "crank_counts": (
        "crank_counts", (cli, congruence, fullcrank, marked, partitions),
        lambda: crank_counts_off_at_ten, {("cor2.3", 1, 10), ("thm4.3", 1, 10)},
    ),
    "to_dyson_symbol": (
        "to_dyson_symbol", (cli,),
        lambda: encoding_swapped_at_431, {("cor2.3", 1, 8), ("cor2.3-object", 1, 8)},
    ),
    "mirror": ("mirror", (cli,), mirror_fixing_once_at_two, {("thm2.4", 2, 2)}),
    "phi_inverse": (
        "phi_inverse", (cli,), lambda: peel_shifting_markers_at_nine, {("thm2.6", 2, 9)},
    ),
}


def failing_verdicts(capsys):
    code = main(["verify", "all", "--format", "json"])
    verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failing = {(v["identity"], v["k"], v["n"]) for v in verdicts if not v["pass"]}
    assert code == (1 if failing else 0)
    return failing


def test_verify_all_passes_without_a_fault(capsys, clean_caches):
    assert failing_verdicts(capsys) == set()


@pytest.mark.parametrize("row", sorted(FAULTS))
def test_each_fault_fails_exactly_its_identities(row, capsys, monkeypatch, clean_caches):
    name, modules, make_fault, expected = FAULTS[row]
    fault = make_fault()
    for module in modules:
        monkeypatch.setattr(module, name, fault)
    assert failing_verdicts(capsys) == expected
