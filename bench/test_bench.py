"""Tests of the benchmark itself: the oracle, the output checks, the tracer.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import os
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle, partition_numbers  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

import dysonsym.cli  # noqa: E402
from dysonsym import congruence, dyson, fullcrank, marked, partitions  # noqa: E402

DS = SimpleNamespace(partitions=partitions, dyson=dyson, marked=marked,
                     fullcrank=fullcrank, congruence=congruence, cli=dysonsym.cli)


def brute_partitions(n, largest=None):
    """Every partition of n, by plain recursion; independent of dysonsym."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in brute_partitions(n - part, part):
            yield (part,) + rest


@pytest.fixture(scope="module")
def oracle():
    return Oracle(40, 400)


def perturbed(oracle, n, m):
    """A copy of the oracle with M(m, n) and M(-m, n) one too large."""
    copy = Oracle(oracle.limit, len(oracle.p) - 1)
    copy.crank[n][m] = copy.crank[n].get(m, 0) + 1
    if m:
        copy.crank[n][-m] = copy.crank[n].get(-m, 0) + 1
    return copy


# ---------------------------------------------------------------------------
# The oracle against brute force
# ---------------------------------------------------------------------------


def test_partition_numbers_match_brute_force():
    p = partition_numbers(200)
    assert p[:23] == [sum(1 for _ in brute_partitions(n)) for n in range(23)]
    assert p[100] == 190569292
    assert p[200] == 3972999029388


def test_crank_tables_match_brute_force(oracle):
    assert oracle.crank[1] == {-1: 1, 0: -1, 1: 1}
    for n in range(2, 19):
        assert oracle.crank[n] == Counter(map(checks.partition_crank, brute_partitions(n))), n


def test_rank_tables_match_brute_force(oracle):
    for n in range(1, 19):
        ranks = Counter(lam[0] - len(lam) for lam in brute_partitions(n))
        assert oracle.rank[n] == ranks, n


def test_second_crank_moment_is_n_p_n(oracle):
    assert all(oracle.mu(2, n) == n * oracle.p[n] for n in range(1, 41))


# ---------------------------------------------------------------------------
# Each check accepts the real output and rejects a perturbed one
# ---------------------------------------------------------------------------


def synthetic_verify_output(oracle):
    lines = []
    for ident, k, n in checks.expected_verdict_keys():
        side = 7
        if ident == "thm3.1":
            side = oracle.mu(2 * k, n)
        elif ident == "cor2.3-object":
            side = oracle.p[n]
        lines.append(json.dumps({"identity": ident, "k": k, "n": n, "lhs": side,
                                 "rhs": side, "pass": True}))
    return lines


def test_verify_all_check(oracle):
    lines = synthetic_verify_output(oracle)
    assert checks.check_verify_all((0, "\n".join(lines)), oracle) == []
    assert checks.check_verify_all((1, "\n".join(lines)), oracle)
    assert checks.check_verify_all((0, "\n".join(lines[1:])), oracle)
    # One M(m, n) off by one moves mu_2(10), so a thm3.1 verdict disagrees.
    assert checks.check_verify_all((0, "\n".join(lines)), perturbed(oracle, 10, 3))
    failing = [line.replace('"pass": true', '"pass": false') if "thm4.3" in line else line
               for line in lines]
    assert checks.check_verify_all((0, "\n".join(failing)), oracle)


def test_verify_suite_check(oracle):
    lines = synthetic_verify_output(oracle)
    for suite in DS.cli.VERIFY_IDS:
        own = [line for line in lines
               if checks.suite_of(json.loads(line)["identity"]) == suite]
        assert own, suite
        assert checks.check_verify_all((0, "\n".join(own)), oracle, suite=suite) == []
        assert checks.check_verify_all((0, "\n".join(own[1:])), oracle, suite=suite)
    # Another suite's verdicts are not this suite's.
    assert checks.check_verify_all((0, "\n".join(lines)), oracle, suite="thm2.4")


def test_scan_check(oracle):
    params = (5, 1, 1, 11, 25)
    argv = ["scan", "--p", 5, "--r", 1, "--k", 1, "--max-a", 11, "--max-n", 25,
            "--format", "json"]
    code, out = workloads._cli(DS, argv)
    assert checks.check_scan(params, (code, out), oracle) == []
    assert '"A": 5, "B": 4' in out
    # M(3, 9) + 1 breaks mu_2(9) = 0 mod 5, so the oracle drops (5, 4).
    assert checks.check_scan(params, (code, out), perturbed(oracle, 9, 3))
    without = "\n".join(line for line in out.splitlines() if '"A": 5, "B": 4' not in line)
    errors = checks.check_scan(params, (code, without), oracle)
    assert any("forced witness (5, 4)" in e for e in errors)


def test_moments_check(oracle):
    output = workloads._cli(DS, ["moments", "--k", 2, "--n", 12, "--format", "json"])
    assert checks.check_moments((2, 12), output, oracle) == []
    assert checks.check_moments((2, 12), output, perturbed(oracle, 12, 4))


def test_partition_count_check(oracle):
    assert checks.check_partition_count(400, oracle.p[400], oracle) == []
    assert checks.check_partition_count(400, oracle.p[400] + 1, oracle)


def test_round_trip_check(oracle):
    lams, syms, backs = workloads._all_round_trips(DS, 9)
    assert checks.check_round_trips(9, (lams, syms, backs), oracle) == []
    assert checks.check_round_trips(9, (lams, syms, backs), perturbed(oracle, 9, 2))
    assert checks.check_round_trips(9, (lams[1:], syms[1:], backs[1:]), oracle)
    assert checks.check_round_trips(9, (lams, syms, backs[::-1]), oracle)


def test_marked_checks(oracle):
    syms, decoded, merges = workloads._marked_objects(DS, 3, 8)
    assert merges
    assert checks.check_marked((3, 8), (syms, decoded, merges), oracle) == []
    # Theorem 3.1: the count is mu_4(8), which M(2, 8) + 1 moves.
    assert checks.check_marked((3, 8), (syms, decoded, merges), perturbed(oracle, 8, 2))
    assert checks.check_marked((3, 8), (syms, decoded[::-1], merges), oracle)
    assert checks.check_marked((3, 8), (syms, decoded, merges[1:]), oracle)
    syms, images, backs = workloads._mirrors(DS, 3, 8, 2)
    assert checks.check_mirror((3, 8, 2), (syms, images, backs), oracle) == []
    assert checks.check_mirror((3, 8, 2), (syms, list(syms), backs), oracle)
    assert checks.check_mirror((3, 8, 1), (syms, images, backs), oracle)


def test_workload_operations_do_not_depend_on_seed():
    for name in workloads.WORKLOADS:
        sizes = {len(workloads.build(name, DS, seed).steps) for seed in range(5)}
        assert len(sizes) == 1, name


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


def test_tracer_sees_calls_across_modules(tmp_path):
    partitions.rank_counts.cache_clear()
    tracer = Tracer()
    tracer.install([partitions, dyson, marked, fullcrank, congruence, dysonsym.cli])
    try:
        assert dysonsym.cli.crank_moment is partitions.crank_moment
        assert partitions.crank_counts.cache_info().maxsize is None
        workloads._cli(DS, ["moments", "--k", 2, "--n", 7, "--format", "json"])
        assert len(list(partitions.partitions_of(7))) == 15
        tracer.dump(str(tmp_path / "spans.bin"))
    finally:
        tracer.uninstall()
    assert not hasattr(partitions.crank_moment, "__wrapped__")
    stats = summarize(str(tmp_path / "spans.bin"))
    assert stats["cli.main.calls"] == 1
    assert stats["partitions.crank_moment.calls"] == 1
    assert stats["partitions.rank_counts.calls"] == 1
    # Recursion stays inside the outer span; the generator is drained in it.
    assert stats["partitions.partitions_of.calls"] == 2
    assert stats["partitions.partitions_of.items"] == 30
    assert 0 <= stats["cli.main.self_s"] <= stats["cli.main.total_s"]


def test_self_time_subtracts_direct_children(tmp_path):
    tracer = Tracer()
    tracer.names = ["m.outer", "m.inner"]
    for func, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0), (1, 0, 6.0, 7.0)):
        tracer.func.append(func)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.items.append(-1)
    tracer.dump(str(tmp_path / "spans.bin"))
    stats = summarize(str(tmp_path / "spans.bin"))
    assert (stats["m.outer.total_s"], stats["m.outer.self_s"]) == (10.0, 6.0)
    assert (stats["m.inner.calls"], stats["m.inner.total_s"]) == (2, 4.0)
