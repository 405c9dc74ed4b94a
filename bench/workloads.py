"""The three workloads, as lists of timed steps with their checks.

A step's ``run`` calls into ``dysonsym`` and returns raw outputs; its
``check`` compares them with the oracle afterwards, with the clock stopped.
Functions are looked up on their module when a step runs, so a traced
worker sees the wrapped versions.  Inputs depend only on the seed, and
every seed gives the same steps at the same sizes, so the number of
operations (steps) and of expected failures is the same in every round.
"""

from __future__ import annotations

import contextlib
import io
import random
from functools import partial
from typing import Callable, List, NamedTuple

import checks

# congruence-scan: tables up to this n are where the time goes (crank and
# rank enumeration); A up to 11 reaches Ramanujan's progression 11n + 6.
SCAN_MAX_N = 40
SCAN_MAX_A = 11
SCAN_PRIMES = (5, 7, 11)
MOMENT_KS = (1, 2, 3, 4)
FAILING_P_N = 400  # partition_count recursion overflows from n ~ 300-330

# objects
ALL_PARTITIONS_MAX_N = 30
RANDOM_PARTITIONS = 500
RANDOM_N = (200, 400)
MARKED_SIZES = ((2, 14), (3, 13), (4, 12))


class Step(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object, object], List[str]]


class Workload(NamedTuple):
    steps: List[Step]
    oracle_limit: int
    p_limit: int


def _cli(ds, argv):
    """Run ``dysonsym`` main on argv; return (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ds.cli.main([str(a) for a in argv])
    return code, out.getvalue()


# ---------------------------------------------------------------------------


def verify_all(ds, rng) -> Workload:
    # `verify all` runs the suites in VERIFY_IDS order in one process; one
    # step per suite, in that order, does the same work with the same caches
    # and times each suite on its own.
    steps = []
    for suite in ds.cli.VERIFY_IDS:
        run = partial(_cli, ds, ["verify", suite, "--format", "json"])
        steps.append(Step(f"verify {suite}", run,
                          partial(checks.check_verify_all, suite=suite)))
    return Workload(steps, 40, 0)


def congruence_scan(ds, rng) -> Workload:
    scans = [(p, 1, 1) for p in SCAN_PRIMES]
    scans += [(p, rng.choice((1, 2)), rng.choice((2, 3))) for p in SCAN_PRIMES]
    rng.shuffle(scans)
    steps = []
    for p, r, k in scans:
        argv = ["scan", "--p", p, "--r", r, "--k", k, "--max-a", SCAN_MAX_A,
                "--max-n", SCAN_MAX_N, "--format", "json"]
        params = (p, r, k, SCAN_MAX_A, SCAN_MAX_N)
        steps.append(Step(f"scan p={p} r={r} k={k}", partial(_cli, ds, argv),
                          partial(checks.check_scan, params)))
    ns = list(range(1, SCAN_MAX_N + 1))
    rng.shuffle(ns)
    for n in ns:
        k = rng.choice(MOMENT_KS)
        argv = ["moments", "--k", k, "--n", n, "--format", "json"]
        steps.append(Step(f"moments k={k} n={n}", partial(_cli, ds, argv),
                          partial(checks.check_moments, (k, n))))
    steps.append(Step(f"partition_count({FAILING_P_N})",
                      lambda: ds.partitions.partition_count(FAILING_P_N),
                      partial(checks.check_partition_count, FAILING_P_N)))
    return Workload(steps, SCAN_MAX_N, FAILING_P_N)


# ---------------------------------------------------------------------------


def random_partition(rng, n):
    """A partition of n mixing large parts, small parts and runs of ones."""
    parts, left = [], n
    while left:
        cap = rng.choice((left, max(1, left // 10), 2))
        part = rng.randint(1, min(left, cap))
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


def _round_trips(ds, lams):
    encode, decode = ds.dyson.to_dyson_symbol, ds.dyson.from_dyson_symbol
    syms = [encode(lam) for lam in lams]
    return lams, syms, [decode(sym) for sym in syms]


def _all_round_trips(ds, n):
    return _round_trips(ds, list(ds.partitions.partitions_of(n)))


def _marked_objects(ds, k, n):
    marked = ds.marked
    syms = marked.enumerate_marked(k, n)
    from_json = marked.MarkedDysonSymbol.from_json
    decoded = [from_json(eta.to_json()) for eta in syms]
    phi, phi_inverse = marked.phi, marked.phi_inverse
    crank_vector, is_strict = marked.crank_vector, marked.is_strict
    merges = []
    for eta in syms:
        cranks = crank_vector(eta)
        if is_strict(eta) and min(cranks) >= 0:
            merged = phi(eta)
            merges.append((eta, merged, phi_inverse(merged, cranks)))
    return syms, decoded, merges


def _mirrors(ds, k, n, j):
    # One level per step, so that only one level's images are held at once.
    syms = ds.marked.enumerate_marked(k, n)
    mirror = ds.marked.mirror
    images = [mirror(eta, j) for eta in syms]
    return syms, images, [mirror(image, j) for image in images]


def objects(ds, rng) -> Workload:
    steps = []
    for n in range(1, ALL_PARTITIONS_MAX_N + 1):
        steps.append(Step(f"round trips n={n}", partial(_all_round_trips, ds, n),
                          partial(checks.check_round_trips, n)))
    lams = [random_partition(rng, rng.randint(*RANDOM_N)) for _ in range(RANDOM_PARTITIONS)]
    steps.append(Step("random round trips", partial(_round_trips, ds, lams),
                      partial(checks.check_round_trips, None)))
    for k, n in MARKED_SIZES:
        steps.append(Step(f"marked k={k} n={n}", partial(_marked_objects, ds, k, n),
                          partial(checks.check_marked, (k, n))))
        for j in range(1, k + 1):
            steps.append(Step(f"mirror k={k} n={n} j={j}", partial(_mirrors, ds, k, n, j),
                              partial(checks.check_mirror, (k, n, j))))
    return Workload(steps, ALL_PARTITIONS_MAX_N, 0)


WORKLOADS = {
    "verify-all": verify_all,
    "congruence-scan": congruence_scan,
    "objects": objects,
}


def build(name: str, ds, seed: int) -> Workload:
    return WORKLOADS[name](ds, random.Random(seed))
