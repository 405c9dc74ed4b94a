"""Crank residue tables, the modular full-crank identity, and a progression scanner.

The scanner is purely empirical: it reports finite-range witnesses for
congruences of the crank residue tables M(i, p^r; .) or of the even crank
moments along arithmetic progressions An + B.  It proves nothing and does
not attempt any subsumption ("non-nested") analysis of the reported pairs.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import eq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fullcrank import Verdict, full_crank_table, theorem43_rhs
from .partitions import _moment, _residues, crank_counts, gen_binomial


# The largest modulus p^r checked: a residue table has p^r entries.
MAX_MODULUS = 10**6
# Binomial lemmas kept, one per (k, p, r, t_bound); `verify all` checks 24.
_LEMMA_CACHE = 64
# The fewest values in [2, n_max] that a reported progression holds at.
MIN_POINTS = 3


def prime_power(p: int, r: int) -> int:
    """p^r, for a modulus of at most ``MAX_MODULUS``; a larger one raises
    ``ValueError`` before any power past it is formed."""
    modulus = 1
    for _ in range(r):
        modulus *= p
        if modulus > MAX_MODULUS:
            raise ValueError(f"p^r = {p}^{r} exceeds the largest modulus, {MAX_MODULUS}")
    return modulus


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def crank_residue_table(t: int, n: int) -> Tuple[int, ...]:
    """Entry i is the number of partitions of n with crank congruent to i mod t.

    The table has t entries, so t is at most ``MAX_MODULUS``.
    """
    if t < 1:
        raise ValueError("modulus must be positive")
    if t > MAX_MODULUS:
        raise ValueError(f"modulus {t} exceeds the largest modulus, {MAX_MODULUS}")
    if n < 2:
        raise ValueError("residue tables require n >= 2")
    return _residues(crank_counts(n).counts, t)


# ---------------------------------------------------------------------------
# Modular identity between the full-crank residue counts and M(i, p^r; n)
# ---------------------------------------------------------------------------


def _residue_sides(
    k: int, p: int, r: int, n: int, method: str
) -> Tuple[List[int], List[int]]:
    # Both sides of every residue's check, reduced mod p^r, as two lists
    # indexed by the residue i.
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if r < 1 or n < 2:
        raise ValueError("need r >= 1 and n >= 2")
    if 2 * k > p + 1:
        raise ValueError(f"k={k} violates the bound 2k <= p+1 for p={p}")
    modulus = prime_power(p, r)
    if method == "enumerate":
        full = full_crank_table(k, n)
    elif method == "closed":
        full = {m: theorem43_rhs(k, m, n) for m in range(-n, n + 1)}
    else:
        raise ValueError(f"unknown method: {method}")
    residues = crank_residue_table(modulus, n)
    lhs = [count % modulus for count in _residues(full, modulus)]
    rhs = [
        gen_binomial(i + k - 2, 2 * k - 2) * count % modulus
        for i, count in enumerate(residues)
    ]
    return lhs, rhs


def binomial_congruence_holds(k: int, p: int, r: int, i: int, t_range: Sequence[int]) -> bool:
    """Check C(p^r t + i + k - 2, 2k-2) = C(i + k - 2, 2k-2) mod p^r over t_range."""
    modulus = p**r
    expected = gen_binomial(i + k - 2, 2 * k - 2) % modulus
    return all(
        gen_binomial(modulus * t + i + k - 2, 2 * k - 2) % modulus == expected
        for t in t_range
    )


@lru_cache(maxsize=_LEMMA_CACHE)
def _binomial_lemma_holds(k: int, p: int, r: int, t_bound: int) -> bool:
    """``binomial_congruence_holds`` for every residue i mod p^r, over the
    shifts t with |t| <= t_bound."""
    shifts = range(-t_bound, t_bound + 1)
    return all(binomial_congruence_holds(k, p, r, i, shifts) for i in range(p**r))


def verify_modular_identity(
    k: int, p: int, r: int, n: int, method: str = "enumerate"
) -> Verdict:
    """Aggregate verdict over all residues, plus the binomial sub-congruence.

    lhs counts the passing residue checks, rhs the total; the binomial
    congruence is checked independently for every shift that can occur at
    weight n and folded into the pass flag (a failure zeroes lhs).  It
    depends on n only through the shift bound t_bound = n // p^r + 1, so
    it is checked once per (k, p, r, t_bound) and kept by
    ``_binomial_lemma_holds``, for every n and both routes.

    Each residue i is checked as NC_k(i, p^r; n) = C(i+k-2, 2k-2) M(i, p^r;
    n) mod p^r.  ``method="enumerate"`` counts NC_k from
    ``full_crank_table``, which the fold builds without building any
    symbol; ``method="closed"`` substitutes the verified closed form, which
    needs no marked counting and so reaches much larger n.
    """
    lhs, rhs = _residue_sides(k, p, r, n, method)
    passed = sum(map(eq, lhs, rhs))
    if not _binomial_lemma_holds(k, p, r, n // p**r + 1):
        passed = 0
    return Verdict(
        identity=f"mod-identity[p={p},r={r},{method}]", k=k, n=n, lhs=passed, rhs=len(lhs)
    )


# ---------------------------------------------------------------------------
# Progression scanner
# ---------------------------------------------------------------------------


class CongruenceWitness(NamedTuple):
    """Finite-range evidence that a statistic vanishes mod p^r along An + B."""

    p: int
    r: int
    A: int
    B: int
    kind: str  # "crank-residue" or "moment"
    k: Optional[int]
    n_max: int
    holds: bool
    points: int

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def scan_progressions(
    p: int,
    r: int,
    k: Optional[int] = None,
    a_max: int = 10,
    n_max: int = 79,
) -> List[CongruenceWitness]:
    """Search progressions An + B (A <= a_max) for empirical congruences.

    A crank-residue witness requires M(i, p^r; An+B) = 0 mod p^r for every
    residue i at every progression value in [2, n_max]; a moment witness
    (emitted only when k is given) requires mu_{2k}(An+B) = 0 mod p^r over
    the same range.  Only progressions that hold with at least
    ``MIN_POINTS`` data points are reported.  Deterministic for fixed
    inputs.  Each progression's values are a ``range``, never a list, and
    it stops at its first failing value, so crank tables are built only
    for the n some progression has to look at, whatever n_max.

    No A above (n_max - 2) // (MIN_POINTS - 1) can have that many values in
    [2, n_max], so A stops there even when ``a_max`` is larger.
    """
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if r < 1:
        raise ValueError("r must be positive")
    if a_max < 1:
        raise ValueError("a_max must be positive")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    modulus = prime_power(p, r)
    # n -> (every residue count vanishes mod p^r, mu_2k(n) vanishes mod p^r)
    memo: Dict[int, Tuple[bool, bool]] = {}

    def vanishes(n: int) -> Tuple[bool, bool]:
        if n not in memo:
            residues_ok = all(c % modulus == 0 for c in crank_residue_table(modulus, n))
            moment_ok = k is not None and _moment(2 * k, crank_counts(n)) % modulus == 0
            memo[n] = (residues_ok, moment_ok)
        return memo[n]

    a_max = min(a_max, (n_max - 2) // (MIN_POINTS - 1))
    witnesses = []
    for A in range(1, a_max + 1):
        for B in range(A):
            values = range(B, n_max + 1, A)[len(range(B, 2, A)):]  # those >= 2
            if len(values) < MIN_POINTS:
                continue
            if all(vanishes(n)[0] for n in values):
                witnesses.append(
                    CongruenceWitness(p, r, A, B, "crank-residue", None, n_max, True, len(values))
                )
            if k is not None and all(vanishes(n)[1] for n in values):
                witnesses.append(
                    CongruenceWitness(p, r, A, B, "moment", k, n_max, True, len(values))
                )
    return witnesses
