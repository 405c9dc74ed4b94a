"""Crank residue tables, the modular full-crank identity, and a progression scanner.

The scanner is purely empirical: it reports finite-range witnesses for
congruences of the crank residue tables M(i, p^r; .) or of the even crank
moments along arithmetic progressions An + B.  It proves nothing and does
not attempt any subsumption ("non-nested") analysis of the reported pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fullcrank import Verdict, count_full_crank_residue, theorem43_rhs
from .partitions import _moment, crank_counts, gen_binomial


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
    """Entry i is the number of partitions of n with crank congruent to i mod t."""
    if t < 1:
        raise ValueError("modulus must be positive")
    if n < 2:
        raise ValueError("residue tables require n >= 2")
    out = [0] * t
    for m, c in crank_counts(n).counts.items():
        out[m % t] += c
    return tuple(out)


# ---------------------------------------------------------------------------
# Modular identity between the full-crank residue counts and M(i, p^r; n)
# ---------------------------------------------------------------------------


def _closed_form_residue_count(k: int, i: int, modulus: int, n: int) -> int:
    # Sum of the closed-form full-crank counts over the residue class.
    total = 0
    for m in range(-n, n + 1):
        if m % modulus == i:
            total += theorem43_rhs(k, m, n)
    return total


def modular_identity_cases(
    k: int, p: int, r: int, n: int, method: str = "enumerate"
) -> List[Verdict]:
    """Per-residue checks of NC_k(i, p^r; n) = C(i+k-2, 2k-2) M(i, p^r; n) mod p^r.

    ``method="enumerate"`` counts the k-marked symbols in each full-crank
    residue class with the counting level walk, without building them;
    ``method="closed"`` substitutes the verified closed form, which needs
    no marked counting and so reaches much larger n.
    """
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if r < 1 or n < 2:
        raise ValueError("need r >= 1 and n >= 2")
    if 2 * k > p + 1:
        raise ValueError(f"k={k} violates the bound 2k <= p+1 for p={p}")
    modulus = p**r
    residues = crank_residue_table(modulus, n)
    cases = []
    for i in range(modulus):
        if method == "enumerate":
            lhs = count_full_crank_residue(k, i, modulus, n)
        elif method == "closed":
            lhs = _closed_form_residue_count(k, i, modulus, n)
        else:
            raise ValueError(f"unknown method: {method}")
        rhs = gen_binomial(i + k - 2, 2 * k - 2) * residues[i]
        cases.append(
            Verdict(
                identity=f"mod-identity[p={p},r={r},i={i},{method}]",
                k=k,
                n=n,
                lhs=lhs % modulus,
                rhs=rhs % modulus,
            )
        )
    return cases


def binomial_congruence_holds(k: int, p: int, r: int, i: int, t_range: Sequence[int]) -> bool:
    """Check C(p^r t + i + k - 2, 2k-2) = C(i + k - 2, 2k-2) mod p^r over t_range."""
    modulus = p**r
    expected = gen_binomial(i + k - 2, 2 * k - 2) % modulus
    return all(
        gen_binomial(modulus * t + i + k - 2, 2 * k - 2) % modulus == expected
        for t in t_range
    )


def verify_modular_identity(
    k: int, p: int, r: int, n: int, method: str = "enumerate"
) -> Verdict:
    """Aggregate verdict over all residues, plus the binomial sub-congruence.

    lhs counts the passing residue checks, rhs the total; the binomial
    congruence is checked independently for every shift that can occur at
    weight n and folded into the pass flag (a failure zeroes lhs).
    """
    cases = modular_identity_cases(k, p, r, n, method=method)
    modulus = p**r
    t_bound = n // modulus + 1
    binom_ok = all(
        binomial_congruence_holds(k, p, r, i, range(-t_bound, t_bound + 1))
        for i in range(modulus)
    )
    passed = sum(1 for c in cases if c.passed)
    if not binom_ok:
        passed = 0
    return Verdict(
        identity=f"mod-identity[p={p},r={r},{method}]", k=k, n=n, lhs=passed, rhs=len(cases)
    )


# ---------------------------------------------------------------------------
# Progression scanner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceWitness:
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
        return json.dumps(
            {
                "p": self.p,
                "r": self.r,
                "A": self.A,
                "B": self.B,
                "kind": self.kind,
                "k": self.k,
                "n_max": self.n_max,
                "holds": self.holds,
                "points": self.points,
            }
        )


def scan_progressions(
    p: int,
    r: int,
    k: Optional[int] = None,
    a_max: int = 10,
    n_max: int = 79,
    min_points: int = 3,
) -> List[CongruenceWitness]:
    """Search progressions An + B (A <= a_max) for empirical congruences.

    A crank-residue witness requires M(i, p^r; An+B) = 0 mod p^r for every
    residue i at every progression value in [2, n_max]; a moment witness
    (emitted only when k is given) requires mu_{2k}(An+B) = 0 mod p^r over
    the same range.  Only progressions that hold with at least
    ``min_points`` data points are reported.  Deterministic for fixed
    inputs.  Each progression stops at its first failing value, so crank
    tables are built only for the n some progression has to look at.
    """
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if r < 1:
        raise ValueError("r must be positive")
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    modulus = p**r
    # n -> (every residue count vanishes mod p^r, mu_2k(n) vanishes mod p^r)
    memo: Dict[int, Tuple[bool, bool]] = {}

    def vanishes(n: int) -> Tuple[bool, bool]:
        if n not in memo:
            residues_ok = all(c % modulus == 0 for c in crank_residue_table(modulus, n))
            moment_ok = k is not None and _moment(2 * k, crank_counts(n)) % modulus == 0
            memo[n] = (residues_ok, moment_ok)
        return memo[n]

    witnesses = []
    for A in range(1, a_max + 1):
        for B in range(A):
            values = [n for n in range(B, n_max + 1, A) if n >= 2]
            if len(values) < min_points:
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
