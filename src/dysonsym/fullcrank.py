"""The full crank of a marked symbol and its counting identities.

The full crank compresses a k-marked symbol's length statistics into one
signed integer whose distribution factors through the ordinary crank table:
count_full_crank(k, m, n) equals a fixed binomial times M(m, n).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, NamedTuple

from .fold import _fold_range, _no_label, _widest_range
from .marked import MarkedDysonSymbol, statistics
from .partitions import crank_counts, crank_moment, gen_binomial


class Verdict(NamedTuple):
    """Outcome of one identity check: both sides plus a pass flag."""

    identity: str
    k: int
    n: int
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> str:
        return json.dumps({**self._asdict(), "pass": self.passed})


def full_crank(eta: MarkedDysonSymbol) -> int:
    """Signed statistic l - s + 2D + k - 1, negated unless the top crank is positive."""
    stats = statistics(eta)
    magnitude = stats.l - stats.s + 2 * stats.D + eta.k - 1
    if stats.cranks[-1] > 0:
        return magnitude
    return -magnitude


@_widest_range
def full_crank_table(k: int, max_n: int) -> List[Dict[int, int]]:
    """Distribution of the full crank over all k-marked symbols of weight n.

    Called as ``full_crank_table(k, n)``; the tables of every weight up to
    n are built at once and the widest such range is kept for each k (see
    ``fold._widest_range``).  Read off ``fold._fold_range``, which keys
    each count by the top crank and l - s + 2D; the lower levels get no
    label, so their cranks and balances are never told apart and no
    crank-vector table is built.
    """
    tables = _fold_range(k, max_n, _no_label)
    for n, folded in enumerate(tables):
        table: Counter = Counter()
        for (top, spread), count in folded.items():
            magnitude = spread + k - 1
            table[magnitude if top > 0 else -magnitude] += count
        tables[n] = table
    return tables


def count_full_crank(k: int, m: int, n: int) -> int:
    """Number of k-marked symbols of weight n with full crank m."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return full_crank_table(k, n).get(m, 0)


def count_full_crank_residue(k: int, i: int, t: int, n: int) -> int:
    """Number of k-marked symbols of weight n with full crank congruent to i mod t."""
    if t < 1 or not 0 <= i < t:
        raise ValueError("need t >= 1 and 0 <= i < t")
    return sum(count for m, count in full_crank_table(k, n).items() if m % t == i)


def theorem43_rhs(k: int, m: int, n: int) -> int:
    """Closed form for the full-crank count: C(m+k-2, 2k-2) * M(m, n)."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    return gen_binomial(m + k - 2, 2 * k - 2) * crank_counts(n)[m]


# ---------------------------------------------------------------------------
# Solution-counting coefficients
# ---------------------------------------------------------------------------


def _convolve(a: List[int], b: List[int], order: int) -> List[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x == 0 or i > order:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def _power(poly: List[int], e: int, order: int) -> List[int]:
    """poly^e up to q^order, by repeated squaring: O(log e) convolutions."""
    if e == 0:
        return [1] + [0] * order
    rest = _power(_convolve(poly, poly, order), e // 2, order)
    return _convolve(rest, poly, order) if e % 2 else rest


def _solutions(target: int, signed: int, positive: int, even: int) -> int:
    """Solutions of |m_1| + ... + p_1 + ... + 2t_1 + ... = target in
    ``signed`` integers m_i, ``positive`` integers p_i >= 1 and ``even``
    terms with t_i >= 0, by exact integer convolution of powers of series."""
    if target < 0:
        return 0
    variables = (
        ([1] + [2] * target, signed),  # |m| = v: one way at 0, else two
        ([0] + [1] * target, positive),  # p = v
        ([1 - v % 2 for v in range(target + 1)], even),  # 2t = v
    )
    ways = [1] + [0] * target
    for variable, count in variables:
        ways = _convolve(ways, _power(variable, count, target), target)
    return ways[target]


def ck_brute(k: int, j: int) -> int:
    """Count solutions of |m_1|+...+|m_{k+1}| + 2t_1+...+2t_k = j, t_i >= 0.

    Computed by exact integer convolution over the variables, independent
    of any binomial formula.
    """
    if k < 1 or j < 0:
        raise ValueError("need k >= 1 and j >= 0")
    return _solutions(j, k + 1, 0, k)


def ck_closed_form(k: int, j: int) -> int:
    """Closed form C(2k+j, 2k) + C(2k+j-1, 2k) for the same solution count."""
    if k < 1 or j < 0:
        raise ValueError("need k >= 1 and j >= 0")
    return gen_binomial(2 * k + j, 2 * k) + gen_binomial(2 * k + j - 1, 2 * k)


def barck_brute(k: int, m: int) -> int:
    """Count solutions of |m_1|+...+|m_k| + 2t_1+...+2t_{k-1} = m-k+1
    with m_k positive and t_i >= 0, by exact convolution."""
    if k < 1:
        raise ValueError("need k >= 1")
    return _solutions(m - k + 1, k - 1, 1, k - 1)


def barck_closed_form(k: int, m: int) -> int:
    """Closed form C(m+k-2, 2k-2) for the positive-top solution count."""
    if k < 1:
        raise ValueError("need k >= 1")
    if m - k + 1 < 0:
        return 0
    return gen_binomial(m + k - 2, 2 * k - 2)


def series_coefficients(k: int, order: int) -> List[int]:
    """Coefficients of (1+q) / (1-q)^(2k+1) up to the given order.

    Expanded by exact integer polynomial arithmetic: raise (1-q) to 2k+1,
    invert the series term by term, then multiply by (1+q).  Independent
    of the binomial closed form.
    """
    if k < 1 or order < 0:
        raise ValueError("need k >= 1 and order >= 0")
    den = _power([1, -1], 2 * k + 1, order)
    inv = [0] * (order + 1)
    inv[0] = 1
    for idx in range(1, order + 1):
        acc = 0
        for i in range(1, min(idx, len(den) - 1) + 1):
            acc += den[i] * inv[idx - i]
        inv[idx] = -acc  # den[0] == 1
    return _convolve(inv, [1, 1], order)


def verify_theorem31(k: int, n: int) -> Verdict:
    """Compare the (k+1)-marked symbol count with the 2k-th crank moment.

    The count is the total of the full-crank table, so no crank vector is
    kept.
    """
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    lhs = sum(full_crank_table(k + 1, n).values())
    rhs = crank_moment(2 * k, n)
    return Verdict(identity="thm3.1", k=k, n=n, lhs=lhs, rhs=rhs)
