"""Output checks for each workload step.

Every check compares an output with ``oracle.Oracle`` or with a property
the mathematics forces, and returns a list of error strings (empty when the
output is right).  Nothing here imports ``dysonsym``: objects are read
through their fields only.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Tuple

# Default bounds of `dysonsym verify all`, as documented by the CLI.
MOD_IDENTITY_TRIPLES = ((2, 5, 1), (3, 5, 1), (2, 7, 1))
# Ramanujan: p(An + B) = 0 mod p along these progressions.
RAMANUJAN_RESIDUE = {5: 4, 7: 5, 11: 6}


# ---------------------------------------------------------------------------
# Independent statistics
# ---------------------------------------------------------------------------


def partition_crank(lam: Tuple[int, ...]) -> int:
    """Largest part if there is no 1; else (#parts > #ones) - #ones."""
    ones = lam.count(1)
    if ones == 0:
        return lam[0]
    return sum(1 for part in lam if part > ones) - ones


def _balanced(longer, shorter) -> int:
    unbalanced = balanced = 0
    for part in shorter:
        if sum(1 for x in longer if x > part) == unbalanced:
            balanced += 1
        else:
            unbalanced += 1
    return balanced


def marked_weight(vectors, markers) -> int:
    """Part sums + markers + (l + D + k - 1)(s - D) of a k-marked symbol."""
    k = len(vectors)
    base = sum(sum(a) + sum(b) for a, b in vectors) + sum(markers)
    large = sum(max(len(a), len(b)) for a, b in vectors)
    small = sum(min(len(a), len(b)) for a, b in vectors)
    balance = sum(
        _balanced(a, b) if len(a) >= len(b) else _balanced(b, a) for a, b in vectors[:-1]
    )
    return base + (large + balance + k - 1) * (small - balance)


def dyson_weight(alpha, beta) -> int:
    """|alpha| + |beta| + len(alpha) len(beta)."""
    return sum(alpha) + sum(beta) + len(alpha) * len(beta)


def cranks_of(vectors) -> Tuple[int, ...]:
    return tuple(len(a) - len(b) for a, b in vectors)


def strict_nonnegative(vectors) -> bool:
    """Every level below the top has alpha_i > beta_i; every crank >= 0."""
    for a, b in vectors[:-1]:
        if len(a) < len(b) or any(a[i] <= b[i] for i in range(len(b))):
            return False
    return all(c >= 0 for c in cranks_of(vectors))


def _first(errors: List[str], limit: int = 5) -> List[str]:
    if len(errors) > limit:
        return errors[:limit] + [f"... {len(errors) - limit} more"]
    return errors


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def expected_verdict_keys() -> List[Tuple[str, int, int]]:
    """The (identity, k, n) triples that `verify all` covers at its defaults."""
    keys = [("cor2.3", 1, n) for n in range(2, 31)]
    keys += [("cor2.3-object", 1, n) for n in range(1, 26)]
    keys += [("thm2.1", 2, n) for n in range(2, 15)]
    keys += [("thm2.1", 3, n) for n in range(2, 13)]
    for ident in ("thm2.4", "thm2.6"):
        keys += [(ident, k, n) for k in (1, 2, 3) for n in range(2, 13)]
    keys += [("thm2.5", k, n) for k in (2, 3) for n in range(2, 13)]
    keys += [("thm3.1", 1, n) for n in range(2, 15)]
    keys += [("thm3.1", 2, n) for n in range(2, 11)]
    keys += [("thm4.3", k, n) for k in (1, 2, 3) for n in range(2, 15)]
    keys += [("gf-ck", k, 25) for k in (1, 2, 3, 4)]
    for k, p, r in MOD_IDENTITY_TRIPLES:
        keys += [(f"mod-identity[p={p},r={r},enumerate]", k, n) for n in range(2, 15)]
        keys += [(f"mod-identity[p={p},r={r},closed]", k, n) for n in range(2, 41)]
    return keys


def suite_of(identity: str) -> str:
    """The `verify` suite that reports a verdict of this identity."""
    return identity.split("[")[0].removesuffix("-object")


def check_verify_all(output, oracle, suite=None) -> List[str]:
    """Check `verify all` output, or with `suite` that of `verify <suite>`."""
    code, stdout = output
    errors = []
    if code != 0:
        errors.append(f"verify {suite or 'all'} exited {code}")
    verdicts = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    keys = sorted((v["identity"], v["k"], v["n"]) for v in verdicts)
    expected = sorted(key for key in expected_verdict_keys()
                      if suite is None or suite_of(key[0]) == suite)
    if keys != expected:
        errors.append(
            f"verdicts cover {len(keys)} (identity, k, n), expected "
            f"{len(expected)} from the default bounds"
        )
    for v in verdicts:
        where = f"{v['identity']} k={v['k']} n={v['n']}"
        if not (v["pass"] is True and v["lhs"] == v["rhs"]):
            errors.append(f"{where} failed: lhs={v['lhs']} rhs={v['rhs']}")
        if v["identity"] == "thm3.1":
            want = oracle.mu(2 * v["k"], v["n"])
            if v["lhs"] != want or v["rhs"] != want:
                errors.append(f"{where}: sides {v['lhs']}, {v['rhs']}; mu_2k(n) = {want}")
        if v["identity"] == "cor2.3-object" and v["rhs"] != oracle.p[v["n"]]:
            errors.append(f"{where}: checked {v['rhs']} partitions, p(n) = {oracle.p[v['n']]}")
    return _first(errors)


# ---------------------------------------------------------------------------
# congruence-scan
# ---------------------------------------------------------------------------


def expected_witnesses(oracle, p, r, k, a_max, n_max, min_points=3) -> List[Dict]:
    """The scanner's documented rule, evaluated on the oracle's tables."""
    modulus = p**r
    residue_zero, moment_zero = {}, {}
    for n in range(2, n_max + 1):
        residues = [0] * modulus
        for m, c in oracle.crank[n].items():
            residues[m % modulus] += c
        residue_zero[n] = all(c % modulus == 0 for c in residues)
        moment_zero[n] = k is not None and oracle.mu(2 * k, n) % modulus == 0
    out = []
    for A in range(1, a_max + 1):
        for B in range(A):
            values = [n for n in range(B, n_max + 1, A) if n >= 2]
            if len(values) < min_points:
                continue
            row = {"p": p, "r": r, "A": A, "B": B, "n_max": n_max, "holds": True,
                   "points": len(values)}
            if all(residue_zero[n] for n in values):
                out.append(dict(row, kind="crank-residue", k=None))
            if k is not None and all(moment_zero[n] for n in values):
                out.append(dict(row, kind="moment", k=k))
    return out


def forced_moment_witnesses(p, r, k, a_max, n_max, min_points=3) -> List[Tuple[int, int]]:
    """(A, B) that mu_2(n) = n p(n) and Ramanujan's congruence force (k = r = 1)."""
    if k != 1 or r != 1 or p not in RAMANUJAN_RESIDUE:
        return []
    forced = []
    for A in range(p, a_max + 1, p):
        for B in range(A):
            points = len([n for n in range(B, n_max + 1, A) if n >= 2])
            if points >= min_points and B % p in (0, RAMANUJAN_RESIDUE[p]):
                forced.append((A, B))
    return forced


def check_scan(params, output, oracle) -> List[str]:
    p, r, k, a_max, n_max = params
    code, stdout = output
    errors = []
    if code != 0:
        errors.append(f"scan p={p} r={r} k={k} exited {code}")
    got = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    want = expected_witnesses(oracle, p, r, k, a_max, n_max)
    if got != want:
        missing = [(w["A"], w["B"], w["kind"]) for w in want if w not in got]
        extra = [(w["A"], w["B"], w["kind"]) for w in got if w not in want]
        errors.append(f"scan p={p} r={r} k={k}: missing {missing[:5]}, unexpected {extra[:5]}")
    present = {(w["A"], w["B"]) for w in got if w["kind"] == "moment"}
    for cell in forced_moment_witnesses(p, r, k, a_max, n_max):
        if cell not in present:
            errors.append(f"scan p={p} r={r} k={k}: forced witness {cell} absent")
    return _first(errors)


def check_moments(params, output, oracle) -> List[str]:
    k, n = params
    code, stdout = output
    want = {"k": k, "n": n, "mu": oracle.mu(k, n), "eta": oracle.eta(k, n)}
    got = json.loads(stdout) if code == 0 else None
    if got != want:
        return [f"moments k={k} n={n}: got {got} (exit {code}), expected {want}"]
    return []


def check_partition_count(n, output, oracle) -> List[str]:
    if output != oracle.p[n]:
        return [f"partition_count({n}) = {output}, expected {oracle.p[n]}"]
    return []


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------


def check_round_trips(n, output, oracle) -> List[str]:
    """Encode/decode of partitions; ``n`` set means the list is all of p(n)."""
    lams, syms, backs = output
    errors = []
    if n is not None:
        if len(lams) != oracle.p[n] or len(set(lams)) != len(lams):
            errors.append(f"n={n}: {len(lams)} partitions ({len(set(lams))} distinct), "
                          f"p(n) = {oracle.p[n]}")
        if any(sum(lam) != n or list(lam) != sorted(lam, reverse=True) for lam in lams):
            errors.append(f"n={n}: a listed tuple is not a partition of n")
    if not len(lams) == len(syms) == len(backs):
        errors.append(f"{len(lams)} partitions, {len(syms)} symbols, {len(backs)} decoded")
    histogram = Counter()
    for lam, sym, back in zip(lams, syms, backs):
        alpha, beta = sym
        crank = len(alpha) - len(beta)
        histogram[crank] += 1
        if back != lam:
            errors.append(f"decode(encode({lam})) = {back}")
        if crank != -partition_crank(lam):
            errors.append(f"{lam}: Dyson crank {crank}, partition crank {partition_crank(lam)}")
        if dyson_weight(alpha, beta) != sum(lam):
            errors.append(f"{lam}: symbol {sym} has another weight")
    if n is not None and n >= 2:
        want = {-m: c for m, c in oracle.crank[n].items()}
        if dict(histogram) != want:
            errors.append(f"n={n}: crank histogram of symbols differs from M(-m, n)")
    return _first(errors)


def check_marked(params, output, oracle) -> List[str]:
    k, n = params
    syms, decoded, merges = output
    errors = []
    if len(syms) != oracle.mu(2 * k - 2, n) or len(set(syms)) != len(syms):
        errors.append(f"({k},{n}): {len(syms)} symbols ({len(set(syms))} distinct), "
                      f"mu_{2 * k - 2}(n) = {oracle.mu(2 * k - 2, n)}")
    for eta in syms:
        if marked_weight(eta.vectors, eta.markers) != n:
            errors.append(f"({k},{n}): {eta} has another weight")
    if decoded != list(syms):
        errors.append(f"({k},{n}): JSON round trip changed a symbol")
    applicable = sum(1 for eta in syms if strict_nonnegative(eta.vectors))
    if len(merges) != applicable:
        errors.append(f"({k},{n}): phi applied to {len(merges)} symbols, {applicable} qualify")
    for eta, merged, back in merges:
        alpha, beta = merged
        if (back != eta or dyson_weight(alpha, beta) != n
                or len(alpha) - len(beta) != sum(cranks_of(eta.vectors)) + k - 1):
            errors.append(f"({k},{n}): phi/phi_inverse of {eta} gives {merged}, back {back}")
    return _first(errors)


def check_mirror(params, output, oracle) -> List[str]:
    """mirror(., j) negates the j-th crank only, keeps the weight, is an involution."""
    k, n, j = params
    syms, images, backs = output
    errors = []
    if len(images) != len(syms) or len(backs) != len(syms):
        errors.append(f"({k},{n}) j={j}: {len(images)} images of {len(syms)} symbols")
    for eta, image, back in zip(syms, images, backs):
        want = list(cranks_of(eta.vectors))
        want[j - 1] = -want[j - 1]
        if (cranks_of(image.vectors) != tuple(want) or back != eta
                or marked_weight(image.vectors, image.markers) != n):
            errors.append(f"({k},{n}): mirror at level {j} of {eta} gives {image}, back {back}")
    return _first(errors)
