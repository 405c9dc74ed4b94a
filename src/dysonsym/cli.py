"""Command-line front end: tables, enumerations, verifications, scanning.

Exit status: 0 on success, 1 when any verification verdict fails, 2 on
usage errors (including a verify run whose bounds leave no check), 141
when the reader closes standard output early.  Standard output carries
data only; progress and summaries go to the error stream.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple

from .congruence import (
    MAX_MODULUS, is_prime, prime_power, scan_progressions, verify_modular_identity,
)
from .dyson import DysonSymbol, _encode, enumerate_dyson_symbols
from .fullcrank import (
    Verdict,
    _solution_counts,
    ck_closed_form,
    count_full_crank,
    full_crank_table,
    series_coefficients,
    theorem43_rhs,
    verify_theorem31,
)
from .fold import _counts, _fold_key
from .marked import (
    _level_terms,
    _placement_holds,
    _terms_weight,
    _walk,
    crank_vector,
    enumerate_marked,
    is_strict_pair,
    mirror,
    phi,
    phi_inverse,
    theorem21_rhs,
)
from .partitions import (
    crank,
    crank_counts,
    crank_moment,
    is_partition,
    partitions_of,
    rank_counts,
    rank_moment,
)

# 128 + SIGPIPE: what a shell reports for a process that SIGPIPE ended.
BROKEN_PIPE_STATUS = 141

# Caps: cor2.3 checks the encoding on every partition of n, and
# mod-identity's enumerate route reads the full-crank table of the fold
# (``fullcrank.full_crank_table``, which builds no symbol), only up to these n;
# --max-n raises the other checks of those suites past them.  cor2.3 reads
# F_1 off the k = 1 full-crank table at every n, so past OBJECT_MAX_N it
# encodes nothing.
OBJECT_MAX_N = 25
ENUMERATE_MAX_N = 14


# ---------------------------------------------------------------------------
# Verification drivers (each checks one level k and returns a list of Verdicts)
# ---------------------------------------------------------------------------


def _tally(identity: str, k: int, n: int, checks: Iterable[bool]) -> Verdict:
    """One verdict: lhs counts the checks that hold, rhs counts them all."""
    ok = total = 0
    for check in checks:
        total += 1
        if check:
            ok += 1
    return Verdict(identity=identity, k=k, n=n, lhs=ok, rhs=total)


def _by_weight(max_n: int, verdict: Callable[[int], Verdict]) -> List[Verdict]:
    """``verdict(n)`` for each weight n = 2..max_n, in that order.

    The weights are visited largest first: every per-weight route of the
    drivers runs through here (cor2.3's table route, thm3.1 and
    mod-identity's enumerate route among them).  The fold's and the walk's
    tables are kept per k (or per marker) at the widest bound asked for
    (``fold._widest_range``, ``marked._walk_groups``), so the first visit,
    at max_n, builds each table at the bound that every later weight reads,
    and none is built twice.  A one-entry cache such as
    ``enumerate_marked``'s ends holding its weight-2 entry.
    """
    return [verdict(n) for n in range(max_n, 1, -1)][::-1]


def _nonneg_profiles(k: int, bound: int) -> Iterator[Tuple[int, ...]]:
    # All nonnegative integer k-tuples with sum <= bound: none when bound < 0.
    if bound < 0:
        return
    if k == 0:
        yield ()
        return
    for m in range(bound + 1):
        for rest in _nonneg_profiles(k - 1, bound - m):
            yield (m,) + rest


def _profiles_of_sum(k: int, total: int) -> Iterator[Tuple[int, ...]]:
    # The nonnegative integer k-tuples (k >= 1) with sum exactly total, in
    # the order that _nonneg_profiles(k, total) gives them: each of its
    # first k - 1 entries completed by the one last entry that fits.
    for head in _nonneg_profiles(k - 1, total):
        yield head + (total - sum(head),)


def _signed_profiles(k: int, bound: int) -> Iterator[Tuple[int, ...]]:
    # Integer k-tuples with sum of absolute values <= bound: signs on nonnegative ones.
    for m in _nonneg_profiles(k, bound):
        yield from itertools.product(*[(x, -x) if x else (0,) for x in m])


def verify_cor23(k: int, max_n: int) -> List[Verdict]:
    """M(-m, n) = F_1(m; n) for all m, plus crank negation under the encoding.

    F_1(m; n) counts the Dyson symbols of weight n by crank, which at k = 1
    is the full crank: it is read off ``full_crank_table(1, n)``, which
    builds no symbol and shares no code with the encoding or with
    crank_counts, and compared with crank_counts(n) (the cor2.3 verdicts,
    n >= 2).

    For n up to OBJECT_MAX_N, the partitions of n, streamed from
    ``partitions_of`` and never kept, are each encoded once: the
    cor2.3-object verdict counts those whose symbol's crank is the negated
    crank of the partition, and its rhs is p(n).  What ``partitions_of``
    makes is a partition, so it is not checked again.
    """

    def table_verdict(n: int) -> Verdict:
        f1, table = full_crank_table(1, n), crank_counts(n)
        return _tally("cor2.3", k, n, (table[-m] == f1[m] for m in range(-n, n + 1)))

    return _by_weight(max_n, table_verdict) + [
        _tally("cor2.3-object", k, n,
               (DysonSymbol.crank(_encode(lam)) == -crank(lam) for lam in partitions_of(n)))
        for n in range(1, min(max_n, OBJECT_MAX_N) + 1)
    ]


def verify_thm21(
    k: int, max_n: int, profile: Optional[Tuple[int, ...]] = None
) -> List[Verdict]:
    """count_fk equals the shifted one-level sum, for all (or one) profile.

    count_fk(m, n) is read as the entry of ``_counts(k, n).every`` that
    count_fk itself reads, with the table fetched once per n.
    theorem21_rhs(m, n) depends on m only through sum |m_i|, so each n
    computes it once per sum.
    """

    def checks(n: int) -> Iterator[bool]:
        every, rhs = _counts(k, n).every, {}
        for m in _signed_profiles(k, n - k + 1) if profile is None else [profile]:
            count, size = every.get(m, 0), sum(map(abs, m))
            if size not in rhs:
                rhs[size] = theorem21_rhs(m, n)
            yield count == rhs[size]

    return _by_weight(max_n, lambda n: _tally("thm2.1", k, n, checks(n)))


def verify_thm24(k: int, max_n: int) -> List[Verdict]:
    """Sign-flip invariance of the fibers, the mirror round trip, and the
    walk against the fold.

    Per n, the counting checks compare count_fk at m and at m with one
    crank negated, both read as entries of ``_counts(k, n).every``, the
    table count_fk reads, fetched once per n.  The object checks take each
    enumerated symbol's crank vector once, one tuple per distinct vector.
    Their histogram, ``walked``, must equal ``every`` at each m the
    counting checks visit, and the walk's total the fold's: the walk and
    the fold share no counting code.

    The mirror checks read one table, ``valid``, which maps the enumerated
    symbols that are valid and weigh n to their indices in ``symbols``.
    The symbols share their level objects, so each distinct level object
    of n is tested once for both sides being partitions and, if they are,
    gets its terms once (``_level_terms``: part sum, lengths, balance),
    kept by identity for that n.  Each symbol is valid when every level's
    sides are partitions and ``_placement_holds``, and weighs n when its
    markers and level terms sum to n with the rectangle term
    (``_terms_weight``); a faulty level fails every symbol that holds it.  For each symbol eta and level j
    with c_j != 0, the image mu = mirror(eta, j) must be in ``valid`` (so
    it is a valid symbol of weight n, and one that the enumeration holds),
    have the crank vector of eta with c_j negated, and mirror back to eta.

    Each (symbol, level) is mirrored once: per level j, ``partner[i]`` is
    the index that ``valid`` gives the image of symbols[i] (None when the
    image is missing, or c_j = 0), so mu is symbols[partner[i]], and mu's
    image is symbols[partner[partner[i]]].  mirror depends only on a
    symbol's value, so this is the image a second call would build.  When
    mu's own image is missing from ``valid`` (eta itself failed
    validation, say), mirror(mu, j) is built and compared directly.
    Images reuse validated int parts or add ints to them, so equal by
    value is the same symbol.
    """

    def checks(n: int) -> Iterator[bool]:
        every = _counts(k, n).every
        symbols = enumerate_marked(k, n)
        interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        crank_vectors = [interned.setdefault(c, c) for c in map(crank_vector, symbols)]
        del interned
        walked = Counter(crank_vectors)
        yield len(symbols) == sum(every.values())
        for m in _signed_profiles(k, n - k + 1):
            count = every.get(m, 0)
            yield walked.get(m, 0) == count
            for j in range(k):
                yield count == every.get(m[:j] + (-m[j],) + m[j + 1 :], 0)
        del walked  # freed before the mirror tables, where verify all peaks
        # id(level) -> its terms, or None when a side is not a partition:
        # ``symbols`` keeps every level alive while the table lives, so no
        # other object can take a level's id.
        facts = {id(pair): pair for eta in symbols for pair in eta.vectors}
        for key, pair in facts.items():
            a, b = pair
            facts[key] = _level_terms(pair) if is_partition(a) and is_partition(b) else None
        valid = {}
        for i, eta in enumerate(symbols):
            terms = [facts[id(pair)] for pair in eta.vectors]
            if None not in terms and _placement_holds(eta) and _terms_weight(eta, terms) == n:
                valid[eta] = i
        del facts
        for j in range(1, k + 1):
            partner = [
                valid.get(mirror(eta, j)) if cranks[j - 1] else None
                for eta, cranks in zip(symbols, crank_vectors)
            ]
            for eta, cranks, i in zip(symbols, crank_vectors, partner):
                if cranks[j - 1] == 0:
                    continue
                want = cranks[: j - 1] + (-cranks[j - 1],) + cranks[j:]
                if i is None or crank_vectors[i] != want:
                    yield False
                elif partner[i] is None:
                    yield mirror(symbols[i], j) == eta
                else:
                    yield symbols[partner[i]] == eta

    return _by_weight(max_n, lambda n: _tally("thm2.4", k, n, checks(n)))


def verify_thm25(k: int, max_n: int) -> List[Verdict]:
    """Balance-refined counts equal strict counts under m_i -> m_i + 2t_i.

    Both sides are entries of the fold table ``_counts(k, n).folded``,
    fetched once per n: count_fk_with_balance(m, t, n) is the entry at
    ``_fold_key(m, t)``, and count_fk_strict(shifted, n) the entry at
    ``_fold_key(shifted, (0,) * (k - 1))``, as every lower crank of
    shifted is nonnegative.
    """
    strict = (0,) * (k - 1)

    def checks(n: int) -> Iterator[bool]:
        folded, bound = _counts(k, n).folded, n - k + 1
        for m in _nonneg_profiles(k, bound):
            for t in _nonneg_profiles(k - 1, (bound - sum(m)) // 2):
                shifted = tuple(m[i] + 2 * t[i] for i in range(k - 1)) + (m[-1],)
                yield folded.get(_fold_key(m, t), 0) == folded.get(
                    _fold_key(shifted, strict), 0
                )

    return _by_weight(max_n, lambda n: _tally("thm2.5", k, n, checks(n)))


def verify_thm26(k: int, max_n: int) -> List[Verdict]:
    """Both round trips of the merge/peel bijection.

    Per n, two tables: ``merged`` maps each strict eta with nonnegative
    cranks to (phi(eta), its crank vector), and ``peeled`` maps each Dyson
    symbol sym of n and nonnegative profile m with sum(m) + k - 1 =
    crank(sym) (``_profiles_of_sum`` makes just these) to
    phi_inverse(sym, m).  The walk builds only the symbols of weight n that
    merge (``marked._walk`` with ``merging``), and each is tested before
    phi, which raises on one that does not: its top crank, read off the two
    lengths, must be nonnegative and each lower level a strict pair, up to
    the first that is not; a walked symbol that fails fails one check.
    Each map runs once per object, and each round trip reads the other
    table: phi(eta) must weigh n, have crank sum(cranks) + k - 1 and peel
    back to eta in ``peeled``; phi_inverse(sym, m) must merge back to sym
    in ``merged`` with crank vector m.  An entry missing from the other
    table fails its check, and so does a peel that phi_inverse rejects
    with ValueError: it is kept as None.
    """

    def checks(n: int) -> Iterator[bool]:
        merged, rejected = {}, 0
        for eta in _walk(k, n, merging=True):
            *lower, (a, b) = eta.vectors
            if len(a) < len(b):
                rejected += 1
                continue
            for pair in lower:
                if not is_strict_pair(*pair):
                    rejected += 1
                    break
            else:
                merged[eta] = phi(eta), crank_vector(eta)
        yield from itertools.repeat(False, rejected)
        peeled = {}
        for sym in enumerate_dyson_symbols(n):
            c = sym.crank()
            if c < k - 1:
                continue
            for m in _profiles_of_sum(k, c - k + 1):
                try:
                    peeled[sym, m] = phi_inverse(sym, m)
                except ValueError:  # a faulty enumeration's symbol: a missing peel
                    peeled[sym, m] = None
        for eta, (sym, cranks) in merged.items():
            yield (
                sym.weight() == n
                and sym.crank() == sum(cranks) + k - 1
                and peeled.get((sym, cranks)) == eta
            )
        for (sym, m), eta in peeled.items():
            yield merged.get(eta) == (sym, m)

    return _by_weight(max_n, lambda n: _tally("thm2.6", k, n, checks(n)))


def verify_thm31(k: int, max_n: int, n: Optional[int] = None) -> List[Verdict]:
    if n is not None:
        return [verify_theorem31(k, n)]
    return _by_weight(max_n, functools.partial(verify_theorem31, k))


def verify_thm43(k: int, max_n: int) -> List[Verdict]:
    def checks(n: int) -> Iterator[bool]:
        return (count_full_crank(k, m, n) == theorem43_rhs(k, m, n) for m in range(-n, n + 1))

    return _by_weight(max_n, lambda n: _tally("thm4.3", k, n, checks(n)))


def verify_gfck(k: int, max_j: int) -> List[Verdict]:
    """Series coefficients vs closed form vs brute-force solution counts.

    The brute-force counts ``ck_brute(k, j)`` of every j <= max_j are read
    off one list, the solution counts of ``ck_brute``'s equation up to
    max_j, so the brute force runs once per k, not once per j.
    """
    coeffs = series_coefficients(k, max_j)
    brute = _solution_counts(max_j, k + 1, 0, k)
    checks = (coeffs[j] == ck_closed_form(k, j) == brute[j] for j in range(max_j + 1))
    return [_tally("gf-ck", k, max_j, checks)]


def verify_mod_identity_suite(k: int, max_n: int, p: int, r: int) -> List[Verdict]:
    enumerated = _by_weight(min(max_n, ENUMERATE_MAX_N),
                            lambda n: verify_modular_identity(k, p, r, n, method="enumerate"))
    return enumerated + [
        verify_modular_identity(k, p, r, n, method="closed") for n in range(2, max_n + 1)
    ]


def _suites() -> Dict[str, tuple]:
    """Each verify suite: its driver, its default rows (k, max_n[, p, r]),
    the flags it reads besides --k and --max-n, and the levels it has: None
    for every k >= 1, else a test on a row's (k[, p, r]) and its text.

    Built per call, so the drivers are looked up in the module when a suite
    runs, not when it is defined.
    """
    return {
        "cor2.3": (verify_cor23, [(1, 30)], (), (lambda k: k == 1, "level 1 only")),
        "thm2.1": (verify_thm21, [(2, 14), (3, 12)], ("m",), None),
        "thm2.4": (verify_thm24, [(1, 12), (2, 12), (3, 12)], (), None),
        "thm2.5": (verify_thm25, [(2, 12), (3, 12)], (), (lambda k: k >= 2, "levels k >= 2 only")),
        "thm2.6": (verify_thm26, [(1, 12), (2, 12), (3, 12)], (), None),
        "thm3.1": (verify_thm31, [(1, 14), (2, 10)], ("n",), None),
        "thm4.3": (verify_thm43, [(1, 14), (2, 14), (3, 14)], (), None),
        "gf-ck": (verify_gfck, [(1, 25), (2, 25), (3, 25), (4, 25)], (), None),
        "mod-identity": (
            verify_mod_identity_suite,
            [(2, 40, 5, 1), (3, 40, 5, 1), (2, 40, 7, 1)],
            ("p", "r"),
            (lambda k, p, r: 2 * k <= p + 1, "levels with 2k <= p + 1 only (p = {2})"),
        ),
    }


VERIFY_IDS = tuple(_suites())


class LevelError(ValueError):
    """The requested level is outside the levels a suite has."""


def _plan(identifier: str, args: argparse.Namespace) -> Tuple[Callable, List[tuple], dict]:
    """One suite's driver, its rows within the requested bounds, and the
    driver keywords the flags give.

    --k K runs level K only, at its default bound or, for a level without
    one, at the suite's smallest; --max-n replaces every row's bound, and
    --n checks that one n in its place.
    """
    driver, rows, reads, rule = _suites()[identifier]
    for flag in ("n", "m", "p", "r"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"verify {identifier} does not read --{flag}")
    k, options = args.k, {}
    if args.m:
        # count_fk takes k from the length of the profile, so --m fixes k.
        if k and k != len(args.m):
            raise ValueError(f"--k {k} disagrees with the {len(args.m)} --m entries")
        k, options["profile"] = len(args.m), tuple(args.m)
    if args.n is not None:
        options["n"] = args.n
    if k is not None:
        smallest = min(row[1] for row in rows)
        rows = [row for row in rows if row[0] == k] or [(k, smallest) + rows[0][2:]]
    if args.p is not None:
        r = 1 if args.r is None else args.r
        prime_power(args.p, r)
        rows = [rows[0][:2] + (args.p, r)]
    elif args.r is not None:
        raise ValueError("--r needs --p")
    if args.max_n is not None:
        rows = [(row[0], args.max_n) + row[2:] for row in rows]
    for row in rows:
        if rule and not rule[0](row[0], *row[2:]):
            text = rule[1].format(*row)
            raise LevelError(f"verify {identifier} has {text}, not level {row[0]}")
    return driver, rows, options


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _parts(parts: Iterable[int]) -> str:
    return " ".join(map(str, parts))


def _emit(fmt: str, items: Iterable, header: Sequence[str], row: Callable, line: Callable,
          document: Optional[Callable[[], str]] = None) -> None:
    """Write ``items`` to standard output.  json: ``document()`` if given,
    else each ``item.to_json()``; csv: ``header``, then each ``row(item)``,
    quoted where a field holds a comma; text: each ``line(item)``."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(row, items))
    elif fmt == "json" and document is not None:
        print(document())
    else:
        for item in items:
            print(item.to_json() if fmt == "json" else line(item))


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Every usage error, argparse's own or main's, is one line on standard
    error and exit status 2; subparsers are built as this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"dysonsym: error: {message}\n")


_MUST = ("must be nonnegative", "must be positive", "must be at least 2")  # by least value


def _int_reader(least: int, prime: bool = False) -> Callable[[str], int]:
    """A numeric flag's ``type=``: an int of at least ``least``, and with
    ``prime`` a prime of at most ``MAX_MODULUS``, checked as argparse reads
    the flag, so its message is ``argument --flag: <what it must be>``."""

    def read(text: str) -> int:
        value = int(text)
        # The bound first: is_prime trial-divides up to the square root.
        if prime and value > MAX_MODULUS:
            raise argparse.ArgumentTypeError(f"must be at most {MAX_MODULUS}")
        if value < least or prime and not is_prime(value):
            raise argparse.ArgumentTypeError(f"must be a prime >= {least}" if prime else _MUST[least])
        return value

    read.__name__ = "int"  # argparse's message for a non-integer: invalid int value: 'x'
    return read


# Each verb and its line in ``dysonsym --help``, in that listing's order.
_VERBS = {
    "partitions": "list the partitions of n",
    "crank-table": "the crank count table at n",
    "rank-table": "the rank count table at n",
    "moments": "symmetrized crank and rank moments",
    "dyson": "enumerate the Dyson symbols of n",
    "enumerate-marked": "enumerate the k-marked symbols of n",
    "verify": "run a verification suite",
    "scan": "scan progressions An+B for congruence witnesses",
}


def _add_arguments(p: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """Add ``verb``'s arguments to ``p``, --format last, and return ``p``.

    Each numeric flag's range is checked here, by its ``type=``; the
    library checks its own arguments.
    """
    nonnegative, positive, from_two = _int_reader(0), _int_reader(1), _int_reader(2)
    prime = _int_reader(5, prime=True)
    if verb == "partitions":
        p.add_argument("--n", type=nonnegative, required=True)
    elif verb in ("crank-table", "rank-table"):
        p.add_argument("--n", type=positive, required=True)
    elif verb in ("moments", "enumerate-marked"):
        p.add_argument("--k", type=positive, required=True)
        p.add_argument("--n", type=positive, required=True)
    elif verb == "dyson":
        p.add_argument("--n", type=positive, required=True)
        p.add_argument("--oracle", action="store_true",
                       help="use the structural search instead of the bijection")
    elif verb == "verify":
        p.add_argument("identifier", choices=VERIFY_IDS + ("all",))
        p.add_argument("--k", type=positive)
        bound = p.add_mutually_exclusive_group()
        bound.add_argument("--n", type=from_two)
        bound.add_argument("--max-n", type=positive, dest="max_n")
        p.add_argument("--m", type=int, action="append", help="crank profile entry (repeatable)")
        p.add_argument("--p", type=prime)
        p.add_argument("--r", type=positive)
    else:  # scan
        p.add_argument("--p", type=prime, required=True)
        p.add_argument("--r", type=positive, default=1)
        p.add_argument("--k", type=nonnegative)
        p.add_argument("--max-a", type=positive, dest="max_a", default=10)
        p.add_argument("--max-n", type=from_two, dest="max_n", default=79)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    return p


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's full parser, every verb a subparser, built on the first call
    and shared by every later one.

    ``main`` parses with it only an argv that names no verb first (no
    arguments, ``--help``, an unknown verb, an option before the verb), so
    it writes the top-level help and errors; each verb's own parser is
    ``_verb_parser``.  ``parse_args`` keeps no state between calls.
    Callers must not change the parser they get back.
    """
    parser = _Parser(
        prog="dysonsym",
        description="Dyson symbols, crank statistics, and partition congruences.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, line in _VERBS.items():
        _add_arguments(sub.add_parser(verb, help=line), verb)
    return parser


@functools.lru_cache(maxsize=len(_VERBS))
def _verb_parser(verb: str) -> argparse.ArgumentParser:
    """``verb``'s parser, built on first use: it parses what follows the
    verb as ``build_parser()``'s subparser for it does, and sets ``verb``."""
    parser = _add_arguments(_Parser(prog=f"dysonsym {verb}"), verb)
    parser.set_defaults(verb=verb)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``) and return its exit
    status.  It may run many times in one process: an argv whose first item
    is a verb is parsed by that verb's parser alone, any other by the full
    parser, ``build_parser()``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _VERBS:
        parser, argv = _verb_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # so a closed pipe is reported here, not at exit
        return status
    except ValueError as exc:
        # A level a suite lacks, p^r past the largest modulus, bounds that leave no check.
        parser.error(str(exc))
    except RecursionError:
        # The walk recurses once per level, a partition list once per part.
        parser.error(f"input too large: recursion limit {sys.getrecursionlimit()} reached")
    except BrokenPipeError:
        # The reader closed standard output early (`| head`).  Point it at
        # the null device so that the flush at exit cannot fail again, and
        # exit with the status a shell gives a process ended by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_STATUS


def _verify(args: argparse.Namespace) -> List[Verdict]:
    """Plan every suite that ``args`` names, then run them in order."""
    ids = VERIFY_IDS if args.identifier == "all" else (args.identifier,)
    plans = []
    for ident in ids:
        try:
            plans.append((ident,) + _plan(ident, args))
        except LevelError as exc:
            # `verify all --k K` runs the suites that have level K.
            if args.identifier != "all":
                raise
            print(f"skipping: {exc}", file=sys.stderr)
    verdicts: List[Verdict] = []
    for ident, driver, rows, options in plans:
        print(f"verifying {ident} ...", file=sys.stderr)
        found = [v for row in rows for v in driver(*row, **options)]
        if not found:
            raise ValueError(f"verify {ident} has no checks within the given bounds")
        verdicts.extend(found)
    return verdicts


def _run(args: argparse.Namespace) -> int:
    fmt = args.format

    if args.verb == "partitions":
        parts = list(partitions_of(args.n))
        _emit(fmt, parts, ("partition",), lambda p: (_parts(p),), lambda p: _parts(p) or "(empty)",
              lambda: json.dumps([list(p) for p in parts]))
        print(f"{len(parts)} partitions of {args.n}", file=sys.stderr)
        return 0

    if args.verb in ("crank-table", "rank-table"):
        table = (crank_counts if args.verb == "crank-table" else rank_counts)(args.n)
        _emit(fmt, table.support(), ("m", "count"), lambda m: (m, table[m]),
              lambda m: f"{m}\t{table[m]}", table.to_json)
        return 0

    if args.verb == "moments":
        k, n = args.k, args.n
        mu, eta = crank_moment(k, n), rank_moment(k, n)
        _emit(fmt, [(k, n, mu, eta)], ("k", "n", "mu", "eta"), tuple,
              lambda _: f"mu_{k}({n}) = {mu}\neta_{k}({n}) = {eta}",
              lambda: json.dumps({"k": k, "n": n, "mu": mu, "eta": eta}))
        return 0

    if args.verb == "dyson":
        syms = enumerate_dyson_symbols(args.n, method="structural" if args.oracle else "bijection")
        _emit(fmt, syms, ("alpha", "beta", "crank"),
              lambda s: (_parts(s.alpha), _parts(s.beta), s.crank()),
              lambda s: f"alpha={s.alpha} beta={s.beta} crank={s.crank()}")
        print(f"{len(syms)} Dyson symbols of {args.n}", file=sys.stderr)
        return 0

    if args.verb == "enumerate-marked":
        syms = enumerate_marked(args.k, args.n)
        _emit(fmt, syms, ("levels", "markers", "cranks"),
              lambda s: (";".join(f"{_parts(a)}|{_parts(b)}" for a, b in s.vectors),
                         _parts(s.markers), _parts(crank_vector(s))),
              lambda s: f"levels={s.vectors} markers={s.markers} cranks={crank_vector(s)}")
        print(f"{len(syms)} {args.k}-marked symbols of {args.n}", file=sys.stderr)
        return 0

    if args.verb == "verify":
        verdicts = _verify(args)
        _emit(fmt, verdicts, ("identity", "k", "n", "lhs", "rhs", "pass"), lambda v: (*v, v.passed),
              lambda v: f"{v.identity}  k={v.k} n={v.n}  lhs={v.lhs} rhs={v.rhs}  "
              + ("pass" if v.passed else "FAIL"))
        passed = sum(1 for v in verdicts if v.passed)
        print(f"{passed}/{len(verdicts)} checks passed", file=sys.stderr)
        return 0 if passed == len(verdicts) else 1

    if args.verb == "scan":
        witnesses = scan_progressions(args.p, args.r, k=args.k, a_max=args.max_a, n_max=args.max_n)
        _emit(fmt, witnesses, ("p", "r", "A", "B", "kind", "k", "n_max", "holds", "points"), tuple,
              lambda w: f"{w.kind} p={w.p} r={w.r} A={w.A} B={w.B} k={w.k} points={w.points}")
        print(f"{len(witnesses)} witnesses", file=sys.stderr)
        return 0

    raise ValueError(f"unknown verb: {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
