import ast
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from dysonsym import (
    MarkedDysonSymbol,
    cli,
    congruence,
    count_fk,
    count_full_crank,
    crank_counts,
    crank_vector,
    enumerate_dyson_symbols,
    enumerate_marked,
    is_strict,
    mirror,
    partition_count,
    phi,
    phi_inverse,
    theorem21_rhs,
    theorem43_rhs,
    weight,
)
from dysonsym import fold, fullcrank, marked
from dysonsym.cli import BROKEN_PIPE_STATUS, main
from dysonsym.dyson import DysonSymbol, _encode
from dysonsym.partitions import partitions_of
from dysonsym.marked import _level_terms, _placement_holds, _terms_weight, _walk, is_strict_pair
from dysonsym.fullcrank import Verdict

from golden_cli import CLI_OUTPUTS
from golden_data import VERIFY_ALL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partitions_json(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_crank_table_n1_convention(capsys):
    code, out, _ = run_cli(capsys, "crank-table", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert dict((m, c) for m, c in data["counts"]) == {-1: 1, 0: -1, 1: 1}


def test_crank_table_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "crank-table", "--n", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "m,count"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["m"]) for r in rows] == crank_counts(6).support()
    assert sum(int(r["count"]) for r in rows) == 11  # p(6)


def test_moments_text(capsys):
    code, out, _ = run_cli(capsys, "moments", "--k", "2", "--n", "5")
    assert code == 0
    assert "mu_2(5) = 35" in out


def test_dyson_verb_counts(capsys):
    code, out, err = run_cli(capsys, "dyson", "--n", "4", "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 5
    assert "5 Dyson symbols" in err
    code, out2, _ = run_cli(capsys, "dyson", "--n", "4", "--oracle", "--format", "json")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(out2.splitlines())


def test_enumerate_marked_verb(capsys):
    code, out, err = run_cli(
        capsys, "enumerate-marked", "--k", "2", "--n", "5", "--format", "json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 35
    for line in lines:
        json.loads(line)


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm3.1", "--k", "1", "--n", "5")
    assert code == 0
    assert "lhs=35 rhs=35" in out
    assert "pass" in out


def test_verify_json_format(capsys):
    # --k K runs level K only, in every suite that takes k.
    for argv in (
        ("gf-ck", "--max-n", "10"),
        ("thm2.1", "--max-n", "6"),
        ("thm2.4", "--max-n", "6"),
        ("thm2.5", "--max-n", "6"),
        ("thm2.6", "--max-n", "6"),
        ("thm3.1", "--max-n", "6"),
        ("thm4.3", "--max-n", "6"),
        ("mod-identity", "--max-n", "6"),
        ("mod-identity", "--p", "7", "--max-n", "6"),
    ):
        code, out, _ = run_cli(capsys, "verify", *argv, "--k", "2", "--format", "json")
        assert code == 0, argv
        verdicts = [json.loads(line) for line in out.strip().splitlines()]
        assert verdicts and all(v["pass"] and v["k"] == 2 for v in verdicts), argv


def test_verify_csv_format(capsys):
    # The mod-identity identities hold commas, which csv must quote.
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(None not in r and r["pass"] == "True" for r in rows)
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "6", "--format", "json")
    assert code == 0
    identities = [json.loads(line)["identity"] for line in out.splitlines()]
    assert [r["identity"] for r in rows] == identities
    assert any("," in identity for identity in identities)


def test_enumerate_marked_csv_decodes_to_the_enumeration(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate-marked", "--k", "3", "--n", "8", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["levels", "markers", "cranks"]
    assert all(len(row) == 3 for row in rows)

    def parts(text):
        return tuple(int(x) for x in text.split())

    decoded = set()
    for levels, markers, cranks in rows[1:]:
        vectors = tuple(
            tuple(parts(side) for side in level.split("|")) for level in levels.split(";")
        )
        eta = MarkedDysonSymbol(vectors, parts(markers))
        assert crank_vector(eta) == parts(cranks)
        decoded.add(eta)
    assert len(decoded) == len(rows) - 1
    assert decoded == set(enumerate_marked(3, 8))


def _first_difference(got, want):
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    for number, (got_line, want_line) in enumerate(pairs, 1):
        if got_line != want_line:
            return f"line {number}: got {got_line!r}, want {want_line!r}"
    return "the same lines with other line ends"


@pytest.mark.parametrize("command", list(CLI_OUTPUTS))
def test_cli_output_matches_the_golden_capture(capsys, command):
    status, want_out, want_err = CLI_OUTPUTS[command]
    code, out, err = run_cli(capsys, *command.split())
    assert out == want_out, f"{command}: stdout {_first_difference(out, want_out)}"
    assert err == want_err, f"{command}: stderr {_first_difference(err, want_err)}"
    assert code == status, command


def test_verify_unknown_identifier_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm9.9"])
    assert exc.value.code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crank-table"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


def test_scan_verb_json(capsys):
    code, out, err = run_cli(
        capsys,
        "scan", "--p", "5", "--r", "1", "--k", "1",
        "--max-a", "5", "--max-n", "49", "--format", "json",
    )
    assert code == 0
    witnesses = [json.loads(line) for line in out.strip().splitlines()]
    assert any(w["A"] == 5 and w["B"] == 4 and w["kind"] == "moment" for w in witnesses)
    assert "witnesses" in err


def test_scan_default_bounds(capsys):
    # The default --max-a 10 --max-n 79 needs the count tables up to n = 79,
    # where p(79) = 13,848,650 partitions are too many to enumerate in a test.
    code, out, _ = run_cli(capsys, "scan", "--p", "5", "--k", "1", "--format", "json")
    assert code == 0
    witnesses = [json.loads(line) for line in out.strip().splitlines()]
    assert all(w["kind"] == "moment" and w["n_max"] == 79 for w in witnesses)
    assert [(w["A"], w["B"], w["points"]) for w in witnesses] == [
        (5, 0, 15), (5, 4, 16), (10, 0, 7), (10, 4, 8), (10, 5, 8), (10, 9, 8),
    ]


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


def assert_one_line_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("dysonsym: error:"), err


def test_negative_n_for_partitions_is_usage_error(capsys):
    assert_one_line_error(usage_error(capsys, "partitions", "--n", "-1"))


def test_zero_n_for_crank_table_is_usage_error(capsys):
    assert_one_line_error(usage_error(capsys, "crank-table", "--n", "0"))


def test_negative_k_for_scan_is_usage_error(capsys):
    assert_one_line_error(usage_error(capsys, "scan", "--p", "5", "--k", "-1"))


@pytest.mark.parametrize("bound,message", [
    (["--max-a", "0"], "argument --max-a: must be positive"),
    (["--max-a", "-5"], "argument --max-a: must be positive"),
    (["--max-n", "1"], "argument --max-n: must be at least 2"),
    (["--r", "0"], "argument --r: must be positive"),
    (["--k", "-1"], "argument --k: must be nonnegative"),
])
def test_scan_bounds_that_leave_nothing_to_scan_are_usage_errors(capsys, bound, message):
    # The bounds used to print "0 witnesses" and exit 0; each message names
    # the flag, not the scanner's argument.
    err = usage_error(capsys, "scan", "--p", "5", *bound)
    assert err == f"dysonsym: error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["--k", "0", "--n", "5"], "argument --k: must be positive"),
    (["--k", "2", "--n", "0"], "argument --n: must be positive"),
])
def test_moments_out_of_range_names_the_flag(capsys, argv, message):
    err = usage_error(capsys, "moments", *argv)
    assert err == f"dysonsym: error: {message}\n"


HUGE_P = "1000000000000000003"  # is_prime would trial-divide up to 10^9


@pytest.mark.parametrize("argv,message", [
    (["partitions", "--n", "-1"], "argument --n: must be nonnegative"),
    (["crank-table", "--n", "0"], "argument --n: must be positive"),
    (["rank-table", "--n", "0"], "argument --n: must be positive"),
    (["moments", "--k", "0", "--n", "5"], "argument --k: must be positive"),
    (["moments", "--k", "2", "--n", "0"], "argument --n: must be positive"),
    (["dyson", "--n", "0"], "argument --n: must be positive"),
    (["enumerate-marked", "--k", "0", "--n", "3"], "argument --k: must be positive"),
    (["enumerate-marked", "--k", "1", "--n", "0"], "argument --n: must be positive"),
    (["verify", "all", "--k", "0"], "argument --k: must be positive"),
    (["verify", "thm3.1", "--n", "1"], "argument --n: must be at least 2"),
    (["verify", "all", "--max-n", "0"], "argument --max-n: must be positive"),
    (["verify", "mod-identity", "--p", "4"], "argument --p: must be a prime >= 5"),
    (["verify", "mod-identity", "--p", "5", "--r", "0"], "argument --r: must be positive"),
    (["verify", "mod-identity", "--p", HUGE_P], "argument --p: must be at most 1000000"),
    (["scan", "--p", "4"], "argument --p: must be a prime >= 5"),
    (["scan", "--p", "1000003"], "argument --p: must be at most 1000000"),
    (["scan", "--p", HUGE_P], "argument --p: must be at most 1000000"),
    (["scan", "--p", "5", "--r", "0"], "argument --r: must be positive"),
    (["scan", "--p", "5", "--k", "-1"], "argument --k: must be nonnegative"),
    (["scan", "--p", "5", "--max-a", "0"], "argument --max-a: must be positive"),
    (["scan", "--p", "5", "--max-n", "1"], "argument --max-n: must be at least 2"),
    # argparse's own errors take the same one-line path.
    (["verify", "thm9.9"], "argument identifier: invalid choice: 'thm9.9' (choose from "
     + ", ".join(map(repr, cli.VERIFY_IDS + ("all",))) + ")"),
    (["crank-table"], "the following arguments are required: --n"),
    (["moments", "--k", "x", "--n", "3"], "argument --k: invalid int value: 'x'"),
    (["no-such-verb"], "argument verb: invalid choice: 'no-such-verb' (choose from 'partitions',"
     " 'crank-table', 'rank-table', 'moments', 'dyson', 'enumerate-marked', 'verify', 'scan')"),
    # An argv that names no verb first takes the full parser.
    ([], "the following arguments are required: verb"),
    (["--format", "json", "moments", "--k", "1", "--n", "3"], "argument verb: invalid choice:"
     " 'json' (choose from 'partitions', 'crank-table', 'rank-table', 'moments', 'dyson',"
     " 'enumerate-marked', 'verify', 'scan')"),
])
def test_every_usage_error_is_one_line(capsys, monkeypatch, argv, message):
    # Each numeric flag's range is checked as the flag is parsed, so the
    # message names the flag; a --p past the largest modulus is rejected
    # before any primality test.
    real = congruence.is_prime

    def is_prime(n):
        assert n <= congruence.MAX_MODULUS, f"is_prime({n}) trial-divides up to its square root"
        return real(n)

    for module in (cli, congruence):
        monkeypatch.setattr(module, "is_prime", is_prime)
    err = usage_error(capsys, *argv)
    assert err == f"dysonsym: error: {message}\n"
    assert capsys.readouterr().out == ""


def test_nonpositive_k_for_verify_is_usage_error(capsys):
    # --k 0 used to run the default ks; --k -2 recursed without end.
    assert_one_line_error(usage_error(capsys, "verify", "thm4.3", "--k", "0"))
    assert_one_line_error(usage_error(capsys, "verify", "thm2.1", "--k", "-2"))


def test_nonpositive_max_n_for_verify_is_usage_error(capsys):
    # --max-n 0 used to run the default bound and print a verdict at n = 25.
    assert_one_line_error(usage_error(capsys, "verify", "gf-ck", "--k", "1", "--max-n", "0"))
    assert_one_line_error(usage_error(capsys, "verify", "cor2.3", "--max-n", "-3"))


def test_removed_options_are_usage_errors(capsys):
    usage_error(capsys, "verify", "thm2.5", "--t", "1")
    usage_error(capsys, "scan", "--p", "5", "--threads", "2")


def test_verify_profile_sets_k(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm2.1", "--m", "1", "--format", "json")
    assert code == 0
    verdicts = [json.loads(line) for line in out.strip().splitlines()]
    assert verdicts and all(v["k"] == 1 for v in verdicts)
    err = usage_error(capsys, "verify", "thm2.1", "--m", "1", "--k", "2")
    assert "--k 2" in err


def test_progress_goes_to_stderr_only(capsys):
    _, out, err = run_cli(
        capsys, "verify", "thm3.1", "--k", "1", "--n", "5", "--format", "json"
    )
    for line in out.strip().splitlines():
        json.loads(line)  # stdout is pure data
    assert "verifying" in err


def test_verify_with_no_checks_is_usage_error(capsys):
    # Every suite starts at n = 2: --max-n 1 used to print "0/0 checks
    # passed" and exit 0.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm2.4", "--max-n", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].startswith("dysonsym: error:")
    assert "Traceback" not in captured.err


def test_verify_all_with_a_suite_without_checks_is_usage_error(capsys):
    # --max-n 1 leaves checks in cor2.3 and gf-ck only: verify all used to
    # print "5/5 checks passed" and exit 0.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--max-n", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == (
        "dysonsym: error: verify thm2.1 has no checks within the given bounds"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cor2.3", "--k", "2"), "level 1 only"),
        (("thm4.3", "--n", "5"), "--n"),
        (("thm2.4", "--m", "1"), "--m"),
        (("thm2.1", "--p", "7"), "--p"),
        (("mod-identity", "--r", "2"), "--r needs --p"),
        (("all", "--n", "5"), "--n"),
    ],
)
def test_verify_rejects_flags_the_suite_does_not_read(capsys, argv, message):
    # Each of these used to exit 0 and ignore the flag.
    err = usage_error(capsys, "verify", *argv)
    errors = [line for line in err.splitlines() if not line.startswith("verifying ")]
    assert_one_line_error("\n".join(errors))
    assert message in errors[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cor2.3", "--k", "2"), "verify cor2.3 has level 1 only, not level 2"),
        (("thm2.5", "--k", "1"), "verify thm2.5 has levels k >= 2 only, not level 1"),
        (("mod-identity", "--k", "4"), "2k <= p + 1 only (p = 5), not level 4"),
    ],
)
def test_verify_rejects_a_level_the_suite_does_not_have(capsys, argv, message):
    # Raised before any suite runs: thm2.5 --k 1 used to print "verifying"
    # and then count_fk_with_balance's own message.
    err = usage_error(capsys, "verify", *argv)
    assert_one_line_error(err)
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--p", "4"), "argument --p: must be a prime >= 5"),
        (("--p", "9", "--k", "2"), "argument --p: must be a prime >= 5"),
        (("--p", "5", "--r", "0"), "argument --r: must be positive"),
        (("--p", "5", "--r", "9", "--max-n", "3"), "p^r = 5^9 exceeds the largest modulus, 1000000"),
        (("--p", "5", "--r", "30", "--max-n", "3"),
         "p^r = 5^30 exceeds the largest modulus, 1000000"),
    ],
)
def test_verify_mod_identity_rejects_bad_p_before_running(capsys, argv, message):
    # These used to print "verifying mod-identity ..." and only then fail
    # inside the suite.
    err = usage_error(capsys, "verify", "mod-identity", *argv)
    assert err == f"dysonsym: error: {message}\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_verify_thm31_rejects_small_n_before_running(capsys, n):
    # These used to print "verifying thm3.1 ..." and only then fail inside
    # verify_theorem31.
    err = usage_error(capsys, "verify", "thm3.1", "--n", n)
    assert err == "dysonsym: error: argument --n: must be at least 2\n"


def test_verify_thm31_rejects_n_with_max_n_before_running(capsys):
    # --max-n used to be ignored: this checked n = 3 at both levels.
    err = usage_error(capsys, "verify", "thm3.1", "--n", "3", "--max-n", "2")
    assert err == "dysonsym: error: argument --max-n: not allowed with argument --n\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every check is a fresh process, so the import is paid each time:
    # dataclasses alone pulled in inspect, ast, dis and tokenize.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dysonsym.cli; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_cli_import_builds_no_parser():
    # Every check is a fresh process: a parser is built when main needs it.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import dysonsym.cli as cli; "
            "print(cli.build_parser.cache_info().currsize, cli._verb_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


@pytest.mark.parametrize("r", ["9", "30"])
def test_scan_past_the_largest_modulus_is_usage_error(capsys, r):
    # A residue table has p^r entries: r = 30 used to end in an
    # OverflowError traceback, and r = 9 asks for 5^9 entries.
    err = usage_error(capsys, "scan", "--p", "5", "--r", r, "--max-n", "10")
    assert_one_line_error(err)
    assert f"p^r = 5^{r} exceeds the largest modulus" in err


def test_too_many_levels_is_a_usage_error(capsys):
    # The walk recurses once per level: k = 1200 used to end in a
    # RecursionError traceback.
    err = usage_error(capsys, "enumerate-marked", "--k", "1200", "--n", "1200")
    assert_one_line_error(err)
    assert "recursion limit" in err


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_all_at_one_level_runs_the_suites_that_have_it(capsys, k):
    # `verify all --k 1` used to stop in thm2.5, and any other K in cor2.3.
    code, out, err = run_cli(
        capsys, "verify", "all", "--k", str(k), "--max-n", "6", "--format", "json"
    )
    assert code == 0
    assert {json.loads(line)["k"] for line in out.strip().splitlines()} == {k}
    skipped = [line for line in err.splitlines() if line.startswith("skipping: ")]
    assert skipped == (
        ["skipping: verify thm2.5 has levels k >= 2 only, not level 1"]
        if k == 1
        else [f"skipping: verify cor2.3 has level 1 only, not level {k}"]
    )


# p(1), ..., p(25): the rhs of the cor2.3-object verdicts.
PARTITION_NUMBERS = (
    1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385,
    490, 627, 792, 1002, 1255, 1575, 1958,
)


def test_cor23_encodes_each_partition_once(monkeypatch):
    # The suite used to encode every partition with n <= 25 twice: once for
    # its F_1 tables and again for its object check.  Past OBJECT_MAX_N it
    # encodes nothing.  F_1 is read off the k = 1 full-crank table at every
    # n, one range built up to max_n.
    calls, folds = [], []
    encode, fold_range = cli._encode, fullcrank._fold_range

    def counting(lam):
        calls.append(lam)
        return encode(lam)

    def counting_folds(k, max_n, label):
        folds.append((k, max_n))
        return fold_range(k, max_n, label)

    monkeypatch.setattr(cli, "_encode", counting)
    monkeypatch.setattr(fullcrank, "_fold_range", counting_folds)
    fullcrank.full_crank_table.cache_clear()
    verdicts = cli.verify_cor23(1, 30)
    assert cli.OBJECT_MAX_N == 25
    assert len(calls) == sum(partition_count(n) for n in range(1, 26)) == 9295
    assert folds == [(1, 30)]
    assert fullcrank.full_crank_table.cache_info().misses == 1
    assert [(v.identity, v.k, v.n, v.lhs, v.rhs) for v in verdicts] == (
        [("cor2.3", 1, n, 2 * n + 1, 2 * n + 1) for n in range(2, 31)]
        + [("cor2.3-object", 1, n, p, p) for n, p in enumerate(PARTITION_NUMBERS, start=1)]
    )
    for v in verdicts:
        if v.identity == "cor2.3-object":
            assert v.rhs == partition_count(v.n)


def test_cor23_fold_counts_dyson_symbols_by_crank():
    # cor2.3 reads F_1 off the k = 1 full-crank table instead of encoding
    # every partition: at k = 1 the full crank is the Dyson crank, so the
    # table is the encoding's crank histogram.
    for n in range(30, 0, -1):
        encoded = Counter(map(DysonSymbol.crank, map(_encode, partitions_of(n))))
        assert fullcrank.full_crank_table(1, n) == encoded, n
        assert sum(encoded.values()) == partition_count(n)


class ClosedPipe(io.StringIO):
    """Standard output whose reader has gone away, backed by a real fd."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_without_traceback(capsys, monkeypatch, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["crank-table", "--n", "200", "--format", "json"])
        monkeypatch.undo()
        assert code == BROKEN_PIPE_STATUS != 0
        assert capsys.readouterr().err == ""
        # The stream's descriptor now points at the null device.
        os.write(fd, b"discarded")
        assert (tmp_path / "stdout").read_bytes() == b""
    finally:
        os.close(fd)


# The verdicts of thm2.4 and thm2.6 at levels 1..3 up to n = 10, as the
# per-image drivers gave them: (lhs, rhs) for n = 2..10, every check passing.
# thm2.4's also count its comparisons of the walk with the fold: one per
# profile, and one of the totals.
THM24_CHECKS = {
    1: [13, 17, 23, 29, 37, 45, 55, 67, 81],
    2: [20, 52, 104, 176, 284, 420, 620, 872, 1232],
    3: [5, 35, 131, 349, 763, 1471, 2631, 4419, 7191],
}
THM26_CHECKS = {
    1: [2, 4, 6, 8, 12, 16, 24, 32, 46],
    2: [4, 6, 12, 18, 32, 46, 72, 104, 152],
    3: [2, 6, 14, 26, 50, 82, 140, 218, 344],
}


def counted(monkeypatch, name):
    """Replace cli.<name> by a wrapper that records its first argument."""
    calls = []
    original = getattr(cli, name)

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3])
def test_thm24_and_thm26_verdicts_are_unchanged(k):
    for driver, identity, checks in (
        (cli.verify_thm24, "thm2.4", THM24_CHECKS),
        (cli.verify_thm26, "thm2.6", THM26_CHECKS),
    ):
        assert [(v.identity, v.k, v.n, v.lhs, v.rhs) for v in driver(k, 10)] == [
            (identity, k, n, c, c) for n, c in enumerate(checks[k], start=2)
        ]


def distinct_levels(symbols):
    """The level objects that ``symbols`` hold, each once, by identity, in
    the order the symbols first hold them."""
    levels = {}
    for eta in symbols:
        for pair in eta.vectors:
            levels.setdefault(id(pair), pair)
    return list(levels.values())


def test_thm24_takes_level_terms_once_per_level_object_and_weighs_each_symbol_once(monkeypatch):
    # The mirror checks used to validate and weigh every image again, and
    # then every symbol's sides and balances, which the symbols share.
    levels = counted(monkeypatch, "_level_terms")
    placed = counted(monkeypatch, "_placement_holds")
    weighed = counted(monkeypatch, "_terms_weight")
    by_n = []  # the symbol lists the driver reads, whose level objects it keys

    def enumerate_kept(k, n):
        by_n.append(enumerate_marked(k, n))
        return by_n[-1]

    monkeypatch.setattr(cli, "enumerate_marked", enumerate_kept)
    assert all(v.passed for v in cli.verify_thm24(3, 10))
    symbols = [eta for etas in by_n for eta in etas]
    assert placed == weighed == symbols
    assert len(symbols) == 3752
    expected = [pair for etas in by_n for pair in distinct_levels(etas)]
    assert list(map(id, levels)) == list(map(id, expected))
    assert len(levels) == 768


def default_row_symbols():
    """The symbols that thm2.4 and thm2.6 enumerate at their default rows,
    levels 1..3 up to n = 12, in the order the drivers visit them: each
    level's largest weight first."""
    return [eta for k in (1, 2, 3) for n in range(12, 1, -1) for eta in enumerate_marked(k, n)]


def test_thm24_takes_each_crank_vector_once_at_its_default_rows(capsys, monkeypatch):
    # The mirror checks used to take every image's crank vector again.
    cranked = counted(monkeypatch, "crank_vector")
    code, _, _ = run_cli(capsys, "verify", "thm2.4")
    assert code == 0
    assert cranked == default_row_symbols()
    assert len(cranked) == 14444


def test_thm24_mirrors_each_symbol_once_per_nonzero_crank(capsys, monkeypatch):
    # The round trip used to mirror every image back: twice the calls.
    mirrored = counted(monkeypatch, "mirror")
    code, _, _ = run_cli(capsys, "verify", "thm2.4")
    assert code == 0
    assert sorted(mirrored) == sorted(
        eta for eta in default_row_symbols() for c in crank_vector(eta) if c != 0
    )
    assert len(mirrored) == 30398


def test_thm21_computes_each_rhs_once_per_profile_size(capsys, monkeypatch):
    # theorem21_rhs reads m only through sum |m_i|: 170 sizes, not 6,794 profiles.
    profiles = counted(monkeypatch, "theorem21_rhs")
    code, _, _ = run_cli(capsys, "verify", "thm2.1")
    assert code == 0
    # Once per (n, size) at the default rows (k, max_n) = (2, 14), (3, 12).
    assert sorted((len(m), sum(map(abs, m))) for m in profiles) == sorted(
        (k, size) for k, max_n in ((2, 14), (3, 12))
        for n in range(2, max_n + 1) for size in range(n - k + 2)
    )
    assert len(profiles) == 170


# Each driver that reads a fold table: the module whose ``_fold_range`` its
# table front end calls, some rows, and the (k, bound) of each row's fold.
# thm3.1 counts (k + 1)-marked symbols; mod-identity's enumerate route stops
# at ENUMERATE_MAX_N = 14.
FOLD_PLANS = {
    "cor2.3": (fullcrank, [(1, 30)], [(1, 30)]),
    "thm2.1": (fold, [(2, 14), (3, 12)], [(2, 14), (3, 12)]),
    "thm2.4": (fold, [(1, 12), (2, 10)], [(1, 12), (2, 10)]),
    "thm2.5": (fold, [(2, 12), (3, 12)], [(2, 12), (3, 12)]),
    "thm3.1": (fullcrank, [(1, 14), (2, 10)], [(2, 14), (3, 10)]),
    "thm4.3": (fullcrank, [(3, 14)], [(3, 14)]),
    "mod-identity": (fullcrank, [(2, 40, 5, 1), (3, 12, 7, 1)], [(2, 14), (3, 12)]),
}


@pytest.mark.parametrize("suite", FOLD_PLANS)
def test_fold_reading_drivers_fold_each_row_once_at_its_bound(monkeypatch, suite):
    module, rows, folds = FOLD_PLANS[suite]
    runs = []

    def counted_fold(k, max_n, label):
        runs.append((k, max_n))
        return fold_range(k, max_n, label)

    fold_range = module._fold_range
    monkeypatch.setattr(module, "_fold_range", counted_fold)
    for cache in (fold._counts, fullcrank.full_crank_table, marked.enumerate_marked,
                  marked._walk_groups):
        cache.cache_clear()
    driver = cli._suites()[suite][0]
    for row, plan in zip(rows, folds):
        verdicts = driver(*row)
        assert runs[-1] == plan and all(v.passed for v in verdicts), row
        # Each route's verdicts ascend from n = 2, cor2.3-object's from n = 1.
        for identity in dict.fromkeys(v.identity for v in verdicts):
            ns = [v.n for v in verdicts if v.identity == identity]
            least = 1 if identity == "cor2.3-object" else 2
            assert ns == list(range(least, len(ns) + least)), (row, identity)
    assert runs == folds
    # Only the two table front ends build folds; the drivers read those.
    assert not hasattr(cli, "_fold_range") and not hasattr(cli, "_no_label")
    # A narrower weight reads the kept range; a wider one replaces it.
    k, bound = folds[-1]
    m = (1,) + (0,) * (k - 1)
    for n, wider in ((bound - 1, []), (bound + 1, [(k, bound + 1)])):
        if module is fold:
            assert count_fk(m, n) == theorem21_rhs(m, n)
        else:
            assert count_full_crank(k, 4, n) == theorem43_rhs(k, 4, n)
        assert runs == folds + wider
    table = fold._counts if module is fold else fullcrank.full_crank_table
    assert table.cache_info().currsize == len(dict(folds))


def test_thm26_tests_strictness_below_nonnegative_tops_and_cranks_only_merges(capsys, monkeypatch):
    # The driver walks only the symbols that merge, and tests each lower
    # level of each once more: 11,709 levels were tested when it read every
    # symbol, up to the first level that is not strict under a top crank
    # >= 0.  Every symbol's crank vector used to be taken.  The pairs tested
    # are compared as values.
    tested = []
    monkeypatch.setattr(cli, "is_strict_pair", lambda a, b: tested.append((a, b)) or is_strict_pair(a, b))
    cranked = counted(monkeypatch, "crank_vector")
    code, _, _ = run_cli(capsys, "verify", "thm2.6")
    assert code == 0
    merging = [eta for eta in default_row_symbols() if is_strict(eta) and min(crank_vector(eta)) >= 0]
    assert tested == [pair for eta in merging for pair in eta.vectors[:-1]]
    assert len(tested) == 2645
    assert cranked == merging
    assert len(cranked) == 1710


def test_gfck_builds_one_brute_force_list_per_level(capsys, monkeypatch):
    # ck_brute's convolution used to run once per j, each up to j.
    built = []
    original = cli._solution_counts

    def counted_list(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_solution_counts", counted_list)
    code, _, _ = run_cli(capsys, "verify", "gf-ck")
    assert code == 0
    assert built == [(25, k + 1, 0, k) for k in (1, 2, 3, 4)]


def test_thm26_runs_phi_and_phi_inverse_once_per_round_trip(monkeypatch):
    # Each round trip used to run both maps.
    merged = counted(monkeypatch, "phi")
    peeled = counted(monkeypatch, "phi_inverse")
    verdicts = cli.verify_thm26(3, 10)
    assert all(v.passed for v in verdicts)
    assert len(merged) == len(peeled) == sum(v.rhs for v in verdicts) // 2 == 441
    assert len(set(merged)) == len(merged)


# Faults planted at one symbol of weight FAULT_N, level 2, for the thm2.4 and
# thm2.6 drivers to catch: each gives (suite, name in cli, replacement, the
# number of checks it fails).  At this weight two Dyson symbols share a crank,
# so a wrong merge can keep both the weight and the crank.
FAULT_N = 8


def mirror_to_a_decoy():
    # An image with the right crank vector that does not mirror back; the
    # true image's round trip meets the decoy too.
    symbols = enumerate_marked(2, FAULT_N)
    target, decoy = next(
        (eta, mu) for eta in symbols if crank_vector(eta)[0] != 0
        for mu in symbols
        if mu != mirror(eta, 1) and crank_vector(mu) == crank_vector(mirror(eta, 1))
    )

    def wrong(eta, j):
        return decoy if (eta, j) == (target, 1) else mirror(eta, j)

    return "thm2.4", "mirror", wrong, 2


def nonzero_cranks(eta):
    # How many mirror checks have eta as their image.
    return sum(c != 0 for c in crank_vector(eta))


def rejecting_one_symbol():
    target = next(eta for eta in enumerate_marked(2, FAULT_N) if crank_vector(eta)[1] != 0)

    def wrong(eta):
        return eta != target and _placement_holds(eta)

    return "thm2.4", "_placement_holds", wrong, nonzero_cranks(target)


def weighing_one_symbol_wrong():
    target = next(eta for eta in enumerate_marked(2, FAULT_N) if crank_vector(eta)[0] != 0)

    def wrong(eta, terms):
        return _terms_weight(eta, terms) + (eta == target)

    return "thm2.4", "_terms_weight", wrong, nonzero_cranks(target)


def one_shared_level_off_by_one():
    # The balance of one level-1 object, which several symbols of FAULT_N
    # hold and no symbol of another weight that the run reads, read off by
    # one: each symbol that holds it weighs wrong, and fails as an image.
    # The widest walk comes first, so that the run rebuilds no table and
    # its symbols hold the objects found here.
    enumerate_marked(2, FAULT_N + 1)
    holders = {}
    for n in range(2, FAULT_N + 2):
        for eta in enumerate_marked(2, n):
            holders.setdefault(id(eta.vectors[0]), (eta.vectors[0], []))[1].append(eta)
    target, held = max(
        (entry for entry in holders.values() if {weight(eta) for eta in entry[1]} == {FAULT_N}),
        key=lambda entry: len(entry[1]),
    )
    assert len(held) > 1

    def wrong(pair):
        mass, longer, shorter, balance = _level_terms(pair)
        return mass, longer, shorter, balance + (pair is target)

    return "thm2.4", "_level_terms", wrong, sum(map(nonzero_cranks, held))


def enumerating_a_side_that_is_no_partition():
    # One symbol of FAULT_N with a part 1 of level 1 written True, which is
    # no partition part: the symbol equals the true one, and so does every
    # sum, length and comparison of its parts, so only the partition test
    # of its level can fail it, and each check that reaches it as an image.
    symbols = enumerate_marked(2, FAULT_N)
    i, target = next(
        (i, eta) for i, eta in enumerate(symbols)
        if 1 in eta.vectors[0][0] and any(crank_vector(eta))
    )
    (a, b), top = target.vectors
    faulty = MarkedDysonSymbol(((a[:-1] + (True,), b), top), target.markers)
    assert faulty == target
    kept = symbols[:i] + (faulty,) + symbols[i + 1:]

    def wrong(k, n):
        return kept if (k, n) == (2, FAULT_N) else enumerate_marked(k, n)

    return "thm2.4", "enumerate_marked", wrong, nonzero_cranks(target)


def strict_symbols(k, n):
    symbols = enumerate_marked(k, n)
    return [eta for eta in symbols if is_strict(eta) and min(crank_vector(eta)) >= 0]


def merging_one_symbol_wrong():
    # A Dyson symbol of the right weight and crank, but not the merge: eta
    # does not peel back from it, and its true merge does not merge back.
    target, decoy = next(
        (eta, sym)
        for eta in strict_symbols(2, FAULT_N)
        for sym in enumerate_dyson_symbols(FAULT_N)
        if sym != phi(eta) and sym.crank() == phi(eta).crank()
    )
    return "thm2.6", "phi", lambda eta: decoy if eta == target else phi(eta), 2


def peeling_one_symbol_wrong():
    # Another strict symbol: it has the wrong cranks, and target's merge
    # does not peel back to target.
    target, decoy = strict_symbols(2, FAULT_N)[:2]
    pair = (phi(target), crank_vector(target))

    def wrong(sym, m):
        return decoy if (sym, m) == pair else phi_inverse(sym, m)

    return "thm2.6", "phi_inverse", wrong, 2


def walking_a_symbol_of_negative_top_crank():
    # A strict symbol that phi rejects for its top crank joins the walk of
    # the symbols it merges: it fails one check, and phi never sees it.
    extra = next(
        eta for eta in enumerate_marked(2, FAULT_N)
        if is_strict(eta) and len(eta.vectors[-1][0]) < len(eta.vectors[-1][1])
    )

    def wrong(k, n, merging=False):
        walked = _walk(k, n, merging)
        return walked + [extra] if (k, n, merging) == (2, FAULT_N, True) else walked

    return "thm2.6", "_walk", wrong, 1


@pytest.mark.parametrize(
    "fault",
    [
        mirror_to_a_decoy,
        rejecting_one_symbol,
        weighing_one_symbol_wrong,
        one_shared_level_off_by_one,
        enumerating_a_side_that_is_no_partition,
        merging_one_symbol_wrong,
        peeling_one_symbol_wrong,
        walking_a_symbol_of_negative_top_crank,
    ],
)
def test_thm24_and_thm26_catch_a_fault_at_one_symbol(capsys, monkeypatch, fault):
    suite, name, replacement, misses = fault()
    monkeypatch.setattr(cli, name, replacement)
    argv = ("verify", suite, "--k", "2", "--max-n", str(FAULT_N + 1), "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    verdicts = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and "Traceback" not in err
    assert [v["n"] for v in verdicts] == list(range(2, FAULT_N + 2))
    assert [(v["n"], v["rhs"] - v["lhs"]) for v in verdicts if not v["pass"]] == [(FAULT_N, misses)]


def test_verify_all_verdicts_are_the_golden_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    lines = out.splitlines()
    for i, (line, row) in enumerate(zip(lines, VERIFY_ALL)):
        assert line == Verdict(*row).to_json(), f"verdict {i} differs from the golden row {row}"
    assert len(lines) == len(VERIFY_ALL) == 387
    assert code == 0


# (exit status, sha256 of standard output, sha256 of standard error) of
# `verify all` in each format: every byte is pinned, not only the json
# verdict rows.
VERIFY_ALL_DIGESTS = {
    "csv": (
        0,
        "3d3b5ebfff57d2edfe908533214a8cc3c88a0dda0da0f391a3b9915ed0bbbff0",
        "e90e923f50e321229cf707ae2af0a1d252291ca305ae0bb7221ece790c5d7642",
    ),
    "json": (
        0,
        "6b2a7de0f4255a951799ee32d4fdc08d19c192bb9bc53084320954251e06aa89",
        "e90e923f50e321229cf707ae2af0a1d252291ca305ae0bb7221ece790c5d7642",
    ),
    "text": (
        0,
        "fcc8b1cee3df44bdcc3d7f125ba17d316bebcdb3c4d40ad3ed8ee7146016c303",
        "e90e923f50e321229cf707ae2af0a1d252291ca305ae0bb7221ece790c5d7642",
    ),
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_writes_the_pinned_bytes(capsys, fmt):
    code, out, err = run_cli(capsys, "verify", "all", "--format", fmt)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert (code, *digests) == VERIFY_ALL_DIGESTS[fmt]


def test_moments_of_a_huge_order_return_at_once(capsys):
    # gen_binomial used to loop k times per term and divide by k!.
    code, out, _ = run_cli(capsys, "moments", "--k", "1000001", "--n", "40", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": 1000001, "n": 40, "mu": 0, "eta": 0}


def test_build_parser_returns_one_shared_parser():
    assert cli.build_parser() is cli.build_parser()


def _verb_subparsers():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "verb"]
    return action.choices


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_verb_parser_writes_its_subparsers_help(verb):
    assert cli._verb_parser(verb).format_help() == _verb_subparsers()[verb].format_help()


def test_main_builds_only_the_parser_of_the_verb_it_is_given(capsys):
    cli.build_parser.cache_clear()
    cli._verb_parser.cache_clear()
    for argv in (["moments", "--k", "1", "--n", "3"], ["scan", "--p", "5", "--max-n", "10"],
                 ["verify", "thm2.1", "--max-n", "4"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert cli.build_parser.cache_info().currsize == 0
    assert cli._verb_parser.cache_info().currsize == 3
    # An argv that names no verb first is the full parser's to reject.
    for argv in ([], ["no-such-verb"]):
        cli.build_parser.cache_clear()
        assert_one_line_error(usage_error(capsys, *argv))
        assert cli.build_parser.cache_info().currsize == 1


def test_shared_parser_keeps_no_state_between_main_calls(capsys, monkeypatch):
    # A usage error, then two --m runs, then a scan, all in one process: each
    # argv parses as a fresh parser parses it, and the second --m run sees
    # its own entry only (a profile of length 1 is level k = 1).
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()
    parsed, run = [], cli._run
    monkeypatch.setattr(cli, "_run", lambda args: parsed.append(args) or run(args))
    runs = [
        (["verify", "thm2.1", "--m", "1", "--m", "0", "--format", "json"], [1, 0]),
        (["verify", "thm2.1", "--m", "1", "--format", "json"], [1]),
        (["scan", "--p", "5", "--k", "1", "--format", "json"], None),
    ]
    for argv, m in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        args = cli.build_parser().parse_args(argv)
        fresh = vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert vars(args) == vars(parsed.pop()) == fresh and fresh["verb"] == argv[0]
        assert getattr(args, "m", None) == m
        if m is not None:
            assert {json.loads(line)["k"] for line in out.splitlines()} == {len(m)}
