import csv
import io
import json
import os
import sys

import pytest

from dysonsym import cli, partition_count, to_dyson_symbol
from dysonsym.cli import BROKEN_PIPE_STATUS, main


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
    rows = list(csv.DictReader(io.StringIO(out)))
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
    code, out, _ = run_cli(
        capsys, "verify", "cor2.3", "--max-n", "6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["pass"] == "True" for r in rows)


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
        (("--p", "4"), "p must be a prime >= 5"),
        (("--p", "9", "--k", "2"), "p must be a prime >= 5"),
        (("--p", "5", "--r", "0"), "--r must be positive"),
        (("--p", "5", "--r", "9", "--max-n", "3"), "p^r = 5^9 exceeds the largest modulus"),
        (("--p", "5", "--r", "30", "--max-n", "3"), "p^r = 5^30 exceeds the largest modulus"),
    ],
)
def test_verify_mod_identity_rejects_bad_p_before_running(capsys, argv, message):
    # These used to print "verifying mod-identity ..." and only then fail
    # inside the suite.
    err = usage_error(capsys, "verify", "mod-identity", *argv)
    assert_one_line_error(err)
    assert message in err
    assert "verifying" not in err


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
    # its F_1 tables and again for its object check.
    calls = []

    def counting(lam):
        calls.append(lam)
        return to_dyson_symbol(lam)

    monkeypatch.setattr(cli, "to_dyson_symbol", counting)
    verdicts = cli.verify_cor23(1, 30)
    assert len(calls) == sum(partition_count(n) for n in range(1, 31)) == 28628
    assert [(v.identity, v.k, v.n, v.lhs, v.rhs) for v in verdicts] == (
        [("cor2.3", 1, n, 2 * n + 1, 2 * n + 1) for n in range(2, 31)]
        + [("cor2.3-object", 1, n, p, p) for n, p in enumerate(PARTITION_NUMBERS, start=1)]
    )
    for v in verdicts:
        if v.identity == "cor2.3-object":
            assert v.rhs == partition_count(v.n)


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
