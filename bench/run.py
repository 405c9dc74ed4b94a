"""Benchmark of dysonsym: one workload, end to end or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

Rounds of the workload run one after another, each in a fresh worker
process (``bench/worker.py``), until ``--seconds`` have passed; a fresh
process is what a CLI user gets, since every ``lru_cache`` lives exactly as
long as one.  This process and its workers share one CPU.  While a worker
runs, this process times the reference computation (``reference.py``)
whenever the worker asks: before its first step and after each block of
steps.  ``wall_s`` is the median over rounds of the round's timed work,
block by block divided by the references around the block, times
``REF_SECONDS``; ``setup_s`` is the median set-up time scaled the same way;
``peak_rss_mib`` is the median peak.  So times read as seconds at a fixed
CPU speed, not at whatever speed the shared host gives at the moment (see
README.md).  With ``--trace 1`` one more, traced, round follows and the
per-layer metrics come from its spans.  Each run writes its row to
``bench/out/BENCH_*.json``; the last line of standard output is the result
as JSON.  Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import REF_SECONDS, reference  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
ROUND_TIMEOUT_S = 150
# Raw figures of every round, kept in the results file.
ROUND_KEYS = ("wall_ref", "wall_s", "setup_s", "peak_rss_mib", "ref_before_s", "ref_s",
              "block_s", "step_s")


def run_round(workload: str, seed: int, spans_path: str | None = None) -> dict:
    """One worker process, serving its reference requests until it ends."""
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    before = reference()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed)]
    argv += [repr(time.monotonic()), f"{request_w},{reply_r}"]
    if spans_path:
        argv.append(spans_path)
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err,
                                pass_fds=(request_w, reply_r), text=True)
        os.close(request_w)
        os.close(reply_r)
        deadline = time.monotonic() + ROUND_TIMEOUT_S
        with os.fdopen(request_r, "rb", buffering=0) as requests, \
                os.fdopen(reply_w, "wb", buffering=0) as replies:
            try:
                while select.select([requests], [], [],
                                    max(0.0, deadline - time.monotonic()))[0]:
                    if not requests.read(1):
                        break
                    replies.write(f"{reference()!r}\n".encode())
                code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except (BrokenPipeError, subprocess.TimeoutExpired):
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        err.seek(0)
        out.seek(0)
        if code != 0:
            raise SystemExit(f"worker failed ({code}):\n{err.read()}")
        result = json.loads(out.read().strip().splitlines()[-1])
    result["ref_before_s"] = before
    return result


def setup_ref(result: dict) -> float:
    """Set-up time over the mean of the references just before and after it."""
    return result["setup_s"] / ((result["ref_before_s"] + result["ref_s"][0]) / 2)


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = os.path.join(ROOT, "src", "dysonsym")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no dysonsym sources at {package}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    compileall.compile_dir(package, quiet=1)  # byte-code once, outside every round
    os.makedirs(OUT, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, cpus[:1])  # workers and the reference share one CPU
    except OSError as exc:
        print(f"warning: cannot pin to one CPU ({exc}); times are less steady",
              file=sys.stderr)

    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(run_round(args.workload, args.seed))
    traced = None
    if args.trace:
        spans_path = os.path.join(OUT, f"spans_{args.workload}.bin")
        traced = run_round(args.workload, args.seed, spans_path)
        rounds_all = rounds + [traced]
    else:
        rounds_all = rounds

    if args.trace:
        layer = summarize(spans_path)
        layer["trace_overhead_s"] = REF_SECONDS * (traced["wall_ref"] - statistics.median(
            r["wall_ref"] for r in rounds))
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "wall_s": REF_SECONDS * statistics.median(r["wall_ref"] for r in rounds),
            "setup_s": REF_SECONDS * statistics.median(setup_ref(r) for r in rounds),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    errors = [e for r in rounds_all for e in r["errors"]]
    failures = sorted({f for r in rounds_all for f in r["failures"]})
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds_all),
        "failed": sum(len(r["failures"]) for r in rounds_all),
        "metrics": metrics,
    }
    row = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
               seconds=args.seconds, rounds=len(rounds_all), failures=failures,
               errors=errors[:20], commit=commit(), python=platform.python_version(),
               nproc=len(cpus), ref_seconds=REF_SECONDS,
               per_round=[{k: r[k] for k in ROUND_KEYS} for r in rounds_all])
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(row, handle, indent=1)
        handle.write("\n")
    for line in failures + errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
