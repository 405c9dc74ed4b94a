"""One round of one workload, in a fresh single-threaded interpreter.

Usage: worker.py WORKLOAD SEED SPAWN_TIME REQUEST_FD,REPLY_FD [SPANS_PATH]

SPAWN_TIME is ``time.monotonic()`` in the parent just before it started
this process; set-up time runs from there until ``import dysonsym.cli``
returns.  Through the two pipe descriptors the worker asks its parent to
time the reference computation (``reference.py``) on the CPU they share:
before the first step, and after every step that closes a block of at
least ``BLOCK_S`` seconds of timed work.  With SPANS_PATH the round is
traced and its spans are written there.  The last line of standard output
is one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dysonsym.cli  # noqa: E402

SETUP_S = time.monotonic() - float(sys.argv[3])

import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

BLOCK_S = 0.25


def peak_rss_kib() -> int:
    """This process's peak resident set, in KiB.

    ``ru_maxrss`` is no good here: Linux carries the high-water mark of the
    memory image a process had before ``exec`` into it, and that image was
    a copy of the parent.  ``VmHWM`` counts this program's image only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Reference:
    """Has the parent time the reference computation and returns its time."""

    def __init__(self, fds: str) -> None:
        request, reply = map(int, fds.split(","))
        self.request = os.fdopen(request, "wb", buffering=0)
        self.reply = os.fdopen(reply, "r")

    def __call__(self) -> float:
        self.request.write(b"r")
        return float(self.reply.readline())

    def close(self) -> None:
        self.request.close()
        self.reply.close()


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    reference = Reference(sys.argv[4])
    spans_path = sys.argv[5] if len(sys.argv) > 5 else None
    import dysonsym
    from dysonsym import congruence, dyson, fullcrank, marked, partitions

    if not dysonsym.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported dysonsym from {dysonsym.__file__}, not this checkout")
    ds = SimpleNamespace(partitions=partitions, dyson=dyson, marked=marked,
                         fullcrank=fullcrank, congruence=congruence, cli=dysonsym.cli)
    workload = workloads.build(name, ds, seed)
    oracle = Oracle(workload.oracle_limit, workload.p_limit)
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install([partitions, dyson, marked, fullcrank, congruence, dysonsym.cli,
                        dysonsym])

    step_s, ref_s, block_s = [], [reference()], []
    failures, errors = [], []
    block = 0.0
    for i, step in enumerate(workload.steps):
        failure = None
        start = perf_counter()
        try:
            output = step.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failure = f"{step.name}: {type(exc).__name__}"
        step_s.append(perf_counter() - start)
        block += step_s[-1]
        if block >= BLOCK_S or i == len(workload.steps) - 1:
            ref_s.append(reference())
            block_s.append(block)
            block = 0.0
        if failure:
            failures.append(failure)
        else:
            errors += step.check(output, oracle)
    peak_rss_mib = peak_rss_kib() / 1024
    reference.close()
    if tracer:
        tracer.dump(spans_path)
    # Each block's time over the mean of the references around it.
    wall_ref = sum(t / ((ref_s[b] + ref_s[b + 1]) / 2) for b, t in enumerate(block_s))
    print(json.dumps({
        "wall_ref": wall_ref,
        "wall_s": sum(step_s),
        "setup_s": SETUP_S,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(workload.steps),
        "failures": failures,
        "errors": errors,
        "step_s": step_s,
        "ref_s": ref_s,
        "block_s": block_s,
    }))


if __name__ == "__main__":
    main()
