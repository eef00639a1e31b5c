#!/usr/bin/env python3
"""End-to-end benchmark of tropcomplex, one workload per run.

Usage:
    python3 tcxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Each
workload runs in this one process as a closed loop with one client: the
next operation starts only when the previous one has returned.  Operations
come in decks (a seeded shuffle of a fixed mix); the loop runs whole
decks for S/REPEATS seconds and at least MIN_OPS operations, then replays
them (below) until S seconds have passed.
Every answer is checked against an oracle; an operation fails when its
answer is wrong, when it raises, or when it misses the workload's deadline
(a SIGALRM timer), and a failed operation enters the latencies at the time
it used.

On a shared host (measured on a 2-vCPU cloud VM), neighbouring load can
slow every instruction by up to two times for stretches of a fraction of a
second to minutes, and the share of a run spent slowed ranged from a tenth
to all of it.  So the untraced loop makes about REPEATS passes over the
same operations on the same inputs, spread over the whole run, and checks
every answer of every pass.  An operation's latency is the best of its timings and of
those of every operation in the run that makes the same call on the same
inputs: what the program costs when the host leaves it the core.  The
percentiles and ops_per_s are taken over those best times, one per
operation of the first pass, and an operation fails when any of its
timings failed.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter to
resident complexes built), op_p50_ms, op_p95_ms, ops_per_s (operations
that succeeded per second of their best times), fail_ratio, ok_ratio
(1 - fail_ratio, the form the JSON carries) and peak_rss_mb.  --trace 1
runs the same decks untraced for S/2 seconds, replays them with spans
around each layer, prints the per-layer metrics and writes the spans to
tcxbench/.out/.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics; `correct` is false when any
operation returned a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# The untraced loop's first pass takes 1/REPEATS of the run, so that about
# REPEATS passes over the same operations fit in it; an operation's best
# time counts.
REPEATS = 8
# setup_s is the median of this many fresh-interpreter samples, spread over
# the loop so that they see the same stretch of machine time as it does.
SETUP_SAMPLES = 7
# 95th percentile with at least ten operations beyond it.
MIN_OPS = 220

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms",
             "ops_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


class Deadline(BaseException):
    """Raised by the alarm inside an operation that ran past its deadline;
    a BaseException so that no handler in the program catches it."""


class Timer:
    """Per-operation deadline on ITIMER_REAL."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise Deadline()

    def call(self, fn, seconds):
        """(status, result, elapsed) with status ok | deadline | raised."""
        t0 = perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                result = fn()
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            status = "ok"
        except Deadline:
            status, result = "deadline", None
        except Exception as exc:  # an exception the program should not raise
            status, result = "raised", exc
        return status, result, perf_counter() - t0


def import_program():
    sys.path.insert(0, SRC)
    try:
        import tropcomplex
    except ImportError as exc:
        sys.exit("tcxbench: cannot import tropcomplex from %s: %s" % (SRC, exc))
    if not os.path.abspath(tropcomplex.__file__).startswith(SRC + os.sep):
        sys.exit("tcxbench: tropcomplex imported from %s, not %s"
                 % (tropcomplex.__file__, SRC))
    return tropcomplex


def setup_sample(paths):
    """Seconds from launching a fresh interpreter until it has imported
    tropcomplex and built the resident complexes."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), SRC, *paths],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=170)
    if line.strip() != b"ready" or proc.returncode:
        raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
    return elapsed


def run_op(wl, timer, op, tracer=None, op_id=0):
    """Time and check one operation: (op name, input label, status,
    seconds, detail), status ok | wrong | raised | deadline."""
    if tracer:
        tracer.begin_op(op_id)
    status, result, elapsed = timer.call(op.call, wl.deadline)
    if tracer:
        tracer.end_op()
    detail = None
    if status == "ok":
        detail = op.check(result)
        if detail:
            status = "wrong"
    elif status == "raised":
        detail = "%s: %s" % (type(result).__name__, result)
    else:
        detail = "missed the %.3g s deadline" % wl.deadline
    return (op.name, op.label, status, elapsed, detail)


def run_ops(wl, timer, seconds=None, min_ops=0, decks=None, tracer=None):
    """Run whole decks from the first on, until `seconds` and `min_ops` are
    reached or until deck `decks`.  Returns (records, decks run)."""
    records = []
    start = perf_counter()
    deck = 0
    while True:
        for op in wl.deck(deck):
            records.append(run_op(wl, timer, op, tracer, len(records)))
        deck += 1
        if decks is not None:
            if deck >= decks:
                return records, deck
        elif perf_counter() - start >= seconds and len(records) >= min_ops:
            return records, deck


_RANK = {"ok": 0, "raised": 1, "deadline": 1, "wrong": 2}


def merge(a, b):
    """One record for two timings of an operation: the best time, with the
    status and detail of the worse outcome (a wrong answer worst)."""
    worse = b if _RANK[b[2]] > _RANK[a[2]] else a
    return worse[:3] + (min(a[3], b[3]),) + worse[4:]


def measure(wl, timer, seconds):
    """The untraced loop: a first pass over whole decks for 1/REPEATS of
    `seconds`, then replays of its operations in the same order, at least
    one and as many more as fit in `seconds` of loop time.  A replay skips
    deadline misses, which take the deadline every time, so workloads whose
    time goes mostly to them get many more passes.  The SETUP_SAMPLES
    set-up samples are taken between passes, spread over the loop time,
    which leaves them out.  Operations that make the same call on the same
    inputs (Op.same) share the best time of them all.  Returns (best-of
    records, records of every pass, decks run, passes, median set-up)."""
    samples = [setup_sample(wl.resident)]
    start = perf_counter()
    first, deck = run_ops(wl, timer, seconds=seconds / REPEATS, min_ops=MIN_OPS)
    best, every, passes, probing, replay = list(first), list(first), 1, 0.0, 0.0
    while passes < 2 or perf_counter() - start - probing + replay <= seconds:
        if len(samples) < SETUP_SAMPLES * (perf_counter() - start - probing) / seconds:
            t0 = perf_counter()
            samples.append(setup_sample(wl.resident))
            probing += perf_counter() - t0
        t0 = perf_counter()
        j = 0
        for d in range(deck):
            for op in wl.deck(d):
                if first[j][2] != "deadline":
                    rec = run_op(wl, timer, op)
                    every.append(rec)
                    best[j] = merge(best[j], rec)
                j += 1
        passes += 1
        replay = perf_counter() - t0
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(wl.resident))
    keys = [op.same for d in range(deck) for op in wl.deck(d)]
    fastest = {}
    for key, rec in zip(keys, best):
        if key is not None:
            fastest[key] = min(fastest.get(key, rec[3]), rec[3])
    best = [rec if key is None else rec[:3] + (fastest[key],) + rec[4:]
            for key, rec in zip(keys, best)]
    return best, every, deck, passes, statistics.median(samples)


def report_failures(workload, records):
    """One stderr line per distinct failure: workload, operation, input."""
    failures = Counter((name, label, status, detail)
                       for name, label, status, _, detail in records if status != "ok")
    for (name, label, status, detail), n in sorted(failures.items()):
        print("FAIL %s %s [%s] %s: %s (x%d)" % (workload, name, label, status, detail, n),
              file=sys.stderr)


def end_to_end(records, setup):
    lat = sorted(r[3] for r in records)
    n = len(lat)
    ok = sum(1 for r in records if r[2] == "ok")
    rank = math.ceil(0.95 * n) - 1
    return {
        "setup_s": setup,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": lat[rank] * 1e3,
        "ops_per_s": ok / sum(lat),
        "ok_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tc = import_program()
    workdir = os.path.join(HERE, ".work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.load(tc)
        timer = Timer()
        if not args.trace:
            records, all_records, decks, passes, setup = measure(wl, timer, args.seconds)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in end_to_end(records, setup).items()}
        else:
            from spans import Tracer

            base, decks = run_ops(wl, timer, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                records, _ = run_ops(wl, timer, decks=decks, tracer=tracer)
            finally:
                tracer.uninstall()
            op_s = sum(r[3] for r in records)
            metrics = tracer.metrics(len(records), op_s, sum(r[3] for r in base))
            out = os.path.join(HERE, ".out")
            os.makedirs(out, exist_ok=True)
            tracer.write(os.path.join(out, "spans-%s-seed%d.jsonl.gz"
                                      % (args.workload, args.seed)))
            all_records = base + records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(args.workload, all_records)
    failed = sum(1 for r in records if r[2] != "ok")
    print("%s seed %d: %d operations in %d decks, %d failed"
          % (args.workload, args.seed, len(records), decks, failed))
    if not args.trace:
        print("each timed in %d passes, the best time counted" % passes)
        print("%-32s %.6g ratio" % ("fail_ratio", failed / len(records)))
    for name, m in metrics.items():
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": not any(r[2] == "wrong" for r in all_records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
