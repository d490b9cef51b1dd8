"""Run one benchmark workload in a fresh, single-threaded process.

Started by run.py, which passes the moment it spawned this process so that
set-up time counts interpreter start-up too.  Modes:

  setup  build the corpus and expected answers, report the set-up time;
  run    one caller in a closed loop over the corpus for --seconds, then
         check every output;
  trace  a fixed slice of the corpus untraced, then the same slice with the
         layer wrappers installed; report the per-layer metrics.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

perf = time.perf_counter
# Back-to-back executions per visit of an op in timed runs: up to eight,
# while they have taken under 4 ms.
REPEAT = (8, 0.004)
# Each execution is measured against the calibration units of the visits
# within this distance of its own.
CAL_WIDTH = 5


def emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


CAL_MATRIX = [[(7 * i + 3 * j * j + 2) % 11 - 5 for j in range(8)] for i in range(8)]


def calibration():
    """A fixed piece of pure-Python work, independent of blockeq and of the
    same two kinds as the package's: (1) look up stored 24-entry tuples in a
    10,000-entry dict (a few MB, so the work reaches past the CPU's private
    caches) and build and look up rotated copies, like the engine's visited
    set; (2) multiply two 8x8 integer matrices and run a fraction-free
    (Bareiss) elimination on the product, like intmat.  Its time says how
    fast the machine runs such code at the moment.  Returns the
    zero-argument unit; the table is built here, outside set-up and
    timing."""
    rng = random.Random(5)
    keys = [tuple(rng.randrange(-9, 10) for _ in range(24)) for _ in range(10_000)]
    table = {k: i for i, k in enumerate(keys)}
    offset = [0]

    def unit():
        o = offset[0] = (offset[0] + 4099) % len(keys)
        hits = 0
        for k in range(100):
            t = keys[(o + k * 7919) % len(keys)]
            hits += table.get(t, 0) > 0
            hits += (t[1:] + t[:1]) in table
        a = CAL_MATRIX
        n = len(a)
        m = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        prev = 1
        for k in range(n - 1):
            pivot = m[k][k] or 1
            for i in range(k + 1, n):
                mi, mk, f = m[i], m[k], m[i][k]
                m[i] = [mi[j] if j <= k else (mi[j] * pivot - f * mk[j]) // prev
                        for j in range(n)]
            prev = pivot
        return hits + m[-1][-1]

    return unit


def run_ops(ops, stop, calibrate=None, repeat=(1, 0.0)):
    """Closed loop over ops (wrapping around) until stop(visits, elapsed).

    Each visit runs the op back to back until it has run repeat[0] times or
    spent repeat[1] seconds, so cheap ops collect more samples.  With
    calibrate, that unit is timed once before every visit, outside the op's
    own time.  Returns, for each op, its executions as (visit, seconds); the
    first output of each op; whether each later execution matched it; the
    calibration time of each visit; and the loop's wall time."""
    lat = [[] for _ in ops]
    firsts, repeats, cal = [], [], []
    n = len(ops)
    max_reps, visit_s = repeat
    start = perf()
    i = 0
    while True:
        idx = i % n
        if calibrate:
            c0 = perf()
            calibrate()
            cal.append(perf() - c0)
        reps, spent = 0, 0.0
        while reps < max_reps and (reps == 0 or spent < visit_s):
            t0 = perf()
            try:
                out, err = ops[idx].run(), None
            except Exception as exc:  # one failing op must not end the run
                out, err = None, f"{type(exc).__name__}: {str(exc)[:160]}"
            t1 = perf()
            lat[idx].append((i, t1 - t0))
            reps += 1
            spent += t1 - t0
            if i < n and reps == 1:
                firsts.append((out, err))
            else:
                f_out, f_err = firsts[idx]
                repeats.append((idx, (err is None) == (f_err is None) and out == f_out))
        i += 1
        if stop(i, t1 - start):
            return lat, firsts, repeats, cal, perf() - start


def local_fastest(cal, width):
    """For each visit, the fastest calibration unit among the 2*width+1
    visits around it (the window is shifted inward at either end)."""
    span = min(2 * width + 1, len(cal))
    out = []
    for g in range(len(cal)):
        lo = min(max(0, g - width), len(cal) - span)
        out.append(min(cal[lo:lo + span]))
    return out


def outcome(op, out, err):
    """(outcome, message): raised / wrong / decided / unknown."""
    if err is not None:
        return "raised", f"{op.kind}: {err}"
    try:
        return op.expect["check"](op, out), None
    except Exception as exc:  # a malformed output fails its check
        return "wrong", f"{op.kind}: {type(exc).__name__}: {exc}"


def tally(ops, firsts, repeats):
    """Outcome of each distinct op: its first output is checked, and a repeat
    whose output differs from the first makes the op wrong."""
    messages = []
    per_op = []
    for op, (out, err) in zip(ops, firsts):
        kind, msg = outcome(op, out, err)
        per_op.append(kind)
        if msg and len(messages) < 5:
            messages.append(msg)
    for idx, same in repeats:
        if not same and per_op[idx] != "wrong":
            per_op[idx] = "wrong"
            if len(messages) < 5:
                messages.append(f"{ops[idx].kind}: repeat differs from first output")
    counts = {"raised": 0, "wrong": 0, "decided": 0, "unknown": 0}
    for kind in per_op:
        counts[kind] += 1
    return counts, per_op, messages


def corrupt(out):
    """A wrong copy of a decided output, for the checker's self-test."""
    from blockeq import IntMatrix

    if isinstance(out, tuple):  # CLI (exit code, stdout)
        code, text = out
        doc = json.loads(text)
        if "status" in doc:
            doc["status"] = "no" if doc["status"] == "yes" else "yes"
        elif "S" in doc:
            ent = doc["S"]["entries"]
            ent[0] = str(int(ent[0]) + 1)
        else:
            doc["labels"] = doc["labels"][1:]
        return code, json.dumps(doc)
    if isinstance(out, int):
        return out + 1
    if hasattr(out, "status"):
        if out.witness is not None:
            u, v = out.witness
            return dataclasses.replace(
                out, witness=(IntMatrix(u.rows, u.cols, [2 * e for e in u.entries]), v))
        return dataclasses.replace(out, status="no" if out.status == "yes" else "yes")
    if hasattr(out, "free_rank"):
        return dataclasses.replace(out, free_rank=out.free_rank + 1)
    return dataclasses.replace(
        out, cokernel=dataclasses.replace(out.cokernel, free_rank=out.cokernel.free_rank + 1))


def self_check(ops, firsts, per_op):
    """Corrupt one decided output of every op kind; each must count as a
    failure.  Returns the number of kinds whose corruption went unnoticed."""
    seen, missed = set(), 0
    for op, (out, _), kind in zip(ops, firsts, per_op):
        if kind != "decided" or op.kind in seen:
            continue
        seen.add(op.kind)
        counts, _, _ = tally([op], [(corrupt(out), None)], [])
        if counts["wrong"] != 1:
            missed += 1
            print(f"self-check: corrupted {op.kind} output passed the checker",
                  file=sys.stderr)
    return missed


def environment():
    import blockeq

    return {"kernel_backend": blockeq.KERNEL_BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def timed_run(ops, seconds, setup_s):
    """End-to-end metrics.  The loop makes several passes over the corpus;
    the first pass always completes.  Each execution of an op is divided by
    the fastest calibration unit timed within CAL_WIDTH visits of it, and
    the op's cost is the smallest such ratio, in units of "cal".  On a
    shared machine the speed of Python code swings by tens of percent, and
    the swings change within fractions of a second: the local calibration
    cancels what slows the op and the unit alike, and the smallest ratio
    drops executions that a burst hit harder than the units around them.
    The same figures in raw wall time go to the environment line."""
    lat, firsts, repeats, cal, wall = run_ops(
        ops, lambda i, elapsed: i >= len(ops) and elapsed >= seconds,
        calibrate=calibration(), repeat=REPEAT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts, per_op, messages = tally(ops, firsts, repeats)
    attempted = len(ops)
    failed = counts["raised"] + counts["wrong"]
    near = local_fastest(cal, CAL_WIDTH)
    cost = [min(t / near[g] for g, t in runs) for runs in lat]
    raw_ms = [min(t for _, t in runs) * 1e3 for runs in lat]
    return {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "wrong": counts["wrong"],
        "selfcheck_missed": self_check(ops, firsts, per_op),
        "errors": messages,
        "op_mean_cal": statistics.fmean(cost),
        "op_p50_cal": statistics.median(cost),
        "op_p90_cal": statistics.quantiles(cost, n=10)[8],
        "decided_share": counts["decided"] / attempted,
        "ok_share": 1 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "env": dict(environment(), corpus=attempted, passes=len(cal) / attempted,
                    executions=sum(len(x) for x in lat), wall_s=wall,
                    cal_us=statistics.median(cal) * 1e6,
                    ops_per_s=len(raw_ms) / (sum(raw_ms) / 1e3),
                    op_p50_ms=statistics.median(raw_ms),
                    op_p90_ms=statistics.quantiles(raw_ms, n=10)[8]),
    }


def traced_run(ops, slice_size, name, seed):
    import tracing
    import workloads

    part = ops[:slice_size]
    stop = lambda i, elapsed: i >= len(part)
    _, plain_firsts, _, _, before_wall = run_ops(part, stop)
    tracer = tracing.Tracer()
    tracing.install_all(tracer)
    wrapped = []
    for k, op in enumerate(part):
        def run(op=op, k=k):
            tracer.op_id = k
            return op.run()
        wrapped.append(workloads.Op(op.kind, run, op.expect))
    _, firsts, _, _, traced_wall = run_ops(wrapped, stop)
    tracer.uninstall()
    # Untraced runs on both sides of the traced one cancel slow drift.
    after_wall = run_ops(part, stop)[4]
    metrics, absent = tracing.layer_metrics(tracer, traced_wall,
                                            (before_wall + after_wall) / 2)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl"))
    counts, _, messages = tally(part, firsts, [])
    plain_counts, _, plain_messages = tally(part, plain_firsts, [])
    return {
        "attempted": len(part),
        "failed": counts["raised"] + counts["wrong"],
        "wrong": counts["wrong"] + plain_counts["wrong"],
        "errors": messages + plain_messages,
        "metrics": metrics,
        "absent": absent,
        "env": environment(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    import blockeq

    if not os.path.abspath(blockeq.__file__).startswith(SRC + os.sep):
        print(f"blockeq imported from {blockeq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.spawned
        if args.mode == "setup":
            emit({"setup_s": setup_s})
        elif args.mode == "run":
            emit(timed_run(ops, args.seconds, setup_s))
        else:
            slice_size = workloads.WORKLOADS[args.workload][1]
            emit(traced_run(ops, slice_size, args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
