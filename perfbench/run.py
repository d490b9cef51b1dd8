"""blockeq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; blockeq is imported from its src/.  With
--trace 0 the workload runs untraced in a fresh process and the end-to-end
metrics are printed; set-up is repeated in further fresh processes and its
median reported.  With --trace 1 a separate fresh process runs a fixed slice
of the workload untraced and then traced, and prints the per-layer metrics.
Every output is checked against an expected answer built before timing.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
The line before it records the kernel backend, Python version and nproc.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("search", "invariants_cli")
SETUP_SAMPLES = 7
DEADLINE_S = 170

UNITS = {
    "setup_s": "s",
    "op_mean_cal": "cal",
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
    "decided_share": "ratio",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def spawn(mode, args, timeout):
    """Run the worker in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f}s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "blockeq", "__init__.py")):
        print(f"perfbench: no blockeq source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    remaining = lambda: DEADLINE_S - (time.monotonic() - start)
    try:
        if args.trace:
            res = spawn("trace", args, remaining())
            metrics = res["metrics"]
            if res["absent"]:
                print(f"perfbench: absent layer metrics: {', '.join(res['absent'])}",
                      file=sys.stderr)
            wrong = res["wrong"]
        else:
            setups = [spawn("setup", args, remaining() / 2)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = spawn("run", args, remaining())
            setups.append(res["setup_s"])
            res["setup_s"] = statistics.median(setups)
            metrics = {name: {"value": res[name], "unit": unit} for name, unit in UNITS.items()}
            wrong = res["wrong"] + res["selfcheck_missed"]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for msg in res["errors"]:
        print(f"perfbench: {args.workload}: {msg}", file=sys.stderr)
    print(json.dumps({"env": res["env"]}))
    print(json.dumps({"correct": wrong == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
