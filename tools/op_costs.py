"""Print where a benchmark workload spends its op time, by op kind.

Builds the corpus with perfbench/workloads.build(name, seed, workdir), times
every op three times in corpus order and keeps its fastest run.  An op that
returns a Verdict is counted under its kind and status, such as
"unit/unknown".  For each such kind it prints the count, the total seconds, the share of all op time and
the mean milliseconds, most expensive kind first, and then the kinds of the
ops at the p50 and the p90 of the per-op times (the percentiles the
benchmark reports, statistics.median and the ninth decile of
statistics.quantiles; an interpolated percentile names both neighbours).

    python3 tools/op_costs.py invariants_cli 1
    python3 tools/op_costs.py search 1 7

Run it from any directory; blockeq is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from blockeq import Verdict  # noqa: E402

RUNS = 3


def op_times(name, seed):
    """[(kind, seconds)] for every op of the corpus, the fastest of RUNS;
    the kind of an op that returns a Verdict carries its status."""
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for op in workloads.build(name, seed, workdir):
            best = math.inf
            result = None
            for _ in range(RUNS):
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        result = op.run()
                except Exception:  # an op that raises still took its time
                    pass
                best = min(best, time.perf_counter() - start)
            kind = op.kind
            if isinstance(result, Verdict):
                kind = f"{kind}/{result.status}"
            out.append((kind, best))
    return out


def holders(times, q):
    """Kinds of the ops at quantile q of the sorted times, where the
    exclusive method (statistics' default) interpolates at (n + 1) q - 1."""
    ranked = sorted(times, key=lambda kt: kt[1])
    pos = min(max((len(ranked) + 1) * q - 1, 0), len(ranked) - 1)
    picks = {math.floor(pos), math.ceil(pos)}
    return " / ".join(sorted({ranked[i][0] for i in picks}))


def report(name, seed):
    times = op_times(name, seed)
    total = sum(t for _, t in times)
    kinds = defaultdict(list)
    for kind, t in times:
        kinds[kind].append(t)
    lines = [f"{name} seed {seed}: {len(times)} ops, {total:.3f} s "
             f"(fastest of {RUNS} runs per op)",
             f"{'kind':<28}{'count':>7}{'total_s':>10}{'share':>8}{'mean_ms':>10}"]
    for kind, ts in sorted(kinds.items(), key=lambda kv: -sum(kv[1])):
        s = sum(ts)
        lines.append(f"{kind:<28}{len(ts):>7}{s:>10.3f}{s / total:>8.1%}"
                     f"{s / len(ts) * 1e3:>10.3f}")
    lines.append(f"p50 op: {holders(times, 0.5)}; p90 op: {holders(times, 0.9)}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        print(report(args.workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
