"""Print one sha256 over every output of a benchmark workload at a seed.

Builds the corpus with perfbench/workloads.build(name, seed, workdir), runs
each op once in corpus order, and hashes each op's kind together with the
repr of its result: for a CLI op that is its exit code and stdout, and an op
that raises contributes its exception.  Two checkouts that print the same
digest for a workload and seed gave the same outputs on it.  Below the total
line, one indented line per op kind gives the same sha256 over that kind's
ops alone, so two checkouts whose totals differ show which kinds differ.

    python3 tools/output_digest.py search 1 5
    python3 tools/output_digest.py invariants_cli 5

Run it from any directory; blockeq is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402


def digest(name, seed):
    """(sha256 hex digest, number of ops, {kind: (hex digest, number of
    ops)}) for one workload and seed."""
    h = hashlib.sha256()
    kinds = {}
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build(name, seed, workdir)
        for op in ops:
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    out = op.run()
            except Exception as exc:  # an op that raises is an output too
                out = exc
            line = f"{op.kind}\0{out!r}\n".encode()
            h.update(line)
            kind = kinds.setdefault(op.kind, [hashlib.sha256(), 0])
            kind[0].update(line)
            kind[1] += 1
    per_kind = {k: (kh.hexdigest(), c) for k, (kh, c) in sorted(kinds.items())}
    return h.hexdigest(), len(ops), per_kind


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        hexdigest, n, per_kind = digest(args.workload, seed)
        print(f"{args.workload} seed {seed}: {hexdigest} ({n} ops)")
        for kind, (kind_hex, count) in per_kind.items():
            print(f"  {kind}: {kind_hex} ({count} ops)")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
