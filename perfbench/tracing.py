"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed at every name binding through which blockeq (or the
benchmark's own modules) looks a function up, so a call is seen however it
is reached.  Each wrapped call is a span with its parent; a layer's self time
is its busy time minus the time its child spans cover.  Spans stay in memory
and are written out when the run ends.  Hot leaf calls (the entry-tuple
kernels) and pure counters are aggregated instead of recorded one by one.

A wrapped name that no longer exists marks its metrics absent; the traced
run never fails for it.  End-to-end runs never import this module.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

SPAN_CAP = 100_000
HARNESS_MODULES = ("workloads",)


def _bound_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "blockeq" or name.startswith("blockeq.")
                                  or name in HARNESS_MODULES)]


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [child_time, span_id, key]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans = []
        self.next_id = 1
        self.op_id = 0
        self.missing = set()
        self.installed = []  # (holder, attribute, original) to restore

    # -- wrapper factories -------------------------------------------------

    def _span(self, key, fn, on_result, record):
        stack, calls, busy = self.stack, self.calls, self.busy
        self_time, depth, spans = self.self_time, self.depth, self.spans

        def wrapped(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            frame = [0.0, sid, key]
            stack.append(frame)
            depth[key] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                depth[key] -= 1
                calls[key] += 1
                self_time[key] += d - frame[0]
                if not depth[key]:
                    busy[key] += d
                if stack:
                    stack[-1][0] += d
                if record and len(spans) < SPAN_CAP:
                    parent = stack[-1][1] if stack else 0
                    spans.append((sid, parent, self.op_id, key, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def _counter(self, key, fn, on_result, within):
        stack, counts = self.stack, self.counts

        def wrapped(*args, **kwargs):
            if within is None or (stack and stack[-1][2] == within):
                counts[key] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    # -- installation ------------------------------------------------------

    def install(self, key, module, name, owner=None, *, on_result=None, record=True,
                count_only=False, within=None):
        """Wrap module.name (or module.owner.name for a method) under `key`,
        or mark `key` missing when the name is gone."""
        mod = sys.modules.get(module)
        holder = getattr(mod, owner, None) if owner else mod
        orig = getattr(holder, name, None) if holder is not None else None
        if orig is None:
            self.missing.add(key)
            return
        if count_only:
            wrapped = self._counter(key, orig, on_result, within)
        else:
            wrapped = self._span(key, orig, on_result, record)
        holders = [holder] if owner else _bound_modules()
        for h in holders:
            for attr, value in list(vars(h).items()):
                if value is orig and (not owner or attr == name):
                    setattr(h, attr, wrapped)
                    self.installed.append((h, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self.installed):
            setattr(holder, attr, orig)
        self.installed.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, key, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": key,
                                     "start": t0, "end": t1}) + "\n")


def install_all(tracer):
    """Every layer boundary the per-layer metrics read."""
    t = tracer

    def on_search(result):
        report = result[1]
        t.counts["equiv.nodes"] += report.nodes_expanded
        t.counts["equiv.searches"] += 1
        t.maxima["equiv.depth_max"] = max(t.maxima["equiv.depth_max"], report.depth_reached)

    def on_snf(dec):
        bits = 0
        for m in (dec.U, dec.S, dec.V):
            if m.entries:
                bits = max(bits, max(m.entries).bit_length(), min(m.entries).bit_length())
        t.maxima["intmat.snf.max_bits"] = max(t.maxima["intmat.snf.max_bits"], bits)

    def on_rep_iso(verdict):
        if verdict.report is not None:
            t.counts["quiver.rep_iso.candidates"] += verdict.report.nodes_expanded

    def on_alignments(result):
        t.counts["sft.alignments"] += len(result)

    def on_dumps(text):
        t.counts["serialize.bytes_out"] += len(text.encode("utf-8"))

    t.install("equiv.search", "blockeq.equiv", "search", "_Engine", on_result=on_search)
    t.install("equiv.sweep", "blockeq.equiv", "stabilizer_sweep", "_Engine")
    t.install("equiv.children", "blockeq.equiv", "_apply_move", count_only=True,
              within="equiv.search")
    t.install("equiv.invariant_profile", "blockeq.equiv", "invariant_profile")
    for name in ("mat_mul", "row_add", "col_add", "row_negate", "col_negate"):
        t.install("kernels", "blockeq._kernels", name, record=False)
    t.install("intmat.snf", "blockeq.intmat", "smith_normal_form", on_result=on_snf)
    t.install("intmat.invert_unimodular", "blockeq.intmat", "invert_unimodular")
    t.install("intmat.solve", "blockeq.intmat", "solve_matrix")
    t.install("intmat.determinant", "blockeq.intmat", "determinant")
    t.install("intmat.matrices_built", "blockeq.intmat", "__init__", "IntMatrix",
              count_only=True)
    t.install("poset_block.convex_subsets", "blockeq.poset_block", "convex_subsets", "Poset")
    t.install("poset_block.group_membership", "blockeq.poset_block", "group_membership")
    t.install("sft.flow_eq", "blockeq.sft", "decide_flow_equivalence")
    t.install("sft.condense", "blockeq.sft", "condense")
    t.install("sft.alignments", "blockeq.sft", "_alignments", count_only=True,
              on_result=on_alignments)
    t.install("quiver.build_kweb", "blockeq.quiver", "build_kweb")
    t.install("quiver.rep_iso", "blockeq.quiver", "decide_rep_isomorphism",
              on_result=on_rep_iso)
    t.install("quiver.enumerate_isomorphisms", "blockeq.quiver", "enumerate_isomorphisms")
    for name in ("matrix_from_json", "blocked_from_json", "quiver_from_json", "rep_from_json"):
        t.install("serialize.load", "blockeq.serialize", name)
    t.install("serialize.dumps", "blockeq.serialize", "dumps", on_result=on_dumps)
    t.install("cli.execute", "blockeq.cli", "execute")


def layer_metrics(t, traced_s, untraced_s):
    """(metrics, absent): per-layer values, and names whose wrapped function
    no longer exists."""
    nodes = t.counts["equiv.nodes"]
    children = t.counts["equiv.children"]
    search_busy = t.busy["equiv.search"]
    new_children = nodes - 2 * t.counts["equiv.searches"]
    table = {
        # name: (unit, value, wrapped keys it needs)
        "equiv.search.self_s": ("s", t.self_time["equiv.search"], ["equiv.search"]),
        "equiv.nodes": ("count", nodes, ["equiv.search"]),
        "equiv.nodes_per_s": ("node/s", nodes / search_busy if search_busy else 0.0,
                              ["equiv.search"]),
        "equiv.depth_max": ("count", t.maxima["equiv.depth_max"], ["equiv.search"]),
        "equiv.children": ("count", children, ["equiv.children", "equiv.search"]),
        "equiv.new_child_share": ("ratio", new_children / children if children else 0.0,
                                  ["equiv.children", "equiv.search"]),
        "equiv.sweep.self_s": ("s", t.self_time["equiv.sweep"], ["equiv.sweep"]),
        "equiv.invariant_profile.busy_s": ("s", t.busy["equiv.invariant_profile"],
                                           ["equiv.invariant_profile"]),
        "kernels.calls": ("count", t.calls["kernels"], ["kernels"]),
        "kernels.busy_s": ("s", t.busy["kernels"], ["kernels"]),
        "intmat.invert_unimodular.calls": ("count", t.calls["intmat.invert_unimodular"],
                                           ["intmat.invert_unimodular"]),
        "intmat.invert_unimodular.busy_s": ("s", t.busy["intmat.invert_unimodular"],
                                            ["intmat.invert_unimodular"]),
        "intmat.matrices_built": ("count", t.counts["intmat.matrices_built"],
                                  ["intmat.matrices_built"]),
        "intmat.snf.calls": ("count", t.calls["intmat.snf"], ["intmat.snf"]),
        "intmat.snf.busy_s": ("s", t.busy["intmat.snf"], ["intmat.snf"]),
        "intmat.snf.max_bits": ("bit", t.maxima["intmat.snf.max_bits"], ["intmat.snf"]),
        "intmat.solve.busy_s": ("s", t.busy["intmat.solve"], ["intmat.solve"]),
        "intmat.determinant.busy_s": ("s", t.busy["intmat.determinant"],
                                      ["intmat.determinant"]),
        "poset_block.convex_subsets.calls": ("count", t.calls["poset_block.convex_subsets"],
                                             ["poset_block.convex_subsets"]),
        "poset_block.convex_subsets.busy_s": ("s", t.busy["poset_block.convex_subsets"],
                                              ["poset_block.convex_subsets"]),
        "poset_block.group_membership.busy_s": ("s", t.busy["poset_block.group_membership"],
                                                ["poset_block.group_membership"]),
        "sft.flow_eq.self_s": ("s", t.self_time["sft.flow_eq"], ["sft.flow_eq"]),
        "sft.condense.busy_s": ("s", t.busy["sft.condense"], ["sft.condense"]),
        "sft.alignments": ("count", t.counts["sft.alignments"], ["sft.alignments"]),
        "quiver.build_kweb.busy_s": ("s", t.busy["quiver.build_kweb"], ["quiver.build_kweb"]),
        "quiver.rep_iso.busy_s": ("s", t.busy["quiver.rep_iso"], ["quiver.rep_iso"]),
        "quiver.rep_iso.candidates": ("count", t.counts["quiver.rep_iso.candidates"],
                                      ["quiver.rep_iso"]),
        "quiver.enumerate_isomorphisms.busy_s": ("s", t.busy["quiver.enumerate_isomorphisms"],
                                                 ["quiver.enumerate_isomorphisms"]),
        "serialize.load.busy_s": ("s", t.busy["serialize.load"], ["serialize.load"]),
        "serialize.dumps.busy_s": ("s", t.busy["serialize.dumps"], ["serialize.dumps"]),
        "serialize.bytes_out": ("B", t.counts["serialize.bytes_out"], ["serialize.dumps"]),
        "cli.execute.self_s": ("s", t.self_time["cli.execute"], ["cli.execute"]),
        "trace.overhead_share": ("ratio", traced_s / untraced_s if untraced_s else 0.0, []),
    }
    metrics, absent = {}, []
    for name, (unit, value, keys) in table.items():
        if any(k in t.missing for k in keys):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
