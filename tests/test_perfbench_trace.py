"""The benchmark's traced run against this source tree: every function the
per-layer tracer wraps must still exist under its name and be reached, so
that a rename or a bypass shows up here rather than as a malformed result
of `perfbench/run.py --trace 1`."""

import importlib.util
import json
import math
import time
from pathlib import Path

import blockeq.cli  # noqa: F401 - the tracer wraps names in every blockeq module
from blockeq import (
    SL,
    BlockShape,
    BlockedMatrix,
    IntMatrix,
    Poset,
    SearchBudget,
    decide_blocked_equivalence,
    decide_flow_equivalence,
    decide_with_unit,
)
from blockeq.poset_block import chain_poset
from blockeq.sft import SftMatrix

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_engine_paths():
    # A blocked search that builds children: B = G*A*H for two elementary
    # moves, so neither side meets the other at depth 0.
    shape = BlockShape.square(chain_poset(2), (2, 1))
    a = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1], [0, 0, 5]])
    g = IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    h = IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    search = decide_blocked_equivalence(
        BlockedMatrix(shape, a), BlockedMatrix(shape, g * a * h), group=SL,
        budget=SearchBudget(6, 20_000),
    )
    assert search.is_yes and search.report.nodes_expanded > 2
    # The identity satisfies the first condition only, so the stabilizer
    # sweep runs and finds V = [[1, 0], [1, 1]].
    single = BlockShape.square(Poset(1), (2,))
    b = BlockedMatrix(single, IntMatrix.from_rows([[2, 0], [0, 0]]))
    sweep = decide_with_unit(b, b, IntMatrix.column([1, 1]), IntMatrix.column([0, 1]),
                             group=SL, budget=SearchBudget(6, 50_000))
    assert sweep.is_yes and sweep.report.nodes_expanded > 2
    # A reducible pair: condensation, alignments and the blocked SL engine.
    reducible = SftMatrix.from_rows([[1, 1], [0, 2]])
    flow = decide_flow_equivalence(reducible, reducible)
    assert flow.is_yes


def test_traced_run_reports_every_per_layer_metric():
    tracing = load_tracing()
    t0 = time.perf_counter()
    run_engine_paths()
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracing.install_all(tracer)
    try:
        t0 = time.perf_counter()
        run_engine_paths()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    assert tracer.missing == set()
    metrics, absent = tracing.layer_metrics(tracer, traced_s, untraced_s)
    assert absent == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer"]]
    assert sorted(metrics) == sorted(names)
    json.dumps(metrics, allow_nan=False)
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, entry in metrics.items():
        value = entry["value"]
        assert entry["unit"] == units[name]
        assert math.isfinite(value) and value >= 0, name
        # trace.overhead_share is the quotient of the two wall times passed
        # in, traced over untraced, so it is not bounded by 1.
        if entry["unit"] == "ratio" and name != "trace.overhead_share":
            assert value <= 1, name
    assert metrics["equiv.children"]["value"] > 0
    assert metrics["kernels.calls"]["value"] > 0
    assert metrics["equiv.sweep.self_s"]["value"] > 0
    assert metrics["intmat.solve.busy_s"]["value"] > 0


def test_children_are_the_states_the_search_builds(monkeypatch):
    # equiv.children counts exactly the _apply_move calls of the expansion:
    # witness words are replayed through the entry-tuple kernels.
    import blockeq.equiv as equiv

    shape = BlockShape.square(chain_poset(3), (2, 1, 2))
    a = IntMatrix.from_rows([[2, 1, 0, 1, 0], [0, 3, 1, 0, 1], [0, 0, 5, 1, 1],
                             [0, 0, 0, 2, 1], [0, 0, 0, 1, 3]])
    g = IntMatrix.identity(5).to_rows()
    g[0][3] = g[2][4] = 1
    b = IntMatrix.from_rows(g) * a * IntMatrix.from_rows(g)

    def search():
        return decide_blocked_equivalence(BlockedMatrix(shape, a), BlockedMatrix(shape, b),
                                          group=SL, budget=SearchBudget(6, 20_000))

    expanding, built = [], []
    expand, apply_move = equiv._Engine._expand, equiv._apply_move

    def counted_expand(*args):
        expanding.append(True)
        try:
            return expand(*args)
        finally:
            expanding.pop()

    def counted_apply(*args):
        if expanding:
            built.append(args)
        return apply_move(*args)

    monkeypatch.setattr(equiv._Engine, "_expand", counted_expand)
    monkeypatch.setattr(equiv, "_apply_move", counted_apply)
    verdict = search()
    monkeypatch.undo()
    assert verdict.is_yes and verdict.witness[0] != IntMatrix.identity(5)

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install_all(tracer)
    try:
        search()
    finally:
        tracer.uninstall()
    metrics, _ = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["equiv.children"]["value"] == len(built) > 0
    assert metrics["equiv.nodes"]["value"] == verdict.report.nodes_expanded
    assert 0 < metrics["equiv.new_child_share"]["value"] <= 1
