"""Seeded corpora for the benchmark workloads.

Each builder returns a list of Op: a zero-argument call into one public
blockeq entry point, with every input already built, plus the expected answer
the checker compares against.  Inputs depend only on the seed.  Expected
answers are known by construction (scrambles and conjugates are equivalent,
pairs with different |det| are not) or computed here without blockeq.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

from blockeq import (
    GL,
    SL,
    SIDE_UAV,
    SIDE_UAV_INV,
    BlockedMatrix,
    BlockShape,
    IntMatrix,
    Poset,
    SearchBudget,
    bowen_franks,
    cokernel,
    decide_blocked_equivalence,
    decide_flow_equivalence,
    decide_with_unit,
    determinant,
    invariant_profile,
    parry_sullivan,
)
from blockeq import cli
from blockeq.sft import SftMatrix, condense

import check as ck
from check import require

# Fixed budgets: the search workloads measure what each budget decides.
WITNESS_BUDGET = SearchBudget(max_depth=8, max_nodes=5_000)
UNIT_BUDGET = SearchBudget(max_depth=8, max_nodes=1_000)

DECIDED = "decided"
UNKNOWN = "unknown"


class Op:
    """One public call with prebuilt inputs and its expected answer."""

    __slots__ = ("kind", "run", "expect")

    def __init__(self, kind, run, expect):
        self.kind = kind
        self.run = run
        self.expect = expect


# ---------------------------------------------------------------------------
# Plain-data generators (lists of rows; blockeq objects built at the end)


def pair_subsets(size):
    """Every set of generating pairs i < j on size elements."""
    pairs = list(itertools.combinations(range(1, size + 1), 2))
    return [[p for k, p in enumerate(pairs) if mask >> k & 1]
            for mask in range(1 << len(pairs))]


def shape_cycle(max_poset=3, max_block=2):
    """Every shape with at most max_poset elements and blocks of at most
    max_block, in a fixed endless rotation: element counts alternate, and
    within a count every order and block-size tuple comes in turn.  The seed
    then only draws the entries, so that how many large shapes a corpus
    holds, which sets much of its cost, is the same for every seed."""
    per_size = [[(size, pairs, sizes) for pairs in pair_subsets(size)
                 for sizes in itertools.product(range(1, max_block + 1), repeat=size)]
                for size in range(1, max_poset + 1)]
    for k in itertools.count():
        for shapes in per_size:
            yield shapes[k % len(shapes)]


def corner_cycle():
    """The heavy corner of the witness-recovery class: orders on three
    elements with 2x2 blocks, in a fixed rotation weighted like generating
    pairs drawn with probability 0.7 (all three pairs 7 times in 20, each
    two 3 times, each one once, none once)."""
    subsets = pair_subsets(3)
    weight = {3: 7, 2: 3, 1: 1, 0: 1}
    rotation = [(3, pairs, (2, 2, 2)) for pairs in subsets for _ in range(weight[len(pairs)])]
    return itertools.cycle(rotation)


def rand_blocked_rows(rng, leq, sizes, lo, hi):
    """Random entries in every allowed block, drawn block by block."""
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    n = starts[-1]
    rows = [[0] * n for _ in range(n)]
    for i in range(1, len(sizes) + 1):
        for j in range(1, len(sizes) + 1):
            if (i, j) in leq:
                for r in range(starts[i - 1], starts[i]):
                    for c in range(starts[j - 1], starts[j]):
                        rows[r][c] = rng.randint(lo, hi)
    return rows


def generator_moves(leq, sizes, group):
    """Elementary generators of the square blocked group, in the order the
    engine uses: transvections (dst, src, +1 then -1) by block pair, then
    sign flips for GL."""
    n = sum(sizes)
    size = len(sizes)
    moves = []
    starts = [sum(sizes[:i]) for i in range(size + 1)]
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if (i, j) not in leq:
                continue
            for s in range(starts[i - 1], starts[i]):
                for t in range(starts[j - 1], starts[j]):
                    if s != t:
                        moves.append(("t", s, t, 1))
                        moves.append(("t", s, t, -1))
    if group == GL:
        moves.extend(("f", k, k, -1) for k in range(n))
    return moves


def row_op(m, move):
    """Left-multiply m by the generator."""
    kind, a, b, sign = move
    m = [list(r) for r in m]
    if kind == "t":
        m[a] = [x + sign * y for x, y in zip(m[a], m[b])]
    else:
        m[a] = [-x for x in m[a]]
    return m


def col_op(m, move):
    """Right-multiply m by the generator."""
    kind, a, b, sign = move
    m = [list(r) for r in m]
    for r in m:
        if kind == "t":
            r[b] += sign * r[a]
        else:
            r[a] = -r[a]
    return m


def scramble(rng, a, moves, k):
    """k random generators split between the sides: returns (W, B) with
    B = U*A*W for the left product U."""
    n = len(a)
    u, w = ck.identity(n), ck.identity(n)
    for _ in range(k):
        mv = moves[rng.randrange(len(moves))]
        if rng.random() < 0.5:
            u = row_op(u, mv)
        else:
            w = col_op(w, mv)
    return w, ck.matmul(ck.matmul(u, a), w)


def intmatrix(rows):
    n = len(rows)
    c = len(rows[0]) if n else 0
    return IntMatrix(n, c, [e for r in rows for e in r])


def blocked(poset, sizes, rows):
    return BlockedMatrix(BlockShape.square(poset, sizes), intmatrix(rows))


def rand_sft(rng, n, density, reducible):
    """Random nonnegative adjacency matrix that is (ir)reducible as asked."""
    while True:
        m = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        if ck.is_irreducible(m) != reducible:
            return m


def conjugate(rng, m):
    n = len(m)
    p = list(range(n))
    rng.shuffle(p)
    return [[m[p[r]][p[c]] for c in range(n)] for r in range(n)]


def i_minus(m):
    return [[(1 if i == j else 0) - e for j, e in enumerate(row)] for i, row in enumerate(m)]


# ---------------------------------------------------------------------------
# Checks of library outputs


def verdict_status(v):
    require(v.status in ("yes", "no", "unknown"), f"bad status {v.status!r}")
    return v.status


def settle(status, answer):
    """Map a verdict status to an outcome against the known answer."""
    if status == "unknown":
        return UNKNOWN
    require(status == answer, f"verdict {status} contradicts known answer {answer}")
    return DECIDED


def check_blocked(op, v):
    e = op.expect
    status = verdict_status(v)
    if status == "yes":
        require(v.witness is not None, "yes without a witness")
        u, w = (ck.from_intmatrix(m) for m in v.witness)
        ck.check_blocked_witness(u, w, e["a"], e["b"], e["leq"], e["sizes"], e["sizes"],
                                 e["group"], e["side"])
        if "x" in e:
            ck.check_unit_condition(w, e["b"], e["x"], e["y"])
    return settle(status, e["answer"])


def embed(rows, leq, sizes, target):
    """Corner embedding of a square blocked matrix into larger block sizes."""
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    tstarts = [sum(target[:i]) for i in range(len(target) + 1)]
    n = tstarts[-1]
    out = [[0] * n for _ in range(n)]
    k = len(sizes)
    for i in range(k):
        for extra in range(sizes[i], target[i]):
            out[tstarts[i] + extra][tstarts[i] + extra] = 1
        for j in range(k):
            if (i + 1, j + 1) not in leq:
                continue
            for a in range(sizes[i]):
                for b in range(sizes[j]):
                    out[tstarts[i] + a][tstarts[j] + b] = rows[starts[i] + a][starts[j] + b]
    return out


def check_condensation(c, adj):
    perm = list(c.permutation)
    require(sorted(perm) == list(range(len(adj))), "condensation is not a permutation")
    require(ck.from_intmatrix(c.blocked.matrix) == ck.submatrix(i_minus(adj), perm, perm),
            "condensed matrix is not a conjugate of I - A")


def check_flow_reducible(op, v):
    """A reducible flow-eq yes: some alignment of the two condensations,
    stabilized to common sizes, satisfies U*X1*V = X2 with U, V in SL."""
    e = op.expect
    status = verdict_status(v)
    if status == "yes":
        require(v.witness is not None, "reducible yes without a witness")
        u, w = (ck.from_intmatrix(m) for m in v.witness)
        c1, c2 = condense(SftMatrix(intmatrix(e["a"]))), condense(SftMatrix(intmatrix(e["b"])))
        check_condensation(c1, e["a"])
        check_condensation(c2, e["b"])
        leq = set(c1.poset.pairs)
        x2_rows = ck.from_intmatrix(c2.blocked.matrix)
        s2 = c2.sizes
        starts2 = [sum(s2[:i]) for i in range(len(s2) + 1)]
        found = False
        for sigma in c1.poset.order_isomorphisms(c2.poset):
            perm = [r for src in sigma for r in range(starts2[src - 1], starts2[src])]
            sizes2 = tuple(s2[src - 1] for src in sigma)
            if any((p == 1) != (q == 1) for p, q in zip(c1.sizes, sizes2)):
                continue
            target = tuple(1 if p == 1 else 2 + max(p, q) for p, q in zip(c1.sizes, sizes2))
            if sum(target) != len(u):
                continue
            x1 = embed(ck.from_intmatrix(c1.blocked.matrix), leq, c1.sizes, target)
            x2 = embed(ck.submatrix(x2_rows, perm, perm), leq, sizes2, target)
            if ck.matmul(ck.matmul(u, x1), w) == x2:
                ck.check_blocked_unit(u, leq, target, SL)
                ck.check_blocked_unit(w, leq, target, SL)
                found = True
                break
        require(found, "flow-eq witness matches no alignment")
    return settle(status, e["answer"])


def check_flow_irreducible(op, v):
    # Irreducible inputs get the complete Franks decision, which the library
    # returns without a witness matrix.
    return settle(verdict_status(v), op.expect["answer"])


def check_group(op, g):
    ck.check_cokernel(g.free_rank, g.torsion, op.expect["facts"])
    return DECIDED


def check_int(op, value):
    require(value == op.expect["value"], f"{value} != expected {op.expect['value']}")
    return DECIDED


def class_of(d):
    """Cokernel class of a 1x1 matrix [d]."""
    if d == 0:
        return (1, ())
    return (0, (abs(d),) if abs(d) >= 2 else ())


def check_profile(op, p):
    e = op.expect
    ck.check_cokernel(p.cokernel.free_rank, p.cokernel.torsion, e["whole"])
    diag = e["diag"]
    require([i for i, _, _ in p.diagonal_blocks] == list(range(1, len(diag) + 1)),
            "diagonal block list")
    for (i, dims, cls), d in zip(p.diagonal_blocks, diag):
        require(dims == (1, 1) and cls.iso_class() == class_of(d), f"diagonal block {i}")
    require([s for _, s in p.det_signs] == [(d > 0) - (d < 0) for d in diag], "det signs")
    got = {tuple(s): cls for s, cls in p.convex_cokernels}
    require(len(got) == len(p.convex_cokernels) and set(got) == set(e["convex"]),
            "convex subsets")
    for s, facts in e["convex"].items():
        ck.check_cokernel(got[s].free_rank, got[s].torsion, facts)
    return DECIDED


def check_refuted(op, v):
    status = verdict_status(v)
    if status == "no":
        require(v.certificate is not None, "no without a certificate")
    return settle(status, "no")


# ---------------------------------------------------------------------------
# CLI plumbing


def cli_call(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.execute(argv)
        return code, buf.getvalue()
    return run


def parse_matrix(doc):
    require(set(doc) == {"rows", "cols", "entries"}, "matrix keys")
    r, c = doc["rows"], doc["cols"]
    ent = [int(s) for s in doc["entries"]]
    require(len(ent) == r * c, "matrix entry count")
    return ck.rows_of(r, c, ent)


def matrix_doc(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "entries": [str(e) for r in rows for e in r]}


def cli_doc(out, statuses=False):
    code, text = out
    doc = json.loads(text)
    if statuses:
        require(code == {"yes": 0, "no": 1, "unknown": 2}.get(doc.get("status")),
                f"exit code {code} disagrees with status {doc.get('status')!r}")
    else:
        require(code == 0, f"exit code {code}")
    return doc


def check_cli_snf(op, out):
    doc = cli_doc(out)
    ck.check_smith(parse_matrix(doc["U"]), parse_matrix(doc["S"]), parse_matrix(doc["V"]),
                   op.expect["a"], op.expect["det"])
    return DECIDED


def check_cli_rep_iso(op, out):
    e = op.expect
    doc = cli_doc(out, statuses=True)
    status = doc["status"]
    if status == "yes":
        ck.check_rep_iso_witness(parse_matrix(doc["witness"]["U"]),
                                 parse_matrix(doc["witness"]["V"]),
                                 e["orders"], e["edges"], e["maps1"], e["maps2"])
    return settle(status, e["answer"])


def check_cli_kweb(op, out):
    """Structure of a K-web: one ker and one cok node per convex subset,
    cok presentations equal the convex submatrices, ker ranks equal their
    nullities, five arrows per splitting, and the cokernel inclusion and
    projection maps are the expected 0/1 matrices."""
    e = op.expect
    doc = cli_doc(out)
    labels = doc["labels"]
    pres = [parse_matrix(m) for m in doc["rep"]["vertex_presentations"]]
    maps = [parse_matrix(m) for m in doc["rep"]["edge_maps"]]
    edges = doc["quiver"]["edges"]
    require(sorted(labels) == sorted(e["nodes"]), "K-web nodes")
    require(doc["quiver"]["vertices"] == len(labels) == len(pres), "K-web vertex count")
    node = {lab: i for i, lab in enumerate(labels)}
    for lab, want in e["nodes"].items():
        got = pres[node[lab]]
        if lab.startswith("cok"):
            require(got == want, f"presentation of {lab}")
        else:
            require(len(got) == want and all(not r for r in got), f"kernel rank of {lab}")
    require(sorted(a["id"] for a in edges) == sorted(e["arrows"]), "K-web arrows")
    require(len(maps) == len(edges), "one map per arrow")
    for arrow, m in zip(edges, maps):
        src, dst, want = e["arrows"][arrow["id"]]
        require(labels[arrow["src"]] == src and labels[arrow["dst"]] == dst,
                f"endpoints of {arrow['id']}")
        require(len(m) == len(pres[arrow["dst"]]) and
                all(len(r) == len(pres[arrow["src"]]) for r in m), f"map size of {arrow['id']}")
        if want is not None:
            require(m == want, f"map of {arrow['id']}")
    return DECIDED


def kweb_expectation(size, leq, sizes, rows):
    starts = [sum(sizes[:i]) for i in range(size + 1)]

    def span(subset):
        return [r for i in subset for r in range(starts[i - 1], starts[i])]

    nodes = {}
    arrows = {}
    for s in ck.convex_subsets(size, leq):
        idx = span(s)
        sub = ck.submatrix(rows, idx, idx)
        nodes[f"cok{list(s)}"] = sub
        nodes[f"ker{list(s)}"] = len(idx) - ck.rank(sub)
    for s in ck.convex_subsets(size, leq):
        rows_s = span(s)
        for s1 in ck.downsets_within(s, leq):
            s1 = sorted(s1)
            s2 = [x for x in s if x not in s1]
            tag = f"S={list(s)}|S1={s1}"
            r1, r2 = span(s1), span(s2)
            inc = [[1 if r == q else 0 for q in r1] for r in rows_s]
            proj = [[1 if r == q else 0 for q in rows_s] for r in r2]
            arrows[f"ker-incl[{tag}]"] = (f"ker{s1}", f"ker{list(s)}", None)
            arrows[f"ker-proj[{tag}]"] = (f"ker{list(s)}", f"ker{s2}", None)
            arrows[f"delta[{tag}]"] = (f"ker{s2}", f"cok{s1}", None)
            arrows[f"cok-incl[{tag}]"] = (f"cok{s1}", f"cok{list(s)}", inc)
            arrows[f"cok-proj[{tag}]"] = (f"cok{list(s)}", f"cok{s2}", proj)
    return {"nodes": nodes, "arrows": arrows}


# ---------------------------------------------------------------------------
# Workload "search", part 1: witness recovery


def bench_search_case():
    """The fixed heavy instance that benchmarks/bench_kernels.py used to time:
    chain-3 poset, 2x2 blocks, six SL generators from Random(7)."""
    rng = random.Random(7)
    size, sizes = 3, (2, 2, 2)
    pairs = [(1, 2), (1, 3), (2, 3)]
    leq = ck.transitive_leq(size, pairs)
    moves = generator_moves(leq, sizes, SL)
    a = rand_blocked_rows(rng, leq, sizes, -2, 2)
    u, w = ck.identity(6), ck.identity(6)
    for _ in range(6):
        mv = moves[rng.randrange(len(moves))]
        if rng.random() < 0.5:
            u = row_op(u, mv)
        else:
            w = col_op(w, mv)
    b = ck.matmul(ck.matmul(u, a), w)
    return size, pairs, leq, sizes, a, b


def blocked_op(size, pairs, leq, sizes, a, b, group, side, budget):
    poset = Poset(size, pairs)
    ba, bb = blocked(poset, sizes, a), blocked(poset, sizes, b)
    return Op(f"blocked-{group}-{side}",
              lambda: decide_blocked_equivalence(ba, bb, group=group, side=side, budget=budget),
              {"a": a, "b": b, "leq": leq, "sizes": sizes, "group": group, "side": side,
               "answer": "yes", "check": check_blocked})


def flow_reducible_op(rng, n):
    adj = rand_sft(rng, n, 0.35, reducible=True)
    adj2 = conjugate(rng, adj)
    sa, sb = SftMatrix(intmatrix(adj)), SftMatrix(intmatrix(adj2))
    return Op("flow-eq-reducible",
              lambda: decide_flow_equivalence(sa, sb, WITNESS_BUDGET),
              {"a": adj, "b": adj2, "answer": "yes", "check": check_flow_reducible})


def witness_search(rng, count):
    """Blocked scrambles of 1..12 generators in a fixed rotation over group,
    side and shape class, every eighth op a reducible flow-eq conjugate pair,
    and the fixed heavy search case once per 96 ops."""
    ops = []
    bench = bench_search_case()
    shapes, corners = shape_cycle(), corner_cycle()
    for i in range(count):
        if i % 96 == 0:
            size, pairs, leq, sizes, a, b = bench
            ops.append(blocked_op(size, pairs, leq, sizes, a, b, SL, SIDE_UAV, WITNESS_BUDGET))
            continue
        if i % 8 == 7:
            ops.append(flow_reducible_op(rng, 3 + (i // 8) % 3))
            continue
        k = 1 + i % 12
        group = SL if (i // 12) % 2 == 0 else GL
        side = SIDE_UAV if (i // 24) % 2 == 0 else SIDE_UAV_INV
        while True:
            size, pairs, sizes = next(corners) if i % 4 == 0 else next(shapes)
            leq = ck.transitive_leq(size, pairs)
            moves = generator_moves(leq, sizes, group)
            if moves:
                break
        a = rand_blocked_rows(rng, leq, sizes, -2, 2)
        # B = U*A*W: for side uav-inv the witness is (U, W^-1).
        b = scramble(rng, a, moves, k)[1]
        ops.append(blocked_op(size, pairs, leq, sizes, a, b, group, side, WITNESS_BUDGET))
    return ops


# ---------------------------------------------------------------------------
# Workload "search", part 2: the unit-vector sweep


def pair_group_finite(leq, sizes):
    return all(s == 1 for s in sizes) and all(i == j for i, j in leq)


def unit_sweep(rng, count):
    """decide_with_unit on GL scrambles B = U*A*V^-1.  y = (V'^-1)^T x - B^T z
    for a known witness V', so the answer is yes.  In three ops of four
    V' = -V (paired with -U), which the search's first witness rarely
    satisfies, so the stabilizer coset sweep runs."""
    ops = []
    shapes, corners = shape_cycle(), corner_cycle()
    for i in range(count):
        while True:
            size, pairs, sizes = next(corners) if i % 2 == 0 else next(shapes)
            leq = ck.transitive_leq(size, pairs)
            if not pair_group_finite(leq, sizes):
                break
        moves = generator_moves(leq, sizes, GL)
        a = rand_blocked_rows(rng, leq, sizes, -2, 2)
        w, b = scramble(rng, a, moves, 2 + i % 4)
        n = len(a)
        x = [rng.randint(-3, 3) for _ in range(n)]
        z = [rng.randint(-2, 2) for _ in range(n)]
        # V = W^-1, so (V^-1)^T = W^T.
        sign = -1 if i % 4 != 3 else 1
        wt_x = [sign * sum(w[r][c] * x[r] for r in range(n)) for c in range(n)]
        bt_z = [sum(b[r][c] * z[r] for r in range(n)) for c in range(n)]
        y = [p - q for p, q in zip(wt_x, bt_z)]
        poset = Poset(size, pairs)
        ba, bb = blocked(poset, sizes, a), blocked(poset, sizes, b)
        xm, ym = IntMatrix.column(x), IntMatrix.column(y)
        ops.append(Op(
            "unit",
            lambda ba=ba, bb=bb, xm=xm, ym=ym: decide_with_unit(
                ba, bb, xm, ym, group=GL, budget=UNIT_BUDGET),
            {"a": a, "b": b, "leq": leq, "sizes": sizes, "group": GL,
             "side": SIDE_UAV_INV, "x": x, "y": y, "answer": "yes", "check": check_blocked},
        ))
    return ops


# ---------------------------------------------------------------------------
# Workload "invariants_cli", part 1: invariants, no search


def snf_panel(label, sizes, per_size):
    """A fixed panel of random square matrices with entries in [-9, 9].  It
    does not depend on the seed: the cost of one such matrix ranges over
    three orders of magnitude, so seeding it would make every run's time
    hinge on a few draws."""
    rng = random.Random(f"{label}-snf-panel")
    return [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for n in sizes for _ in range(per_size)]


def chain_profile_op(rng, n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    leq = ck.transitive_leq(n, pairs)
    rows = rand_blocked_rows(rng, leq, (1,) * n, -3, 3)
    b = blocked(Poset(n, pairs), (1,) * n, rows)
    convex = {}
    for s in ck.convex_subsets(n, leq):
        idx = [i - 1 for i in s]
        convex[s] = ck.cokernel_facts(ck.submatrix(rows, idx, idx))
    expect = {"whole": ck.cokernel_facts(rows), "diag": [rows[i][i] for i in range(n)],
              "convex": convex, "check": check_profile}
    return Op("profile", lambda: invariant_profile(b, SL), expect)


def refuted_op(rng, shape, group):
    """A blocked pair with different |det| (both nonzero): the whole-matrix
    cokernel orders differ, so the true answer is no."""
    size, pairs, sizes = shape
    leq = ck.transitive_leq(size, pairs)
    while True:
        a = rand_blocked_rows(rng, leq, sizes, -3, 3)
        b = rand_blocked_rows(rng, leq, sizes, -3, 3)
        da, db = abs(ck.det(a)), abs(ck.det(b))
        if da and db and da != db:
            break
    poset = Poset(size, pairs)
    ba, bb = blocked(poset, sizes, a), blocked(poset, sizes, b)
    return Op("refuted", lambda: decide_blocked_equivalence(ba, bb, group=group),
              {"check": check_refuted})


def flow_irreducible_op(rng, i):
    n = 2 + i % 5
    adj = rand_sft(rng, n, 0.5, reducible=False)
    if i % 2 == 0:
        adj2, answer = conjugate(rng, adj), "yes"
    else:
        ps = ck.det(i_minus(adj))
        while True:
            adj2 = rand_sft(rng, n, 0.5, reducible=False)
            if ck.det(i_minus(adj2)) != ps:
                break
        answer = "no"
    sa, sb = SftMatrix(intmatrix(adj)), SftMatrix(intmatrix(adj2))
    return Op("flow-eq-irreducible", lambda: decide_flow_equivalence(sa, sb),
              {"answer": answer, "check": check_flow_irreducible})


def sft_invariant_op(rng, which, n):
    adj = [[rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in range(n)]
           for _ in range(n)]
    m, sft = intmatrix(adj), SftMatrix(intmatrix(adj))
    if which == 0:
        return Op("cokernel", lambda: cokernel(m),
                  {"facts": ck.cokernel_facts(adj), "check": check_group})
    if which == 1:
        return Op("bowen-franks", lambda: bowen_franks(sft),
                  {"facts": ck.cokernel_facts(i_minus(adj)), "check": check_group})
    if which == 2:
        return Op("parry-sullivan", lambda: parry_sullivan(sft),
                  {"value": ck.det(i_minus(adj)), "check": check_int})
    return Op("determinant", lambda: determinant(m),
              {"value": ck.det(adj), "check": check_int})


def invariants(rng, count):
    """No search: SFT invariants, chain-poset invariant profiles, pairs
    refuted by an invariant, irreducible flow-eq, and the SNF panel."""
    panel = []
    for rows in snf_panel("invariants", (16, 20, 24, 28), 2):
        m = intmatrix(rows)
        panel.append(Op("cokernel-panel", lambda m=m: cokernel(m),
                        {"facts": ck.cokernel_facts(rows), "check": check_group}))
    # One op in twenty is a panel matrix, few enough that none of the
    # panel's eight repeated costs sits at the p90 latency.
    ops = []
    irreducible = 0
    shapes = shape_cycle()
    for i in range(count):
        slot = i % 20
        if slot in (0, 1, 2, 3, 10, 11, 12, 13):
            ops.append(sft_invariant_op(rng, slot % 10, 3 + (i // 10) % 6))
        elif slot in (4, 8, 14, 18):
            ops.append(chain_profile_op(rng, 4 + (i // 5) % 9))
        elif slot in (5, 9, 15, 19):
            ops.append(refuted_op(rng, next(shapes), SL if slot % 10 == 5 else GL))
        elif slot in (6, 16, 17):
            ops.append(flow_irreducible_op(rng, irreducible))
            irreducible += 1
        else:
            ops.append(panel[(i // 20) % len(panel)])
    return ops


# ---------------------------------------------------------------------------
# Workload "invariants_cli", part 2: the CLI

# Finite vertex groups of order <= 8 as diagonal presentations.
GROUPS = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
QUIVERS = [
    (1, [(0, 0)]),
    (1, [(0, 0), (0, 0)]),
    (2, [(0, 1)]),
    (2, [(0, 1), (1, 0)]),
    (2, [(0, 1), (1, 1)]),
]


def rand_hom(rng, src, dst):
    """Raw matrix of a random homomorphism between diagonal groups."""
    from math import gcd
    return [[(rng.randrange(di) * (di // gcd(dj, di))) % di for dj in src] for di in dst]


def rand_auto(rng, orders):
    """Diagonal automorphism x_i -> u_i x_i with u_i a unit mod d_i, and its
    inverse."""
    from math import gcd
    units = [rng.choice([u for u in range(1, d + 1) if gcd(u, d) == 1]) for d in orders]
    inv = [pow(u, -1, d) if d > 1 else 1 for u, d in zip(units, orders)]
    k = len(orders)
    diag = lambda v: [[v[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return diag(units), diag(inv)


def reduce_mod(m, orders):
    return [[e % d for e in row] for row, d in zip(m, orders)]


def rep_iso_op(rng, i, workdir):
    nv, edges = QUIVERS[i % len(QUIVERS)]
    orders = [GROUPS[rng.randrange(len(GROUPS))] for _ in range(nv)]
    maps1 = [rand_hom(rng, orders[s], orders[d]) for s, d in edges]
    autos = [rand_auto(rng, o) for o in orders]
    maps2 = [reduce_mod(ck.matmul(ck.matmul(autos[d][0], f), autos[s][1]), orders[d])
             for (s, d), f in zip(edges, maps1)]
    answer = "yes"
    if i % 2 == 1:
        # Replace one edge map by one whose image has a different size; an
        # isomorphism fixes every edge, so the pair is not isomorphic.
        k = rng.randrange(len(edges))
        s, d = edges[k]
        want = ck.image_size(maps1[k], orders[s], orders[d])
        for _ in range(200):
            g = rand_hom(rng, orders[s], orders[d])
            if ck.image_size(g, orders[s], orders[d]) != want:
                maps2[k], answer = g, "no"
                break
    quiver = {"vertices": nv,
              "edges": [{"id": f"e{k}", "src": s, "dst": d} for k, (s, d) in enumerate(edges)]}

    def rep(maps):
        return {"vertex_presentations": [matrix_doc([[d if r == c else 0 for c in range(len(o))]
                                                     for r, d in enumerate(o)]) for o in orders],
                "edge_maps": [matrix_doc(m) for m in maps]}

    paths = [write_json(workdir, f"rep{i}-{name}.json", doc)
             for name, doc in (("q", quiver), ("r1", rep(maps1)), ("r2", rep(maps2)))]
    return Op("cli-rep-iso", cli_call(["rep-iso", *paths]),
              {"orders": orders, "edges": edges, "maps1": maps1, "maps2": maps2,
               "answer": answer, "check": check_cli_rep_iso})


def diamond_pairs(n):
    return ([(1, n)] + [(1, i) for i in range(2, n)] + [(i, n) for i in range(2, n)])


# The five-element diamond, with 24 convex subsets the costliest web, comes
# twice per rotation.
KWEB_POSETS = [
    (3, [(1, 2), (2, 3)]),
    (4, [(1, 2), (2, 3), (3, 4)]),
    (4, diamond_pairs(4)),
    (5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    (5, diamond_pairs(5)),
    (5, diamond_pairs(5)),
]


def kweb_op(rng, i, workdir):
    size, pairs = KWEB_POSETS[i % len(KWEB_POSETS)]
    sizes = (2,) * size
    leq = ck.transitive_leq(size, pairs)
    rows = rand_blocked_rows(rng, leq, sizes, -3, 3)
    doc = {"shape": {"poset": {"n": size, "leq": [list(p) for p in pairs]},
                     "m": list(sizes), "n": list(sizes)},
           "matrix": matrix_doc(rows)}
    path = write_json(workdir, f"kweb{i}.json", doc)
    expect = kweb_expectation(size, leq, sizes, rows)
    expect["check"] = check_cli_kweb
    return Op("cli-kweb", cli_call(["kweb", path]), expect)


def write_json(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def kweb_cli(rng, count, workdir):
    """cli.execute in process: kweb on chain and diamond posets with 2x2
    blocks, rep-iso on finite-group quivers, and snf on a fixed panel of
    sizes 10-30 whose large members overflow the 4300-digit str() limit."""
    panel = []
    for k, rows in enumerate(snf_panel("kweb_cli", (10, 15, 20, 25, 30), 1)):
        path = write_json(workdir, f"snf{k}.json", matrix_doc(rows))
        panel.append(Op("cli-snf", cli_call(["snf", path]),
                        {"a": rows, "det": ck.det(rows), "check": check_cli_snf}))
    ops = []
    for i in range(count):
        slot = i % 12
        if slot in (0, 3, 6, 9):
            ops.append(kweb_op(rng, i // 3, workdir))
        elif slot == 11:
            ops.append(panel[(i // 12) % len(panel)])
        else:
            ops.append(rep_iso_op(rng, i, workdir))
    return ops


def interleave(a, b):
    """Merge two op lists evenly, keeping the order within each."""
    out = []
    i = j = 0
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and i * len(b) <= j * len(a)):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out


# name -> (parts as (builder, corpus size, needs a work directory), trace
# slice size).  Each part draws from its own seeded stream.
WORKLOADS = {
    "search": (((witness_search, 576, False), (unit_sweep, 432, False)), 384),
    "invariants_cli": (((invariants, 960, False), (kweb_cli, 180, True)), 300),
}


def build(name, seed, workdir):
    parts, _ = WORKLOADS[name]
    lists = []
    for builder, count, needs_dir in parts:
        rng = random.Random(f"{builder.__name__}:{seed}")
        lists.append(builder(rng, count, workdir) if needs_dir else builder(rng, count))
    return interleave(*lists)
