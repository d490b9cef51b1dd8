"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact;
wall-clock limits are part of the criteria and asserted.
"""

import random
import time
from itertools import combinations_with_replacement, product

import pytest

from blockeq import (
    SL,
    BlockShape,
    BlockedMatrix,
    FlowInvariant,
    IntMatrix,
    Poset,
    Quiver,
    SearchBudget,
    SftMatrix,
    ZRep,
    bowen_franks,
    build_kweb,
    cokernel,
    decide_blocked_equivalence,
    decide_flow_equivalence,
    decide_kweb_isomorphism,
    decide_rep_isomorphism,
    determinant,
    iota_embed,
    parry_sullivan,
    smith_normal_form,
    stabilization_target,
)
from blockeq.quiver import PresentedGroup, hom_inverse, raw_hom

from helpers import (
    rand_blocked,
    rand_matrix,
    rand_square_shape,
    residue_class_count,
    rep_iso_oracle,
    scramble,
)


class _Criterion:
    def __init__(self, number, label, limit):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{status}] {self.label}: {elapsed:.2f}s "
              f"(limit {self.limit}s)")
        if exc_type is None:
            assert elapsed <= self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s limit "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_snf_suite():
    with _Criterion(1, "SNF on 500 random matrices up to 6x6", 10):
        rng = random.Random(101)
        for _ in range(500):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = rand_matrix(rng, rows, cols, -9, 9)
            dec = smith_normal_form(a)
            assert dec.U * a * dec.V == dec.S
            assert determinant(dec.U) in (1, -1)
            assert determinant(dec.V) in (1, -1)
            diag = dec.diagonal()
            assert all(d >= 0 for d in diag)
            for x, y in zip(diag, diag[1:]):
                assert y % x == 0 if x else y == 0


def test_criterion_02_cokernel_oracle():
    with _Criterion(2, "cokernel order vs residue-class count, 100 x 3x3", 30):
        rng = random.Random(102)
        done = 0
        while done < 100:
            a = rand_matrix(rng, 3, 3, -5, 5)
            d = determinant(a)
            if d == 0 or abs(d) > 50:
                continue
            done += 1
            g = cokernel(a)
            order = 1
            for t in g.torsion:
                order *= t
            assert g.free_rank == 0
            assert residue_class_count(a) == order
            assert order == abs(d)


def test_criterion_03_franks_decisions():
    with _Criterion(3, "Franks decision on the classical pairs", 1):
        full2 = SftMatrix.from_rows([[2]])
        fib = SftMatrix.from_rows([[1, 1], [1, 0]])
        full3 = SftMatrix.from_rows([[3]])
        assert decide_flow_equivalence(full2, fib).is_yes
        assert decide_flow_equivalence(full2, full3).is_no
        assert FlowInvariant.of(full2) == FlowInvariant.of(fib)
        assert parry_sullivan(full2) == -1 and parry_sullivan(fib) == -1
        assert parry_sullivan(full3) == -2
        assert bowen_franks(full2).is_trivial and bowen_franks(fib).is_trivial


def test_criterion_04_witness_recovery():
    with _Criterion(4, "witness recovery on 100 scrambled instances", 300):
        rng = random.Random(104)
        for i in range(100):
            if i % 4 == 0:
                # Keep the heaviest corner of the class in the mix.
                poset = Poset(3, [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                                 if a < b and rng.random() < 0.7])
                shape = BlockShape.square(poset, (2, 2, 2))
            else:
                shape = rand_square_shape(rng, max_poset=3, max_block=2)
            a = rand_blocked(rng, shape, -2, 2)
            u, v, b = scramble(rng, a, SL, 6)
            verdict = decide_blocked_equivalence(a, b, group=SL)
            assert verdict.is_yes, f"instance {i} not recovered"
            wu, wv = verdict.witness
            assert wu * a.matrix * wv == b.matrix


def test_criterion_07_kweb_exactness():
    with _Criterion(7, "K-web six-term exactness on 100 random webs", 120):
        rng = random.Random(107)
        for _ in range(100):
            shape = rand_square_shape(rng, max_poset=3, max_block=2)
            b = rand_blocked(rng, shape, -3, 3)
            build_kweb(b)  # exactness is asserted node by node inside


def test_criterion_08_kweb_necessity():
    with _Criterion(8, "K-web isomorphism never refutes equivalent pairs", 120):
        rng = random.Random(108)
        for _ in range(50):
            shape = rand_square_shape(rng, max_poset=3, max_block=2)
            b = rand_blocked(rng, shape, -3, 3)
            _, _, moved = scramble(rng, b, SL, 4)
            verdict = decide_kweb_isomorphism(
                build_kweb(b), build_kweb(moved), SearchBudget(2, 1_000)
            )
            assert not verdict.is_no


def _quiver_shapes():
    shapes = []
    for nv in (1, 2):
        arrows = [(s, d) for s in range(nv) for d in range(nv)]
        for ne in (0, 1, 2):
            for combo in combinations_with_replacement(arrows, ne):
                edges = [(f"e{i}", s, d) for i, (s, d) in enumerate(combo)]
                shapes.append(Quiver(nv, edges))
    return shapes


_SMALL_GROUPS = {
    "1": IntMatrix.from_rows([[1]]),
    "Z2": IntMatrix.from_rows([[2]]),
    "Z3": IntMatrix.from_rows([[3]]),
    "Z4": IntMatrix.from_rows([[4]]),
    "Z2xZ2": IntMatrix.diagonal([2, 2]),
}

_ORDER8_GROUPS = {
    "Z8": IntMatrix.from_rows([[8]]),
    "Z2xZ4": IntMatrix.diagonal([2, 4]),
    "Z2xZ2xZ2": IntMatrix.diagonal([2, 2, 2]),
    "Z5": IntMatrix.from_rows([[5]]),
    "Z6": IntMatrix.from_rows([[6]]),
    "Z7": IntMatrix.from_rows([[7]]),
}


def _all_homs(src: PresentedGroup, dst: PresentedGroup):
    """Raw matrices of every homomorphism src -> dst (finite groups)."""
    out = []
    col_choices = []
    for j in range(src.normal_gens):
        dj = src.orders[j]
        cols = []
        for img in product(*(range(d) for d in dst.orders)):
            if all((dj * e) % d == 0 for e, d in zip(img, dst.orders)):
                cols.append(img)
        col_choices.append(cols)
    for pick in product(*col_choices):
        normal = IntMatrix(
            dst.normal_gens,
            src.normal_gens,
            [pick[j][i] for i in range(dst.normal_gens) for j in range(src.normal_gens)],
        )
        out.append(raw_hom(normal, src, dst))
    return out


def _transport(rep, quiver, rng):
    """An isomorphic twin: conjugate every edge map by random vertex
    automorphisms."""
    from blockeq.quiver import enumerate_isomorphisms

    autos = []
    for g in rep.groups:
        isos = enumerate_isomorphisms(g, g)
        autos.append(isos[rng.randrange(len(isos))])
    maps = []
    for idx, e in enumerate(quiver.edges):
        fn = rep.normal_edge_maps[idx]
        inv = hom_inverse(autos[e.src], rep.groups[e.src], rep.groups[e.src])
        moved = autos[e.dst] * fn * inv
        maps.append(raw_hom(moved, rep.groups[e.src], rep.groups[e.dst]))
    return ZRep(quiver, [g.relations for g in rep.groups], maps)


def test_criterion_09_quiver_oracle_agreement():
    with _Criterion(9, "engine vs brute-force oracle on small quiver reps", 300):
        rng = random.Random(109)
        shapes = _quiver_shapes()
        assert len(shapes) == 18
        compared = 0
        for quiver in shapes:
            names = sorted(_SMALL_GROUPS)
            assignments = list(product(names, repeat=quiver.vertices))
            for assign in assignments:
                pres = [_SMALL_GROUPS[k] for k in assign]
                groups = [PresentedGroup(p.rows, p) for p in pres]
                per_edge = [
                    _all_homs(groups[e.src], groups[e.dst]) for e in quiver.edges
                ]
                total = 1
                for homs in per_edge:
                    total *= len(homs)
                if total <= 24:
                    reps_maps = list(product(*per_edge))
                else:
                    reps_maps = [
                        tuple(homs[rng.randrange(len(homs))] for homs in per_edge)
                        for _ in range(8)
                    ]
                reps = [ZRep(quiver, pres, list(maps)) for maps in reps_maps]
                pairs = []
                if reps:
                    pairs.append((reps[0], reps[0]))
                    pairs.append((reps[0], _transport(reps[0], quiver, rng)))
                    if len(reps) > 1:
                        pairs.append((reps[0], reps[-1]))
                        mid = reps[len(reps) // 2]
                        pairs.append((mid, _transport(mid, quiver, rng)))
                        pairs.append((mid, reps[-1]))
                for r1, r2 in pairs:
                    verdict = decide_rep_isomorphism(r1, r2, quiver)
                    assert verdict.status in ("yes", "no")
                    assert verdict.is_yes == rep_iso_oracle(r1, r2, quiver)
                    compared += 1
        # Spot-check the order-8 and remaining order <= 8 classes on the
        # single-edge shapes.
        for name, pres in _ORDER8_GROUPS.items():
            quiver = Quiver(1, [("e", 0, 0)])
            g = PresentedGroup(pres.rows, pres)
            homs = _all_homs(g, g)
            picks = [homs[0], homs[len(homs) // 2], homs[-1]]
            for f1 in picks:
                r1 = ZRep(quiver, [pres], [f1])
                r2 = _transport(r1, quiver, rng)
                verdict = decide_rep_isomorphism(r1, r2, quiver)
                assert verdict.is_yes == rep_iso_oracle(r1, r2, quiver)
                compared += 1
                f2 = picks[(picks.index(f1) + 1) % len(picks)]
                r3 = ZRep(quiver, [pres], [f2])
                verdict = decide_rep_isomorphism(r1, r3, quiver)
                assert verdict.is_yes == rep_iso_oracle(r1, r3, quiver)
                compared += 1
        print(f"  [criterion 9 compared {compared} instances]")
        assert compared >= 400


def test_criterion_10_iota_stabilization():
    with _Criterion(10, "corner embedding and stabilization targets", 1):
        single = BlockShape.square(Poset(1), (1,))
        m = BlockedMatrix(single, IntMatrix.from_rows([[5]]))
        assert iota_embed(m, (2,)).matrix == IntMatrix.from_rows([[5, 0], [0, 1]])
        chain = BlockShape.square(Poset(2, [(1, 2)]), (1, 1))
        mm = BlockedMatrix(chain, IntMatrix.from_rows([[2, 1], [0, 3]]))
        assert iota_embed(mm, (2, 1)).matrix == IntMatrix.from_rows(
            [[2, 0, 1], [0, 1, 0], [0, 0, 3]]
        )
        assert iota_embed(mm, (1, 1)) == mm
        assert stabilization_target((2, 3), (4, 2)) == (6, 5)
        assert stabilization_target((1, 1), (1, 1)) == (1, 1)
        assert stabilization_target((1, 4), (1, 2)) == (1, 6)
        with pytest.raises(ValueError):
            stabilization_target((1, 2), (2, 2))


def test_criterion_11_cli_conformance(tmp_path, capsys):
    with _Criterion(11, "CLI golden corpus: round-trips and exit codes", 10):
        import json

        from blockeq import serialize
        from blockeq.cli import execute

        def write(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        fib = write("fib.json", {"rows": 2, "cols": 2, "entries": ["1", "1", "1", "0"]})
        full2 = write("full2.json", {"rows": 1, "cols": 1, "entries": ["2"]})
        full3 = write("full3.json", {"rows": 1, "cols": 1, "entries": ["3"]})
        single = {"poset": {"n": 1, "leq": []}, "m": [1], "n": [1]}
        b2 = write("b2.json", {"shape": single, "matrix": {"rows": 1, "cols": 1, "entries": ["2"]}})
        b3 = write("b3.json", {"shape": single, "matrix": {"rows": 1, "cols": 1, "entries": ["3"]}})
        x = write("x.json", {"rows": 1, "cols": 1, "entries": ["1"]})
        y = write("y.json", {"rows": 1, "cols": 1, "entries": ["3"]})
        chain = {"poset": {"n": 2, "leq": [[1, 2]]}, "m": [1, 1], "n": [1, 1]}
        web = write(
            "web.json",
            {"shape": chain, "matrix": {"rows": 2, "cols": 2, "entries": ["2", "1", "0", "3"]}},
        )
        quiver = write("quiver.json", {"vertices": 1, "edges": []})
        rep2 = write(
            "rep2.json",
            {"vertex_presentations": [{"rows": 1, "cols": 1, "entries": ["2"]}],
             "edge_maps": []},
        )

        golden = [
            (["snf", fib], 0),
            (["cokernel", full2], 0),
            (["bf", full3], 0),
            (["ps", fib], 0),
            (["flow-eq", full2, fib], 0),
            (["flow-eq", full2, full3], 1),
            (["blocked-eq", b2, b2], 0),
            (["blocked-eq", b2, b3, "--group", "sl", "--max-depth", "1"], 1),
            (["blocked-eq", web, web, "--group", "unit"], 0),
            (["unit-eq", b2, b2, x, y, "--group", "gl"], 0),
            (["kweb", web], 0),
            (["rep-iso", quiver, rep2, rep2], 0),
            (["validate", web], 0),
        ]
        for argv, expected in golden:
            code = execute(argv)
            out = capsys.readouterr().out
            doc = json.loads(out)
            assert serialize.dumps(doc) == out, f"non-canonical output for {argv}"
            assert code == expected, f"{argv}: exit {code} != {expected}"
            if "status" in doc:
                assert code == {"yes": 0, "no": 1, "unknown": 2}[doc["status"]]
        # An unknown verdict maps to exit code 2.
        two = {"poset": {"n": 1, "leq": []}, "m": [2], "n": [2]}
        ua = write("ua.json", {"shape": two, "matrix": {"rows": 2, "cols": 2, "entries": ["2", "1", "1", "1"]}})
        ub = write("ub.json", {"shape": two, "matrix": {"rows": 2, "cols": 2, "entries": ["1", "1", "1", "2"]}})
        code = execute(["blocked-eq", ua, ub, "--max-depth", "1", "--max-nodes", "5"])
        out = capsys.readouterr().out
        assert code == 2 and json.loads(out)["status"] == "unknown"
