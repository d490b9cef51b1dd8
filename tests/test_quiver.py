"""Representations, isomorphism decisions, K-webs."""

import random
from itertools import product
from math import gcd

import pytest

from blockeq import (
    SL,
    BlockShape,
    BlockedMatrix,
    DimensionError,
    IntMatrix,
    Quiver,
    SearchBudget,
    ZRep,
    build_kweb,
    decide_kweb_isomorphism,
    decide_rep_isomorphism,
    is_morphism,
    smith_normal_form,
)
from blockeq.intmat import kernel_basis, solve_matrix
from blockeq.poset_block import Poset, antichain_poset, chain_poset
from blockeq.quiver import (
    PresentedGroup,
    _exact_at,
    enumerate_isomorphisms,
    hom_classes,
    hom_inverse,
    hom_well_defined,
    homs_equal,
    normalize_hom,
    raw_hom,
)

from helpers import (
    count_calls,
    rand_blocked,
    rand_matrix,
    rand_square_shape,
    rep_iso_oracle,
    scramble,
)

Z = IntMatrix(1, 0, ())  # one generator, no relations
Z2 = IntMatrix.from_rows([[2]])
Z3 = IntMatrix.from_rows([[3]])


def edge_quiver():
    return Quiver(2, [("e", 0, 1)])


# C9 presented on two generators (invariant factors 1 and 9), Z presented on
# two generators, and a raw map sending a C9 relation outside the Z relation
# lattice.  Normal coordinates drop the unit factor, so only a check of the
# raw map against the raw relations sees that the map is not a homomorphism.
C9_WITH_UNIT = IntMatrix.from_rows([[-3, -3], [2, -1]])
Z_ON_TWO = IntMatrix.from_rows([[1], [3]])
BREAKS_RELATIONS = IntMatrix.from_rows([[0, -2], [0, -1]])


class TestPresentedGroup:
    def test_normalization(self):
        g = PresentedGroup(2, IntMatrix.from_rows([[2, 1], [0, 3]]))
        assert g.iso_class() == (0, (6,))
        assert g.orders == (6,)

    def test_free(self, monkeypatch):
        # Z^rank is its own normal form: no Smith form is taken, and the
        # coordinates are the ones a Smith form of the rank x 0 matrix gives.
        expected = [PresentedGroup(r, IntMatrix(r, 0, ())) for r in range(4)]
        calls = count_calls(monkeypatch, smith_normal_form)
        for r, want in enumerate(expected):
            g = PresentedGroup.free(r)
            assert g.iso_class() == (r, ())
            assert g.orders == (0,) * r
            assert (g.to_normal, g.from_normal) == (want.to_normal, want.from_normal)
        assert calls == []

    def test_round_trip_transforms(self):
        rng = random.Random(50)
        for _ in range(20):
            gens = rng.randint(0, 3)
            rels = rng.randint(0, 3)
            g = PresentedGroup(
                gens, IntMatrix(gens, rels, [rng.randint(-3, 3) for _ in range(gens * rels)])
            )
            # to_normal . from_normal is the exact identity on normal coords.
            if g.normal_gens:
                prod = g.to_normal * g.from_normal
                assert prod == IntMatrix.identity(g.normal_gens)

    def test_enumerate_isomorphisms_counts(self):
        c6 = PresentedGroup(1, IntMatrix.from_rows([[6]]))
        assert len(enumerate_isomorphisms(c6, c6)) == 2  # units of Z/6
        klein = PresentedGroup(2, IntMatrix.diagonal([2, 2]))
        assert len(enumerate_isomorphisms(klein, klein)) == 6  # GL_2(F_2)
        c2 = PresentedGroup(1, Z2)
        assert enumerate_isomorphisms(c2, PresentedGroup(1, Z3)) == []

    def test_enumerate_isomorphisms_matches_brute_force(self):
        # Every pair of the benchmark's finite vertex groups of order <= 8,
        # presented by their diagonals: the enumeration is the brute-force
        # list, in the same order.
        groups = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
        presented = [PresentedGroup(len(g), IntMatrix.diagonal(g)) for g in groups]
        isos = 0
        for src in presented:
            for dst in presented:
                found = enumerate_isomorphisms(src, dst)
                assert found == _brute_force_isomorphisms(src.orders, dst.orders)
                isos += len(found)
        # The automorphisms of each group: phi(n) for the cyclic C_n, then
        # |GL_2(F_2)| = 6, |Aut(C2 x C4)| = 8 and |GL_3(F_2)| = 168.
        assert isos == 1 + 2 + 2 + 4 + 2 + 6 + 4 + 6 + 8 + 168

    def test_enumeration_cap(self):
        big = PresentedGroup(1, IntMatrix.from_rows([[65]]))
        with pytest.raises(ValueError):
            enumerate_isomorphisms(big, big)

    def test_hom_part_classes(self):
        z4 = PresentedGroup(1, IntMatrix.from_rows([[4]]))
        z2 = PresentedGroup(1, IntMatrix.from_rows([[2]]))
        free = PresentedGroup.free(1)
        reduction = IntMatrix.from_rows([[1]])  # Z/4 ->> Z/2
        # (kernel, image, cokernel) classes.
        assert hom_classes(reduction, z4, z2) == ((0, (2,)), (0, (2,)), (0, ()))
        doubling = IntMatrix.from_rows([[2]])  # Z --2--> Z
        assert hom_classes(doubling, free, free) == ((0, ()), (1, ()), (0, (2,)))
        to_torsion = IntMatrix.from_rows([[1]])  # Z ->> Z/4
        assert hom_classes(to_torsion, free, z4) == ((1, ()), (0, (4,)), (0, ()))


def _brute_force_isomorphisms(src_orders, dst_orders):
    """Every reduced normal-coordinate matrix between finite groups with
    these orders that is a well-defined bijection, columns in lexicographic
    order; a reference for enumerate_isomorphisms."""
    n1, n2 = len(src_orders), len(dst_orders)
    columns = list(product(*(range(d) for d in dst_orders)))
    source = list(product(*(range(d) for d in src_orders)))
    out = []
    for cols in product(columns, repeat=n1):
        well_defined = all(
            (d * c[i]) % e == 0 for d, c in zip(src_orders, cols)
            for i, e in enumerate(dst_orders)
        )
        if not well_defined:
            continue
        images = {
            tuple(sum(x[j] * cols[j][i] for j in range(n1)) % e for i, e in enumerate(dst_orders))
            for x in source
        }
        if len(images) == len(source) == len(columns):
            out.append(IntMatrix(n2, n1, [c[i] for i in range(n2) for c in cols]))
    return out


def _mixed_group(rng):
    """A seeded PresentedGroup with at most as many relations as generators,
    so free and torsion generators both occur across a batch."""
    gens = rng.randint(1, 4)
    rels = rng.randint(0, gens)
    return PresentedGroup(gens, rand_matrix(rng, gens, rels, -4, 4))


def _reduced(m, orders):
    return [
        [m[i, j] % d if d else m[i, j] for j in range(m.cols)]
        for i, d in enumerate(orders)
    ]


def _is_zero_mod(entries, orders):
    """Entrywise: row i of entries vanishes modulo orders[i] (0 = free)."""
    return all(
        (e % d == 0) if d else e == 0
        for row, d in zip(entries, orders)
        for e in row
    )


class TestNormalCoordinates:
    """PresentedGroup.reduce and the hom helpers built on it, against
    entrywise definitions, on groups that mix free and torsion generators."""

    def groups(self, seed, count=40):
        rng = random.Random(seed)
        gs = [_mixed_group(rng) for _ in range(count)]
        assert any(g.group.free_rank for g in gs)
        assert any(g.group.torsion for g in gs)
        assert any(g.group.free_rank and g.group.torsion for g in gs)
        return rng, gs

    def test_reduce(self):
        rng, gs = self.groups(60)
        for g in gs:
            m = rand_matrix(rng, g.normal_gens, rng.randint(0, 3), -20, 20)
            flat = [e for row in _reduced(m, g.orders) for e in row]
            assert g.reduce(m) == IntMatrix(m.rows, m.cols, flat)
            with pytest.raises(DimensionError):
                g.reduce(IntMatrix.zero(g.normal_gens + 1, 1))

    def test_normalize_hom(self):
        rng, gs = self.groups(61)
        for src, dst in zip(gs, gs[1:]):
            f = rand_matrix(rng, dst.gens, src.gens, -5, 5)
            product = dst.to_normal * f * src.from_normal
            flat = [e for row in _reduced(product, dst.orders) for e in row]
            expected = IntMatrix(dst.normal_gens, src.normal_gens, flat)
            assert normalize_hom(f, src, dst) == expected

    def test_hom_well_defined(self):
        rng, gs = self.groups(62)
        outcomes = set()
        for src, dst in zip(gs, gs[1:]):
            for _ in range(4):
                f = rand_matrix(rng, dst.normal_gens, src.normal_gens, -6, 6)
                if rng.random() < 0.5:
                    # Zero the torsion-to-free entries so some maps pass.
                    f = IntMatrix(
                        f.rows,
                        f.cols,
                        [
                            0 if src.orders[j] and not dst.orders[i] else f[i, j]
                            for i in range(f.rows)
                            for j in range(f.cols)
                        ],
                    )
                expected = all(
                    (dj * f[i, j] % di == 0) if di else dj * f[i, j] == 0
                    for j, dj in enumerate(src.orders)
                    if dj
                    for i, di in enumerate(dst.orders)
                )
                assert hom_well_defined(f, src, dst) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_homs_equal(self):
        rng, gs = self.groups(63)
        outcomes = set()
        for src, dst in zip(gs, gs[1:]):
            f = rand_matrix(rng, dst.normal_gens, src.normal_gens, -6, 6)
            # g = f plus multiples of the orders, sometimes plus noise.
            shift = [
                [rng.randint(-2, 2) * d for _ in range(f.cols)] for d in dst.orders
            ]
            g = f + IntMatrix(f.rows, f.cols, [e for row in shift for e in row])
            if rng.random() < 0.5:
                g = g + rand_matrix(rng, f.rows, f.cols, -1, 1)
            expected = _is_zero_mod((f - g).to_rows(), dst.orders)
            assert homs_equal(f, g, dst) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_contains_relation_many_columns(self):
        rng, gs = self.groups(64)
        outcomes = set()
        for g in gs:
            k = rng.randint(0, 3)
            rel = g.relations
            # Columns drawn from the relation lattice, sometimes disturbed.
            m = rel * rand_matrix(rng, rel.cols, k, -3, 3)
            if k and rng.random() < 0.5:
                m = m + rand_matrix(rng, m.rows, k, -1, 1)
            expected = _is_zero_mod((g.to_normal * m).to_rows(), g.orders)
            assert g.contains_relation(m) == expected
            assert expected == all(
                solve_matrix(rel, m.submatrix(range(m.rows), [j])) is not None
                for j in range(k)
            )
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_zrep_keeps_normal_edge_maps(self):
        rng, gs = self.groups(65, count=20)
        q = Quiver(3, [("a", 0, 1), ("b", 1, 2), ("c", 0, 2), ("d", 2, 2)])
        for _ in range(10):
            groups = [rng.choice(gs) for _ in range(3)]
            maps = [
                _random_hom(rng, groups[e.src], groups[e.dst]) for e in q.edges
            ]
            rep = ZRep(q, groups, maps)
            for idx, e in enumerate(q.edges):
                assert rep.normal_edge_maps[idx] == normalize_hom(
                    maps[idx], groups[e.src], groups[e.dst]
                )


class TestHomInverse:
    """hom_inverse returns an inverse exactly for the isomorphisms, as
    hom_classes and, on finite groups, enumerate_isomorphisms tell them."""

    def test_inverse_exactly_for_isomorphisms(self):
        rng = random.Random(67)
        outcomes = {"iso": 0, "not-iso": 0, "ill-defined": 0}
        for _ in range(400):
            src = _mixed_group(rng)
            # Same group half the time, so isomorphisms occur.
            dst = src if rng.random() < 0.5 else _mixed_group(rng)
            f = rand_matrix(rng, dst.normal_gens, src.normal_gens, -3, 3)
            g = hom_inverse(f, src, dst)
            if not hom_well_defined(f, src, dst):
                assert g is None
                outcomes["ill-defined"] += 1
                continue
            kernel, _, coker = hom_classes(f, src, dst)
            iso = kernel == coker == (0, ())
            assert (g is not None) == iso
            small = src.group.is_finite and src.group.order() <= 64
            if small and src.iso_class() == dst.iso_class():
                assert iso == (dst.reduce(f) in enumerate_isomorphisms(src, dst))
            if iso:
                assert hom_well_defined(g, dst, src)
                assert homs_equal(g * f, IntMatrix.identity(src.normal_gens), src)
                assert homs_equal(f * g, IntMatrix.identity(dst.normal_gens), dst)
            outcomes["iso" if iso else "not-iso"] += 1
        assert min(outcomes.values()) >= 30, outcomes


class TestZRepAndModules:
    """A representation of a quiver is a module over its path ring; these
    check the per-vertex groups and normal edge maps directly."""

    def test_single_vertex_free(self):
        q = Quiver(1, [])
        rep = ZRep(q, [Z], [])
        assert rep.groups[0].iso_class() == (1, ())
        assert rep.groups[0].to_normal == IntMatrix.identity(1)

    def test_mod2_example(self):
        q = edge_quiver()
        rep = ZRep(q, [Z, Z2], [IntMatrix.from_rows([[1]])])
        assert [g.iso_class() for g in rep.groups] == [(1, ()), (0, (2,))]
        # The edge sends the generator of Z to the generator of Z/2.
        assert rep.normal_edge_maps[0] == IntMatrix.from_rows([[1]])

    def test_zero_maps(self):
        q = edge_quiver()
        rep = ZRep(q, [Z2, Z3], [IntMatrix.zero(1, 1)])
        assert rep.normal_edge_maps[0].is_zero()

    def test_rejects_bad_hom(self):
        q = edge_quiver()
        # Z/2 -> Z/3 sending the generator to a generator is not well-defined.
        with pytest.raises(ValueError):
            ZRep(q, [Z2, Z3], [IntMatrix.from_rows([[1]])])

    def test_path_action_composes(self):
        q = Quiver(3, [("e", 0, 1), ("f", 1, 2)])
        rep = ZRep(
            q,
            [Z, Z, Z],
            [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])],
        )
        # Path fe acts by 6 (right-to-left composition).
        act = rep.normal_edge_maps[1] * rep.normal_edge_maps[0]
        assert act == IntMatrix.from_rows([[6]])

    def test_trivial_module(self):
        q = Quiver(2, [])
        rep = ZRep(q, [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])], [])
        assert all(g.group.is_trivial and g.normal_gens == 0 for g in rep.groups)

    def test_repeated_edge_validated_once(self, monkeypatch):
        # Two edges with the same map between groups with the same relations
        # are validated and normalized once; a different bad map after them
        # is still rejected, naming its own edge.
        q = Quiver(3, [("a", 0, 1), ("b", 2, 1), ("c", 0, 1), ("d", 2, 1)])
        zero = IntMatrix.zero(1, 1)
        checks = count_calls(monkeypatch, PresentedGroup.contains_relation, PresentedGroup)
        rep = ZRep(q, [Z2, Z3, Z2], [zero, zero, zero, zero])
        assert len(checks) == 1
        assert rep.normal_edge_maps == (zero,) * 4
        assert rep.edge_maps == (zero,) * 4
        with pytest.raises(ValueError, match="edge c: map does not respect relations"):
            ZRep(q, [Z2, Z3, Z2], [zero, zero, IntMatrix.from_rows([[1]]), zero])
        with pytest.raises(DimensionError, match="edge d: map must be 1x1"):
            ZRep(q, [Z2, Z3, Z2], [zero, zero, zero, IntMatrix.zero(1, 2)])

    def test_edge_map_breaking_unit_factor_relations(self):
        q = edge_quiver()
        with pytest.raises(ValueError, match="does not respect relations"):
            ZRep(q, [C9_WITH_UNIT, Z_ON_TWO], [BREAKS_RELATIONS])
        # The zero map respects every relation, and the representation is built.
        rep = ZRep(q, [C9_WITH_UNIT, Z_ON_TWO], [IntMatrix.zero(2, 2)])
        assert [g.iso_class() for g in rep.groups] == [(0, (9,)), (1, ())]


class TestIsMorphism:
    def test_identity_family(self):
        q = edge_quiver()
        rep = ZRep(q, [Z2, Z2], [IntMatrix.from_rows([[1]])])
        assert is_morphism([IntMatrix.identity(1)] * 2, rep, rep, q)

    def test_zero_family(self):
        q = edge_quiver()
        rep = ZRep(q, [Z2, Z2], [IntMatrix.from_rows([[1]])])
        assert is_morphism([IntMatrix.zero(1, 1)] * 2, rep, rep, q)

    def test_square_fails(self):
        q = edge_quiver()
        rep_id = ZRep(q, [Z2, Z2], [IntMatrix.from_rows([[1]])])
        rep_zero = ZRep(q, [Z2, Z2], [IntMatrix.zero(1, 1)])
        assert not is_morphism([IntMatrix.identity(1)] * 2, rep_id, rep_zero, q)

    def test_family_breaking_unit_factor_relations(self):
        q = Quiver(1, [])
        src, dst = ZRep(q, [C9_WITH_UNIT], []), ZRep(q, [Z_ON_TWO], [])
        assert not is_morphism([BREAKS_RELATIONS], src, dst, q)
        assert is_morphism([IntMatrix.zero(2, 2)], src, dst, q)


class TestDecideRepIsomorphism:
    def test_self_yes(self):
        q = edge_quiver()
        rep = ZRep(q, [Z2, Z2], [IntMatrix.from_rows([[1]])])
        v = decide_rep_isomorphism(rep, rep, q)
        assert v.is_yes

    def test_vertex_invariant_no(self):
        q = Quiver(1, [])
        v = decide_rep_isomorphism(
            ZRep(q, [Z2], []), ZRep(q, [Z3], []), q
        )
        assert v.is_no
        assert v.certificate.name.startswith("vertex-group")

    def test_edge_refutation_id_vs_zero(self):
        q = edge_quiver()
        rep_id = ZRep(q, [Z2, Z2], [IntMatrix.from_rows([[1]])])
        rep_zero = ZRep(q, [Z2, Z2], [IntMatrix.zero(1, 1)])
        v = decide_rep_isomorphism(rep_id, rep_zero, q)
        assert v.is_no

    def test_infinite_groups_found(self):
        # Z --2--> Z vs Z --(-2)--> Z are isomorphic via sign flip.
        q = edge_quiver()
        r1 = ZRep(q, [Z, Z], [IntMatrix.from_rows([[2]])])
        r2 = ZRep(q, [Z, Z], [IntMatrix.from_rows([[-2]])])
        v = decide_rep_isomorphism(r1, r2, q)
        assert v.is_yes

    def test_infinite_groups_refuted_by_cokernel(self):
        q = edge_quiver()
        r1 = ZRep(q, [Z, Z], [IntMatrix.from_rows([[2]])])
        r2 = ZRep(q, [Z, Z], [IntMatrix.from_rows([[3]])])
        v = decide_rep_isomorphism(r1, r2, q)
        assert v.is_no
        assert v.certificate.name.startswith("edge-")

    def test_unknown_under_tiny_budget(self):
        q = edge_quiver()
        r1 = ZRep(q, [Z, Z], [IntMatrix.from_rows([[5]])])
        r2 = ZRep(q, [Z, Z], [IntMatrix.from_rows([[-5]])])
        v = decide_rep_isomorphism(r1, r2, q, SearchBudget(1, 2))
        assert v.is_unknown

    def test_oracle_agreement_small(self):
        rng = random.Random(51)
        q = edge_quiver()
        groups = [Z2, Z3, IntMatrix.from_rows([[4]]), IntMatrix.diagonal([2, 2])]
        checked = 0
        for g1 in groups:
            for g2 in groups:
                s = PresentedGroup(g1.rows, g1)
                t = PresentedGroup(g2.rows, g2)
                for _ in range(3):
                    f1 = _random_hom(rng, s, t)
                    f2 = _random_hom(rng, s, t)
                    rep1 = ZRep(q, [g1, g2], [f1])
                    rep2 = ZRep(q, [g1, g2], [f2])
                    verdict = decide_rep_isomorphism(rep1, rep2, q)
                    assert verdict.status in ("yes", "no")
                    assert verdict.is_yes == rep_iso_oracle(rep1, rep2, q)
                    checked += 1
        assert checked == 48


def _random_hom(rng, src: PresentedGroup, dst: PresentedGroup) -> IntMatrix:
    """Random well-defined raw map src -> dst (rejection sampling).  A draw
    whose normal map is well defined but which sends a raw source relation
    outside the target's relation lattice (possible when the source has unit
    invariant factors) is replaced by the raw lift of its normal map."""
    while True:
        f = IntMatrix(
            dst.gens, src.gens, [rng.randint(-3, 3) for _ in range(dst.gens * src.gens)]
        )
        fn = normalize_hom(f, src, dst)
        if hom_well_defined(fn, src, dst):
            if dst.contains_relation(f * src.relations):
                return f
            return raw_hom(fn, src, dst)


class TestKWeb:
    def test_identity_all_trivial(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        web = build_kweb(BlockedMatrix(shape, IntMatrix.identity(2)))
        assert len(web.rep.groups) == len(web.labels) == 6
        assert all(g.iso_class() == (0, ()) for g in web.rep.groups)

    def test_chain_example_groups_and_map(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        web = build_kweb(BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [0, 3]])))
        by_label = dict(zip(web.labels, web.rep.groups))
        assert by_label["cok[1]"].iso_class() == (0, (2,))
        assert by_label["cok[2]"].iso_class() == (0, (3,))
        assert by_label["cok[1, 2]"].iso_class() == (0, (6,))
        # The inclusion cok{1} -> cok{1,2} sends the generator to 3 mod 6
        # (e1 = -3*e2 modulo the column lattice).
        idx, edge = next(
            (i, e) for i, e in enumerate(web.quiver.edges) if e.id.startswith("cok-incl")
        )
        assert (web.labels[edge.src], web.labels[edge.dst]) == ("cok[1]", "cok[1, 2]")
        src = web.rep.groups[edge.src]
        dst = web.rep.groups[edge.dst]
        normal = normalize_hom(web.rep.edge_maps[idx], src, dst)
        assert normal == IntMatrix.from_rows([[3]])
        assert web.rep.normal_edge_maps[idx] == normal

    def test_antichain_delta_zero(self):
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        web = build_kweb(BlockedMatrix(shape, IntMatrix.diagonal([2, 3])))
        deltas = [
            m for e, m in zip(web.quiver.edges, web.rep.edge_maps) if e.id.startswith("delta")
        ]
        assert deltas
        assert all(m.is_zero() for m in deltas)

    def test_exactness_random(self):
        rng = random.Random(52)
        for _ in range(25):
            shape = rand_square_shape(rng)
            rand = rand_blocked(rng, shape)
            build_kweb(rand)  # exactness asserted inside

    def test_one_smith_form_per_web_matrix(self, monkeypatch):
        # The five-element diamond with 2x2 blocks has 24 convex subsets.
        # Building its web re-solves the same matrices across splittings
        # and positions: 1,314 Smith forms without sharing, 314 with it.
        diamond = Poset(5, [(1, 5), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])
        shape = BlockShape.square(diamond, (2,) * 5)
        calls = count_calls(monkeypatch, smith_normal_form)
        web = build_kweb(rand_blocked(random.Random(5), shape))
        assert web.quiver.vertices == len(web.labels) == 48
        assert len(calls) <= 450

    def test_exactness_one_smith_form_and_one_solve_per_position(self, monkeypatch):
        # The same diamond web: exactness proves image in kernel by a product
        # and kernel in image by one solve against the image, whose Smith
        # form the previous position already took, and a position that asks
        # a question the web has already proved is skipped.
        diamond = Poset(5, [(1, 5), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])
        shape = BlockShape.square(diamond, (2,) * 5)
        snfs = count_calls(monkeypatch, smith_normal_form)
        solves = count_calls(monkeypatch, solve_matrix)
        exact = count_calls(monkeypatch, _exact_at)
        web = build_kweb(rand_blocked(random.Random(5), shape))
        assert web.quiver.vertices == len(web.labels) == 48
        assert len(snfs) <= 135
        assert len(solves) <= 300
        assert len(exact) == 175

    def test_kweb_iso_self(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        web = build_kweb(BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [0, 3]])))
        assert decide_kweb_isomorphism(web, web).is_yes

    def test_kweb_iso_spec_pair(self):
        shape = BlockShape.square(chain_poset(2), (1, 1))
        b1 = BlockedMatrix(shape, IntMatrix.from_rows([[2, 1], [0, 3]]))
        b2 = BlockedMatrix(shape, IntMatrix.from_rows([[2, 0], [0, 3]]))
        # Consistency: those two really are SL-blocked equivalent.
        u = IntMatrix.from_rows([[1, 1], [0, 1]])
        v = IntMatrix.from_rows([[1, -2], [0, 1]])
        assert u * b1.matrix * v == b2.matrix
        verdict = decide_kweb_isomorphism(build_kweb(b1), build_kweb(b2))
        assert verdict.is_yes

    def test_kweb_iso_refuted(self):
        shape = BlockShape.square(antichain_poset(2), (1, 1))
        w1 = build_kweb(BlockedMatrix(shape, IntMatrix.diagonal([2, 0])))
        w2 = build_kweb(BlockedMatrix(shape, IntMatrix.diagonal([4, 0])))
        v = decide_kweb_isomorphism(w1, w2)
        assert v.is_no

    def test_necessity_never_no(self):
        rng = random.Random(53)
        for _ in range(8):
            shape = rand_square_shape(rng)
            b = rand_blocked(rng, shape)
            u, v, moved = scramble(rng, b, SL, 4)
            w1 = build_kweb(b)
            w2 = build_kweb(moved)
            verdict = decide_kweb_isomorphism(w1, w2, SearchBudget(2, 2_000))
            assert not verdict.is_no

    def test_shape_mismatch(self):
        s1 = BlockShape.square(chain_poset(2), (1, 1))
        s2 = BlockShape.square(antichain_poset(2), (1, 1))
        w1 = build_kweb(BlockedMatrix(s1, IntMatrix.identity(2)))
        w2 = build_kweb(BlockedMatrix(s2, IntMatrix.identity(2)))
        from blockeq.poset_block import ShapeError

        with pytest.raises(ShapeError):
            decide_kweb_isomorphism(w1, w2)


# ---------------------------------------------------------------------------
# Exactness at one position of a sequence


def _exact_at_two_solves(f_in, f_out, mid, nxt, snf):
    """Reference: image and kernel lattices compared by two solves, each
    against its own Smith form."""
    rel_mid = mid.relations
    image = f_in.hstack(rel_mid) if f_in.cols else rel_mid
    stacked = f_out.hstack(nxt.relations)
    ker = kernel_basis(stacked, snf(stacked))
    pre = ker.submatrix(range(f_out.cols), range(ker.cols))
    kernel = pre.hstack(rel_mid)
    return (
        solve_matrix(image, kernel, snf(image)) is not None
        and solve_matrix(kernel, image, snf(kernel)) is not None
    )


def _lifted_hom(rng, src: PresentedGroup, dst: PresentedGroup) -> IntMatrix:
    """Random raw map src -> dst that respects relations by construction:
    column j of the normal map is killed by the order of source generator j,
    and the raw lift is moved by a random element of the target relations.
    _random_hom's rejection sampling rarely draws a map from a torsion group
    into a free one, so it cannot supply hundreds of these pairs."""
    flat = []
    for e in dst.orders:
        for d in src.orders:
            if e:
                flat.append(rng.randint(-3, 3) * (e // gcd(d, e)))
            else:
                flat.append(0 if d else rng.randint(-3, 3))
    fn = IntMatrix(dst.normal_gens, src.normal_gens, flat)
    shift = dst.relations * rand_matrix(rng, dst.relations.cols, src.gens, -1, 1)
    return raw_hom(fn, src, dst) + shift


class TestExactAt:
    """_exact_at rejects a sequence whose composition is nonzero and one
    whose kernel is strictly larger than its image, on free and torsion
    groups, and agrees with the two-solve reference."""

    Z = PresentedGroup.free(1)
    C2 = PresentedGroup(1, IntMatrix.from_rows([[2]]))
    C4 = PresentedGroup(1, IntMatrix.from_rows([[4]]))
    ZERO = PresentedGroup.free(0)
    FROM_ZERO = IntMatrix(1, 0, ())  # the map 0 --> a one-generator group
    TO_ZERO = IntMatrix(0, 1, ())  # the map from a one-generator group --> 0

    @staticmethod
    def exact(f_in, f_out, mid, nxt):
        calls = []

        def snf(a):
            calls.append(a)
            return smith_normal_form(a)

        return _exact_at(f_in, f_out, mid, nxt, snf), calls

    @staticmethod
    def m(x):
        return IntMatrix.from_rows([[x]])

    def test_composition_nonzero(self):
        z, c2, c4, m = self.Z, self.C2, self.C4, self.m
        for f_in, f_out, mid, nxt in (
            (m(1), m(1), z, z),  # Z --1--> Z --1--> Z
            (m(1), m(1), c4, c4),  # Z --1--> C4 --1--> C4
            (m(1), m(1), c4, c2),  # Z --1--> C4 --1--> C2
            (m(3), m(2), c4, c4),  # Z --3--> C4 --2--> C4
        ):
            ok, calls = self.exact(f_in, f_out, mid, nxt)
            assert not ok
            assert calls == []  # refuted by the product, before any Smith form

    def test_kernel_larger_than_image(self):
        z, c2, c4, m = self.Z, self.C2, self.C4, self.m
        for f_in, f_out, mid, nxt in (
            (m(2), m(0), z, z),  # Z --2--> Z --0--> Z
            (self.FROM_ZERO, m(0), z, z),  # 0 --> Z --0--> Z
            (m(2), self.TO_ZERO, z, self.ZERO),  # Z --2--> Z --> 0
            (m(2), m(0), c4, c2),  # Z --2--> C4 --0--> C2
            (m(0), m(2), c4, c4),  # Z --0--> C4 --2--> C4
            (m(4), m(1), z, c2),  # Z --4--> Z --1--> C2
        ):
            ok, calls = self.exact(f_in, f_out, mid, nxt)
            assert not ok
            assert calls  # the composition vanishes; the solve refutes

    def test_exact_controls(self):
        z, c2, c4, m = self.Z, self.C2, self.C4, self.m
        for f_in, f_out, mid, nxt in (
            (m(1), m(0), z, z),  # Z --1--> Z --0--> Z
            (m(2), m(1), z, c2),  # Z --2--> Z --1--> C2
            (self.FROM_ZERO, m(2), z, z),  # 0 --> Z --2--> Z
            (m(2), m(1), c4, c2),  # Z --2--> C4 --1--> C2
            (m(2), m(2), c4, c4),  # Z --2--> C4 --2--> C4
            (m(1), self.TO_ZERO, c4, self.ZERO),  # Z --1--> C4 --> 0
        ):
            assert self.exact(f_in, f_out, mid, nxt)[0]

    def test_agrees_with_two_solve_reference(self):
        rng = random.Random(61)
        outcomes = {"exact": 0, "composition": 0, "kernel": 0}
        for _ in range(240):
            mid, nxt = _mixed_group(rng), _mixed_group(rng)
            f_out = _lifted_hom(rng, mid, nxt)
            ker = kernel_basis(f_out.hstack(nxt.relations))
            pre = ker.submatrix(range(mid.gens), range(ker.cols))
            kind = rng.randrange(4)
            if kind == 0:  # the whole kernel
                f_in = pre
            elif kind == 1:  # a random sublattice of the kernel
                f_in = pre * rand_matrix(rng, pre.cols, rng.randint(0, 2), -2, 2)
            elif kind == 2:  # twice the kernel
                f_in = pre + pre
            else:  # anything
                f_in = rand_matrix(rng, mid.gens, rng.randint(0, 2))
            ok = _exact_at(f_in, f_out, mid, nxt, smith_normal_form)
            assert ok == _exact_at_two_solves(
                f_in, f_out, mid, nxt, smith_normal_form
            )
            if ok:
                outcomes["exact"] += 1
            elif nxt.contains_relation(f_out * f_in):
                outcomes["kernel"] += 1
            else:
                outcomes["composition"] += 1
        assert min(outcomes.values()) >= 20, outcomes
