"""Flow-equivalence invariants, condensation, stabilization, full decision."""

import itertools
import random

import pytest

from blockeq import (
    SL,
    FlowInvariant,
    IntMatrix,
    Poset,
    SearchBudget,
    SftMatrix,
    bowen_franks,
    condense,
    decide_flow_equivalence,
    is_irreducible,
    iota_embed,
    parry_sullivan,
    stabilization_target,
    validate_membership,
)
from blockeq.poset_block import chain_poset, generator_moves, move_matrix
from blockeq.sft import _alignments, _digraph_sccs, _edges, is_single_cycle

FULL2 = SftMatrix.from_rows([[2]])
FULL3 = SftMatrix.from_rows([[3]])
FIB = SftMatrix.from_rows([[1, 1], [1, 0]])


class TestInvariants:
    def test_bowen_franks_examples(self):
        assert bowen_franks(FULL2).is_trivial
        assert bowen_franks(FIB).is_trivial
        assert bowen_franks(FULL3).iso_class() == (0, (2,))

    def test_parry_sullivan_examples(self):
        assert parry_sullivan(SftMatrix.from_rows([[1]])) == 0
        assert parry_sullivan(FULL2) == -1
        assert parry_sullivan(FIB) == -1

    def test_consistency(self):
        rng = random.Random(40)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = SftMatrix(
                IntMatrix(n, n, [max(0, rng.randint(-2, 3)) for _ in range(n * n)])
            )
            ps = parry_sullivan(a)
            bf = bowen_franks(a)
            assert (ps == 0) == (bf.free_rank > 0)
            if bf.free_rank == 0:
                assert abs(ps) == bf.order()
            FlowInvariant(bowen_franks(a), ps)  # must not raise

    def test_flow_invariant_validation(self):
        with pytest.raises(ValueError):
            FlowInvariant(bowen_franks(FULL3), -1)

    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            SftMatrix.from_rows([[-1]])
        with pytest.raises(ValueError):
            SftMatrix.from_rows([[1, 0]])


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(FIB)
        assert not is_irreducible(SftMatrix.from_rows([[1, 1], [0, 1]]))
        assert is_irreducible(SftMatrix.from_rows([[1]]))
        assert not is_irreducible(SftMatrix.from_rows([[0]]))

    def test_single_cycle(self):
        assert is_single_cycle(SftMatrix.from_rows([[1]]))
        assert is_single_cycle(SftMatrix.from_rows([[0, 1], [1, 0]]))
        assert not is_single_cycle(FULL2)
        assert not is_single_cycle(FIB)

    def test_single_cycle_exhaustive(self):
        # Every {0,1,2} matrix up to 3x3 against "the permutation matrix of
        # one n-cycle".
        for n in range(4):
            for ents in itertools.product((0, 1, 2), repeat=n * n):
                rows = [ents[i * n:(i + 1) * n] for i in range(n)]
                succ = [row.index(1) if sorted(row) == [0] * (n - 1) + [1] else None
                        for row in rows]
                expected = n > 0 and None not in succ and sorted(succ) == list(range(n))
                if expected:
                    v, length = succ[0], 1
                    while v != 0:
                        v, length = succ[v], length + 1
                    expected = length == n
                assert is_single_cycle(SftMatrix(IntMatrix(n, n, ents))) == expected


class TestFranksDecision:
    """The complete decision on irreducible shifts, read through the one
    three-valued decide_flow_equivalence."""

    def test_reflexive(self):
        assert decide_flow_equivalence(FIB, FIB).is_yes

    def test_full2_fib(self):
        assert decide_flow_equivalence(FULL2, FIB).is_yes

    def test_full2_full3(self):
        assert decide_flow_equivalence(FULL2, FULL3).is_no

    def test_cycle_carveout(self):
        cycle2 = SftMatrix.from_rows([[0, 1], [1, 0]])
        fixed = SftMatrix.from_rows([[1]])
        assert decide_flow_equivalence(cycle2, fixed).is_yes
        # A single cycle never matches a nontrivial shift even if invariants
        # were to collide.
        assert decide_flow_equivalence(cycle2, FULL2).is_no

    @pytest.mark.parametrize("left, right, certificate", [
        ([[0, 1], [1, 0]], [[2]], ("single-cycle", "True", "False")),
        ([[2]], [[3]], ("parry-sullivan", "-1", "-2")),
        # det(I - A) = -4 on both sides; cok(I - A) is C4 against C2 x C2.
        ([[0, 2], [2, 1]], [[1, 2], [2, 1]], ("bowen-franks", "C4", "C2 x C2")),
    ])
    def test_no_names_the_first_differing_invariant(self, left, right, certificate):
        # The order is the single-cycle flag, Parry-Sullivan, Bowen-Franks.
        v = decide_flow_equivalence(SftMatrix.from_rows(left), SftMatrix.from_rows(right))
        assert v.is_no and v.witness is None
        assert (v.certificate.name, v.certificate.left, v.certificate.right) == certificate
        assert (v.report.nodes_expanded, v.report.depth_reached) == (0, 0)

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(41)
        mats = []
        while len(mats) < 12:
            n = rng.randint(1, 3)
            a = SftMatrix(
                IntMatrix(n, n, [max(0, rng.randint(-1, 2)) for _ in range(n * n)])
            )
            if is_irreducible(a):
                mats.append(a)
        status = {
            (i, j): decide_flow_equivalence(a, b).status
            for i, a in enumerate(mats)
            for j, b in enumerate(mats)
        }
        assert set(status.values()) == {"yes", "no"}
        equivalent = {pair: s == "yes" for pair, s in status.items()}
        for i in range(len(mats)):
            assert equivalent[i, i]
            for j in range(len(mats)):
                assert equivalent[i, j] == equivalent[j, i]
                for k in range(len(mats)):
                    if equivalent[i, j] and equivalent[j, k]:
                        assert equivalent[i, k]


class TestCondense:
    def test_irreducible_single_component(self):
        c = condense(FIB)
        assert c.poset.size == 1
        assert c.sizes == (2,)
        assert c.blocked.matrix == IntMatrix.identity(2) - FIB.matrix

    def test_chain_example(self):
        c = condense(SftMatrix.from_rows([[1, 1], [0, 1]]))
        assert c.poset == chain_poset(2)
        assert c.sizes == (1, 1)
        assert c.blocked.matrix == IntMatrix.from_rows([[0, -1], [0, 0]])
        assert c.trivial_flags == (False, False)

    def test_zero_matrix(self):
        c = condense(SftMatrix.from_rows([[0, 0], [0, 0]]))
        assert c.poset == Poset(2)
        assert c.blocked.matrix == IntMatrix.identity(2)
        assert c.trivial_flags == (True, True)

    def test_reassembly(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = SftMatrix(
                IntMatrix(n, n, [max(0, rng.randint(-2, 2)) for _ in range(n * n)])
            )
            c = condense(a)
            # Un-permuting B plus the permuted adjacency recovers I exactly.
            perm = c.permutation
            i_minus_a = IntMatrix.identity(n) - a.matrix
            assert c.blocked.matrix == i_minus_a.submatrix(perm, perm)
            assert validate_membership(c.blocked.matrix, c.blocked.shape)
            for i, j in c.poset.pairs:
                assert i <= j


    def test_against_brute_force_reference(self):
        # Components, irreducibility and the condensation against a
        # reachability closure written here, on digraphs with loops,
        # multi-edges and empty rows.  Components are ordered by a scan that
        # places, among the components no unplaced component reaches, the
        # one with the least vertex first.
        rng = random.Random(44)
        ties = 0
        for t in range(200):
            n = t % 10
            empty = {v for v in range(n) if rng.random() < 0.15}
            a = SftMatrix(IntMatrix(n, n, [
                0 if u in empty or rng.random() >= 0.15 else rng.choice((1, 1, 2))
                for u in range(n) for _ in range(n)
            ]))
            path = [[a.matrix[u, v] > 0 for v in range(n)] for u in range(n)]
            for k in range(n):
                for u in range(n):
                    for v in range(n):
                        path[u][v] = path[u][v] or (path[u][k] and path[k][v])
            reach = [[u == v or path[u][v] for v in range(n)] for u in range(n)]
            comps = sorted({
                tuple(v for v in range(n) if reach[u][v] and reach[v][u])
                for u in range(n)
            })
            assert [tuple(c) for c in _digraph_sccs(n, _edges(a))] == comps
            assert is_irreducible(a) == (n > 0 and all(map(all, path)))
            if n == 0:
                continue
            order = []
            while len(order) < len(comps):
                sources = [
                    c for c in comps if c not in order and not any(
                        reach[d[0]][c[0]] for d in comps if d != c and d not in order
                    )
                ]
                ties += len(sources) > 1
                order.append(sources[0])
            pairs = [
                (i, j)
                for i, c in enumerate(order, start=1)
                for j, d in enumerate(order, start=1)
                if reach[c[0]][d[0]]
            ]
            cond = condense(a)
            assert cond.poset == Poset(len(order), pairs)
            assert cond.sizes == tuple(len(c) for c in order)
            assert cond.permutation == tuple(v for c in order for v in c)
            assert cond.trivial_flags == tuple(
                len(c) == 1 and a.matrix[c[0], c[0]] == 0 for c in order
            )
        assert ties > 100


class TestStabilizationTarget:
    def test_all_ones(self):
        assert stabilization_target((1, 1), (1, 1)) == (1, 1)

    def test_paper_formula(self):
        assert stabilization_target((2, 3), (4, 2)) == (6, 5)

    def test_gate(self):
        with pytest.raises(ValueError):
            stabilization_target((1, 2), (2, 2))


def scrambled_reducible_pair(seed, moves=4):
    """A reducible SFT pair related by SL moves on the stabilized form; the
    second component is rebuilt from the scrambled matrix so the engine must
    recover the witness.  Returns None when the sampled scramble leaves the
    valid-adjacency region."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 3)
        ent = [[max(0, rng.randint(-1, 2)) for _ in range(n)] for _ in range(n)]
        a = SftMatrix.from_rows(ent)
        if not is_irreducible(a):
            break
    c = condense(a)
    target = stabilization_target(c.sizes, c.sizes)
    m = iota_embed(c.blocked, target)
    mvs = generator_moves(m.shape, SL)
    if not mvs:
        return None
    size = m.shape.total_rows
    u = IntMatrix.identity(size)
    v = IntMatrix.identity(size)
    for _ in range(rng.randint(1, moves)):
        g = move_matrix(mvs[rng.randrange(len(mvs))], size)
        if rng.random() < 0.5:
            u = g * u
        else:
            v = v * g
    scrambled = u * m.matrix * v
    a2 = IntMatrix.identity(size) - scrambled
    if any(e < 0 for e in a2.entries):
        return None
    a2 = SftMatrix(a2)
    c2 = condense(a2)
    if c2.sizes != target or c2.poset != c.poset:
        return None
    if c2.trivial_flags != c.trivial_flags:
        return None
    return a, a2


class TestDecideFlowEquivalence:
    def test_reducible_reflexive(self):
        a = SftMatrix.from_rows([[1, 1], [0, 1]])
        v = decide_flow_equivalence(a, a)
        assert v.is_yes

    def test_poset_mismatch(self):
        a = SftMatrix.from_rows([[1, 1], [0, 1]])
        b = SftMatrix.from_rows([[1, 0], [0, 1]])
        v = decide_flow_equivalence(a, b)
        assert v.is_no
        assert v.certificate.name == "condensation-alignment"

    def test_empty_cases(self):
        e = SftMatrix(IntMatrix(0, 0, ()))
        assert decide_flow_equivalence(e, e).is_yes
        v = decide_flow_equivalence(e, SftMatrix.from_rows([[0]]))
        assert v.is_no

    def test_irreducible_paths(self):
        assert decide_flow_equivalence(FULL2, FIB).is_yes
        v = decide_flow_equivalence(FULL2, FULL3)
        assert v.is_no
        assert v.certificate.name == "parry-sullivan"

    def test_scramble_recover(self):
        found = 0
        seed = 0
        while found < 5 and seed < 200:
            pair = scrambled_reducible_pair(seed)
            seed += 1
            if pair is None:
                continue
            found += 1
            a, a2 = pair
            v = decide_flow_equivalence(a, a2, SearchBudget(8, 400_000))
            assert not v.is_no
            assert v.is_yes
        assert found == 5

    def test_reducible_refuted_at_blocked_level(self):
        # Same condensation poset and per-component invariants, but the
        # whole-matrix Bowen-Franks data differ: Z/4 versus Z/2 x Z/2.
        a = SftMatrix.from_rows([[3, 1], [0, 3]])
        b = SftMatrix.from_rows([[3, 2], [0, 3]])
        v = decide_flow_equivalence(a, b)
        assert v.is_no
        assert v.certificate.name == "cokernel"

    def test_component_swap_alignment(self):
        # Two inequivalent components in opposite order: the unique valid
        # alignment is the swap, and the relabelled blocked forms match.
        a = SftMatrix.from_rows([[2, 0], [0, 3]])
        b = SftMatrix.from_rows([[3, 0], [0, 2]])
        v = decide_flow_equivalence(a, b)
        assert v.is_yes

    def test_vertex_permutation_invariance(self):
        # Conjugating the adjacency matrix by a vertex permutation never
        # changes the flow class.
        rng = random.Random(44)
        for _ in range(8):
            n = rng.randint(2, 4)
            ent = [[max(0, rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            a = SftMatrix.from_rows(ent)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = SftMatrix(a.matrix.submatrix(perm, perm))
            v = decide_flow_equivalence(a, permuted, SearchBudget(8, 200_000))
            assert v.is_yes, f"permutation changed the verdict: {v.status}"

    def test_unknown_not_no_under_tiny_budget(self):
        pair = None
        seed = 600
        while pair is None:
            pair = scrambled_reducible_pair(seed, moves=5)
            seed += 1
        a, a2 = pair
        if a.matrix != a2.matrix:
            v = decide_flow_equivalence(a, a2, SearchBudget(1, 10))
            assert v.status in ("unknown", "yes")

    def test_alignments_share_one_node_budget(self):
        # Two alignments, each left unknown by its search: together they
        # report no more nodes than the budget allows.  At depth 1 each
        # search stops after 6 nodes, so the second alignment runs on the 2
        # nodes the first one left.
        a = SftMatrix.from_rows(
            [[6, 1, 0, 0], [0, 6, 0, 0], [0, 0, 6, 1], [0, 0, 0, 6]]
        )
        b = SftMatrix.from_rows(
            [[6, 4, 0, 0], [0, 6, 0, 0], [0, 0, 6, 4], [0, 0, 0, 6]]
        )
        assert len(_alignments(condense(a), condense(b))) == 2
        for budget in (SearchBudget(8, 10), SearchBudget(8, 50), SearchBudget(1, 8)):
            v = decide_flow_equivalence(a, b, budget)
            assert v.status == "unknown"
            assert 0 < v.report.nodes_expanded <= budget.max_nodes

    def test_never_no_on_scrambles(self):
        # Soundness: anything related by constructed SL moves is never
        # refuted, whatever the budget.
        seed = 300
        checked = 0
        while checked < 5 and seed < 500:
            pair = scrambled_reducible_pair(seed)
            seed += 1
            if pair is None:
                continue
            checked += 1
            a, a2 = pair
            v = decide_flow_equivalence(a, a2, SearchBudget(2, 500))
            assert not v.is_no
        assert checked == 5
