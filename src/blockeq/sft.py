"""Shifts of finite type and flow equivalence.

A shift of finite type is presented by a square nonnegative integer adjacency
matrix A.  The classical flow-equivalence invariants are the Bowen-Franks
group cok(I - A) and the Parry-Sullivan number det(I - A); together they are
complete for nontrivial irreducible shifts (Franks).  The general (reducible)
case condenses A into strongly connected components, stabilizes the blocked
matrix I - A over the component poset, and hands the question to the blocked
SL-equivalence engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equiv import (
    BudgetReport,
    Certificate,
    SearchBudget,
    Verdict,
    _first_difference,
    decide_blocked_equivalence,
    SIDE_UAV,
)
from .intmat import FgAbelianGroup, IntMatrix, cokernel, determinant, int_to_str
from .poset_block import SL, BlockedMatrix, BlockShape, Poset, iota_embed, reachability


@dataclass(frozen=True, slots=True)
class SftMatrix:
    """Square nonnegative integer adjacency matrix (entries are edge
    multiplicities; 0/1 matrices are the classical case)."""

    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("adjacency matrix must be square")
        if any(e < 0 for e in self.matrix.entries):
            raise ValueError("adjacency entries must be nonnegative")

    @classmethod
    def from_rows(cls, rows):
        return cls(IntMatrix.from_rows(rows))

    @property
    def size(self):
        return self.matrix.rows

    def __repr__(self):
        return f"SftMatrix({self.matrix.to_rows()})"


@dataclass(frozen=True)
class FlowInvariant:
    """The classical pair: Bowen-Franks group and Parry-Sullivan number.

    Consistency: parry_sullivan = 0 iff the group has free rank, and
    |parry_sullivan| equals the torsion order otherwise.
    """

    bowen_franks: FgAbelianGroup
    parry_sullivan: int

    def __post_init__(self):
        g = self.bowen_franks
        if (self.parry_sullivan == 0) != (g.free_rank > 0):
            raise ValueError("Parry-Sullivan sign inconsistent with free rank")
        if g.free_rank == 0 and abs(self.parry_sullivan) != g.order():
            raise ValueError("Parry-Sullivan magnitude inconsistent with torsion")

    @classmethod
    def of(cls, a: SftMatrix):
        """Both invariants of a, from one I - A."""
        m = _i_minus_a(a)
        return cls(cokernel(m), determinant(m))


def _i_minus_a(a: SftMatrix) -> IntMatrix:
    return IntMatrix.identity(a.size) - a.matrix


def bowen_franks(a: SftMatrix) -> FgAbelianGroup:
    """cok(I - A)."""
    return cokernel(_i_minus_a(a))


def parry_sullivan(a: SftMatrix) -> int:
    """det(I - A), the signed invariant the cokernel cannot see."""
    return determinant(_i_minus_a(a))


def _edges(a: SftMatrix):
    """The digraph's edges (u, v), one per nonzero entry, by row."""
    n = a.size
    return [divmod(k, n) for k, e in enumerate(a.matrix.entries) if e]


def _digraph_sccs(n, edges):
    """Strongly connected components of the digraph on 0..n-1, each sorted,
    by least vertex: the vertices reached from u that also reach u, and u."""
    down = reachability(n, edges)
    up = reachability(n, [(v, u) for u, v in edges])
    comps = []
    seen = 0
    for u in range(n):
        if not seen >> u & 1:
            mask = down[u] & up[u] | 1 << u
            seen |= mask
            comps.append([v for v in range(n) if mask >> v & 1])
    return comps


def is_irreducible(a: SftMatrix) -> bool:
    """Strong connectivity of the digraph: every vertex reaches every vertex
    by a path of one or more edges (so a single vertex needs a loop)."""
    n = a.size
    full = (1 << n) - 1
    return n > 0 and all(mask == full for mask in reachability(n, _edges(a)))


def is_single_cycle(a: SftMatrix) -> bool:
    """A trivial shift: the digraph is one directed cycle (finite orbit).
    Irreducible with every out-degree 1 leaves n edges to give every vertex
    an in-edge, so every in-degree is 1 as well.  The out-degrees are read
    first, so a shift with another out-degree costs no reachability pass."""
    return all(sum(row) == 1 for row in a.matrix.to_rows()) and is_irreducible(a)


@dataclass(frozen=True)
class CondensedForm:
    """SCC condensation of I - A into poset-blocked form.

    poset: components ordered by reachability (i below j iff i reaches j),
    relabelled so the order respects the integer order; sizes: component
    sizes; permutation: original vertex for each permuted position; blocked:
    P(I - A)P^T over the component poset; trivial_flags: components that are
    a single vertex with no self-loop.
    """

    poset: Poset
    sizes: tuple[int, ...]
    permutation: tuple[int, ...]
    blocked: BlockedMatrix
    trivial_flags: tuple[bool, ...]

    def component_invariant(self, i) -> FlowInvariant:
        """FlowInvariant of component i (1-based), read off the diagonal
        block of I - A."""
        blk = self.blocked.diagonal_block(i)
        return FlowInvariant(cokernel(blk), determinant(blk))


def condense(a: SftMatrix) -> CondensedForm:
    """Condense into strongly connected components, topologically ordered
    with ties broken by least original vertex index."""
    n = a.size
    if n == 0:
        raise ValueError("cannot condense an empty adjacency matrix")
    # Labelling components by least vertex makes Poset.normalized's tie-break
    # (least label among the ready sources) the least original vertex.
    edges = _edges(a)
    comps = _digraph_sccs(n, edges)
    label = {v: ci for ci, comp in enumerate(comps, start=1) for v in comp}
    poset, relabel = Poset.normalized(len(comps), {
        (label[u], label[v]) for u, v in edges if label[u] != label[v]
    })
    order = sorted(comps, key=lambda comp: relabel[label[comp[0]] - 1])
    sizes = tuple(len(comp) for comp in order)
    permutation = tuple(v for comp in order for v in comp)
    permuted = _i_minus_a(a).submatrix(permutation, permutation)
    blocked = BlockedMatrix(BlockShape.square(poset, sizes), permuted)
    trivial = tuple(
        len(comp) == 1 and a.matrix[comp[0], comp[0]] == 0 for comp in order
    )
    return CondensedForm(poset, sizes, permutation, blocked, trivial)


def stabilization_target(m, m2):
    """Common stabilization sizes: n_i = 1 where m_i = 1, else
    2 + max(m_i, m2_i); requires the size-one patterns to agree."""
    m = tuple(m)
    m2 = tuple(m2)
    if len(m) != len(m2):
        raise ValueError("size vectors have different lengths")
    for i, (a, b) in enumerate(zip(m, m2), start=1):
        if (a == 1) != (b == 1):
            raise ValueError(
                f"size-one pattern mismatch at component {i}: {a} vs {b}"
            )
    return tuple(1 if a == 1 else 2 + max(a, b) for a, b in zip(m, m2))


def _relabel_blocked(cond: CondensedForm, sigma) -> tuple[IntMatrix, tuple]:
    """cond.blocked pulled back along sigma: block (i, j) of the result is
    block (sigma(i), sigma(j)) of the source.  Returns (matrix, sizes)."""
    # sigma is an order isomorphism, so the pulled-back matrix is blocked
    # over the *source* poset with the permuted sizes.
    return cond.blocked.restrict(sigma), tuple(cond.sizes[x - 1] for x in sigma)


def _alignments(c1: CondensedForm, c2: CondensedForm):
    """Order isomorphisms from c1's poset to c2's that respect trivial flags,
    the size-one pattern, and per-component flow invariants."""
    def keys(c):
        return [(c.trivial_flags[i - 1], c.sizes[i - 1] == 1, c.component_invariant(i))
                for i in c.poset.elements()]

    key1, key2 = keys(c1), keys(c2)
    return [
        sigma for sigma in c1.poset.order_isomorphisms(c2.poset)
        if all(k == key2[j - 1] for k, j in zip(key1, sigma))
    ]


def _condensation_summary(c: CondensedForm) -> str:
    parts = []
    for i in c.poset.elements():
        inv = c.component_invariant(i)
        parts.append(
            f"{i}:size={c.sizes[i - 1]},trivial={c.trivial_flags[i - 1]},"
            f"ps={int_to_str(inv.parry_sullivan)},bf={inv.bowen_franks}"
        )
    rel = ",".join(f"{i}<{j}" for i, j in c.poset.strict_pairs())
    return f"poset[{rel}] " + " ".join(parts)


def decide_flow_equivalence(
    a: SftMatrix, a2: SftMatrix, budget: SearchBudget = SearchBudget()
) -> Verdict:
    """Three-valued flow equivalence decision.

    Irreducible inputs get the complete Franks decision (yes/no, no witness
    matrix).  Otherwise both inputs are condensed; every invariant-compatible
    alignment of the component posets is stabilized and handed to the blocked
    SL engine, and the alignments share the budget's nodes.  Yes propagates
    immediately; No needs every alignment refuted.
    """
    return _decide_flow(a, a2, budget)[0]


def _decide_flow(a: SftMatrix, a2: SftMatrix, budget: SearchBudget):
    """(verdict, invariant): the verdict of decide_flow_equivalence, and the
    FlowInvariant of `a` on a yes for two irreducible inputs (else None).
    The CLI calls this directly, so a CLI flow-eq op is not traced as
    decide_flow_equivalence."""
    if a.size == 0 or a2.size == 0:
        if a.size == a2.size:
            return Verdict.yes(IntMatrix(0, 0, ()), IntMatrix(0, 0, ()),
                               BudgetReport(0, 0)), None
        return Verdict.no(
            Certificate("condensation-alignment",
                        f"{a.size} vertices", f"{a2.size} vertices"),
            BudgetReport(0, 0),
        ), None

    if is_irreducible(a) and is_irreducible(a2):
        # Franks: the single-cycle flag, Parry-Sullivan and Bowen-Franks
        # decide, in that order; two single cycles agree on all three.
        sides = [(is_single_cycle(m), FlowInvariant.of(m)) for m in (a, a2)]
        refuted = _first_difference(*(
            [("single-cycle", flag), ("parry-sullivan", int_to_str(inv.parry_sullivan)),
             ("bowen-franks", inv.bowen_franks)]
            for flag, inv in sides
        ))
        if refuted is not None:
            return refuted, None
        return Verdict("yes", report=BudgetReport(0, 0)), sides[0][1]

    c1 = condense(a)
    c2 = condense(a2)
    sigmas = _alignments(c1, c2)
    if not sigmas:
        return Verdict.no(
            Certificate(
                "condensation-alignment",
                _condensation_summary(c1),
                _condensation_summary(c2),
            ),
            BudgetReport(0, 0),
        ), None

    total_nodes = 0
    max_depth = 0
    all_no = True
    first_no = None
    # The alignments share one node budget.  Once it is spent, an alignment
    # has searched without an answer (a no costs no nodes), so no is out of
    # reach and the verdict is unknown.
    for sigma in sigmas:
        left = budget.max_nodes - total_nodes
        if left <= 0:
            return Verdict.unknown(BudgetReport(total_nodes, max_depth)), None
        sub, sizes2 = _relabel_blocked(c2, sigma)
        target = stabilization_target(c1.sizes, sizes2)
        shape2 = BlockShape.square(c1.poset, sizes2)
        b1 = iota_embed(c1.blocked, target)
        b2 = iota_embed(BlockedMatrix(shape2, sub), target)
        verdict = decide_blocked_equivalence(
            b1, b2, group=SL, side=SIDE_UAV,
            budget=SearchBudget(budget.max_depth, left),
        )
        if verdict.report:
            total_nodes += verdict.report.nodes_expanded
            max_depth = max(max_depth, verdict.report.depth_reached)
        if verdict.is_yes:
            return Verdict.yes(
                verdict.witness[0],
                verdict.witness[1],
                BudgetReport(total_nodes, max_depth),
            ), None
        if verdict.is_no:
            if first_no is None:
                first_no = verdict.certificate
        else:
            all_no = False
    if all_no and first_no is not None:
        return Verdict.no(first_no, BudgetReport(total_nodes, max_depth)), None
    return Verdict.unknown(BudgetReport(total_nodes, max_depth)), None
