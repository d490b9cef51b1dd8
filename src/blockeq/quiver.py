"""Z-representations of quivers and K-webs.

A representation assigns a finitely presented abelian group to each vertex
and an integer matrix (images of source generators in target generators) to
each edge.  Isomorphism testing is complete for finite vertex groups by
enumeration, and budget-bounded otherwise.  K-webs package the kernels and
cokernels of the convex-subset submatrices of a blocked matrix into one such
representation, linked by six-term exact sequences.

Quiver vertices are 0-based indices; poset elements stay 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm

from .equiv import BudgetReport, Certificate, SearchBudget, Verdict
from .intmat import (
    DimensionError,
    FgAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    invert_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_matrix,
)
from .poset_block import BlockedMatrix, BlockShape, ShapeError

ISO_ENUMERATION_CAP = 64


@dataclass(frozen=True)
class Edge:
    id: str
    src: int
    dst: int


class Quiver:
    """Finite directed graph; parallel edges and loops allowed."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        edges = tuple(
            e if isinstance(e, Edge) else Edge(str(e[0]), e[1], e[2]) for e in edges
        )
        for e in edges:
            if not (0 <= e.src < vertices and 0 <= e.dst < vertices):
                raise ValueError(f"edge {e.id} endpoint out of range")
        if len({e.id for e in edges}) != len(edges):
            raise ValueError("duplicate edge ids")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Quiver({self.vertices}, {[(e.id, e.src, e.dst) for e in self.edges]})"


class PresentedGroup:
    """Z^gens / column-lattice(relations), with SNF-normalized coordinates.

    Normal coordinates list the torsion generators (orders d1 | d2 | ...)
    first, then the free generators; `orders` holds the di followed by zeros,
    and `normal_relations` is diag(orders) on the torsion columns, the
    relation matrix in normal coordinates.  to_normal / from_normal convert
    coordinate columns; from_normal followed by to_normal is the identity on
    normal coordinates exactly.
    """

    __slots__ = (
        "gens",
        "relations",
        "group",
        "orders",
        "normal_relations",
        "to_normal",
        "from_normal",
    )

    def __init__(self, gens: int, relations: IntMatrix, dec=None):
        """dec, when given, is smith_normal_form(relations) already computed,
        as in solve_matrix."""
        if relations.rows != gens:
            raise DimensionError("relations must have one row per generator")
        if dec is None:
            dec = smith_normal_form(relations)
        diag = dec.diagonal()
        torsion_idx = [i for i, d in enumerate(diag) if d >= 2]
        free_idx = [i for i, d in enumerate(diag) if d == 0]
        free_idx += list(range(len(diag), gens))
        keep = torsion_idx + free_idx
        torsion = tuple(diag[i] for i in torsion_idx)
        group = FgAbelianGroup(len(free_idx), torsion, presentation=relations)
        u_inv = invert_unimodular(dec.U) if gens else IntMatrix(0, 0, ())
        to_normal = dec.U.submatrix(keep, range(gens))
        from_normal = u_inv.submatrix(range(gens), keep)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "group", group)
        orders = torsion + (0,) * len(free_idx)
        normal_relations = IntMatrix.diagonal(orders).submatrix(
            range(len(orders)), range(len(torsion))
        )
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "normal_relations", normal_relations)
        object.__setattr__(self, "to_normal", to_normal)
        object.__setattr__(self, "from_normal", from_normal)

    def __setattr__(self, name, value):
        raise AttributeError("PresentedGroup is immutable")

    @classmethod
    def free(cls, rank):
        """Z^rank, whose rank x 0 relation matrix is its own Smith form."""
        relations = IntMatrix.zero(rank, 0)
        dec = SmithDecomposition(IntMatrix.identity(rank), relations, IntMatrix(0, 0, ()))
        return cls(rank, relations, dec)

    @property
    def normal_gens(self):
        return len(self.orders)

    def iso_class(self):
        return self.group.iso_class()

    def reduce(self, m: IntMatrix) -> IntMatrix:
        """m, one row per normal generator, with each row reduced modulo its
        order; rows of free generators (order 0) are kept as they are."""
        if m.rows != self.normal_gens:
            raise DimensionError("one row per normal generator required")
        return IntMatrix._trusted(
            m.rows,
            m.cols,
            tuple([e % d if d else e for i, d in enumerate(self.orders) for e in m.row(i)]),
        )

    def contains_relation(self, m: IntMatrix) -> bool:
        """Whether every raw-coordinate column of m is zero in the group."""
        return self.reduce(self.to_normal * m).is_zero()

    def __repr__(self):
        return f"PresentedGroup({self.gens} gens, {self.group})"


def normalize_hom(f_raw: IntMatrix, src: PresentedGroup, dst: PresentedGroup) -> IntMatrix:
    """Convert a raw-generator matrix to normal coordinates (reduced)."""
    return dst.reduce(dst.to_normal * f_raw * src.from_normal)


def raw_hom(f_normal: IntMatrix, src: PresentedGroup, dst: PresentedGroup) -> IntMatrix:
    """Convert a normal-coordinate matrix back to raw generators."""
    return dst.from_normal * f_normal * src.to_normal


def hom_well_defined(f_normal: IntMatrix, src: PresentedGroup, dst: PresentedGroup) -> bool:
    """d_j * f(e_j) must vanish in the target for every torsion source gen;
    free source columns are multiplied by their order 0."""
    return dst.reduce(f_normal * IntMatrix.diagonal(src.orders)).is_zero()


def homs_equal(f: IntMatrix, g: IntMatrix, dst: PresentedGroup) -> bool:
    return dst.reduce(f - g).is_zero()


def hom_classes(f_normal, src: PresentedGroup, dst: PresentedGroup) -> tuple:
    """Iso classes (kernel, image, cokernel) of a well-defined hom, from one
    Smith form of [f | dst relations]: the cokernel is read off its diagonal,
    and the source part of its kernel basis is the preimage lattice
    {z : f(z) = 0 in dst}, whose quotient of Z^src is the image and which
    contains the source relations with the kernel as quotient."""
    stacked = f_normal.hstack(dst.normal_relations)
    dec = smith_normal_form(stacked)
    coker = (stacked.rows - dec.rank, tuple(d for d in dec.diagonal() if d >= 2))
    ker = kernel_basis(stacked, dec)
    lat = ker.submatrix(range(f_normal.cols), range(ker.cols))
    expr = solve_matrix(lat, src.normal_relations)
    if expr is None:  # pragma: no cover - relations always map to zero
        raise AssertionError("source relations escaped the preimage lattice")
    return cokernel(expr).iso_class(), cokernel(lat).iso_class(), coker


def hom_inverse(f_normal, src: PresentedGroup, dst: PresentedGroup):
    """Normal-coordinate inverse of f, or None when f is not an isomorphism.

    A solution of [f | dst relations] X = I gives g, the top rows of X
    reduced in src, with f(g(y)) = y in dst, so f is onto exactly when the
    solve succeeds; f is then an isomorphism exactly when g is well defined
    and g(f(x)) = x in src."""
    if not hom_well_defined(f_normal, src, dst):
        return None
    sol = solve_matrix(
        f_normal.hstack(dst.normal_relations), IntMatrix.identity(dst.normal_gens)
    )
    if sol is None:
        return None
    g = src.reduce(sol.submatrix(range(src.normal_gens), range(dst.normal_gens)))
    if hom_well_defined(g, dst, src) and homs_equal(
        g * f_normal, IntMatrix.identity(src.normal_gens), src
    ):
        return g
    return None


class ZRep:
    """A Z-representation: per-vertex presented groups plus edge matrices in
    raw generator coordinates (columns = images of source generators).
    The normal-coordinate edge maps are kept from validation."""

    __slots__ = ("quiver", "groups", "edge_maps", "normal_edge_maps")

    def __init__(self, quiver: Quiver, presentations, edge_maps):
        presentations = list(presentations)
        edge_maps = list(edge_maps)
        if len(presentations) != quiver.vertices:
            raise DimensionError("one presentation per vertex required")
        if len(edge_maps) != len(quiver.edges):
            raise DimensionError("one matrix per edge required")
        groups = tuple(
            p if isinstance(p, PresentedGroup) else PresentedGroup(p.rows, p)
            for p in presentations
        )
        # A presented group is a function of its relations, so an edge that
        # repeats the (map, source, target) relations of an earlier edge
        # reuses that edge's validated normal map.
        normal_of = {}
        normal_edge_maps = []
        for e, f in zip(quiver.edges, edge_maps):
            src, dst = groups[e.src], groups[e.dst]
            key = (f, src.relations, dst.relations)
            normal = normal_of.get(key)
            if normal is None:
                if f.rows != dst.gens or f.cols != src.gens:
                    raise DimensionError(
                        f"edge {e.id}: map must be {dst.gens}x{src.gens}"
                    )
                if not dst.contains_relation(f * src.relations):
                    raise ValueError(f"edge {e.id}: map does not respect relations")
                normal = normal_of[key] = normalize_hom(f, src, dst)
            normal_edge_maps.append(normal)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "edge_maps", tuple(edge_maps))
        object.__setattr__(self, "normal_edge_maps", tuple(normal_edge_maps))

    def __setattr__(self, name, value):
        raise AttributeError("ZRep is immutable")


# ---------------------------------------------------------------------------
# Morphisms and isomorphism


def is_morphism(family, rep1: ZRep, rep2: ZRep, quiver: Quiver) -> bool:
    """Whether per-vertex matrices commute with every edge modulo relations."""
    if rep1.quiver != quiver or rep2.quiver != quiver:
        raise ValueError("representations live on a different quiver")
    family = list(family)
    if len(family) != quiver.vertices:
        raise DimensionError("one matrix per vertex required")
    normals = []
    for v, f in enumerate(family):
        src, dst = rep1.groups[v], rep2.groups[v]
        if f.rows != dst.gens or f.cols != src.gens:
            raise DimensionError(f"vertex {v}: matrix must be {dst.gens}x{src.gens}")
        if not dst.contains_relation(f * src.relations):
            return False
        normals.append(normalize_hom(f, src, dst))
    for idx, e in enumerate(quiver.edges):
        lhs = normals[e.dst] * rep1.normal_edge_maps[idx]
        rhs = rep2.normal_edge_maps[idx] * normals[e.src]
        if not homs_equal(lhs, rhs, rep2.groups[e.dst]):
            return False
    return True


def _element_order(entries, orders):
    o = 1
    for e, d in zip(entries, orders):
        if d == 0:
            if e:
                return 0
            continue
        e %= d
        if e:
            o = lcm(o, d // gcd(e, d))
    return o


def enumerate_isomorphisms(src: PresentedGroup, dst: PresentedGroup):
    """All isomorphisms between finite groups of order <= 64, as
    normal-coordinate matrices: each generator maps to a target element of
    the same order, filtered by bijectivity.  Hard error above the cap."""
    if src.iso_class() != dst.iso_class():
        return []
    if src.group.free_rank or dst.group.free_rank:
        raise ValueError("isomorphism enumeration needs finite groups")
    order = src.group.order()
    if order > ISO_ENUMERATION_CAP:
        raise ValueError(
            f"group order {order} exceeds the enumeration cap {ISO_ENUMERATION_CAP}"
        )
    n = src.normal_gens
    if n == 0:
        return [IntMatrix(0, 0, ())]
    orders = dst.orders
    by_order = {}
    for el in product(*(range(d) for d in orders)):
        by_order.setdefault(_element_order(el, orders), []).append(el)

    def add(x, y):
        return tuple([(a + b) % d for a, b, d in zip(x, y, orders)])

    zero = (0,) * n
    out = []

    def extend(chosen, span):
        # span is the subgroup the chosen images generate, and the map is
        # injective on the first k generators.  The orders of the source
        # multiply to the order of the target, so a full choice is onto.
        k = len(chosen)
        if k == n:
            out.append(
                IntMatrix._trusted(n, n, tuple([c[i] for i in range(n) for c in chosen]))
            )
            return
        d = src.orders[k]
        for el in by_order.get(d, ()):
            # An image of order d keeps the map injective exactly when no
            # j*el with 0 < j < d lies in the span so far.
            multiples = [zero]
            for _ in range(d - 1):
                multiples.append(add(multiples[-1], el))
            if any(m in span for m in multiples[1:]):
                continue
            chosen.append(el)
            extend(chosen, {add(x, m) for x in span for m in multiples})
            chosen.pop()

    extend([], {zero})
    return out


def _edge_invariant_certificates(rep1: ZRep, rep2: ZRep):
    certs = []
    for v in range(rep1.quiver.vertices):
        c1, c2 = rep1.groups[v].iso_class(), rep2.groups[v].iso_class()
        if c1 != c2:
            certs.append(
                Certificate(
                    f"vertex-group[{v}]",
                    str(FgAbelianGroup(*c1)),
                    str(FgAbelianGroup(*c2)),
                )
            )
    for idx, e in enumerate(rep1.quiver.edges):
        classes1, classes2 = (
            hom_classes(r.normal_edge_maps[idx], r.groups[e.src], r.groups[e.dst])
            for r in (rep1, rep2)
        )
        for name, g1, g2 in zip(("kernel", "image", "cokernel"), classes1, classes2):
            if g1 != g2:
                certs.append(
                    Certificate(
                        f"edge-{name}[{e.id}]",
                        str(FgAbelianGroup(*g1)),
                        str(FgAbelianGroup(*g2)),
                    )
                )
    return certs


def _bounded_candidates(src: PresentedGroup, dst: PresentedGroup, bound):
    """Raw normal-coordinate candidates with free entries in [-bound, bound]
    and torsion entries canonical, identity first.  The caller filters for
    isomorphism (and pays for each candidate against its budget)."""
    n1, n2 = src.normal_gens, dst.normal_gens
    if n1 != n2 or src.iso_class() != dst.iso_class():
        return
    if n1 == 0:
        yield IntMatrix(0, 0, ())
        return
    ranges = []
    for i in range(n2):
        d = dst.orders[i]
        if d:
            ranges.append(range(min(d, 2 * bound + 1)))
        else:
            ranges.append(range(-bound, bound + 1))
    ident = IntMatrix.identity(n1)
    yield ident
    for flat in product(*(ranges[i] for i in range(n2) for _ in range(n1))):
        m = IntMatrix(n2, n1, flat)
        if m != ident:
            yield m


def decide_rep_isomorphism(
    rep1: ZRep, rep2: ZRep, quiver: Quiver, budget: SearchBudget = SearchBudget()
) -> Verdict:
    """Isomorphism of representations over the same quiver.

    Refutation first (vertex classes, edge kernel/image/cokernel classes);
    complete enumeration when every vertex group is finite of order <= 64;
    budget-bounded candidate search otherwise.  The yes-witness is the pair
    (forward, inverse) of block-diagonal matrices over the vertex generators.
    """
    if rep1.quiver != quiver or rep2.quiver != quiver:
        raise ValueError("representations live on different quivers")

    certs = _edge_invariant_certificates(rep1, rep2)
    if certs:
        return Verdict.no(certs[0], BudgetReport(0, 0))

    nv = quiver.vertices
    finite = all(
        g.group.is_finite and g.group.order() <= ISO_ENUMERATION_CAP
        for g in rep1.groups
    )
    edges_by_max_vertex = [[] for _ in range(nv + 1)]
    for idx, e in enumerate(quiver.edges):
        edges_by_max_vertex[max(e.src, e.dst) + 1].append(idx)
    norm1, norm2 = rep1.normal_edge_maps, rep2.normal_edge_maps

    tested = 0

    class _BudgetExhausted(Exception):
        pass

    def edges_commute(assign, idx):
        e = quiver.edges[idx]
        lhs = assign[e.dst] * norm1[idx]
        rhs = norm2[idx] * assign[e.src]
        return homs_equal(lhs, rhs, rep2.groups[e.dst])

    def dfs(v, assign, candidate_iter_factory, prefiltered):
        nonlocal tested
        if v == nv:
            return list(assign)
        for cand in candidate_iter_factory(v):
            tested += 1
            if tested > budget.max_nodes:
                raise _BudgetExhausted
            if not prefiltered and (
                hom_inverse(cand, rep1.groups[v], rep2.groups[v]) is None
            ):
                continue
            assign.append(cand)
            if all(edges_commute(assign, i) for i in edges_by_max_vertex[v + 1]):
                res = dfs(v + 1, assign, candidate_iter_factory, prefiltered)
                if res is not None:
                    return res
            assign.pop()
        return None

    def finish_yes(assign):
        inverse = [
            hom_inverse(assign[v], rep1.groups[v], rep2.groups[v]) for v in range(nv)
        ]
        if any(g is None for g in inverse):  # pragma: no cover - theory
            raise AssertionError("vertex map of the family is not an isomorphism")
        fwd_raw = [
            raw_hom(assign[v], rep1.groups[v], rep2.groups[v]) for v in range(nv)
        ]
        if not is_morphism(fwd_raw, rep1, rep2, quiver):  # pragma: no cover
            raise AssertionError("isomorphism family failed re-verification")
        u = _block_diagonal(fwd_raw)
        w = _block_diagonal(
            [raw_hom(inverse[v], rep2.groups[v], rep1.groups[v]) for v in range(nv)]
        )
        return Verdict.yes(u, w, BudgetReport(tested, 0))

    if finite:
        iso_lists = [
            enumerate_isomorphisms(rep1.groups[v], rep2.groups[v]) for v in range(nv)
        ]
        try:
            res = dfs(0, [], lambda v: iso_lists[v], prefiltered=True)
        except _BudgetExhausted:
            return Verdict.unknown(BudgetReport(tested, 0))
        if res is not None:
            return finish_yes(res)
        return Verdict.no(
            Certificate(
                "finite-enumeration",
                f"vertex-isomorphism search tree exhausted ({tested} candidates)",
                "no family commutes with the edge maps",
            ),
            BudgetReport(tested, 0),
        )

    # Mixed / infinite vertex groups: iterative deepening on the entry bound,
    # capped by the node budget (bound itself capped by max_depth).
    bound = 1
    while tested <= budget.max_nodes:
        try:
            res = dfs(
                0,
                [],
                lambda v: _bounded_candidates(rep1.groups[v], rep2.groups[v], bound),
                prefiltered=False,
            )
        except _BudgetExhausted:
            return Verdict.unknown(BudgetReport(tested, 0))
        if res is not None:
            return finish_yes(res)
        bound += 1
        if bound > budget.max_depth:
            break
    return Verdict.unknown(BudgetReport(tested, 0))


def _block_diagonal(mats):
    return IntMatrix.from_blocks(
        [m.rows for m in mats], [m.cols for m in mats],
        {(k, k): m for k, m in enumerate(mats)},
    )


# ---------------------------------------------------------------------------
# K-webs


@dataclass(frozen=True)
class KWeb:
    """Kernels and cokernels of every convex-subset submatrix of a square
    blocked matrix, as a representation of its diagram quiver.  Node 2k is
    ker B{S} and node 2k+1 is cok B{S} for the k-th convex subset S, and
    `labels` names them (ker[1, 2], cok[1, 2]).  The edges are the five maps
    of the six-term sequence

        0 -> ker B{S1} -> ker B{S} -> ker B{S2}
          -> cok B{S1} -> cok B{S} -> cok B{S2} -> 0

    for every splitting of a convex S into a down-set S1 and its complement.
    Exactness of every sequence is asserted at construction time, at each
    position as two lattice inclusions: the image lies in the kernel when the
    composition with the next map vanishes modulo the next relations (a
    product, no Smith form), and the kernel lies in the image when a basis of
    the kernel solves against the image (one Smith form of the image, which
    is the matrix whose kernel the previous position took).
    """

    shape: BlockShape
    quiver: Quiver
    rep: ZRep
    labels: tuple


def _sub_rows(shape, subset):
    return [r for i in subset for r in shape.row_range(i)]


def _sub_cols(shape, subset):
    return [c for j in subset for c in shape.col_range(j)]


def _exact_at(f_in, f_out, mid: PresentedGroup, nxt: PresentedGroup, snf) -> bool:
    """Exactness at `mid`, compared as sublattices of its generator lattice.

    With image = [f_in | mid relations] and K = {x : f_out x = 0 in nxt},
    image in K holds when f_out * image vanishes in nxt, which is a product
    and a reduction; K in image holds when the preimage part of
    ker [f_out | nxt relations], which spans K, solves against image.  snf
    returns the Smith decomposition of a matrix; the matrix whose kernel is
    taken here is the image at the next position of a six-term sequence.
    """
    image = f_in.hstack(mid.relations)
    if not nxt.contains_relation(f_out * image):
        return False
    stacked = f_out.hstack(nxt.relations)
    ker = kernel_basis(stacked, snf(stacked))
    pre = ker.submatrix(range(f_out.cols), range(ker.cols))
    return solve_matrix(image, pre, snf(image)) is not None


def build_kweb(b: BlockedMatrix) -> KWeb:
    """Construct the full web of a square blocked matrix."""
    shape = b.shape
    if not shape.is_square:
        raise ShapeError("K-webs are built over square shapes")
    poset = shape.poset
    convex = poset.convex_subsets()
    # One Smith decomposition per distinct matrix: the sequences of
    # neighbouring splittings share maps and kernels, and the matrix whose
    # kernel is taken at one position is the image at the next.
    decs = {}

    def snf(a):
        dec = decs.get(a)
        if dec is None:
            dec = decs[a] = smith_normal_form(a)
        return dec

    # Node 2k is ker B{S} and node 2k+1 is cok B{S} for S = convex[k].
    index = {s: 2 * k for k, s in enumerate(convex)}
    groups = []
    kernel_bases = {}
    submatrices = {}
    for s in convex:
        rows = _sub_rows(shape, s)
        cols = _sub_cols(shape, s)
        sub = b.matrix.submatrix(rows, cols)
        submatrices[s] = sub
        basis = kernel_basis(sub, snf(sub))
        kernel_bases[s] = basis
        groups.append(PresentedGroup.free(basis.cols))
        groups.append(PresentedGroup(sub.rows, sub, snf(sub)))

    edges = []
    maps = []
    trivial = PresentedGroup.free(0)
    # Exactness at a position depends only on the two maps and the relations
    # of the middle and next groups, so each such question is proved once.
    proved = set()
    for s in convex:
        col_index = {j: pos for pos, j in enumerate(_sub_cols(shape, s))}
        row_index = {r: pos for pos, r in enumerate(_sub_rows(shape, s))}
        n_rows, n_cols = len(row_index), len(col_index)
        row_ident = IntMatrix.identity(n_rows)
        col_ident = IntMatrix.identity(n_cols)
        for s1 in poset.downsets_within(s):
            s2 = tuple(x for x in s if x not in s1)
            ker1, ker, ker2 = index[s1], index[s], index[s2]
            cok1, cok, cok2 = ker1 + 1, ker + 1, ker2 + 1
            n1 = kernel_bases[s1]
            nn = kernel_bases[s]
            n2 = kernel_bases[s2]
            cols_s1 = [col_index[c] for c in _sub_cols(shape, s1)]
            cols_s2 = [col_index[c] for c in _sub_cols(shape, s2)]
            rows_s1 = [row_index[r] for r in _sub_rows(shape, s1)]

            # ker B{S1} -> ker B{S}: include and re-express in the S basis.
            emb = col_ident.submatrix(range(n_cols), cols_s1)
            f1 = solve_matrix(nn, emb * n1, snf(nn))
            if f1 is None:  # pragma: no cover - theory
                raise AssertionError("kernel inclusion failed")

            # ker B{S} -> ker B{S2}: project to the S2 coordinates.
            proj = nn.submatrix(cols_s2, range(nn.cols))
            f2 = solve_matrix(n2, proj, snf(n2))
            if f2 is None:  # pragma: no cover - theory
                raise AssertionError("kernel projection failed")

            # Connecting map: w -> X w in cok B{S1}, X the upper-right block.
            x = submatrices[s].submatrix(rows_s1, cols_s2)
            delta = x * n2

            # cok B{S1} -> cok B{S} includes the S1 rows; cok B{S} ->
            # cok B{S2} projects onto the S2 rows.
            f4 = row_ident.submatrix(range(n_rows), rows_s1)
            rows_s2 = [row_index[r] for r in _sub_rows(shape, s2)]
            f5 = row_ident.submatrix(rows_s2, range(n_rows))

            tag = f"S={list(s)}|S1={list(s1)}"
            seq_nodes = [ker1, ker, ker2, cok1, cok, cok2]
            seq_maps = [f1, f2, delta, f4, f5]
            for kind, src, dst, f in zip(
                ("ker-incl", "ker-proj", "delta", "cok-incl", "cok-proj"),
                seq_nodes,
                seq_nodes[1:],
                seq_maps,
            ):
                edges.append(Edge(f"{kind}[{tag}]", src, dst))
                maps.append(f)

            # Exactness of the whole six-term sequence, node by node.
            seq_groups = [groups[n] for n in seq_nodes]
            zero_in = IntMatrix.zero(seq_groups[0].gens, 0)
            zero_out = IntMatrix.zero(0, seq_groups[-1].gens)
            chain_in = [zero_in] + seq_maps
            chain_out = seq_maps + [zero_out]
            chain_next = seq_groups[1:] + [trivial]
            for pos in range(6):
                key = (
                    chain_in[pos],
                    chain_out[pos],
                    seq_groups[pos].relations,
                    chain_next[pos].relations,
                )
                if key in proved:
                    continue
                if not _exact_at(
                    chain_in[pos], chain_out[pos], seq_groups[pos], chain_next[pos], snf
                ):
                    raise AssertionError(
                        f"six-term sequence not exact at position {pos} for {tag}"
                    )
                proved.add(key)

    quiver = Quiver(len(groups), edges)
    labels = tuple(f"{kind}{list(s)}" for s in convex for kind in ("ker", "cok"))
    return KWeb(shape, quiver, ZRep(quiver, groups, maps), labels)


def decide_kweb_isomorphism(
    w1: KWeb, w2: KWeb, budget: SearchBudget = SearchBudget()
) -> Verdict:
    """Isomorphism of webs over the same shape: the webs are compared as
    representations of the shared diagram quiver with the node
    correspondence fixed to the identity."""
    if w1.shape != w2.shape:
        raise ShapeError("webs live over different shapes")
    if w1.quiver != w2.quiver:  # pragma: no cover - same shape implies same diagram
        raise AssertionError("web diagrams disagree")
    return decide_rep_isomorphism(w1.rep, w2.rep, w1.quiver, budget)
