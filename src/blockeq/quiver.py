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

from dataclasses import InitVar, dataclass, field
from itertools import chain, product
from math import gcd, lcm

from .equiv import BudgetReport, Certificate, SearchBudget, Verdict, _first_difference
from .intmat import (
    DimensionError,
    FgAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    _check_ints,
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


@dataclass(frozen=True, slots=True)
class Quiver:
    """Finite directed graph; parallel edges and loops allowed.  Edges may be
    given as Edge values or (id, src, dst) triples; every id is a string."""

    vertices: int
    edges: tuple

    def __post_init__(self):
        _check_ints((self.vertices,), "vertex count")
        edges = []
        for e in self.edges:
            if not isinstance(e, Edge):
                if not isinstance(e, (tuple, list)) or len(e) != 3:
                    raise ValueError(f"edge {e!r} is not an (id, src, dst) triple")
                e = Edge(*e)
            edges.append(e)
            if not isinstance(e.id, str):
                raise ValueError(f"edge id must be a string, got {e.id!r}")
            _check_ints((e.src, e.dst), "edge endpoint")
            if not (0 <= e.src < self.vertices and 0 <= e.dst < self.vertices):
                raise ValueError(f"edge {e.id} endpoint out of range")
        if len({e.id for e in edges}) != len(edges):
            raise ValueError("duplicate edge ids")
        object.__setattr__(self, "edges", tuple(edges))

    def __repr__(self):
        return f"Quiver({self.vertices}, {[(e.id, e.src, e.dst) for e in self.edges]})"


@dataclass(frozen=True, slots=True, eq=False)
class PresentedGroup:
    """Z^gens / column-lattice(relations), with SNF-normalized coordinates.

    Normal coordinates list the torsion generators (orders d1 | d2 | ...)
    first, then the free generators; `orders` holds the di followed by zeros,
    and `normal_relations` is diag(orders) on the torsion columns, the
    relation matrix in normal coordinates.  to_normal / from_normal convert
    coordinate columns; from_normal followed by to_normal is the identity on
    normal coordinates exactly.  dec, when given, is
    smith_normal_form(relations) already computed, as in solve_matrix; either
    way U * relations * V = S is re-verified once, with S diagonal and
    nonnegative, since every normal-coordinate computation reads it.
    Equality is identity.
    """

    gens: int
    relations: IntMatrix
    dec: InitVar[SmithDecomposition | None] = None
    group: FgAbelianGroup = field(init=False)
    orders: tuple = field(init=False)
    normal_relations: IntMatrix = field(init=False)
    to_normal: IntMatrix = field(init=False)
    from_normal: IntMatrix = field(init=False)

    def __post_init__(self, dec):
        gens = self.gens
        if self.relations.rows != gens:
            raise DimensionError("relations must have one row per generator")
        if dec is None:
            dec = smith_normal_form(self.relations)
        s = dec.S
        diag = dec.diagonal()
        if (
            dec.U * self.relations * dec.V != s
            or any(e for k, e in enumerate(s.entries) if k // s.cols != k % s.cols)
            or any(d < 0 for d in diag)
        ):
            raise AssertionError("Smith form of the relations failed re-verification")
        torsion_idx = [i for i, d in enumerate(diag) if d >= 2]
        free_idx = [i for i, d in enumerate(diag) if d == 0]
        free_idx += list(range(len(diag), gens))
        keep = torsion_idx + free_idx
        torsion = tuple(diag[i] for i in torsion_idx)
        orders = torsion + (0,) * len(free_idx)
        u_inv = invert_unimodular(dec.U) if gens else IntMatrix(0, 0, ())
        for name, value in (
            ("group", FgAbelianGroup(len(free_idx), torsion)),
            ("orders", orders),
            ("normal_relations", IntMatrix.diagonal(orders).submatrix(
                range(len(orders)), range(len(torsion))
            )),
            ("to_normal", dec.U.submatrix(keep, range(gens))),
            ("from_normal", u_inv.submatrix(range(gens), keep)),
        ):
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ZRep:
    """A Z-representation: per-vertex presented groups plus edge matrices in
    raw generator coordinates (columns = images of source generators).
    A presentation may be a PresentedGroup or its relation matrix.  The
    normal-coordinate edge maps are kept from validation.  Equality is
    identity."""

    quiver: Quiver
    presentations: InitVar[list]
    edge_maps: tuple
    groups: tuple = field(init=False)
    normal_edge_maps: tuple = field(init=False)

    def __post_init__(self, presentations):
        quiver = self.quiver
        presentations = list(presentations)
        edge_maps = tuple(self.edge_maps)
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
        for name, value in (
            ("groups", groups),
            ("edge_maps", edge_maps),
            ("normal_edge_maps", tuple(normal_edge_maps)),
        ):
            object.__setattr__(self, name, value)


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


def _rep_invariants(rep: ZRep):
    """(certificate name, class) of every isomorphism invariant of a
    representation, in the one order a refutation reports them: each vertex
    group, then the kernel, image and cokernel of each edge map, edge by
    edge.  The edge classes are computed on demand, so a refutation that
    stops at the first difference (equiv._first_difference) skips the rest."""
    for v, g in enumerate(rep.groups):
        yield f"vertex-group[{v}]", g.group
    for e, f in zip(rep.quiver.edges, rep.normal_edge_maps):
        classes = hom_classes(f, rep.groups[e.src], rep.groups[e.dst])
        for name, cls in zip(("kernel", "image", "cokernel"), classes):
            yield f"edge-{name}[{e.id}]", FgAbelianGroup(*cls)


def _bounded_isomorphisms(src: PresentedGroup, dst: PresentedGroup, bound):
    """Every normal-coordinate map between groups of one class with free
    entries in [-bound, bound] and torsion entries canonical, identity
    first, each replaced by None unless it is an isomorphism: the search
    pays one node per map drawn either way."""
    n = src.normal_gens
    ranges = [range(min(d, 2 * bound + 1)) if d else range(-bound, bound + 1)
              for d in dst.orders]
    ident = IntMatrix.identity(n).entries
    flats = product(*(r for r in ranges for _ in range(n)))
    for flat in chain([ident], (f for f in flats if f != ident)):
        m = IntMatrix._trusted(n, n, flat)
        yield m if hom_inverse(m, src, dst) is not None else None


def _families(rep1: ZRep, rep2: ZRep, edges_at, candidates, family=()):
    """Depth-first search for a family of normal-coordinate vertex
    isomorphisms that commutes with every edge map, vertex v's drawn from
    candidates(v), where None stands for a map that is not an isomorphism.
    Yields None before testing each candidate drawn, so the caller can
    charge it, and the family once it is complete.  edges_at[v] lists the
    (index, edge) pairs whose later endpoint is v."""
    v = len(family)
    if v == len(rep1.groups):
        yield family
        return
    for cand in candidates(v):
        yield None
        if cand is None:
            continue
        ext = family + (cand,)
        if all(
            homs_equal(ext[e.dst] * rep1.normal_edge_maps[i],
                       rep2.normal_edge_maps[i] * ext[e.src], rep2.groups[e.dst])
            for i, e in edges_at[v]
        ):
            yield from _families(rep1, rep2, edges_at, candidates, ext)


def decide_rep_isomorphism(
    rep1: ZRep, rep2: ZRep, quiver: Quiver, budget: SearchBudget = SearchBudget()
) -> Verdict:
    """Isomorphism of representations over the same quiver.

    Refutation first, at the first invariant that differs (_rep_invariants);
    then one depth-first search over families of vertex isomorphisms, each
    candidate drawn costing one node: complete enumeration when every vertex
    group is finite of order <= 64, else iterative deepening on the entry
    bound of the candidates, up to max_depth.  The yes-witness is the pair
    (forward, inverse) of block-diagonal matrices over the vertex generators.
    """
    if rep1.quiver != quiver or rep2.quiver != quiver:
        raise ValueError("representations live on different quivers")

    refuted = _first_difference(_rep_invariants(rep1), _rep_invariants(rep2))
    if refuted is not None:
        return refuted

    pairs = list(zip(rep1.groups, rep2.groups))
    finite = all(
        g.group.is_finite and g.group.order() <= ISO_ENUMERATION_CAP
        for g in rep1.groups
    )
    if finite:
        isos = [enumerate_isomorphisms(g1, g2) for g1, g2 in pairs]
        passes = [lambda v: isos[v]]
    else:
        passes = [
            lambda v, bound=bound: _bounded_isomorphisms(*pairs[v], bound)
            for bound in range(1, budget.max_depth + 1)
        ]
    edges_at = [[] for _ in pairs]
    for idx, e in enumerate(quiver.edges):
        edges_at[max(e.src, e.dst)].append((idx, e))

    tested = 0
    for family in chain.from_iterable(
        _families(rep1, rep2, edges_at, candidates) for candidates in passes
    ):
        if family is None:
            if tested == budget.max_nodes:
                return Verdict.unknown(BudgetReport(tested, 0))
            tested += 1
            continue
        inverse = [hom_inverse(f, g1, g2) for f, (g1, g2) in zip(family, pairs)]
        if any(g is None for g in inverse):  # pragma: no cover - theory
            raise AssertionError("vertex map of the family is not an isomorphism")
        forward = [raw_hom(f, g1, g2) for f, (g1, g2) in zip(family, pairs)]
        if not is_morphism(forward, rep1, rep2, quiver):  # pragma: no cover
            raise AssertionError("isomorphism family failed re-verification")
        back = [raw_hom(g, g2, g1) for g, (g1, g2) in zip(inverse, pairs)]
        return Verdict.yes(
            _block_diagonal(forward), _block_diagonal(back), BudgetReport(tested, 0)
        )
    if finite:
        return Verdict.no(
            Certificate(
                "finite-enumeration",
                f"vertex-isomorphism search tree exhausted ({tested} candidates)",
                "no family commutes with the edge maps",
            ),
            BudgetReport(tested, 0),
        )
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
    Exactness of every sequence is asserted at construction time, on the
    representation's normal edge maps, where each group is Z^k / diag(orders):
    to_normal is an isomorphism from Z^gens / im(relations) onto that
    quotient and the normal maps are the raw maps read through it, so a
    sequence is exact in normal coordinates exactly when it is exact in raw
    ones, and the Smith form behind those coordinates is re-verified when each
    group is built.  At each position exactness is two lattice inclusions:
    the image lies in the kernel when the composition with the next map
    vanishes modulo the next orders (a product, no Smith form), and the
    kernel lies in the image when a basis of the kernel solves against the
    image (one Smith form of the image, which is the matrix whose kernel the
    previous position took).
    """

    shape: BlockShape
    quiver: Quiver
    rep: ZRep
    labels: tuple


def _exact_at(g_in, g_out, mid: PresentedGroup, nxt: PresentedGroup, snf) -> bool:
    """Exactness at `mid` of normal-coordinate maps g_in into it and g_out out
    of it, compared as sublattices of Z^k for the k normal generators of mid.

    With image = [g_in | mid normal relations] and K = {y : g_out y = 0 in
    nxt}, image in K holds when nxt reduces g_out * image to zero, which is a
    product and a reduction; K in image holds when the preimage part of
    ker [g_out | nxt normal relations], which spans K, solves against image.
    Normal coordinates give the same answer as raw ones, because to_normal is
    an isomorphism of each group onto Z^k / diag(orders) that carries the raw
    maps to the normal ones.  snf returns the Smith decomposition of a
    matrix; the matrix whose kernel is taken here is the image at the next
    position of a six-term sequence.
    """
    image = g_in.hstack(mid.normal_relations)
    if not nxt.reduce(g_out * image).is_zero():
        return False
    stacked = g_out.hstack(nxt.normal_relations)
    ker = kernel_basis(stacked, snf(stacked))
    pre = ker.submatrix(range(g_out.cols), range(ker.cols))
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
    for s in convex:
        sub = b.restrict(s)
        basis = kernel_basis(sub, snf(sub))
        kernel_bases[s] = basis
        groups.append(PresentedGroup.free(basis.cols))
        groups.append(PresentedGroup(sub.rows, sub, snf(sub)))

    edges = []
    maps = []
    sequences = []
    # The shape is square, so the rows of a set of elements are also its
    # columns, and the inclusions and projections of coordinates between S1,
    # S and S2, on the kernel and the cokernel side, are pieces of identity.
    ident = IntMatrix.identity(shape.total_rows)
    for s in convex:
        at = shape.rows_of(s)
        for s1 in poset.downsets_within(s):
            s2 = tuple(x for x in s if x not in s1)
            ker1, ker, ker2 = index[s1], index[s], index[s2]
            cok1, cok, cok2 = ker1 + 1, ker + 1, ker2 + 1
            n1 = kernel_bases[s1]
            nn = kernel_bases[s]
            n2 = kernel_bases[s2]
            at1, at2 = shape.rows_of(s1), shape.rows_of(s2)
            incl = ident.submatrix(at, at1)
            proj = ident.submatrix(at2, at)

            # ker B{S1} -> ker B{S}: include and re-express in the S basis.
            f1 = solve_matrix(nn, incl * n1, snf(nn))
            if f1 is None:  # pragma: no cover - theory
                raise AssertionError("kernel inclusion failed")

            # ker B{S} -> ker B{S2}: project to the S2 coordinates.
            f2 = solve_matrix(n2, proj * nn, snf(n2))
            if f2 is None:  # pragma: no cover - theory
                raise AssertionError("kernel projection failed")

            # Connecting map: w -> X w in cok B{S1}, X the upper-right block.
            delta = b.matrix.submatrix(at1, at2) * n2

            tag = f"S={list(s)}|S1={list(s1)}"
            seq_nodes = [ker1, ker, ker2, cok1, cok, cok2]
            sequences.append((tag, seq_nodes, len(maps)))
            for kind, src, dst, f in zip(
                ("ker-incl", "ker-proj", "delta", "cok-incl", "cok-proj"),
                seq_nodes,
                seq_nodes[1:],
                (f1, f2, delta, incl, proj),
            ):
                edges.append(Edge(f"{kind}[{tag}]", src, dst))
                maps.append(f)

    quiver = Quiver(len(groups), edges)
    rep = ZRep(quiver, groups, maps)

    # Exactness of every six-term sequence, node by node, on the normal edge
    # maps.  A position depends only on the two maps and the orders of the
    # middle and next groups, so each such question is proved once.
    trivial = PresentedGroup.free(0)
    proved = set()
    for tag, seq_nodes, first in sequences:
        seq_groups = [rep.groups[n] for n in seq_nodes]
        seq_maps = list(rep.normal_edge_maps[first : first + 5])
        chain_in = [IntMatrix.zero(seq_groups[0].normal_gens, 0)] + seq_maps
        chain_out = seq_maps + [IntMatrix.zero(0, seq_groups[-1].normal_gens)]
        chain_next = seq_groups[1:] + [trivial]
        for pos in range(6):
            key = (
                chain_in[pos],
                chain_out[pos],
                seq_groups[pos].orders,
                chain_next[pos].orders,
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

    labels = tuple(f"{kind}{list(s)}" for s in convex for kind in ("ker", "cok"))
    return KWeb(shape, quiver, rep, labels)


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
