"""The value-type contract of posets, block shapes, blocked matrices,
quivers, presented groups, representations and SFT matrices: no field can
be assigned, no instance has a __dict__, every repr is fixed, equality is
structural for the order, shape and matrix types and identity for presented
groups and representations."""

import re

import pytest

from blockeq import BlockShape, BlockedMatrix, IntMatrix, Poset, Quiver, ZRep
from blockeq.poset_block import chain_poset
from blockeq.quiver import Edge, PresentedGroup
from blockeq.sft import SftMatrix


def build():
    """One value of each type; every call builds new, equal arguments."""
    poset = Poset(3, [(1, 2), (2, 3)])
    shape = BlockShape(poset, (1, 0, 2), (1, 1, 1))
    loop = Quiver(1, [("l", 0, 0)])
    return {
        "Poset": poset,
        "BlockShape": shape,
        "BlockedMatrix": BlockedMatrix(
            shape, IntMatrix.from_rows([[1, 2, 3], [0, 0, 4], [0, 0, 5]])
        ),
        "Quiver": Quiver(2, [("e", 0, 1), ("f", 1, 1)]),
        "PresentedGroup": PresentedGroup(2, IntMatrix.from_rows([[2, 0], [0, 3]])),
        "ZRep": ZRep(loop, [IntMatrix.from_rows([[3]])], [IntMatrix.from_rows([[2]])]),
        "SftMatrix": SftMatrix.from_rows([[1, 1], [1, 0]]),
    }


FIELDS = {
    "Poset": ("size", "pairs"),
    "BlockShape": ("poset", "row_sizes", "col_sizes", "row_offsets", "col_offsets", "I", "J"),
    "BlockedMatrix": ("shape", "matrix"),
    "Quiver": ("vertices", "edges"),
    "PresentedGroup": ("gens", "relations", "group", "orders", "normal_relations",
                       "to_normal", "from_normal"),
    "ZRep": ("quiver", "groups", "edge_maps", "normal_edge_maps"),
    "SftMatrix": ("matrix",),
}

POSET_REPR = "Poset(3, [(1, 2), (1, 3), (2, 3)])"
SHAPE_REPR = f"BlockShape({POSET_REPR}, m=(1, 0, 2), n=(1, 1, 1))"
REPRS = {
    "Poset": re.escape(POSET_REPR),
    "BlockShape": re.escape(SHAPE_REPR),
    "BlockedMatrix": re.escape(f"BlockedMatrix({SHAPE_REPR}, [[1, 2, 3], [0, 0, 4], [0, 0, 5]])"),
    "Quiver": re.escape("Quiver(2, [('e', 0, 1), ('f', 1, 1)])"),
    "PresentedGroup": re.escape("PresentedGroup(2 gens, C6)"),
    "ZRep": r"<blockeq\.quiver\.ZRep object at 0x[0-9a-f]+>",
    "SftMatrix": re.escape("SftMatrix([[1, 1], [1, 0]])"),
}

STRUCTURAL = ("Poset", "BlockShape", "BlockedMatrix", "Quiver", "SftMatrix")
BY_IDENTITY = ("PresentedGroup", "ZRep")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_no_field_can_be_assigned(name):
    value = build()[name]
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before
    # Any other name is refused as well; a frozen slotted dataclass raises
    # TypeError rather than AttributeError for a name that is not a field.
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr(name):
    assert re.fullmatch(REPRS[name], repr(build()[name]))


@pytest.mark.parametrize("name", STRUCTURAL)
def test_structural_equality(name):
    first, second = build()[name], build()[name]
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != build()["PresentedGroup"]


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_identity_equality(name):
    first, second = build()[name], build()[name]
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_poset_is_equal_by_closure():
    generated = Poset(3, [(1, 2), (2, 3)])
    closed = Poset(3, [(1, 3), (2, 3), (1, 2), (2, 2)])
    assert generated == closed and hash(generated) == hash(closed)
    assert generated != Poset(3, [(1, 2)])
    assert generated != Poset(4, [(1, 2), (2, 3)])


def test_block_shape_compares_poset_and_sizes():
    listed = BlockShape(chain_poset(2), [2, 0], [1, 1])
    tupled = BlockShape(chain_poset(2), (2, 0), (1, 1))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert (listed.row_sizes, listed.col_sizes) == ((2, 0), (1, 1))
    derived = (listed.row_offsets, listed.col_offsets, listed.I, listed.J)
    assert derived == ((0, 2, 2), (0, 1, 2), (1,), (1, 2))
    assert listed != BlockShape(chain_poset(2), (2, 0), (2, 0))
    assert listed != BlockShape(Poset(2), (2, 0), (1, 1))


def test_blocked_matrix_compares_shape_and_matrix():
    ident = IntMatrix.identity(2)
    chain = BlockedMatrix(BlockShape.square(chain_poset(2), (1, 1)), ident)
    assert chain == BlockedMatrix(BlockShape.square(chain_poset(2), [1, 1]), ident)
    assert chain != BlockedMatrix(BlockShape.square(Poset(2), (1, 1)), ident)
    assert chain != BlockedMatrix(BlockShape.square(chain_poset(1), (2,)), ident)


def test_quiver_edges_given_as_triples_or_edges():
    triples = Quiver(2, [("e", 0, 1)])
    assert triples == Quiver(2, (Edge("e", 0, 1),))
    assert triples.edges == (Edge("e", 0, 1),)
    assert triples != Quiver(3, [("e", 0, 1)])


@pytest.mark.parametrize("edge_id", [None, 7, ["e"], b"e"])
@pytest.mark.parametrize("as_edge", [False, True])
def test_quiver_edge_ids_must_be_strings(edge_id, as_edge):
    # No id is turned into a string: (None, 0, 0) must not become 'None'.
    edge = Edge(edge_id, 0, 0) if as_edge else (edge_id, 0, 0)
    with pytest.raises(ValueError, match="edge id must be a string"):
        Quiver(1, [("e", 0, 0), edge])


@pytest.mark.parametrize("count", [2.0, True, "2"])
def test_quiver_vertex_count_must_be_an_int(count):
    with pytest.raises(TypeError, match="non-integer vertex count"):
        Quiver(count, [("e", 0, 0)])


@pytest.mark.parametrize("src, dst", [(0.0, 1), (0, True), (False, 1), (0, 1.0)])
@pytest.mark.parametrize("as_edge", [False, True])
def test_quiver_edge_endpoints_must_be_ints(src, dst, as_edge):
    edge = Edge("f", src, dst) if as_edge else ("f", src, dst)
    with pytest.raises(TypeError, match="non-integer edge endpoint"):
        Quiver(2, [("e", 0, 1), edge])


@pytest.mark.parametrize("edge", [("e", 0), ("e", 0, 1, 1), (), "e01", 5])
def test_quiver_edges_must_be_triples(edge):
    # ("e", 0) once raised IndexError, and ("e", 0, 1, 1) dropped its last
    # entry.
    with pytest.raises(ValueError, match=r"is not an \(id, src, dst\) triple"):
        Quiver(2, [edge])


def test_sft_matrix_compares_matrices():
    assert SftMatrix.from_rows([[2]]) == SftMatrix(IntMatrix.from_rows([[2]]))
    assert SftMatrix.from_rows([[2]]) != SftMatrix.from_rows([[1]])
