"""Wire formats: exact parsing, canonical emission, strict schemas."""

import json
import sys

import pytest

from blockeq import BlockShape, BlockedMatrix, IntMatrix, Poset, Quiver, ZRep
from blockeq import serialize
from blockeq.equiv import BudgetReport, Certificate, SearchBudget, Verdict
from blockeq.poset_block import chain_poset
from blockeq.serialize import SchemaError


class TestIntegers:
    def test_canonical(self):
        assert serialize.int_to_str(-5) == "-5"
        assert serialize.int_from_str("-5") == -5
        assert serialize.int_from_str("0") == 0

    def test_rejects_non_canonical(self):
        for bad in ("007", "+5", "-0", "", "1.0", 5):
            with pytest.raises(SchemaError):
                serialize.int_from_str(bad)

    def test_big_integers_exact(self):
        v = 10**40 + 7
        assert serialize.int_from_str(serialize.int_to_str(v)) == v

    def test_past_the_str_digit_limit(self):
        # Python's int <-> str conversion stops at 4300 digits by default;
        # the wire format does not, and it leaves that limit alone.
        limit = sys.get_int_max_str_digits()
        for v in (10**10_000, 10**10_000 - 1, -(7**11832), 3**40_000 + 10**5000):
            text = serialize.int_to_str(v)
            assert text.lstrip("-")[0] != "0"
            assert serialize.int_from_str(text) == v
            assert text[-4000:] == str(abs(v) % 10**4000).zfill(4000)
        assert serialize.int_to_str(10**10_000) == "1" + "0" * 10_000
        assert sys.get_int_max_str_digits() == limit


class TestMatrix:
    def test_round_trip(self):
        m = IntMatrix.from_rows([[1, -2], [3, 10**30]])
        doc = serialize.matrix_to_json(m)
        assert serialize.matrix_from_json(doc) == m
        # canonical: dump -> load -> dump is byte-stable
        text = serialize.dumps(doc)
        assert serialize.dumps(json.loads(text)) == text

    def test_length_checked(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_json({"rows": 2, "cols": 2, "entries": ["1"]})

    def test_extra_keys_rejected(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_json(
                {"rows": 1, "cols": 1, "entries": ["1"], "x": 0}
            )


class TestPosetShapeBlocked:
    def test_poset_round_trip(self):
        p = Poset(3, [(1, 3), (2, 3)])
        doc = serialize.poset_to_json(p)
        assert serialize.poset_from_json(doc) == p

    def test_reflexive_pairs_optional(self):
        doc = {"n": 2, "leq": [[1, 1], [2, 2], [1, 2]]}
        assert serialize.poset_from_json(doc) == chain_poset(2)

    def test_non_normalized_repaired(self):
        doc = {"n": 2, "leq": [[2, 1]]}
        p = serialize.poset_from_json(doc)
        assert p == chain_poset(2)

    def test_shape_round_trip(self):
        s = BlockShape(chain_poset(2), (1, 2), (2, 1))
        doc = serialize.shape_to_json(s)
        assert serialize.shape_from_json(doc) == s

    def test_blocked_round_trip(self):
        s = BlockShape.square(chain_poset(2), (1, 1))
        b = BlockedMatrix(s, IntMatrix.from_rows([[2, 5], [0, 3]]))
        doc = serialize.blocked_to_json(b)
        assert serialize.blocked_from_json(doc) == b

    def test_blocked_relabelled(self):
        # A blocked matrix given over a non-normalized poset is permuted into
        # the normalized labelling, matrix included.
        doc = {
            "shape": {"poset": {"n": 2, "leq": [[2, 1]]}, "m": [1, 1], "n": [1, 1]},
            "matrix": {"rows": 2, "cols": 2, "entries": ["3", "0", "7", "5"]},
        }
        b = serialize.blocked_from_json(doc)
        assert b.shape.poset == chain_poset(2)
        # Old block 2 becomes new block 1: rows/cols swap.
        assert b.matrix == IntMatrix.from_rows([[5, 7], [0, 3]])

    RELABELLED_3 = {
        # Old 2 and 3 lie below old 1, so old (1, 2, 3) become new (3, 1, 2);
        # rows and columns move with different block sizes, zeros included.
        "poset": {"n": 3, "leq": [[3, 1], [2, 1]]}, "m": [2, 0, 1], "n": [1, 0, 2],
    }

    def test_blocked_relabelled_three_blocks(self):
        doc = {
            "shape": self.RELABELLED_3,
            "matrix": {"rows": 3, "cols": 3,
                       "entries": ["1", "0", "0", "2", "0", "0", "3", "4", "5"]},
        }
        b = serialize.blocked_from_json(doc)
        # New block 2 is old block 3 (one row, two columns) and new block 3
        # is old block 1 (two rows, one column).
        assert b.shape == BlockShape(Poset(3, [(1, 3), (2, 3)]), (0, 1, 2), (0, 2, 1))
        assert b.matrix == IntMatrix.from_rows([[4, 5, 3], [0, 0, 1], [0, 0, 2]])

    @pytest.mark.parametrize("rows", [2, 4])
    def test_blocked_relabelled_wrong_size_rejected(self, rows):
        # A matrix with a row too many or too few for the relabelled shape is
        # refused, not cut down or indexed past its end.
        doc = {
            "shape": self.RELABELLED_3,
            "matrix": {"rows": rows, "cols": 3, "entries": ["0"] * (3 * rows)},
        }
        with pytest.raises(SchemaError, match=f"matrix is {rows}x3, shape wants 3x3"):
            serialize.blocked_from_json(doc)

    def test_blocked_pattern_enforced(self):
        doc = {
            "shape": {"poset": {"n": 2, "leq": []}, "m": [1, 1], "n": [1, 1]},
            "matrix": {"rows": 2, "cols": 2, "entries": ["1", "1", "0", "1"]},
        }
        with pytest.raises(SchemaError):
            serialize.blocked_from_json(doc)


CERT = {"name": "cokernel", "left": "C2", "right": "C3"}
WITNESS = {"U": {"rows": 1, "cols": 1, "entries": ["1"]},
           "V": {"rows": 1, "cols": 1, "entries": ["1"]}}
BUDGET = {"nodes_expanded": 0, "depth_reached": 0}


class TestVerdict:
    def test_round_trip_yes(self):
        v = Verdict.yes(IntMatrix.identity(1), IntMatrix.identity(1), BudgetReport(3, 1))
        doc = serialize.verdict_to_json(v, SearchBudget())
        back = serialize.verdict_from_json(doc)
        assert back.status == "yes"
        assert back.witness == v.witness
        text = serialize.dumps(doc)
        assert serialize.dumps(json.loads(text)) == text

    def test_round_trip_no(self):
        v = Verdict.no(Certificate("cokernel", "C2", "C3"), BudgetReport(0, 0))
        doc = serialize.verdict_to_json(v, SearchBudget())
        back = serialize.verdict_from_json(doc)
        assert back.certificate == v.certificate

    @pytest.mark.parametrize("doc", [
        {"status": "no", "certificate": {"name": 1, "left": [1], "right": None},
         "budget": BUDGET},
        {"status": "no", "certificate": {"name": "cokernel", "left": "C2", "right": 3},
         "budget": BUDGET},
        {"status": "unknown", "budget": {"nodes_expanded": 1, "depth_reached": 0, "seed": 3}},
        {"status": "unknown", "budget": {"nodes_expanded": 1, "max_depth": "8"}},
        {"status": "unknown", "budget": {"nodes_expanded": 1, "depth_reached": 0,
                                         "max_depth": "8"}},
        {"status": "yes", "flow_invariants": {"parry_sullivan": "0"}, "budget": BUDGET},
        {"status": "yes", "flow_invariants": {
            "bowen_franks": {"free_rank": 1, "torsion": []}, "parry_sullivan": "00"},
         "budget": BUDGET},
        {"status": "yes", "flow_invariants": {
            "bowen_franks": {"free_rank": 0, "torsion": []}, "parry_sullivan": "-2"},
         "budget": BUDGET},
        # A no has a certificate and no witness, an unknown has neither, a
        # yes has no certificate, and flow_invariants ride only on a yes.
        {"status": "no", "budget": BUDGET},
        {"status": "no", "certificate": CERT, "witness": WITNESS, "budget": BUDGET},
        {"status": "unknown", "witness": WITNESS, "budget": BUDGET},
        {"status": "unknown", "certificate": CERT, "budget": BUDGET},
        {"status": "yes", "certificate": CERT, "budget": BUDGET},
        {"status": "no", "certificate": CERT, "flow_invariants": {
            "bowen_franks": {"free_rank": 0, "torsion": []}, "parry_sullivan": "1"},
         "budget": BUDGET},
        # Every verdict carries its budget report, and a witness is two
        # square matrices.
        {"status": "unknown"},
        {"status": "yes", "witness": WITNESS},
        {"status": "unknown", "budget": {}},
        {"status": "unknown", "budget": {"nodes_expanded": 1}},
        {"status": "unknown", "budget": {"depth_reached": 0, "max_depth": 8}},
        {"status": "unknown", "budget": []},
        {"status": "yes", "budget": BUDGET, "witness": {
            "U": {"rows": 1, "cols": 2, "entries": ["1", "0"]}, "V": WITNESS["V"]}},
        {"status": "yes", "budget": BUDGET, "witness": {
            "U": WITNESS["U"], "V": {"rows": 2, "cols": 1, "entries": ["1", "0"]}}},
    ])
    def test_parse_is_strict(self, doc):
        with pytest.raises(SchemaError):
            serialize.verdict_from_json(doc)
        with pytest.raises(SchemaError):
            serialize.validate_document(doc)

    def test_flow_invariants_accepted(self):
        doc = {"status": "yes", "flow_invariants": {
            "bowen_franks": {"free_rank": 0, "torsion": ["2"]}, "parry_sullivan": "-2"},
            "budget": BUDGET}
        assert serialize.verdict_from_json(doc).status == "yes"

    def test_rectangular_witness_sizes_accepted(self):
        # A rectangular shape has U and V of different sizes, each square.
        doc = {"status": "yes", "budget": {"nodes_expanded": 4, "depth_reached": 1},
               "witness": {"U": WITNESS["U"],
                           "V": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}}}
        v = serialize.verdict_from_json(doc)
        assert [m.rows for m in v.witness] == [1, 2]
        assert (v.report.nodes_expanded, v.report.depth_reached) == (4, 1)

    def test_status_checked(self):
        with pytest.raises(SchemaError):
            serialize.verdict_from_json({"status": "maybe"})


class TestQuiverRep:
    def test_quiver_round_trip(self):
        q = Quiver(2, [("e", 0, 1), ("f", 1, 1)])
        doc = serialize.quiver_to_json(q)
        assert serialize.quiver_from_json(doc) == q

    def test_rep_round_trip(self):
        q = Quiver(2, [("e", 0, 1)])
        rep = ZRep(
            q,
            [IntMatrix(1, 0, ()), IntMatrix.from_rows([[2]])],
            [IntMatrix.from_rows([[1]])],
        )
        doc = serialize.rep_to_json(rep)
        back = serialize.rep_from_json(doc, q)
        assert [g.relations for g in back.groups] == [g.relations for g in rep.groups]
        assert back.edge_maps == rep.edge_maps


class TestValidate:
    def test_sniffing(self):
        assert serialize.sniff_schema({"rows": 1, "cols": 1, "entries": ["1"]}) == "matrix"
        assert serialize.sniff_schema({"n": 1, "leq": []}) == "poset"
        assert serialize.sniff_schema({"status": "yes", "budget": {}}) == "verdict"

    def test_validate_document(self):
        assert serialize.validate_document({"rows": 1, "cols": 1, "entries": ["1"]}) == "matrix"
        with pytest.raises(SchemaError):
            serialize.validate_document({"rows": 1, "cols": 2, "entries": ["1"]})
        with pytest.raises(SchemaError):
            serialize.validate_document({"weird": True})

    @pytest.mark.parametrize(
        "doc,schema",
        [
            ({"rows": 1, "cols": 1, "entries": ["1"]}, "matrix"),
            ({"n": 2, "leq": [[1, 2]]}, "poset"),
            ({"poset": {"n": 1, "leq": []}, "m": [1], "n": [1]}, "shape"),
            (
                {
                    "shape": {"poset": {"n": 1, "leq": []}, "m": [1], "n": [1]},
                    "matrix": {"rows": 1, "cols": 1, "entries": ["7"]},
                },
                "blocked",
            ),
            ({"vertices": 1, "edges": [{"id": "e", "src": 0, "dst": 0}]}, "quiver"),
            (
                {
                    "vertex_presentations": [{"rows": 1, "cols": 1, "entries": ["2"]}],
                    "edge_maps": [],
                },
                "rep",
            ),
            ({"status": "unknown", "budget": {"nodes_expanded": 1, "depth_reached": 0}}, "verdict"),
            ({"free_rank": 1, "torsion": ["2", "6"]}, "group"),
        ],
    )
    def test_validate_every_schema(self, doc, schema):
        assert serialize.validate_document(doc) == schema
        assert serialize.validate_document(doc, schema) == schema

    @pytest.mark.parametrize("torsion", ["44", {"3": 1}])
    def test_group_torsion_must_be_a_list(self, torsion):
        # Iterating a string or an object used to read "44" as C4 x C4 and
        # {"3": 1} as C3.
        doc = {"free_rank": 0, "torsion": torsion}
        with pytest.raises(SchemaError, match="group.torsion"):
            serialize.group_from_json(doc)
        with pytest.raises(SchemaError):
            serialize.validate_document(doc)

    def test_cyclic_poset_rejected(self):
        with pytest.raises(SchemaError):
            serialize.poset_from_json({"n": 3, "leq": [[1, 2], [2, 3], [3, 1]]})
