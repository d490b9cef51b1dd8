"""JSON schemas for every wire format the toolkit speaks.

Integers travel as canonical decimal strings (no leading zeros, '-' only on
negatives) so arbitrary precision survives any JSON parser.  Parsing is exact
and strict; emission is canonical, so emit(parse(emit(x))) == emit(x) byte
for byte.
"""

from __future__ import annotations

import json
import re

from .equiv import BudgetReport, Certificate, SearchBudget, Verdict
from .intmat import FgAbelianGroup, IntMatrix, int_to_str
from .poset_block import BlockedMatrix, BlockShape, Poset
from .quiver import Edge, Quiver, ZRep
from .sft import FlowInvariant

_INT_RE = re.compile(r"^(0|-?[1-9][0-9]*)$")


class SchemaError(ValueError):
    """Input does not match the declared schema."""


# Python limits int(str) to sys.get_int_max_str_digits() digits, at least
# 640; pieces below this size convert directly under any setting, and longer
# text is split in halves, so no process-wide limit is touched.
_DIRECT_DIGITS = 600


def _int_from_digits(s: str) -> int:
    if len(s) <= _DIRECT_DIGITS:
        return int(s)
    k = len(s) // 2
    return _int_from_digits(s[:-k]) * 10**k + _int_from_digits(s[-k:])


def int_from_str(s) -> int:
    if not isinstance(s, str) or not _INT_RE.match(s):
        raise SchemaError(f"not a canonical integer string: {s!r}")
    if s[0] == "-":
        return -_int_from_digits(s[1:])
    return _int_from_digits(s)


def _require_keys(doc, keys, what):
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: expected an object")
    missing = set(keys) - doc.keys()
    extra = doc.keys() - set(keys)
    if missing:
        raise SchemaError(f"{what}: missing keys {sorted(missing)}")
    if extra:
        raise SchemaError(f"{what}: unexpected keys {sorted(extra)}")


def _count(v, what):
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise SchemaError(f"{what}: expected a nonnegative count, got {v!r}")
    return v


# -- matrices ----------------------------------------------------------------


def matrix_to_json(m: IntMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [int_to_str(e) for e in m.entries],
    }


def matrix_from_json(doc) -> IntMatrix:
    _require_keys(doc, ("rows", "cols", "entries"), "matrix")
    rows = _count(doc["rows"], "matrix.rows")
    cols = _count(doc["cols"], "matrix.cols")
    if not isinstance(doc["entries"], list):
        raise SchemaError("matrix.entries: expected a list")
    entries = [int_from_str(e) for e in doc["entries"]]
    if len(entries) != rows * cols:
        raise SchemaError("matrix.entries: wrong length")
    return IntMatrix(rows, cols, entries)


# -- posets, shapes, blocked matrices -----------------------------------------


def poset_to_json(p: Poset) -> dict:
    return {"n": p.size, "leq": [[i, j] for i, j in p.strict_pairs()]}


def poset_from_json(doc) -> Poset:
    """Reflexive pairs are optional; non-normalized relations are repaired by
    the stable topological relabelling (see Poset.normalized)."""
    p, _ = poset_from_json_with_relabel(doc)
    return p


def poset_from_json_with_relabel(doc):
    _require_keys(doc, ("n", "leq"), "poset")
    n = _count(doc["n"], "poset.n")
    pairs = []
    if not isinstance(doc["leq"], list):
        raise SchemaError("poset.leq: expected a list of pairs")
    for item in doc["leq"]:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise SchemaError(f"poset.leq: bad pair {item!r}")
        pairs.append((item[0], item[1]))
    try:
        return Poset.normalized(n, pairs)
    except ValueError as exc:
        raise SchemaError(f"poset: {exc}") from exc


def shape_to_json(s: BlockShape) -> dict:
    return {
        "poset": poset_to_json(s.poset),
        "m": list(s.row_sizes),
        "n": list(s.col_sizes),
    }


def shape_from_json(doc) -> BlockShape:
    shape, _ = _shape_from_json_with_relabel(doc)
    return shape


def _shape_from_json_with_relabel(doc):
    """The shape and the relabelling its poset received (see
    Poset.normalized), applied to the size vectors as well."""
    _require_keys(doc, ("poset", "m", "n"), "shape")
    poset, relabel = poset_from_json_with_relabel(doc["poset"])
    for key in ("m", "n"):
        if not isinstance(doc[key], list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in doc[key]
        ):
            raise SchemaError(f"shape.{key}: expected a list of counts")
    m = list(doc["m"])
    n = list(doc["n"])
    if len(m) != poset.size or len(n) != poset.size:
        raise SchemaError("shape: size vectors must match the poset size")
    # Apply the same relabelling the poset received.
    old = _inverse(relabel)
    try:
        return BlockShape(poset, [m[x] for x in old], [n[x] for x in old]), relabel
    except ValueError as exc:
        raise SchemaError(f"shape: {exc}") from exc


def blocked_to_json(b: BlockedMatrix) -> dict:
    return {"shape": shape_to_json(b.shape), "matrix": matrix_to_json(b.matrix)}


def blocked_from_json(doc) -> BlockedMatrix:
    _require_keys(doc, ("shape", "matrix"), "blocked matrix")
    shape, relabel = _shape_from_json_with_relabel(doc["shape"])
    matrix = matrix_from_json(doc["matrix"])
    if (matrix.rows, matrix.cols) == (shape.total_rows, shape.total_cols):
        # The document's rows and columns are the new blocks in the order
        # relabel lists them.
        matrix = matrix.submatrix(
            _inverse(shape.rows_of(relabel)), _inverse(shape.cols_of(relabel))
        )
    try:
        return BlockedMatrix(shape, matrix)
    except ValueError as exc:
        raise SchemaError(f"blocked matrix: {exc}") from exc


def _inverse(perm):
    """Positions 0..k-1 in the order of perm's values at them."""
    return sorted(range(len(perm)), key=perm.__getitem__)


# -- groups, verdicts ----------------------------------------------------------


def group_to_json(g: FgAbelianGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "torsion": [int_to_str(d) for d in g.torsion],
    }


def group_from_json(doc) -> FgAbelianGroup:
    _require_keys(doc, ("free_rank", "torsion"), "group")
    rank = _count(doc["free_rank"], "group.free_rank")
    if not isinstance(doc["torsion"], list):
        raise SchemaError("group.torsion: expected a list")
    torsion = [int_from_str(d) for d in doc["torsion"]]
    try:
        return FgAbelianGroup(rank, tuple(torsion))
    except ValueError as exc:
        raise SchemaError(f"group: {exc}") from exc


def verdict_to_json(v: Verdict, budget: SearchBudget | None = None) -> dict:
    doc = {"status": v.status}
    if v.witness is not None:
        doc["witness"] = {
            "U": matrix_to_json(v.witness[0]),
            "V": matrix_to_json(v.witness[1]),
        }
    if v.certificate is not None:
        doc["certificate"] = {
            "name": v.certificate.name,
            "left": v.certificate.left,
            "right": v.certificate.right,
        }
    budget_doc = {}
    if budget is not None:
        budget_doc.update(max_depth=budget.max_depth, max_nodes=budget.max_nodes)
    report = v.report if v.report is not None else BudgetReport(0, 0)
    budget_doc.update(
        nodes_expanded=report.nodes_expanded, depth_reached=report.depth_reached
    )
    doc["budget"] = budget_doc
    return doc


def verdict_from_json(doc) -> Verdict:
    """A verdict as verdict_to_json writes it, plus the optional
    flow_invariants that `blockeq flow-eq` adds to a yes.  A no has a
    certificate, only a yes may have a witness (two square matrices) or
    flow_invariants, and every verdict has a budget with its report."""
    if not isinstance(doc, dict) or "status" not in doc:
        raise SchemaError("verdict: expected an object with a status")
    allowed = {"status", "witness", "certificate", "budget", "flow_invariants"}
    extra = doc.keys() - allowed
    if extra:
        raise SchemaError(f"verdict: unexpected keys {sorted(extra)}")
    status = doc["status"]
    if status not in ("yes", "no", "unknown"):
        raise SchemaError(f"verdict.status: {status!r}")
    if ("certificate" in doc) != (status == "no"):
        need = "needs a" if status == "no" else "takes no"
        raise SchemaError(f"verdict: a {status!r} verdict {need} certificate")
    only_yes = sorted({"witness", "flow_invariants"} & doc.keys())
    if only_yes and status != "yes":
        raise SchemaError(f"verdict: a {status!r} verdict takes no {only_yes}")
    witness = None
    if "witness" in doc:
        _require_keys(doc["witness"], ("U", "V"), "verdict.witness")
        witness = (
            matrix_from_json(doc["witness"]["U"]),
            matrix_from_json(doc["witness"]["V"]),
        )
        for key, m in zip("UV", witness):
            if m.rows != m.cols:
                raise SchemaError(f"verdict.witness.{key}: expected a square matrix")
    certificate = None
    if "certificate" in doc:
        fields = ("name", "left", "right")
        _require_keys(doc["certificate"], fields, "verdict.certificate")
        for key in fields:
            if not isinstance(doc["certificate"][key], str):
                raise SchemaError(f"verdict.certificate.{key}: expected a string")
        certificate = Certificate(*(doc["certificate"][key] for key in fields))
    if "budget" not in doc:
        raise SchemaError("verdict: missing keys ['budget']")
    b = doc["budget"]
    if not isinstance(b, dict):
        raise SchemaError("verdict.budget: expected an object")
    missing = {"nodes_expanded", "depth_reached"} - b.keys()
    if missing:
        raise SchemaError(f"verdict.budget: missing keys {sorted(missing)}")
    extra = b.keys() - {"max_depth", "max_nodes", "nodes_expanded", "depth_reached"}
    if extra:
        raise SchemaError(f"verdict.budget: unexpected keys {sorted(extra)}")
    for key in b:
        _count(b[key], f"budget.{key}")
    report = BudgetReport(b["nodes_expanded"], b["depth_reached"])
    if "flow_invariants" in doc:
        inv = doc["flow_invariants"]
        _require_keys(inv, ("bowen_franks", "parry_sullivan"), "verdict.flow_invariants")
        try:
            FlowInvariant(group_from_json(inv["bowen_franks"]),
                          int_from_str(inv["parry_sullivan"]))
        except ValueError as exc:
            raise SchemaError(f"verdict.flow_invariants: {exc}") from exc
    return Verdict(status, witness=witness, certificate=certificate, report=report)


# -- quivers and representations ----------------------------------------------


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": q.vertices,
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in q.edges],
    }


def quiver_from_json(doc) -> Quiver:
    _require_keys(doc, ("vertices", "edges"), "quiver")
    vertices = _count(doc["vertices"], "quiver.vertices")
    if not isinstance(doc["edges"], list):
        raise SchemaError("quiver.edges: expected a list")
    edges = []
    for e in doc["edges"]:
        _require_keys(e, ("id", "src", "dst"), "quiver edge")
        if not isinstance(e["id"], str):
            raise SchemaError(f"edge.id: expected a string, got {e['id']!r}")
        edges.append(Edge(e["id"], _count(e["src"], "edge.src"), _count(e["dst"], "edge.dst")))
    try:
        return Quiver(vertices, edges)
    except ValueError as exc:
        raise SchemaError(f"quiver: {exc}") from exc


def rep_to_json(rep: ZRep) -> dict:
    return {
        "vertex_presentations": [matrix_to_json(g.relations) for g in rep.groups],
        "edge_maps": [matrix_to_json(f) for f in rep.edge_maps],
    }


def _rep_matrices(doc):
    """(vertex presentations, edge maps) of a representation document."""
    _require_keys(doc, ("vertex_presentations", "edge_maps"), "representation")
    if not isinstance(doc["vertex_presentations"], list) or not isinstance(
        doc["edge_maps"], list
    ):
        raise SchemaError("representation: expected lists")
    return (
        [matrix_from_json(m) for m in doc["vertex_presentations"]],
        [matrix_from_json(m) for m in doc["edge_maps"]],
    )


def rep_from_json(doc, quiver: Quiver) -> ZRep:
    pres, maps = _rep_matrices(doc)
    try:
        return ZRep(quiver, pres, maps)
    except ValueError as exc:
        raise SchemaError(f"representation: {exc}") from exc


# -- canonical emission ---------------------------------------------------------


def dumps(doc) -> str:
    """Canonical textual form: sorted keys, two-space indent, newline end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Each schema once: the keys that identify a document and its parser, in
# the order sniff_schema tries them.  A verdict is any object with a
# "status"; every other document is identified by its exact set of keys.
_SCHEMAS = {
    "matrix": ({"rows", "cols", "entries"}, matrix_from_json),
    "poset": ({"n", "leq"}, poset_from_json),
    "shape": ({"poset", "m", "n"}, shape_from_json),
    "blocked": ({"shape", "matrix"}, blocked_from_json),
    "quiver": ({"vertices", "edges"}, quiver_from_json),
    "rep": ({"vertex_presentations", "edge_maps"}, _rep_matrices),
    "verdict": ({"status"}, verdict_from_json),
    "group": ({"free_rank", "torsion"}, group_from_json),
}
SCHEMAS = tuple(_SCHEMAS)


def sniff_schema(doc) -> str:
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object")
    keys = set(doc)
    for name, (ident, _) in _SCHEMAS.items():
        if (ident <= keys) if name == "verdict" else (ident == keys):
            return name
    raise SchemaError(f"unrecognized document with keys {sorted(keys)}")


def validate_document(doc, schema: str | None = None) -> str:
    """Parse the document under its (sniffed or declared) schema; returns the
    schema name or raises SchemaError."""
    name = schema or sniff_schema(doc)
    if name not in _SCHEMAS:
        raise SchemaError(f"unknown schema {name!r}")
    _SCHEMAS[name][1](doc)
    return name
