"""CLI conformance: JSON round-trips, exit codes matching verdict status."""

import hashlib
import json
import random
from math import prod

import pytest

from blockeq import cli, serialize
from blockeq.cli import (
    EXIT_CANTCREAT,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_YES,
    execute,
)
from blockeq.intmat import IntMatrix, determinant

from helpers import count_calls, rand_matrix


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = execute(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus(tmp_path):
    files = {}
    files["fib"] = write(
        tmp_path, "fib.json", {"rows": 2, "cols": 2, "entries": ["1", "1", "1", "0"]}
    )
    files["full2"] = write(
        tmp_path, "full2.json", {"rows": 1, "cols": 1, "entries": ["2"]}
    )
    files["full3"] = write(
        tmp_path, "full3.json", {"rows": 1, "cols": 1, "entries": ["3"]}
    )
    single = {"poset": {"n": 1, "leq": []}, "m": [1], "n": [1]}
    files["b2"] = write(
        tmp_path,
        "b2.json",
        {"shape": single, "matrix": {"rows": 1, "cols": 1, "entries": ["2"]}},
    )
    files["b3"] = write(
        tmp_path,
        "b3.json",
        {"shape": single, "matrix": {"rows": 1, "cols": 1, "entries": ["3"]}},
    )
    files["x"] = write(tmp_path, "x.json", {"rows": 1, "cols": 1, "entries": ["1"]})
    files["y"] = write(tmp_path, "y.json", {"rows": 1, "cols": 1, "entries": ["3"]})
    chain = {"poset": {"n": 2, "leq": [[1, 2]]}, "m": [1, 1], "n": [1, 1]}
    files["web"] = write(
        tmp_path,
        "web.json",
        {"shape": chain, "matrix": {"rows": 2, "cols": 2, "entries": ["2", "1", "0", "3"]}},
    )
    files["quiver"] = write(
        tmp_path, "quiver.json", {"vertices": 1, "edges": []}
    )
    files["rep2"] = write(
        tmp_path,
        "rep2.json",
        {"vertex_presentations": [{"rows": 1, "cols": 1, "entries": ["2"]}], "edge_maps": []},
    )
    files["rep3"] = write(
        tmp_path,
        "rep3.json",
        {"vertex_presentations": [{"rows": 1, "cols": 1, "entries": ["3"]}], "edge_maps": []},
    )
    return files


def parse_stdout(out):
    doc = json.loads(out)
    # Canonical emission: re-dumping reproduces the exact bytes.
    assert serialize.dumps(doc) == out
    return doc


class TestSubcommands:
    def test_ps(self, corpus, capsys):
        code, out, _ = run(capsys, "ps", corpus["fib"])
        assert code == EXIT_YES
        assert parse_stdout(out) == {"parry_sullivan": "-1"}

    def test_bf(self, corpus, capsys):
        code, out, _ = run(capsys, "bf", corpus["full3"])
        assert code == EXIT_YES
        assert parse_stdout(out) == {"free_rank": 0, "torsion": ["2"]}

    def test_snf_round_trip(self, corpus, capsys):
        code, out, _ = run(capsys, "snf", corpus["fib"])
        assert code == EXIT_YES
        doc = parse_stdout(out)
        u = serialize.matrix_from_json(doc["U"])
        s = serialize.matrix_from_json(doc["S"])
        v = serialize.matrix_from_json(doc["V"])
        with open(corpus["fib"], encoding="utf-8") as fh:
            fib = serialize.matrix_from_json(json.load(fh))
        assert u * fib * v == s

    def test_snf_30x30_exits_0(self, tmp_path, capsys):
        # The transforms of this matrix once ran to tens of thousands of
        # digits, past what str() converts, and the command crashed.
        a = rand_matrix(random.Random(30), 30, 30, -9, 9)
        path = write(tmp_path, "a.json", serialize.matrix_to_json(a))
        code, out, err = run(capsys, "snf", path)
        assert (code, err) == (EXIT_YES, "")
        doc = parse_stdout(out)
        u, s, v = (serialize.matrix_from_json(doc[k]) for k in "USV")
        assert u * a * v == s
        assert s == IntMatrix.diagonal(s.entries[:: s.cols + 1])
        assert abs(determinant(u)) == abs(determinant(v)) == 1

    def test_cokernel_40x40(self, tmp_path, capsys):
        a = rand_matrix(random.Random(1), 40, 40, -9, 9)
        path = write(tmp_path, "a.json", serialize.matrix_to_json(a))
        code, out, err = run(capsys, "cokernel", path)
        assert (code, err) == (EXIT_YES, "")
        doc = parse_stdout(out)
        assert doc["free_rank"] == 0
        torsion = [int(d) for d in doc["torsion"]]
        assert all(y % x == 0 for x, y in zip(torsion, torsion[1:]))
        assert prod(torsion) == abs(determinant(a))

    def test_ten_thousand_digit_entries(self, tmp_path, capsys):
        n = 7**11832
        big = serialize.int_to_str(n)
        assert len(big) == 10_000
        path = write(tmp_path, "big.json", {"rows": 1, "cols": 1, "entries": [big]})
        code, out, _ = run(capsys, "cokernel", path)
        assert code == EXIT_YES
        assert parse_stdout(out) == {"free_rank": 0, "torsion": [big]}
        doc = {"rows": 2, "cols": 2, "entries": [big, "0", "0", "3"]}
        path = write(tmp_path, "big2.json", doc)
        code, out, _ = run(capsys, "snf", path)
        assert code == EXIT_YES
        doc = parse_stdout(out)
        assert doc["S"]["entries"][3] == serialize.int_to_str(3 * n)
        u, s, v = (serialize.matrix_from_json(doc[k]) for k in "USV")
        assert u * IntMatrix.diagonal([n, 3]) * v == s

    def test_blocked_eq_ten_thousand_digit_certificate(self, tmp_path, capsys):
        # The cokernels C(n) and C(n + 2) differ; the certificate names them
        # with every digit, past what str() converts.
        n = 7**11832
        single = {"poset": {"n": 1, "leq": []}, "m": [1], "n": [1]}
        paths = [
            write(tmp_path, f"b{k}.json", {
                "shape": single,
                "matrix": {"rows": 1, "cols": 1, "entries": [serialize.int_to_str(v)]},
            })
            for k, v in enumerate((n, n + 2))
        ]
        code, out, err = run(capsys, "blocked-eq", *paths)
        assert (code, err) == (EXIT_NO, "")
        cert = parse_stdout(out)["certificate"]
        assert cert["name"] == "cokernel"
        assert (cert["left"], cert["right"]) == tuple(
            "C" + serialize.int_to_str(v) for v in (n, n + 2)
        )

    def test_flow_eq_ten_thousand_digit_certificate(self, tmp_path, capsys):
        # Irreducible one-vertex shifts: Parry-Sullivan numbers 1 - n and
        # -1 - n differ, and the certificate prints them in full.
        n = 7**11832
        paths = [
            write(tmp_path, f"a{k}.json",
                  {"rows": 1, "cols": 1, "entries": [serialize.int_to_str(v)]})
            for k, v in enumerate((n, n + 2))
        ]
        code, out, err = run(capsys, "flow-eq", *paths)
        assert (code, err) == (EXIT_NO, "")
        cert = parse_stdout(out)["certificate"]
        assert cert["name"] == "parry-sullivan"
        assert (cert["left"], cert["right"]) == tuple(
            serialize.int_to_str(1 - v) for v in (n, n + 2)
        )

    def test_cokernel(self, corpus, capsys):
        code, out, _ = run(capsys, "cokernel", corpus["full2"])
        assert code == EXIT_YES
        assert parse_stdout(out) == {"free_rank": 0, "torsion": ["2"]}

    def test_flow_eq_yes_includes_invariants(self, corpus, capsys):
        code, out, _ = run(capsys, "flow-eq", corpus["full2"], corpus["fib"])
        assert code == EXIT_YES
        doc = parse_stdout(out)
        assert doc["status"] == "yes"
        assert doc["flow_invariants"]["parry_sullivan"] == "-1"

    def test_flow_eq_decides_once(self, corpus, capsys, monkeypatch):
        # The CLI takes the left invariant from the decision instead of
        # checking irreducibility and computing FlowInvariant.of again.  Two
        # shifts with an out-degree other than 1 are irreducible once each:
        # is_single_cycle reads the degrees before reachability (it made 4
        # is_irreducible calls when it read reachability first).  Each
        # FlowInvariant builds I - A once (twice when bowen_franks and
        # parry_sullivan each built it).
        from blockeq.sft import (
            SftMatrix, _i_minus_a, decide_flow_equivalence, is_irreducible,
        )

        irreducible = count_calls(monkeypatch, is_irreducible)
        groups = count_calls(monkeypatch, _i_minus_a)
        decide_flow_equivalence(
            SftMatrix.from_rows([[1, 1], [1, 0]]), SftMatrix.from_rows([[2]])
        )
        bare = (len(irreducible), len(groups))
        irreducible.clear()
        groups.clear()
        code, out, _ = run(capsys, "flow-eq", corpus["fib"], corpus["full2"])
        assert code == EXIT_YES
        assert parse_stdout(out)["flow_invariants"]["parry_sullivan"] == "-1"
        assert (len(irreducible), len(groups)) == bare == (2, 2)

    def test_flow_eq_single_cycles(self, capsys, tmp_path):
        cycle2 = write(tmp_path, "c2.json", {"rows": 2, "cols": 2,
                                             "entries": ["0", "1", "1", "0"]})
        cycle1 = write(tmp_path, "c1.json", {"rows": 1, "cols": 1, "entries": ["1"]})
        code, out, _ = run(capsys, "flow-eq", cycle2, cycle1)
        assert code == EXIT_YES
        assert parse_stdout(out) == {
            "budget": {"depth_reached": 0, "max_depth": 8, "max_nodes": 1000000,
                       "nodes_expanded": 0},
            "flow_invariants": {"bowen_franks": {"free_rank": 1, "torsion": []},
                                "parry_sullivan": "0"},
            "status": "yes",
        }

    def test_flow_eq_no(self, corpus, capsys):
        code, out, _ = run(capsys, "flow-eq", corpus["full2"], corpus["full3"])
        assert code == EXIT_NO
        assert parse_stdout(out)["status"] == "no"

    def test_blocked_eq_no(self, corpus, capsys):
        code, out, _ = run(
            capsys,
            "blocked-eq", corpus["b2"], corpus["b3"],
            "--group", "sl", "--max-depth", "1",
        )
        assert code == EXIT_NO
        doc = parse_stdout(out)
        assert doc["status"] == "no"
        assert "certificate" in doc

    def test_blocked_eq_yes(self, corpus, capsys):
        code, out, _ = run(capsys, "blocked-eq", corpus["b2"], corpus["b2"])
        assert code == EXIT_YES
        doc = parse_stdout(out)
        assert doc["status"] == "yes"
        assert "witness" in doc

    def test_blocked_eq_unknown(self, corpus, capsys, tmp_path):
        two = {"poset": {"n": 1, "leq": []}, "m": [2], "n": [2]}
        a = write(
            tmp_path,
            "ua.json",
            {"shape": two, "matrix": {"rows": 2, "cols": 2, "entries": ["2", "1", "1", "1"]}},
        )
        b = write(
            tmp_path,
            "ub.json",
            {"shape": two, "matrix": {"rows": 2, "cols": 2, "entries": ["1", "1", "1", "2"]}},
        )
        code, out, _ = run(
            capsys, "blocked-eq", a, b, "--group", "sl", "--max-depth", "1", "--max-nodes", "5"
        )
        assert code == EXIT_UNKNOWN
        doc = parse_stdout(out)
        assert doc["status"] == "unknown"
        assert doc["budget"] == {
            "max_depth": 1, "max_nodes": 5, "nodes_expanded": 5, "depth_reached": 0,
        }

    def test_blocked_eq_unit(self, corpus, capsys, tmp_path):
        # b = diag(-1, 1) * a * [[1, 1], [0, 1]]: the unit-restricted group
        # keeps both 1x1 diagonal blocks of V at 1 and lets U flip a sign.
        chain = {"poset": {"n": 2, "leq": [[1, 2]]}, "m": [1, 1], "n": [1, 1]}
        b = write(
            tmp_path,
            "unit_b.json",
            {"shape": chain, "matrix": {"rows": 2, "cols": 2, "entries": ["-2", "-3", "0", "3"]}},
        )
        code, out, _ = run(capsys, "blocked-eq", corpus["web"], b, "--group", "unit")
        assert code == EXIT_YES
        assert parse_stdout(out) == {
            "budget": {
                "depth_reached": 2, "max_depth": 8, "max_nodes": 1000000, "nodes_expanded": 14,
            },
            "status": "yes",
            "witness": {
                "U": {"rows": 2, "cols": 2, "entries": ["-1", "0", "0", "1"]},
                "V": {"rows": 2, "cols": 2, "entries": ["1", "1", "0", "1"]},
            },
        }

    def test_unit_eq(self, corpus, capsys):
        code, out, _ = run(
            capsys, "unit-eq", corpus["b2"], corpus["b2"], corpus["x"], corpus["y"],
            "--group", "gl",
        )
        assert code == EXIT_YES
        assert parse_stdout(out)["status"] == "yes"

    def test_kweb(self, corpus, capsys):
        code, out, _ = run(capsys, "kweb", corpus["web"])
        assert code == EXIT_YES
        doc = parse_stdout(out)
        assert set(doc) == {"quiver", "rep", "labels"}
        quiver = serialize.quiver_from_json(doc["quiver"])
        serialize.rep_from_json(doc["rep"], quiver)
        assert "cok[1, 2]" in doc["labels"]

    def test_rep_iso(self, corpus, capsys):
        code, out, _ = run(
            capsys, "rep-iso", corpus["quiver"], corpus["rep2"], corpus["rep3"]
        )
        assert code == EXIT_NO
        code, out, _ = run(
            capsys, "rep-iso", corpus["quiver"], corpus["rep2"], corpus["rep2"]
        )
        assert code == EXIT_YES

    def test_validate(self, corpus, capsys):
        code, out, _ = run(capsys, "validate", corpus["fib"])
        assert code == EXIT_YES
        assert parse_stdout(out) == {"schema": "matrix", "valid": True}
        code, out, _ = run(capsys, "validate", corpus["web"], "--schema", "blocked")
        assert code == EXIT_YES

    @pytest.mark.parametrize("argv,expected", [
        (("flow-eq", "fib", "full2"), EXIT_YES),
        (("flow-eq", "full2", "full3"), EXIT_NO),
        (("blocked-eq", "b2", "b2"), EXIT_YES),
        (("blocked-eq", "b2", "b3"), EXIT_NO),
        (("unit-eq", "b2", "b2", "x", "y", "--group", "gl"), EXIT_YES),
        (("rep-iso", "quiver", "rep2", "rep2"), EXIT_YES),
        (("rep-iso", "quiver", "rep2", "rep3"), EXIT_NO),
    ])
    def test_every_verdict_output_validates(self, corpus, capsys, tmp_path, argv, expected):
        code, out, _ = run(capsys, *(corpus.get(a, a) for a in argv))
        assert code == expected
        path = tmp_path / "verdict.json"
        path.write_text(out, encoding="utf-8")
        for schema in ((), ("--schema", "verdict")):
            code, out, err = run(capsys, "validate", str(path), *schema)
            assert (code, err) == (EXIT_YES, "")
            assert parse_stdout(out) == {"schema": "verdict", "valid": True}

    @pytest.mark.parametrize("doc, message", [
        ({"status": "unknown"}, "verdict: missing keys ['budget']"),
        ({"status": "unknown", "budget": {}},
         "verdict.budget: missing keys ['depth_reached', 'nodes_expanded']"),
        ({"status": "unknown", "budget": {"nodes_expanded": 3, "max_nodes": 9}},
         "verdict.budget: missing keys ['depth_reached']"),
        ({"status": "unknown", "budget": {"depth_reached": 1}},
         "verdict.budget: missing keys ['nodes_expanded']"),
        ({"status": "yes", "budget": {"nodes_expanded": 3, "depth_reached": 1},
          "witness": {"U": {"rows": 1, "cols": 2, "entries": ["1", "0"]},
                      "V": {"rows": 1, "cols": 1, "entries": ["1"]}}},
         "verdict.witness.U: expected a square matrix"),
        ({"status": "yes", "budget": {"nodes_expanded": 3, "depth_reached": 1},
          "witness": {"U": {"rows": 1, "cols": 1, "entries": ["1"]},
                      "V": {"rows": 2, "cols": 1, "entries": ["1", "0"]}}},
         "verdict.witness.V: expected a square matrix"),
    ])
    def test_validate_rejects_incomplete_verdicts(self, capsys, tmp_path, doc, message):
        # verdict_to_json always writes the budget report, and a witness is
        # a pair of square matrices; nothing less validates.
        path = write(tmp_path, "verdict.json", doc)
        for schema in ((), ("--schema", "verdict")):
            code, out, err = run(capsys, "validate", path, *schema)
            assert (code, out) == (EXIT_DATA, "")
            assert err == f"blockeq: {message}\n"

    @pytest.mark.parametrize("edge_id", [[1, 2], None, 7])
    def test_edge_ids_must_be_strings(self, capsys, tmp_path, edge_id):
        # An id must be a JSON string; no other value is turned into one.
        quiver = write(tmp_path, "q.json", {
            "vertices": 1, "edges": [{"id": edge_id, "src": 0, "dst": 0}]})
        rep = write(tmp_path, "r.json", {
            "vertex_presentations": [{"rows": 1, "cols": 1, "entries": ["2"]}],
            "edge_maps": [{"rows": 1, "cols": 1, "entries": ["1"]}],
        })
        for argv in (("validate", quiver), ("rep-iso", quiver, rep, rep)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_DATA, "")
            assert err == f"blockeq: edge.id: expected a string, got {edge_id!r}\n"

    def test_rep_iso_rejects_map_breaking_relations(self, capsys, tmp_path):
        # The edge map sends a relation of C9 (presented with a unit
        # invariant factor) outside the relations of the target Z.
        quiver = write(tmp_path, "q.json", {
            "vertices": 2, "edges": [{"id": "e", "src": 0, "dst": 1}]})
        rep = write(tmp_path, "r.json", {
            "vertex_presentations": [
                {"rows": 2, "cols": 2, "entries": ["-3", "-3", "2", "-1"]},
                {"rows": 2, "cols": 1, "entries": ["1", "3"]},
            ],
            "edge_maps": [{"rows": 2, "cols": 2, "entries": ["0", "-2", "0", "-1"]}],
        })
        code, out, err = run(capsys, "rep-iso", quiver, rep, rep)
        assert code == EXIT_DATA
        assert out == ""
        assert "does not respect relations" in err


class TestErrorPaths:
    def test_internal_error(self, corpus, capsys, monkeypatch):
        # A crash exits 70, which no verdict uses, with one stderr line.
        def broken(a):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "smith_normal_form", broken)
        code, out, err = run(capsys, "snf", corpus["fib"])
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "blockeq: internal error: RuntimeError: simulated fault\n"

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        assert code == EXIT_USAGE
        assert err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ps", "/nonexistent/file.json")
        assert code == EXIT_DATA

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "snf", str(path))
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command, content", [
        ("snf", b"\xff\xfe[\x00]\x00"),  # UTF-16 with a byte-order mark
        ("validate", b"[" * 100_000 + b"]" * 100_000),  # deeper than json.load recurses
    ])
    def test_unreadable_json(self, tmp_path, capsys, command, content):
        # Text that json.load cannot decode is malformed input, not a crash.
        path = tmp_path / "in.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"blockeq: {path}: invalid JSON: ")
        assert err.count("\n") == 1

    def test_schema_violation(self, tmp_path, capsys):
        path = write(tmp_path, "neg.json", {"rows": 1, "cols": 1, "entries": ["-1"]})
        code, _, err = run(capsys, "ps", str(path))
        assert code == EXIT_DATA
        code, _, err = run(capsys, "validate", str(path), "--schema", "poset")
        assert code == EXIT_DATA

    @pytest.mark.parametrize("doc", [
        {"vertex_presentations": [], "edge_maps": {"a": 1}},
        {"vertex_presentations": "m", "edge_maps": []},
    ])
    def test_rep_parts_must_be_lists(self, tmp_path, capsys, doc):
        path = write(tmp_path, "rep.json", doc)
        for schema in ((), ("--schema", "rep")):
            code, out, err = run(capsys, "validate", path, *schema)
            assert (code, out) == (EXIT_DATA, "")
            assert err == "blockeq: representation: expected lists\n"

    def test_bad_budget(self, corpus, capsys):
        code, _, err = run(
            capsys, "flow-eq", corpus["full2"], corpus["fib"], "--max-depth", "0"
        )
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "flow-eq", corpus["full2"], corpus["fib"], "--seed", "0")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "ps", corpus["fib"], "--format", "json")
        assert code == EXIT_USAGE
        # The budget is checked before any file is read.
        code, _, err = run(capsys, "rep-iso", "/nonexistent/q.json", "/nonexistent/r.json",
                           "/nonexistent/r.json", "--max-nodes", "0")
        assert (code, err) == (EXIT_USAGE, "blockeq: budget bounds must be positive\n")

    def test_output_file(self, corpus, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code, out, _ = run(capsys, "ps", corpus["fib"], "-o", str(out_path))
        assert code == EXIT_YES
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc == {"parry_sullivan": "-1"}

    def test_output_file_that_cannot_be_written(self, corpus, capsys, tmp_path):
        # A missing directory is the environment's fault, not an internal
        # error: one stderr line and the sysexits "cannot create" code.
        out_path = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, "snf", corpus["fib"], "--output", str(out_path))
        assert code == EXIT_CANTCREAT == 73
        assert out == ""
        assert err.startswith(f"blockeq: cannot write {out_path}: ")
        assert err.count("\n") == 1
        assert not out_path.exists()


EMPTY = hashlib.sha256(b"").hexdigest()[:16]
NO_BUDGET = "blockeq: budget bounds must be positive\n"


@pytest.mark.parametrize("argv, code, out_digest, err", [
    (("snf", "fib.json"), EXIT_YES, "4cc61a5af7cda8bd", ""),
    (("cokernel", "full2.json"), EXIT_YES, "d634e4b54c305942", ""),
    (("bf", "full3.json"), EXIT_YES, "d634e4b54c305942", ""),
    (("ps", "fib.json"), EXIT_YES, "4e792132aa9143a8", ""),
    (("ps", "fib.json", "-o", "out.json"), EXIT_YES, EMPTY, ""),
    (("flow-eq", "full2.json", "fib.json"), EXIT_YES, "fa682369a53374d3", ""),
    (("flow-eq", "full2.json", "full3.json"), EXIT_NO, "c73f434897556fc0", ""),
    (("blocked-eq", "b2.json", "b2.json"), EXIT_YES, "944a8095dfb34bb9", ""),
    (("blocked-eq", "b2.json", "b3.json", "--group", "sl", "--max-depth", "1"),
     EXIT_NO, "f35341bae5775caa", ""),
    (("blocked-eq", "ua.json", "ub.json", "--max-depth", "1", "--max-nodes", "5"),
     EXIT_UNKNOWN, "d7ef682fdfe13d09", ""),
    (("blocked-eq", "web.json", "web.json", "--side", "uav-inv", "--group", "gl"),
     EXIT_YES, "de697952bbcf87a1", ""),
    (("unit-eq", "b2.json", "b2.json", "x.json", "y.json", "--group", "gl"),
     EXIT_YES, "2b09bf124176c89b", ""),
    (("kweb", "web.json"), EXIT_YES, "0e2faf76756abcb5", ""),
    (("rep-iso", "quiver.json", "rep2.json", "rep2.json"), EXIT_YES, "2b09bf124176c89b", ""),
    (("rep-iso", "quiver.json", "rep2.json", "rep3.json"), EXIT_NO, "aac366626818495e", ""),
    (("validate", "web.json", "--schema", "blocked"), EXIT_YES, "db634a3bf70dddd3", ""),
    (("ps",), EXIT_USAGE, EMPTY, "blockeq: the following arguments are required: matrix\n"),
    (("ps", "fib.json", "--format", "json"), EXIT_USAGE, EMPTY,
     "blockeq: unrecognized arguments: --format json\n"),
    (("flow-eq", "full2.json", "fib.json", "--max-depth", "0"), EXIT_USAGE, EMPTY, NO_BUDGET),
    (("rep-iso", "quiver.json", "rep2.json", "rep2.json", "--max-nodes", "-3"),
     EXIT_USAGE, EMPTY, NO_BUDGET),
    (("ps", "missing.json"), EXIT_DATA, EMPTY, "blockeq: cannot read missing.json: "
     "[Errno 2] No such file or directory: 'missing.json'\n"),
    (("snf", "bad.json"), EXIT_DATA, EMPTY, "blockeq: bad.json: invalid JSON: Expecting "
     "property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    (("kweb", "fib.json"), EXIT_DATA, EMPTY,
     "blockeq: blocked matrix: missing keys ['matrix', 'shape']\n"),
    (("validate", "fib.json", "--schema", "poset"), EXIT_DATA, EMPTY,
     "blockeq: poset: missing keys ['leq', 'n']\n"),
    (("blocked-eq", "b2.json", "web.json"), EXIT_DATA, EMPTY,
     "blockeq: operands live in different blocked shapes\n"),
    (("unit-eq", "b2.json", "b2.json", "fib.json", "y.json"), EXIT_DATA, EMPTY,
     "blockeq: x and y must be columns of the total column count\n"),
    (("snf", "fib.json", "--output", "missing/out.json"), EXIT_CANTCREAT, EMPTY,
     "blockeq: cannot write missing/out.json: "
     "[Errno 2] No such file or directory: 'missing/out.json'\n"),
    (("snf", "fib.json"), EXIT_INTERNAL, EMPTY,
     "blockeq: internal error: RuntimeError: simulated fault\n"),
])
def test_pinned_bytes(corpus, capsys, monkeypatch, tmp_path, argv, code, out_digest, err):
    # Exit code, stdout digest and stderr of one invocation of every
    # subcommand and of every error path, recorded from an earlier CLI.
    # Paths are relative so that messages naming them are fixed.
    two = {"poset": {"n": 1, "leq": []}, "m": [2], "n": [2]}
    for name, entries in (("ua.json", ["2", "1", "1", "1"]), ("ub.json", ["1", "1", "1", "2"])):
        write(tmp_path, name, {"shape": two,
                               "matrix": {"rows": 2, "cols": 2, "entries": entries}})
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    if code == EXIT_INTERNAL:
        def broken(a):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "smith_normal_form", broken)
    got, out, got_err = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16], got_err) == (
        code, out_digest, err)
