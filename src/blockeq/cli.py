"""Command-line front end: one subcommand per decision procedure.

Exit codes: 0 = yes / success-with-result, 1 = no, 2 = unknown,
64 = usage error, 65 = malformed input, 70 = internal error, 73 = the
--output file cannot be written.  Output is
canonical JSON on stdout (or --output); diagnostics go to stderr.  Runs are
deterministic for fixed inputs and budget flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import serialize
from .equiv import (
    GL,
    GROUPS,
    SIDE_UAV,
    SIDE_UAV_INV,
    SL,
    SearchBudget,
    decide_blocked_equivalence,
    decide_with_unit,
)
from .intmat import cokernel, smith_normal_form
from .quiver import build_kweb, decide_rep_isomorphism
from .serialize import SchemaError
from .sft import SftMatrix, _decide_flow

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="blockeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--max-depth", type=int, default=8)
        p.add_argument("--max-nodes", type=int, default=1_000_000)

    def add_output(p):
        p.add_argument("--output", "-o", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("snf", help="Smith normal form of a matrix")
    p.add_argument("matrix")
    add_output(p)

    p = sub.add_parser("cokernel", help="cokernel of a matrix as an abelian group")
    p.add_argument("matrix")
    add_output(p)

    p = sub.add_parser("bf", help="Bowen-Franks group of an SFT matrix")
    p.add_argument("matrix")
    add_output(p)

    p = sub.add_parser("ps", help="Parry-Sullivan number of an SFT matrix")
    p.add_argument("matrix")
    add_output(p)

    p = sub.add_parser("flow-eq", help="flow equivalence of two SFT matrices")
    p.add_argument("left")
    p.add_argument("right")
    add_budget(p)
    add_output(p)

    p = sub.add_parser("blocked-eq", help="blocked equivalence of two blocked matrices")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--group", choices=GROUPS, default=SL)
    p.add_argument("--side", choices=(SIDE_UAV, SIDE_UAV_INV), default=SIDE_UAV)
    add_budget(p)
    add_output(p)

    p = sub.add_parser("unit-eq", help="blocked equivalence with the unit-vector condition")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--group", choices=GROUPS, default=GL)
    add_budget(p)
    add_output(p)

    p = sub.add_parser("kweb", help="K-web of a blocked matrix as a quiver representation")
    p.add_argument("blocked")
    add_output(p)

    p = sub.add_parser("rep-iso", help="isomorphism of two quiver representations")
    p.add_argument("quiver")
    p.add_argument("rep1")
    p.add_argument("rep2")
    add_budget(p)
    add_output(p)

    p = sub.add_parser("validate", help="check an input file against its schema")
    p.add_argument("file")
    p.add_argument("--schema", choices=sorted(serialize.SCHEMAS), default=None)
    add_output(p)

    return parser


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def _emit(doc, args) -> None:
    text = serialize.dumps(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _budget(args) -> SearchBudget:
    try:
        return SearchBudget(args.max_depth, args.max_nodes)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _verdict_exit(verdict) -> int:
    return {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[verdict.status]


def _run(args) -> int:
    cmd = args.command
    if cmd == "snf":
        m = serialize.matrix_from_json(_load(args.matrix))
        dec = smith_normal_form(m)
        _emit(
            {
                "U": serialize.matrix_to_json(dec.U),
                "S": serialize.matrix_to_json(dec.S),
                "V": serialize.matrix_to_json(dec.V),
            },
            args,
        )
        return EXIT_YES

    if cmd == "cokernel":
        m = serialize.matrix_from_json(_load(args.matrix))
        _emit(serialize.group_to_json(cokernel(m)), args)
        return EXIT_YES

    if cmd in ("bf", "ps"):
        m = serialize.matrix_from_json(_load(args.matrix))
        try:
            a = SftMatrix(m)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        if cmd == "bf":
            from .sft import bowen_franks

            _emit(serialize.group_to_json(bowen_franks(a)), args)
        else:
            from .sft import parry_sullivan

            _emit({"parry_sullivan": serialize.int_to_str(parry_sullivan(a))}, args)
        return EXIT_YES

    if cmd == "flow-eq":
        left = serialize.matrix_from_json(_load(args.left))
        right = serialize.matrix_from_json(_load(args.right))
        try:
            a, a2 = SftMatrix(left), SftMatrix(right)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        budget = _budget(args)
        verdict, inv = _decide_flow(a, a2, budget)
        doc = serialize.verdict_to_json(verdict, budget)
        if inv is not None:
            doc["flow_invariants"] = {
                "bowen_franks": serialize.group_to_json(inv.bowen_franks),
                "parry_sullivan": serialize.int_to_str(inv.parry_sullivan),
            }
        _emit(doc, args)
        return _verdict_exit(verdict)

    if cmd == "blocked-eq":
        left = serialize.blocked_from_json(_load(args.left))
        right = serialize.blocked_from_json(_load(args.right))
        budget = _budget(args)
        try:
            verdict = decide_blocked_equivalence(
                left,
                right,
                group=args.group,
                side=args.side,
                budget=budget,
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        _emit(serialize.verdict_to_json(verdict, budget), args)
        return _verdict_exit(verdict)

    if cmd == "unit-eq":
        left = serialize.blocked_from_json(_load(args.left))
        right = serialize.blocked_from_json(_load(args.right))
        x = serialize.matrix_from_json(_load(args.x))
        y = serialize.matrix_from_json(_load(args.y))
        budget = _budget(args)
        try:
            verdict = decide_with_unit(
                left, right, x, y, group=args.group, budget=budget
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        _emit(serialize.verdict_to_json(verdict, budget), args)
        return _verdict_exit(verdict)

    if cmd == "kweb":
        blocked = serialize.blocked_from_json(_load(args.blocked))
        try:
            web = build_kweb(blocked)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        _emit(
            {
                "quiver": serialize.quiver_to_json(web.quiver),
                "rep": serialize.rep_to_json(web.rep),
                "labels": list(web.labels),
            },
            args,
        )
        return EXIT_YES

    if cmd == "rep-iso":
        quiver = serialize.quiver_from_json(_load(args.quiver))
        rep1 = serialize.rep_from_json(_load(args.rep1), quiver)
        rep2 = serialize.rep_from_json(_load(args.rep2), quiver)
        budget = _budget(args)
        try:
            verdict = decide_rep_isomorphism(rep1, rep2, quiver, budget)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        _emit(serialize.verdict_to_json(verdict, budget), args)
        return _verdict_exit(verdict)

    if cmd == "validate":
        doc = _load(args.file)
        name = serialize.validate_document(doc, args.schema)
        _emit({"schema": name, "valid": True}, args)
        return EXIT_YES

    raise _UsageError(f"unknown command {cmd!r}")  # pragma: no cover


def execute(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"blockeq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _run(args)
    except _UsageError as exc:
        print(f"blockeq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"blockeq: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _OutputError as exc:
        print(f"blockeq: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    except Exception as exc:  # a crash must not exit with a verdict's code
        print(f"blockeq: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(execute())


if __name__ == "__main__":
    main()
