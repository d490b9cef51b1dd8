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
from collections.abc import Callable
from functools import cache
from typing import NamedTuple

from . import equiv, serialize
from .intmat import cokernel, smith_normal_form
from .quiver import build_kweb, decide_rep_isomorphism
from .serialize import SchemaError
from .sft import SftMatrix, _decide_flow, bowen_franks, parry_sullivan

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73


class _UsageError(Exception):
    code = EXIT_USAGE


class _OutputError(Exception):
    code = EXIT_CANTCREAT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load(path):
    """The JSON document in a file.  Bytes that are not UTF-8 and nesting
    deeper than the decoder recurses are malformed input, like bad syntax."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def _matrix(path):
    return serialize.matrix_from_json(_load(path))


def _blocked(path):
    return serialize.blocked_from_json(_load(path))


def _sft(path):
    m = _matrix(path)
    try:
        return SftMatrix(m)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


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


def _snf(args):
    dec = smith_normal_form(_matrix(args.matrix))
    return {name: serialize.matrix_to_json(m)
            for name, m in (("U", dec.U), ("S", dec.S), ("V", dec.V))}


def _cokernel(args):
    return serialize.group_to_json(cokernel(_matrix(args.matrix)))


def _bf(args):
    return serialize.group_to_json(bowen_franks(_sft(args.matrix)))


def _ps(args):
    return {"parry_sullivan": serialize.int_to_str(parry_sullivan(_sft(args.matrix)))}


def _kweb(args):
    blocked = _blocked(args.blocked)
    try:
        web = build_kweb(blocked)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return {
        "quiver": serialize.quiver_to_json(web.quiver),
        "rep": serialize.rep_to_json(web.rep),
        "labels": list(web.labels),
    }


def _validate(args):
    name = serialize.validate_document(_load(args.file), args.schema)
    return {"schema": name, "valid": True}


def _flow_eq(args, budget):
    verdict, inv = _decide_flow(_sft(args.left), _sft(args.right), budget)
    if inv is None:
        return verdict, {}
    return verdict, {"flow_invariants": {
        "bowen_franks": serialize.group_to_json(inv.bowen_franks),
        "parry_sullivan": serialize.int_to_str(inv.parry_sullivan),
    }}


def _blocked_eq(args, budget):
    left, right = _blocked(args.left), _blocked(args.right)
    return equiv.decide_blocked_equivalence(
        left, right, group=args.group, side=args.side, budget=budget), {}


def _unit_eq(args, budget):
    left, right = _blocked(args.left), _blocked(args.right)
    x, y = _matrix(args.x), _matrix(args.y)
    return equiv.decide_with_unit(left, right, x, y, group=args.group, budget=budget), {}


def _rep_iso(args, budget):
    quiver = serialize.quiver_from_json(_load(args.quiver))
    rep1, rep2 = (serialize.rep_from_json(_load(path), quiver)
                  for path in (args.rep1, args.rep2))
    return decide_rep_isomorphism(rep1, rep2, quiver, budget), {}


def _option(*flags, **settings):
    return flags, settings


class _Command(NamedTuple):
    """One subcommand.  A plain handler maps the parsed arguments to the
    output document.  A verdict command also takes the budget options, and
    its handler maps (args, budget) to the verdict and any fields to add to
    the verdict's JSON."""

    help: str
    positionals: tuple[str, ...]
    handler: Callable
    options: tuple = ()
    verdict: bool = False


_BUDGET = (_option("--max-depth", type=int, default=8),
           _option("--max-nodes", type=int, default=1_000_000))
_OUTPUT = _option("--output", "-o", default=None, help="write JSON here instead of stdout")

# The one declaration of each subcommand, in the order --help lists them.
_COMMANDS = {
    "snf": _Command("Smith normal form of a matrix", ("matrix",), _snf),
    "cokernel": _Command("cokernel of a matrix as an abelian group", ("matrix",), _cokernel),
    "bf": _Command("Bowen-Franks group of an SFT matrix", ("matrix",), _bf),
    "ps": _Command("Parry-Sullivan number of an SFT matrix", ("matrix",), _ps),
    "flow-eq": _Command("flow equivalence of two SFT matrices", ("left", "right"),
                        _flow_eq, verdict=True),
    "blocked-eq": _Command(
        "blocked equivalence of two blocked matrices", ("left", "right"), _blocked_eq,
        (_option("--group", choices=equiv.GROUPS, default=equiv.SL),
         _option("--side", choices=(equiv.SIDE_UAV, equiv.SIDE_UAV_INV),
                 default=equiv.SIDE_UAV)),
        verdict=True),
    "unit-eq": _Command(
        "blocked equivalence with the unit-vector condition", ("left", "right", "x", "y"),
        _unit_eq, (_option("--group", choices=equiv.GROUPS, default=equiv.GL),), verdict=True),
    "kweb": _Command("K-web of a blocked matrix as a quiver representation", ("blocked",),
                     _kweb),
    "rep-iso": _Command("isomorphism of two quiver representations",
                        ("quiver", "rep1", "rep2"), _rep_iso, verdict=True),
    "validate": _Command(
        "check an input file against its schema", ("file",), _validate,
        (_option("--schema", choices=sorted(serialize.SCHEMAS), default=None),)),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="blockeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for positional in cmd.positionals:
            p.add_argument(positional)
        for flags, settings in cmd.options + (_BUDGET if cmd.verdict else ()) + (_OUTPUT,):
            p.add_argument(*flags, **settings)
    return parser


def _run(args) -> int:
    cmd = _COMMANDS[args.command]
    if not cmd.verdict:
        _emit(cmd.handler(args), args)
        return EXIT_YES
    try:
        budget = equiv.SearchBudget(args.max_depth, args.max_nodes)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        verdict, extra = cmd.handler(args, budget)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    _emit({**serialize.verdict_to_json(verdict, budget), **extra}, args)
    return {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[verdict.status]


def execute(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except (_UsageError, _OutputError) as exc:
        print(f"blockeq: {exc}", file=sys.stderr)
        return exc.code
    except SchemaError as exc:
        print(f"blockeq: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # a crash must not exit with a verdict's code
        print(f"blockeq: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(execute())


if __name__ == "__main__":
    main()
