"""Command line front end.

Subcommands: analyze a single generator matrix, test two matrices for
monomial equivalence, run a classification, or verify the bundled
reference tables.  Output is deterministic: identical invocations give
byte-identical reports regardless of the worker count, and the JSON
format is line-delimited with one object per line.

Exit codes are stable contracts:
  0  success (equivalent / confirmed / classified)
  1  inequivalent pair, or a table discrepancy outside the allowlist
  2  command line usage error
  3  generator matrix syntax error
  4  invalid parameters (unsupported modulus, bad length, mismatched pair,
     fewer than one worker, a verify-tables --max-n below 1)
  5  refused: classify past its census budget without --force, or equiv
     past the canonical budget (CANON_BUDGET) without --max-n;
     verify-tables never refuses, since its --max-n lifts the budget
  6  ragged generator matrix (wrong number of entries in a row)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .classify import (
    CLASSIFY_KINDS,
    Verdict,
    classify_budget,
    validate_workers,
    verify_table,
)
from .code import EpCode, EpGenMatrix, ParseError
from .equiv import BudgetExceeded, equivalent_ep
from .fp import validate_modulus

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PARAMS = 4
EXIT_BUDGET = 5
EXIT_RAGGED = 6


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _read_matrix(path: str) -> EpGenMatrix:
    if path == "-":
        return EpGenMatrix.parse(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return EpGenMatrix.parse(fh.read())


_PARSE_EXIT = {"syntax": EXIT_PARSE, "ragged": EXIT_RAGGED, "params": EXIT_PARAMS}


# -- analyze -----------------------------------------------------------------


def _fp_rows(basis) -> list[str]:
    return [" ".join(str(x) for x in row) for row in basis]


def analysis_report(code: EpCode) -> dict:
    """All analysis fields, derived from the code alone.

    The generator echo is the canonical matrix, so feeding the emitted
    matrix back through the parser reproduces this report exactly.
    """
    d = code.min_distance
    return {
        "p": code.p,
        "n": code.n,
        "m1": code.m1,
        "m2": code.m2,
        "cardinality_exp": code.cardinality_exp,
        "free": code.is_free,
        "generators": code.generator_matrix().token_rows(),
        "residue_basis": _fp_rows(code.residue.basis),
        "torsion_basis": _fp_rows(code.torsion.basis),
        "left_dual": code.left_dual.generator_matrix().token_rows(),
        "right_dual": code.right_dual.generator_matrix().token_rows(),
        "lcd": code.is_lcd,
        "left_nice": code.is_left_nice,
        "right_nice": code.is_right_nice,
        "left_self_dual": code.is_left_self_dual,
        "right_self_dual": code.is_right_self_dual,
        "self_dual": code.is_self_dual,
        "qsd": code.is_qsd,
        "d": d,
        "mds": code.mds_status.name,
    }


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _analysis_text(rep: dict) -> list[str]:
    lines = [
        f"p: {rep['p']}",
        f"n: {rep['n']}",
        f"residue dimension m1: {rep['m1']}",
        f"torsion excess m2: {rep['m2']}",
        f"cardinality: {rep['p']}^{rep['cardinality_exp']}",
        f"free: {_yesno(rep['free'])}",
        "minimum distance: absent (zero code)" if rep["d"] is None
        else f"minimum distance: {rep['d']}",
        f"mds status: {rep['mds']}",
        f"lcd: {_yesno(rep['lcd'])}",
        f"left nice: {_yesno(rep['left_nice'])}",
        f"right nice: {_yesno(rep['right_nice'])}",
        f"left self-dual: {_yesno(rep['left_self_dual'])}",
        f"right self-dual: {_yesno(rep['right_self_dual'])}",
        f"self-dual: {_yesno(rep['self_dual'])}",
        f"quasi self-dual: {_yesno(rep['qsd'])}",
    ]
    for title, key in [
        ("generators", "generators"),
        ("residue basis", "residue_basis"),
        ("torsion basis", "torsion_basis"),
        ("left dual generators", "left_dual"),
        ("right dual generators", "right_dual"),
    ]:
        lines.append(f"{title}:")
        lines.extend(f"  {row}" for row in rep[key])
        if not rep[key]:
            lines.append("  (none)")
    return lines


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        matrix = _read_matrix(args.path)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARSE_EXIT[exc.kind]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    rep = analysis_report(matrix.code())
    if args.format == "json":
        _emit([_dumps(rep)], args.out)
    else:
        _emit(_analysis_text(rep), args.out)
    return EXIT_OK


# -- classify ----------------------------------------------------------------


def _classification_lines(cls_, fmt: str) -> list[str]:
    if fmt == "json":
        header = {
            "tool": "epcodes",
            "version": __version__,
            "kind": cls_.kind,
            "p": cls_.p,
            "n": cls_.n,
            "classes": cls_.total,
            "seen_total": cls_.seen_total,
            "note": cls_.note,
        }
        return [_dumps(header)] + [_dumps(r.to_json_dict()) for r in cls_.records]
    lines = [f"{cls_.kind} p={cls_.p} n={cls_.n}: {cls_.total} classes"]
    if cls_.note:
        lines.append(f"note: {cls_.note}")
    for i, rec in enumerate(cls_.records, 1):
        d = "-" if rec.d is None else rec.d
        gens = " / ".join(rec.representative.token_rows()) or "(zero code)"
        lines.append(
            f"  #{i} d={d} exp={2 * rec.m1 + rec.m2} {rec.mds_status.name:7s} "
            f"[{gens}]"
        )
    return lines


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        validate_modulus(args.p)
        validate_workers(args.workers)
        budget = classify_budget(args.kind, args.p)
        if args.force and args.n > budget:
            print(
                f"warning: n={args.n} is beyond the {args.kind} budget of n={budget} "
                f"for p={args.p}; this run may take very long",
                file=sys.stderr,
            )
        cls_ = CLASSIFY_KINDS[args.kind](
            args.p, args.n, workers=args.workers, force=args.force
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except BudgetExceeded as exc:
        print(f"refused: {exc}; pass --force to proceed anyway", file=sys.stderr)
        return EXIT_BUDGET
    _emit(_classification_lines(cls_, args.format), args.out)
    return EXIT_OK


# -- verify-tables -------------------------------------------------------------


def _table_lines(table_id: int, report, fmt: str) -> list[str]:
    if fmt == "json":
        header = {
            "tool": "epcodes",
            "version": __version__,
            "table": table_id,
            "confirmed": report.confirmed,
            "acceptable": report.acceptable,
            "notes": list(report.notes),
        }
        return [_dumps(header)] + [
            _dumps({"table": table_id, **v.to_json_dict()}) for v in report.verdicts
        ]
    lines = [f"table {table_id}:"]
    for v in report.verdicts:
        tag = v.verdict.value.upper()
        if v.verdict is Verdict.DISCREPANCY and v.known:
            tag += " (known)"
        detail = f"  {v.detail}" if v.detail else ""
        lines.append(f"  {v.label:28s} {tag}{detail}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return lines


def cmd_verify_tables(args: argparse.Namespace) -> int:
    table_ids = args.table or list(range(1, 11))
    lines: list[str] = []
    ok = True
    for table_id in table_ids:
        try:
            report = verify_table(table_id, max_n=args.max_n, workers=args.workers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARAMS
        lines.extend(_table_lines(table_id, report, args.format))
        ok = ok and (report.confirmed if args.strict else report.acceptable)
    _emit(lines, args.out)
    return EXIT_OK if ok else EXIT_FAILED


# -- equiv ---------------------------------------------------------------------


def cmd_equiv(args: argparse.Namespace) -> int:
    try:
        first = _read_matrix(args.first)
        second = _read_matrix(args.second)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARSE_EXIT[exc.kind]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    if (first.p, first.n) != (second.p, second.n):
        print(
            f"error: mismatched parameters: p={first.p} n={first.n} against "
            f"p={second.p} n={second.n}",
            file=sys.stderr,
        )
        return EXIT_PARAMS
    try:
        witness = equivalent_ep(first.code(), second.code(), args.max_n)
    except BudgetExceeded as exc:
        print(f"refused: {exc}; pass --max-n to raise the budget", file=sys.stderr)
        return EXIT_BUDGET
    if witness is None:
        if args.format == "json":
            _emit([_dumps({"equivalent": False})], args.out)
        else:
            _emit(["inequivalent"], args.out)
        return EXIT_FAILED
    perm = list(witness.perm)
    scale = [e.token for e in witness.scale]
    if args.format == "json":
        _emit([_dumps({"equivalent": True, "permutation": perm, "scalings": scale})], args.out)
    else:
        _emit(
            [
                "equivalent: the second code is the image of the first",
                "permutation: " + " ".join(str(i) for i in perm),
                "scalings: " + " ".join(scale),
            ],
            args.out,
        )
    return EXIT_OK


# -- entry point ----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", metavar="PATH", help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epcodes",
        description="Exact classification toolkit for linear codes over E_p.",
    )
    parser.add_argument("--version", action="version", version=f"epcodes {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", help="analyze one generator matrix")
    p_an.add_argument("path", nargs="?", default="-", help="matrix file, - for stdin")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_cl = subs.add_parser("classify", help="classify codes up to monomial equivalence")
    p_cl.add_argument("kind", choices=sorted(CLASSIFY_KINDS))
    p_cl.add_argument("--p", type=int, required=True, help="prime modulus")
    p_cl.add_argument("--n", type=int, required=True, help="code length")
    p_cl.add_argument(
        "--workers", type=int, default=1, help="parallel workers, capped at the CPU count"
    )
    p_cl.add_argument("--force", action="store_true", help="lift the census budget")
    _add_common(p_cl)
    p_cl.set_defaults(func=cmd_classify)

    p_vt = subs.add_parser("verify-tables", help="recompute the bundled reference tables")
    p_vt.add_argument(
        "--table", type=int, action="append", metavar="ID", help="table id, repeatable"
    )
    p_vt.add_argument(
        "--max-n", type=int, default=None, metavar="N",
        help="verify census lengths up to N, lifting the census budget "
        "(default: the budget, cut to the printed range)",
    )
    p_vt.add_argument(
        "--workers", type=int, default=1, help="parallel workers, capped at the CPU count"
    )
    p_vt.add_argument(
        "--strict", action="store_true",
        help="fail on known printed defects instead of allowlisting them",
    )
    _add_common(p_vt)
    p_vt.set_defaults(func=cmd_verify_tables)

    p_eq = subs.add_parser("equiv", help="test two matrices for monomial equivalence")
    p_eq.add_argument("first", help="matrix file, - for stdin")
    p_eq.add_argument("second", help="matrix file")
    p_eq.add_argument(
        "--max-n", type=int, default=None, metavar="N",
        help="lift the canonical budget (CANON_BUDGET) to length N",
    )
    _add_common(p_eq)
    p_eq.set_defaults(func=cmd_equiv)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
