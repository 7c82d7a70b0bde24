"""Command-line interface: evaluate expressions, check laws, probe convexity.

Exit codes: 0 on success (or all checks passing), 1 on a semantic failure
(law violated, convexity violated, evaluation error), 2 on usage or parse
errors. Diagnostics go to standard error with 1-based line/column positions.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import textwrap
from pathlib import Path

from . import dsl
from .convexity import (
    Box,
    MAX_LAMBDA_GRID,
    NO_VIOLATION,
    check_convex,
    check_strongly_convex,
    intersect_functional,
)
from .errors import InsError, InvalidDomain, InvalidParameter, SourceError, UnknownFamily
from .families import parse_family
from .laws import CLI_LAWS, LawResult, run_law

__all__ = ["main", "entry", "build_parser"]


def _ranged(low: float, high: float = math.inf, convert=int):
    """An argparse type: ``convert(text)``, refused unless finite and in
    [low, high], so NaN or infinite values never reach a check."""

    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and low <= value <= high):
            bound = f">= {low}" if high == math.inf else f"between {low} and {high}"
            finite = "" if convert is int else "finite and "
            raise argparse.ArgumentTypeError(f"must be {finite}{bound}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ins",
        description="Interval neutrosophic set algebra: expression evaluation, "
        "algebraic law checking, and convexity probing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_eval = sub.add_parser("eval", help="evaluate an expression over a set file")
    p_eval.add_argument("--sets", required=True, metavar="PATH", help="set file to load")
    p_eval.add_argument("--expr", required=True, metavar="TEXT", help="expression to evaluate")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument(
        "--precision", type=_ranged(1, 17), default=15, metavar="N",
        help="significant digits in text output (17 = exact round trip)",
    )

    p_check = sub.add_parser("check", help="run algebraic law checks over random sets")
    which = p_check.add_mutually_exclusive_group(required=True)
    which.add_argument("--law", metavar="NAME", help="law to check (see --law help)")
    which.add_argument("--all", action="store_true", help="check every law")
    p_check.add_argument("--sets", metavar="PATH", help="take universes from this set file")
    p_check.add_argument("--trials", type=_ranged(1), default=1000, metavar="N")
    p_check.add_argument("--seed", type=_ranged(0), default=0, metavar="N")
    p_check.add_argument("--tol", type=_ranged(0.0, convert=float), default=1e-12, metavar="X")
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_convex = sub.add_parser("convex", help="convexity-check a built-in membership family")
    p_convex.add_argument("--family", required=True, metavar="SPEC",
                          help="family spec, e.g. 'triangular(0,1)'")
    p_convex.add_argument("--intersect", metavar="SPEC",
                          help="check the intersection with this second family")
    p_convex.add_argument("--box", default="-2:2", metavar="LO:HI[,LO:HI...]",
                          help="sampling box, one LO:HI range per dimension")
    p_convex.add_argument("--trials", type=_ranged(1), default=1000, metavar="N")
    p_convex.add_argument("--lambda-grid", dest="lambda_grid",
                          type=_ranged(2, MAX_LAMBDA_GRID), default=11, metavar="N")
    p_convex.add_argument("--seed", type=_ranged(0), default=0, metavar="N")
    p_convex.add_argument("--tol", type=_ranged(0.0, convert=float), default=1e-9, metavar="X")
    p_convex.add_argument("--strict", action="store_true",
                          help="check strong convexity instead")
    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    # argparse mistakes option values like "-3:3" for flags; fold them into
    # --box=VALUE form.
    merged: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--box" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"--box={argv[i + 1]}")
            i += 2
            continue
        merged.append(arg)
        i += 1
    return merged


def _diag(source: str, err: SourceError) -> None:
    print(f"ins: {source}:{err.line}:{err.column}: {err.kind}: {err.message}",
          file=sys.stderr)


def _usage_error(message: str) -> int:
    print(f"ins: error: {message}", file=sys.stderr)
    return 2


def _load_environment(path: str) -> dict | None:
    """The sets in the file at ``path``, or None once the reason it cannot
    be read or parsed is reported (a usage error, exit code 2)."""
    try:
        return dsl.parse_sets(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        _usage_error(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _usage_error(f"cannot read {path}: {exc}")
    except SourceError as exc:
        _diag(path, exc)
    return None


def _cmd_eval(args: argparse.Namespace) -> int:
    env = _load_environment(args.sets)
    if env is None:
        return 2
    try:
        expr = dsl.parse_expr(args.expr)
    except SourceError as exc:
        _diag("<expr>", exc)
        return 2
    try:
        result = dsl.evaluate(expr, env)
    except SourceError as exc:
        _diag("<expr>", exc)
        return 1
    if isinstance(result, bool):
        print("true" if result else "false")
    elif args.format == "json":
        print(json.dumps(dsl.set_to_json(result)))
    else:
        sys.stdout.write(dsl.format_set(result, precision=args.precision))
    return 0


def _law_lines(result: LawResult) -> str:
    if result.passed:
        return f"law {result.law}: pass ({result.trials} trials, seed {result.seed})"
    head = (
        f"law {result.law}: FAIL "
        f"(trial {result.failed_trial} of {result.trials}, seed {result.seed})"
    )
    return head + "\n" + textwrap.indent(result.counterexample or "", "  ")


def _cmd_check(args: argparse.Namespace) -> int:
    universes = None
    if args.sets:
        env = _load_environment(args.sets)
        if env is None:
            return 2
        universes = [s.universe for s in env.values()]
        if not universes:
            universes = None
    names = CLI_LAWS if args.all else (args.law,)
    if not args.all and args.law not in CLI_LAWS:
        return _usage_error(
            f"unknown law {args.law!r}; valid laws: " + ", ".join(CLI_LAWS)
        )
    results = [
        run_law(name, trials=args.trials, seed=args.seed, tol=args.tol,
                universes=universes)
        for name in names
    ]
    if args.format == "json":
        payload = {
            "trials": args.trials,
            "seed": args.seed,
            "tol": args.tol,
            "results": [
                {
                    "law": r.law,
                    "description": r.description,
                    "passed": r.passed,
                    "counterexample": r.counterexample,
                    "failed_trial": r.failed_trial,
                }
                for r in results
            ],
        }
        print(json.dumps(payload))
    else:
        for r in results:
            print(_law_lines(r))
        if args.all:
            passed = sum(r.passed for r in results)
            print(f"{passed}/{len(results)} laws passed")
    return 0 if all(r.passed for r in results) else 1


def _parse_box(text: str) -> Box:
    bounds = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ValueError(f"box range {part!r} is not LO:HI")
        try:
            bounds.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ValueError(f"box range {part!r} is not numeric") from None
    return Box(tuple(bounds))


def _cmd_convex(args: argparse.Namespace) -> int:
    try:
        box = _parse_box(args.box)
        target = parse_family(args.family, dimension=box.dimension)
        if args.intersect:
            other = parse_family(args.intersect, dimension=box.dimension)
            target = intersect_functional(target, other)
    except (UnknownFamily, InvalidDomain, ValueError) as exc:
        return _usage_error(str(exc))
    checker = check_strongly_convex if args.strict else check_convex
    try:
        report = checker(
            target, box, trials=args.trials, lambda_grid=args.lambda_grid,
            seed=args.seed, tol=args.tol,
        )
    except (InvalidDomain, InvalidParameter) as exc:
        return _usage_error(str(exc))
    print(f"family: {args.family}")
    if args.intersect:
        print(f"intersect: {args.intersect}")
    print(f"check: {'strongly-convex' if args.strict else 'convex'}")
    print(f"box: {args.box}")
    print(f"trials: {args.trials}")
    print(f"lambda-grid: {args.lambda_grid}")
    print(f"seed: {args.seed}")
    print(f"tol: {args.tol!r}")
    print(f"verdict: {report.verdict}")
    print(f"samples-checked: {report.samples_checked}")
    w = report.witness
    if w is not None:
        print(f"witness: component={w.component} lambda={w.lam!r} lhs={w.lhs!r} rhs={w.rhs!r}")
        print(f"  x1 = {w.x1!r}")
        print(f"  x2 = {w.x2!r}")
    return 0 if report.verdict == NO_VIOLATION else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(argv)))
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_convex(args)
    except InsError as exc:
        # library errors that escaped command handling are semantic failures
        print(f"ins: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
