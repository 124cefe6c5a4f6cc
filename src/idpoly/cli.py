"""Command line front end.

Subcommands: analyze (full pipeline), oracle (brute force only),
hypergraph (dump the labeled hypergraph), reduce (closed-vertex
fixpoint), verify (check a witness file).  analyze and oracle are views
over one engine call each, ``engine.analyze`` and ``engine.oracle_report``:
load the input, call the engine, print its report, return the exit code.
Input files ending in .mat are vertex matrices; anything else parses as
an ideal file.  Reports go to stdout, warnings to stderr.  Exit code 0
means the run completed with a verdict (an invalid witness is still a
completed verification), 2 means bad input, 3 means no verdict: budgets
ran out, or a negative witness failed re-verification and was demoted
to unknown.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .engine import UNKNOWN, EngineConfig, VerdictReport, analyze, oracle_report
from .hypergraph import NotSeparatedError, build_from_ideal, reduce_closed_fixpoint
from .model import InputError, SquarefreeIdeal, polytope_from_ideal
from .oracle import verify_coefficients
from .parsing import parse_ideal_text, parse_matrix_text, parse_witness_text
from . import report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_ideal(path: Path) -> SquarefreeIdeal:
    """Read an input file; .mat rows become generators over x1..xn.

    The rows of a .mat file are the vertices themselves, so two comparable
    rows are an error: dropping the larger one, as ideal files do with a
    dominated generator, would decide a polytope with fewer vertices.
    """
    text = _read_text(path)
    if path.suffix == ".mat":
        polytope = parse_matrix_text(text)
        names = tuple(f"x{k}" for k in range(1, polytope.ambient_dim + 1))
        supports = [
            frozenset(names[j] for j, bit in enumerate(row) if bit)
            for row in polytope.vertices
        ]
        for i, low in enumerate(supports, start=1):
            for j, high in enumerate(supports, start=1):
                if low < high:
                    raise InputError(
                        f"rows {i} and {j} are comparable: every 1 of row {i} "
                        f"is also in row {j}, so they are not the exponents of "
                        "a minimal generating set"
                    )
        return SquarefreeIdeal(names, tuple(supports))
    return parse_ideal_text(text)


def _print_report(result: VerdictReport, fmt: str) -> int:
    """Print the report and return the exit code: 3 when there is no verdict."""
    if fmt == "json":
        print(report.render_json(result))
    else:
        print(report.render_text(result), end="")
    return EXIT_BUDGET if result.status == UNKNOWN else EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    ideal = _load_ideal(Path(args.file))
    kwargs: dict = {
        "use_minors": not args.no_minors,
        "use_oracle": not args.no_oracle,
        "relaxed_connection": args.relaxed_connection,
        "verify": not args.no_verify,
    }
    if args.minor_budget is not None:
        kwargs["minor_budget"] = args.minor_budget
    if args.oracle_max_degree is not None:
        kwargs["oracle_max_degree"] = args.oracle_max_degree
    return _print_report(analyze(ideal, EngineConfig(**kwargs)), args.format)


def _cmd_oracle(args: argparse.Namespace) -> int:
    ideal = _load_ideal(Path(args.file))
    result = oracle_report(
        ideal, max_degree=args.oracle_max_degree, verify=not args.no_verify
    )
    return _print_report(result, args.format)


def _cmd_hypergraph(args: argparse.Namespace) -> int:
    ideal = _load_ideal(Path(args.file))
    hypergraph = build_from_ideal(ideal)
    if args.format == "json":
        print(json.dumps(report.hypergraph_payload(hypergraph), indent=2))
    else:
        print(report.hypergraph_text(hypergraph), end="")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    ideal = _load_ideal(Path(args.file))
    hypergraph = build_from_ideal(ideal)
    reduced, trace = reduce_closed_fixpoint(hypergraph)
    if args.format == "json":
        print(json.dumps(report.reduction_report_payload(trace, reduced), indent=2))
    else:
        print(report.reduction_report_text(trace, reduced), end="")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ideal = _load_ideal(Path(args.file))
    polytope = polytope_from_ideal(ideal)
    coefficients = parse_witness_text(_read_text(Path(args.witness)))
    result = verify_coefficients(polytope, coefficients)
    if args.format == "json":
        print(json.dumps(report.verification_payload(result), indent=2))
    else:
        print(report.verification_text(result), end="")
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "oracle": _cmd_oracle,
    "hypergraph": _cmd_hypergraph,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def _count(text: str) -> int:
    """Argument type of the budgets and degree caps: an integer N >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"N cannot be negative, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "file",
        help="input file; .mat is a vertex matrix, anything else an ideal file",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for harness compatibility; the tools are deterministic",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idpoly",
        description=(
            "Decide whether the 0-1 polytope of a squarefree monomial ideal "
            "is normal, with machine-checkable evidence for every verdict."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("analyze", help="run the full decision pipeline")
    _add_common(p)
    p.add_argument("--no-oracle", action="store_true", help="disable the brute-force fallback")
    p.add_argument(
        "--oracle-max-degree",
        type=_count,
        metavar="N",
        help="truncate the oracle scan at degree N",
    )
    p.add_argument("--no-minors", action="store_true", help="disable the minor search")
    p.add_argument(
        "--minor-budget", type=_count, metavar="N", help="examine at most N minors"
    )
    p.add_argument(
        "--relaxed-connection",
        action="store_true",
        help="allow multi-edge paths when connecting odd cycle pairs",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip re-verification of negative evidence",
    )

    p = sub.add_parser("oracle", help="brute-force decision only")
    _add_common(p)
    p.add_argument(
        "--oracle-max-degree",
        type=_count,
        metavar="N",
        help="truncate the scan at degree N",
    )
    p.add_argument(
        "--no-verify", action="store_true", help="skip witness re-verification"
    )

    p = sub.add_parser("hypergraph", help="dump the labeled hypergraph of the input")
    _add_common(p)

    p = sub.add_parser("reduce", help="run the closed-vertex reduction to its fixpoint")
    _add_common(p)

    p = sub.add_parser("verify", help="check a witness file against the input polytope")
    _add_common(p)
    p.add_argument(
        "--witness",
        required=True,
        metavar="FILE",
        help="witness file: one rational per line, aligned with generators",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    handler = _HANDLERS[args.command]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *rest, **kw: print(
            f"warning: {message}", file=sys.stderr
        )
        try:
            return handler(args)
        except (InputError, NotSeparatedError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
