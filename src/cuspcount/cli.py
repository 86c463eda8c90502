"""Command-line front end: read a problem file, count cusps, emit a report.

Exit status: 0 success; 2 genericity certificate failed (also when the cusp
ideal is not zero-dimensional); 4 region form degenerate (report still
printed, region counts withheld); 5 parse errors; 6 degree-guard or
oracle-resolution trouble; 1 anything else (a usage error, unreadable or
non-UTF-8 input, a failed internal certificate).  Status 3, once "not
zero-dimensional", is no longer produced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from .errors import (CertificateFailed, DegenerateRegionForm,
                     DegreeGuardExceeded, GenericityNotCertified, OracleOverflow,
                     ParseError)
from .exprio import (ProblemInput, SolverOptions, format_monomial,
                     format_polynomial, parse_problem)
from .groebner import DEFAULT_DEGREE_GUARD
from .oracle import DEFAULT_ORACLE_RADIUS, isolate_cusps, region_membership
from .pipeline import CuspCensus, census, derive_system

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DEGENERATE_REGION = 4
EXIT_PARSE = 5
EXIT_GUARD = 6


@dataclasses.dataclass(frozen=True)
class RunOptions:
    """Resolved command-line options."""

    input_path: str
    json_output: bool = False
    run_oracle: bool = False
    oracle_radius: float = DEFAULT_ORACLE_RADIUS
    degree_guard: int = DEFAULT_DEGREE_GUARD
    show_basis: bool = False


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line and status 1: argparse's status 2 means a failed certificate here
        self.exit(EXIT_INTERNAL, f"{self.prog}: {message}\n")


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cuspcount",
        description="Count positive and negative cusps of a polynomial map "
                    "of the plane, exactly; optionally cross-check with a "
                    "certified numeric solver.")
    parser.add_argument("problem", help="problem file path, or '-' for standard input")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the numeric root-isolation referee")
    parser.add_argument("--radius", type=float, default=DEFAULT_ORACLE_RADIUS,
                        metavar="R", help="half-width of the oracle search box "
                                          "(default %(default)s)")
    parser.add_argument("--degree-guard", type=int, default=DEFAULT_DEGREE_GUARD,
                        metavar="N", help="abort if intermediate degrees exceed N "
                                          "(default %(default)s)")
    parser.add_argument("--basis", action="store_true",
                        help="list the quotient-algebra basis in the text report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    if not (math.isfinite(args.radius) and args.radius > 0):
        print("cuspcount: --radius must be a positive finite number", file=sys.stderr)
        return EXIT_INTERNAL
    if args.degree_guard <= 0:
        print("cuspcount: --degree-guard must be positive", file=sys.stderr)
        return EXIT_INTERNAL
    options = RunOptions(
        input_path=args.problem,
        json_output=args.json,
        run_oracle=args.oracle,
        oracle_radius=args.radius,
        degree_guard=args.degree_guard,
        show_basis=args.basis,
    )
    return run(options)


def run(options: RunOptions) -> int:
    """Execute one pipeline run and print the report to standard output."""
    try:
        text = _read_input(options.input_path)
    except (OSError, UnicodeDecodeError) as err:
        print(f"cuspcount: cannot read {options.input_path!r}: {err}", file=sys.stderr)
        return EXIT_INTERNAL

    timings: dict[str, float] = {}
    start = time.perf_counter()
    try:
        problem = parse_problem(text, SolverOptions(degree_guard=options.degree_guard))
    except DegreeGuardExceeded as err:
        print(f"cuspcount: degree guard: {err}", file=sys.stderr)
        return EXIT_GUARD
    except ParseError as err:
        print(f"cuspcount: parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    timings["parse"] = time.perf_counter() - start

    exit_code = EXIT_OK
    t0 = time.perf_counter()
    try:
        result = census(problem)
    except GenericityNotCertified as err:
        print(f"cuspcount: {err}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    except CertificateFailed as err:
        print(f"cuspcount: certificate failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except DegreeGuardExceeded as err:
        print(f"cuspcount: degree guard: {err}", file=sys.stderr)
        return EXIT_GUARD
    except DegenerateRegionForm as err:
        print(f"cuspcount: {err}", file=sys.stderr)
        result = err.census
        exit_code = EXIT_DEGENERATE_REGION
    timings["census"] = time.perf_counter() - t0

    if options.run_oracle:
        t0 = time.perf_counter()
        try:
            points = isolate_cusps(derive_system(problem.f1, problem.f2),
                                   box_radius=options.oracle_radius)
            if problem.u is not None:
                points = tuple(
                    dataclasses.replace(pt, in_region=region_membership(problem.u, pt))
                    if pt.kind == "cusp" else pt
                    for pt in points)
        except OracleOverflow as err:
            print(f"cuspcount: oracle: {err}", file=sys.stderr)
            return EXIT_GUARD
        result = dataclasses.replace(result, oracle=points)
        timings["oracle"] = time.perf_counter() - t0
        if any(pt.kind == "unresolved" for pt in points) and exit_code == EXIT_OK:
            print("cuspcount: oracle left unresolved boxes (reported below)",
                  file=sys.stderr)
            exit_code = EXIT_GUARD
    timings["total"] = time.perf_counter() - start

    if options.json_output:
        print(json.dumps(_json_report(problem, result, timings), indent=2))
    else:
        print(_text_report(problem, result, options.show_basis, timings))
    return exit_code


def _read_input(path: str) -> str:
    if path == "-":  # strict UTF-8 as for a file; a stream without bytes is read as is
        stream = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if stream is None else stream.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _json_report(problem: ProblemInput, result: CuspCensus,
                 timings: dict[str, float]) -> dict:
    return {
        "input_echo": {
            "f1": format_polynomial(problem.f1),
            "f2": format_polynomial(problem.f2),
            "u": format_polynomial(problem.u) if problem.u is not None else None,
        },
        "one_generic_certified": result.one_generic_certified,
        "dim": result.dim,
        "basis": [format_monomial(m) for m in result.basis],
        "signatures": {
            "theta1": result.sig1,
            "theta2": result.sig2,
            "theta3": result.sig3,
            "theta4": result.sig4,
        },
        "cusps": {
            "total": result.total_cusps,
            "positive": result.positive_cusps,
            "negative": result.negative_cusps,
        },
        "region": (
            {"positive": result.region.positive, "negative": result.region.negative}
            if result.region is not None else None),
        "oracle": (
            [_json_point(pt) for pt in result.oracle]
            if result.oracle is not None else None),
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in timings.items()},
    }


def _json_point(pt) -> dict:
    return {
        "box": [[pt.box[0].lo, pt.box[0].hi], [pt.box[1].lo, pt.box[1].hi]],
        "kind": pt.kind,
        "degree_sign": pt.degree_sign,
        "in_region": pt.in_region,
    }


def _text_report(problem: ProblemInput, result: CuspCensus,
                 show_basis: bool, timings: dict[str, float]) -> str:
    lines = [
        f"map: f1 = {format_polynomial(problem.f1)}",
        f"     f2 = {format_polynomial(problem.f2)}",
    ]
    if problem.u is not None:
        lines.append(f"region: u = {format_polynomial(problem.u)}")
    lines.append(f"one-generic: {'certified' if result.one_generic_certified else 'NOT certified'}")
    lines.append(f"quotient dimension: {result.dim}")
    if show_basis:
        lines.append("basis: " + (", ".join(format_monomial(m) for m in result.basis) or "(empty)"))
    sig_bits = [f"theta1={result.sig1}", f"theta2={result.sig2}"]
    if result.sig3 is not None:
        sig_bits.append(f"theta3={result.sig3}")
    if result.sig4 is not None:
        sig_bits.append(f"theta4={result.sig4}")
    lines.append("signatures: " + " ".join(sig_bits))
    lines.append(f"cusps: total={result.total_cusps} "
                 f"positive={result.positive_cusps} negative={result.negative_cusps}")
    if result.region is not None:
        lines.append(f"cusps in region: positive={result.region.positive} "
                     f"negative={result.region.negative}")
    elif problem.u is not None:
        lines.append("cusps in region: withheld (degenerate region form)")
    if result.oracle is not None:
        cusps = [pt for pt in result.oracle if pt.kind == "cusp"]
        unresolved = [pt for pt in result.oracle if pt.kind == "unresolved"]
        lines.append(f"oracle: {len(cusps)} certified point(s), {len(unresolved)} unresolved")
        for pt in result.oracle:
            region_text = {True: "yes", False: "no", None: "n/a"}[pt.in_region]
            lines.append(
                f"  x in [{pt.box[0].lo:.9g}, {pt.box[0].hi:.9g}], "
                f"y in [{pt.box[1].lo:.9g}, {pt.box[1].hi:.9g}]  "
                f"kind={pt.kind} degree_sign={pt.degree_sign} in_region={region_text}")
    lines.append(f"elapsed: {timings['total'] * 1000.0:.1f} ms")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
