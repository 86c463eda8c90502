"""Command-line front end: read a problem file, count cusps, emit a report.

Exit status: 0 success; 2 genericity certificate failed (also when the cusp
ideal is not zero-dimensional); 4 region form degenerate (the census
withholds the region counts by returning region None for a supplied u; the
report is still printed); 5 parse errors; 6 degree-guard or
oracle-resolution trouble; 1 anything else (a usage error, unreadable or
non-UTF-8 input, a report that cannot be written, a failed internal
certificate).  A degenerate region form takes precedence over unresolved
oracle boxes: the status is then 4 and no "unresolved" line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import (CertificateFailed, DegreeFieldExceeded, DegreeGuardExceeded,
                     GenericityNotCertified, OracleOverflow, ParseError)
from .exprio import ProblemInput, format_monomial, format_polynomial, parse_problem
from .groebner import DEFAULT_DEGREE_GUARD, MAX_DEGREE_GUARD
from .oracle import (DEFAULT_ORACLE_RADIUS, CertifiedPoint, isolate_cusps,
                     region_membership)
from .pipeline import CuspCensus, census, derive_system

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DEGENERATE_REGION = 4
EXIT_PARSE = 5
EXIT_GUARD = 6

# exit status and stderr prefix of each fatal error, looked up along its class hierarchy
_FAILURES = {
    ParseError: (EXIT_PARSE, "parse error: "),
    DegreeFieldExceeded: (EXIT_GUARD, ""),
    DegreeGuardExceeded: (EXIT_GUARD, "degree guard: "),
    GenericityNotCertified: (EXIT_NOT_CERTIFIED, ""),
    CertificateFailed: (EXIT_INTERNAL, "certificate failed: "),
    OracleOverflow: (EXIT_GUARD, "oracle: "),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line and status 1: argparse's status 2 means a failed certificate here
        self.exit(EXIT_INTERNAL, f"{self.prog}: {message}\n")


_PARSER = _ArgumentParser(
    prog="cuspcount",
    description="Count positive and negative cusps of a polynomial map "
                "of the plane, exactly; optionally cross-check with a "
                "certified numeric solver.")
_PARSER.add_argument("problem", help="problem file path, or '-' for standard input")
_PARSER.add_argument("--json", action="store_true", help="emit a JSON report")
_PARSER.add_argument("--oracle", action="store_true",
                     help="also run the numeric root-isolation referee")
_PARSER.add_argument("--radius", type=float, default=DEFAULT_ORACLE_RADIUS,
                     metavar="R", help="half-width of the oracle search box "
                                       "(default %(default)s)")
_PARSER.add_argument("--degree-guard", type=int, default=DEFAULT_DEGREE_GUARD,
                     metavar="N", help="abort if intermediate degrees exceed N, "
                                       f"at most {MAX_DEGREE_GUARD} "
                                       "(default %(default)s)")
_PARSER.add_argument("--basis", action="store_true",
                     help="list the quotient-algebra basis in the text report")


def main(argv: list[str] | None = None) -> int:
    """Run one problem through the pipeline, print its report, return the exit status."""
    args = _PARSER.parse_args(argv)
    if not (math.isfinite(args.radius) and args.radius > 0):
        print("cuspcount: --radius must be a positive finite number", file=sys.stderr)
        return EXIT_INTERNAL
    if args.degree_guard <= 0:
        print("cuspcount: --degree-guard must be positive", file=sys.stderr)
        return EXIT_INTERNAL
    if args.degree_guard > MAX_DEGREE_GUARD:
        print(f"cuspcount: --degree-guard must be at most {MAX_DEGREE_GUARD}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        text = _read_input(args.problem)
    except (OSError, UnicodeDecodeError) as err:
        print(f"cuspcount: cannot read {args.problem!r}: {err}", file=sys.stderr)
        return EXIT_INTERNAL

    points = None
    timings: dict[str, float] = {}
    start = time.perf_counter()
    try:
        problem = parse_problem(text, degree_guard=args.degree_guard)
        timings["parse"] = time.perf_counter() - start
        t0 = time.perf_counter()
        result = census(problem, degree_guard=args.degree_guard)
        timings["census"] = time.perf_counter() - t0
        if args.oracle:
            t0 = time.perf_counter()
            points = isolate_cusps(derive_system(problem.f1, problem.f2),
                                   box_radius=args.radius)
            if problem.u is not None:
                points = tuple(
                    CertifiedPoint(pt.box, pt.kind, pt.degree_sign,
                                   region_membership(problem.u, pt))
                    if pt.kind == "cusp" else pt
                    for pt in points)
            timings["oracle"] = time.perf_counter() - t0
    except tuple(_FAILURES) as err:
        status, prefix = next(_FAILURES[kind] for kind in type(err).__mro__
                              if kind in _FAILURES)
        print(f"cuspcount: {prefix}{err}", file=sys.stderr)
        return status
    timings["total"] = time.perf_counter() - start

    exit_code = EXIT_OK
    if problem.u is not None and result.region is None:
        print("cuspcount: the region trace form is degenerate (a cusp may lie on "
              "{u = 0}); region counts are withheld", file=sys.stderr)
        exit_code = EXIT_DEGENERATE_REGION
    elif points is not None and any(pt.kind == "unresolved" for pt in points):
        print("cuspcount: oracle left unresolved boxes (reported below)", file=sys.stderr)
        exit_code = EXIT_GUARD

    report = _json_report(problem, result, points, timings)
    output = json.dumps(report, indent=2) if args.json else _text_report(report, args.basis)
    if sys.stdout is None:  # the interpreter's stand-in for a closed descriptor 1
        print("cuspcount: cannot write report: standard output is closed", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(output, flush=True)
    except OSError as err:  # a full device or a reader that closed the pipe
        print(f"cuspcount: cannot write report: {err}", file=sys.stderr)
        # the unwritten report stays buffered; point its descriptor at the null
        # device so that the flush at interpreter exit neither fails nor prints
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INTERNAL
    return exit_code


def _read_input(path: str) -> str:
    # strict UTF-8 after an optional byte-order mark; a stream without bytes is read as is
    if path == "-":
        if sys.stdin is None:
            raise OSError("standard input is closed")
        stream = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if stream is None else stream.read().decode("utf-8-sig")
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _json_report(problem: ProblemInput, result: CuspCensus,
                 points: tuple[CertifiedPoint, ...] | None,
                 timings: dict[str, float]) -> dict:
    return {
        "input_echo": {
            "f1": format_polynomial(problem.f1),
            "f2": format_polynomial(problem.f2),
            "u": format_polynomial(problem.u) if problem.u is not None else None,
        },
        "one_generic_certified": True,
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
        "oracle": [_json_point(pt) for pt in points] if points is not None else None,
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in timings.items()},
    }


def _json_point(pt: CertifiedPoint) -> dict:
    return {
        "box": [[pt.box[0].lo, pt.box[0].hi], [pt.box[1].lo, pt.box[1].hi]],
        "kind": pt.kind,
        "degree_sign": pt.degree_sign,
        "in_region": pt.in_region,
    }


def _text_report(report: dict, show_basis: bool) -> str:
    echo = report["input_echo"]
    lines = [f"map: f1 = {echo['f1']}", f"     f2 = {echo['f2']}"]
    if echo["u"] is not None:
        lines.append(f"region: u = {echo['u']}")
    lines.append("one-generic: certified")
    lines.append(f"quotient dimension: {report['dim']}")
    if show_basis:
        lines.append("basis: " + (", ".join(report["basis"]) or "(empty)"))
    lines.append("signatures: " + " ".join(f"{name}={value}" for name, value
                                           in report["signatures"].items() if value is not None))
    cusps = report["cusps"]
    lines.append(f"cusps: total={cusps['total']} "
                 f"positive={cusps['positive']} negative={cusps['negative']}")
    region = report["region"]
    if region is not None:
        lines.append(f"cusps in region: positive={region['positive']} "
                     f"negative={region['negative']}")
    elif echo["u"] is not None:
        lines.append("cusps in region: withheld (degenerate region form)")
    points = report["oracle"]
    if points is not None:
        kinds = [pt["kind"] for pt in points]
        lines.append(f"oracle: {kinds.count('cusp')} certified point(s), "
                     f"{kinds.count('unresolved')} unresolved")
        for pt in points:
            (x_lo, x_hi), (y_lo, y_hi) = pt["box"]
            region_text = {True: "yes", False: "no", None: "n/a"}[pt["in_region"]]
            lines.append(
                f"  x in [{x_lo:.9g}, {x_hi:.9g}], y in [{y_lo:.9g}, {y_hi:.9g}]  "
                f"kind={pt['kind']} degree_sign={pt['degree_sign']} in_region={region_text}")
    lines.append(f"elapsed: {report['timings_ms']['total']:.1f} ms")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
