"""Reference answers the benchmark checks every report against.

Nothing here imports `cuspcount`: the census reference takes its Groebner
bases from sympy's polynomial rings, builds the trace forms from sympy's
normal forms, and reads their inertia off an exact symmetric elimination
written here.  All checks run outside the timed region.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import format_poly

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Monomials are (ex, ey) pairs; coordinate vectors are lists of Fractions.


@dataclass(frozen=True)
class Expected:
    """What a correct `--json` run of one problem prints and returns."""

    exit_code: int
    report: dict | None  # `census_part` of the report; None when none is printed


def golden(name: str) -> dict:
    """A report from the package's golden files, minus its timings."""
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- exact inertia -------------------------------------------------------------

def inertia(matrix: list[list[Fraction]]) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric rational matrix.

    Symmetric Gaussian elimination: a nonzero diagonal pivot adds its sign;
    when the remaining diagonal is all zero, a nonzero off-diagonal pair
    (i, j) spans a hyperbolic plane, which adds one of each sign.  Both steps
    are congruences, so Sylvester's law keeps the counts exact.
    """
    a = [list(row) for row in matrix]
    active = list(range(len(a)))
    positive = negative = 0
    while active:
        pivot = next((i for i in active if a[i][i]), None)
        if pivot is not None:
            value = a[pivot][pivot]
            if value > 0:
                positive += 1
            else:
                negative += 1
            active.remove(pivot)
            col = {r: a[r][pivot] for r in active if a[r][pivot]}
            for r, cr in col.items():
                factor = cr / value
                for s, cs in col.items():
                    a[r][s] -= factor * cs
            continue
        pair = next(((i, j) for n, i in enumerate(active) for j in active[n + 1:]
                     if a[i][j]), None)
        if pair is None:
            break
        i, j = pair
        # rows i + j and i - j have diagonals 2*a_ij and -2*a_ij, which
        # become the next two pivots
        for r in range(len(a)):
            a[r][i], a[r][j] = a[r][i] + a[r][j], a[r][i] - a[r][j]
        for s in range(len(a)):
            a[i][s], a[j][s] = a[i][s] + a[j][s], a[i][s] - a[j][s]
    return positive, negative


# -- census reference through sympy ------------------------------------------------

def parse_terms(expr: str) -> dict[tuple[int, int], Fraction]:
    """Terms of a sum of products such as `-3/2*x^2*y + y - 4`."""
    terms: dict[tuple[int, int], Fraction] = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", expr.replace(" ", "")):
        coeff, ex, ey = Fraction(-1 if sign == "-" else 1), 0, 0
        for factor in body.split("*"):
            base, _, power = factor.partition("^")
            if base == "x":
                ex += int(power or 1)
            elif base == "y":
                ey += int(power or 1)
            else:
                coeff *= Fraction(factor)
        terms[(ex, ey)] = terms.get((ex, ey), Fraction(0)) + coeff
    return {m: c for m, c in terms.items() if c}


def parse_text(text: str) -> dict[str, dict[tuple[int, int], Fraction]]:
    """The polynomials of a problem file, by key."""
    out = {}
    for line in text.splitlines():
        key, _, expr = line.partition("=")
        if expr.strip():
            out[key.strip()] = parse_terms(expr)
    return out


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _grevlex(m: tuple[int, int]) -> tuple[int, int]:
    return (m[0] + m[1], m[0])


class _Algebra:
    """Q[x,y]/G for a reduced zero-dimensional grevlex Groebner basis G."""

    def __init__(self, ring, gb):
        self.gb = gb
        leads = [g.LM for g in gb]
        bound_x = min(m[0] for m in leads if m[1] == 0)
        bound_y = min(m[1] for m in leads if m[0] == 0)
        self.basis = sorted(
            ((a, b) for a in range(bound_x) for b in range(bound_y)
             if not any(a >= l[0] and b >= l[1] for l in leads)), key=_grevlex)
        dim = len(self.basis)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._coords: dict[tuple[int, int], list[Fraction]] = {
            m: [Fraction(int(i == k)) for k in range(dim)]
            for i, m in enumerate(self.basis)}
        # column k of M_x is the normal form of x * basis[k]
        one = ring.domain.one
        self._mx = [self.vector(ring({(m[0] + 1, m[1]): one})) for m in self.basis]
        self._my = [self.vector(ring({(m[0], m[1] + 1): one})) for m in self.basis]
        self._traces: dict[tuple[int, int], Fraction] = {}
        self._tau = [sum((self.coords((b[0] + c[0], b[1] + c[1]))[k]
                          for k, c in enumerate(self.basis)), Fraction(0))
                     for b in self.basis]

    def vector(self, p) -> list[Fraction]:
        """Coordinates of the normal form of a ring element."""
        vec = [Fraction(0)] * len(self.basis)
        for m, c in p.rem(self.gb).items():
            vec[self._index[m]] = _fraction(c)
        return vec

    def coords(self, mono: tuple[int, int]) -> list[Fraction]:
        vec = self._coords.get(mono)
        if vec is None:
            ex, ey = mono
            prev, cols = ((ex - 1, ey), self._mx) if ex else ((ex, ey - 1), self._my)
            pv = self.coords(prev)
            vec = [Fraction(0)] * len(self.basis)
            for k, c in enumerate(pv):
                if c:
                    for r, v in enumerate(cols[k]):
                        if v:
                            vec[r] += c * v
            self._coords[mono] = vec
        return vec

    def trace(self, mono: tuple[int, int]) -> Fraction:
        value = self._traces.get(mono)
        if value is None:
            value = sum((t * c for t, c in zip(self._tau, self.coords(mono)) if c),
                        Fraction(0))
            self._traces[mono] = value
        return value

    def form(self, delta) -> list[list[Fraction]]:
        """Matrix of a -> trace(delta * a^2) in the standard basis."""
        # the trace vanishes on the ideal, so delta may be reduced first;
        # weights is the functional v -> trace(delta * v) over the basis
        reduced = [(m, c) for m, c in zip(self.basis, self.vector(delta)) if c]
        weights = [sum((c * self.trace((b[0] + m[0], b[1] + m[1])) for m, c in reduced),
                       Fraction(0)) for b in self.basis]
        dim = len(self.basis)
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i, bi in enumerate(self.basis):
            for j in range(i, dim):
                bj = self.basis[j]
                vec = self.coords((bi[0] + bj[0], bi[1] + bj[1]))
                rows[i][j] = rows[j][i] = sum(
                    (w * v for w, v in zip(weights, vec) if v), Fraction(0))
        return rows


def census_reference(text: str) -> Expected:
    """The census a correct program reports for a problem text, via sympy.

    The report's `input_echo` is checked separately (`echo_matches`), since
    its canonical spelling is the program's own choice.
    """
    from sympy import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R, x, y = ring("x,y", QQ, grevlex)
    values = {k: R({m: QQ(c.numerator, c.denominator) for m, c in terms.items()})
              for k, terms in parse_text(text).items()}
    f1, f2, u = values["f1"], values["f2"], values.get("u")

    def fdet(p, q):
        return p.diff(x) * q.diff(y) - p.diff(y) * q.diff(x)

    jac = fdet(f1, f2)
    vel1, vel2 = fdet(jac, f1), fdet(jac, f2)
    gens = [jac, vel1, vel2, fdet(jac, vel1), fdet(jac, vel2)]
    # sympy's Buchberger rejects zero generators; they do not change the ideal
    if groebner([g for g in gens if g], R) != [R.one]:
        return Expected(2, None)
    algebra = _Algebra(R, groebner([g for g in gens[:3] if g], R))
    vel_jac = fdet(vel1, vel2)
    deltas = [R.one, vel_jac] + ([u, u * vel_jac] if u is not None else [])
    counts = [inertia(algebra.form(d)) for d in deltas]
    sigs = [p - n for p, n in counts]
    dim = len(algebra.basis)
    report = {
        "one_generic_certified": True,
        "dim": dim,
        "basis": [format_poly({m: 1}) for m in algebra.basis],
        "signatures": {"theta1": sigs[0], "theta2": sigs[1],
                       "theta3": sigs[2] if u is not None else None,
                       "theta4": sigs[3] if u is not None else None},
        "cusps": {"total": sigs[0], "positive": (sigs[0] + sigs[1]) // 2,
                  "negative": (sigs[0] - sigs[1]) // 2},
        "region": None,
    }
    if u is None:
        return Expected(0, report)
    if sum(counts[2]) < dim:
        return Expected(4, report)
    s1, s2, s3, s4 = sigs
    report["region"] = {"positive": (s1 + s2 + s3 + s4) // 4,
                        "negative": (s1 - s2 + s3 - s4) // 4}
    return Expected(0, report)


def echo_matches(text: str, echo: dict) -> bool:
    """True iff the report's `input_echo` spells the input's polynomials."""
    echoed = {k: parse_terms(v) for k, v in echo.items() if v is not None}
    return echoed == parse_text(text)


# -- checks -----------------------------------------------------------------------

def census_part(report: dict) -> dict:
    """The report without the keys no reference predicts."""
    return {k: v for k, v in report.items()
            if k not in ("timings_ms", "oracle", "input_echo")}


def oracle_counts(report: dict) -> tuple[int, int, int, int]:
    """(positive, negative, undecided, unresolved) points of an oracle report."""
    points = report["oracle"] or []
    cusps = [p for p in points if p["kind"] == "cusp"]
    return (sum(p["degree_sign"] == 1 for p in cusps),
            sum(p["degree_sign"] == -1 for p in cusps),
            sum(p["degree_sign"] is None for p in cusps),
            sum(p["kind"] == "unresolved" for p in points))


def oracle_within_census(report: dict) -> bool:
    """Certified cusps per sign lie between the region count and the global count.

    The oracle searches the box [-R, R]^2, which holds the disc region
    R^2 - x^2 - y^2 > 0 and lies inside the plane, so every sign's certified
    count is bounded above by the global count and, when no box is left
    unresolved, below by the region count.  A cusp whose sign the oracle left
    undecided may be counted for either sign.
    """
    pos, neg, undecided, unresolved = oracle_counts(report)
    cusps = report["cusps"]
    if pos > cusps["positive"] or neg > cusps["negative"]:
        return False
    region = report["region"]
    if region is None or unresolved:
        return True
    missing = max(0, region["positive"] - pos) + max(0, region["negative"] - neg)
    return missing <= undecided


GOLDEN_NAMES = {"two_cusp": "two_cusps", "eight_cusp": "eight_cusps",
                "six_cusp": "six_cusps"}
# exact (positive, negative, undecided, unresolved) oracle points at radius 16
ORACLE_EXACT = {"two_cusp": (0, 2, 0, 0), "whitney": (1, 0, 0, 0)}


def check(case, exit_code: int | None, stdout: str) -> str | None:
    """None when one map's run is correct, else the reason it is not."""
    report = json.loads(stdout) if stdout.strip() else None
    if report is not None:
        report.pop("timings_ms", None)
    if case.kind == "paper":
        if exit_code != 0 or report != golden(GOLDEN_NAMES[case.name]):
            return "report differs from the golden file"
        return None
    expected = census_reference(case.text)
    oracle = "--oracle" in case.flags
    if oracle and expected.exit_code == 0 and report is not None \
            and oracle_counts(report)[3]:
        expected = Expected(6, expected.report)
    if exit_code != expected.exit_code:
        return f"exit code {exit_code}, expected {expected.exit_code}"
    if expected.report is None:
        return "unexpected report" if report is not None else None
    if report is None:
        return "no report"
    if census_part(report) != expected.report:
        return "census differs from the sympy reference"
    if not echo_matches(case.text, report["input_echo"]):
        return "input echo differs from the input"
    if not oracle:
        return "unexpected oracle section" if report["oracle"] is not None else None
    if report["oracle"] is None:
        return "no oracle section"
    counts = oracle_counts(report)
    if case.name in ORACLE_EXACT:
        if counts != ORACLE_EXACT[case.name]:
            return f"oracle points {counts}, expected {ORACLE_EXACT[case.name]}"
    elif not oracle_within_census(report):
        return f"oracle points {counts} outside the census bounds"
    return None
