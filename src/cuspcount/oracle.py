"""Independent numeric referee for the symbolic cusp census.

Subdivision over a square domain discards boxes that one exclusion test,
`_excluded`, proves hold no cusp not yet certified.  It first asks, without
evaluating anything, whether the box lies in the uniqueness region of a cusp
box already certified: the widest square found around that box, by
bisection over its doubled half-widths, over which the interval Jacobian
determinant of the pair that certified it excludes zero.  That pair then
has one zero in the region, the one in the box, and every cusp is a zero
of it, so the rest of the region holds no cusp.  Otherwise the box goes
when the enclosure of one of the three equations over it excludes zero.
Surviving boxes are polished by floating-point Newton iteration on the
best-conditioned pair of equations and then certified by interval-Newton
contraction, which proves existence and uniqueness of a zero of the pair
in a tiny isolating box.  An isolating
box that would meet a cusp box already certified is dropped before interval
Newton: it could only be a duplicate.  A certified box is kept only if the
same exclusion test does not remove it, which checks the third equation
over the box: a necessary condition for a cusp, not a proof of one.  The
sign of the orientation polynomial over the box gives the local degree.

Every range over a box is one enclosure: the centred form of Ratschek and
Rokne, evaluated exactly.  Box ends are doubles, hence dyadic, so the maps
x = (A + B*s) / 2**l and y = (C + D*t) / 2**m take [-1, 1]^2 exactly onto
the box, and p times a positive integer scale is an integer polynomial
G = sum of g_ab * s**a * t**b, expanded in Python ints from one table of
powers per side of the box (`_affine_powers`), shared by every polynomial
evaluated on it and, within one `isolate_cusps` call, by every box with
that side.  Each term but g_00 ranges over [min(0, g_ab), max(0, g_ab)]
when a and b are both even and over [-|g_ab|, |g_ab|] otherwise, so G lies
within g_00 plus their sum.  The exclusion test reads the sign of that
enclosure on the integers.  Every other range (the Jacobian entries and
values of interval Newton, the uniqueness regions, the orientation and
region signs) is it divided by the scale and rounded outward to an
`Interval` of doubles, whose arithmetic is outward-rounded too.  Nothing
is rounded before that division, so a box far from the origin loses no
bits.

The oracle never overrules the exact pipeline; boxes it cannot decide are
reported as unresolved, not dropped.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleOverflow
from .pipeline import DerivedSystem
from .poly import Polynomial, unpack

_INF = math.inf

#: Default half-width of the square searched for cusps.
DEFAULT_ORACLE_RADIUS = 16.0

#: Minimum subdivision box width; survivors below it are reported unresolved.
MIN_BOX_WIDTH = 2.0 ** -40

#: Half-widths tried for the certified isolating box (width stays <= 1e-6).
_CERTIFY_RADII = (1e-7, 4e-7)

#: Box width below which Newton polishing is attempted.
_POLISH_TRIGGER = 1.0 / 32

#: Hard cap on processed boxes; the remainder is reported unresolved.
_MAX_BOXES = 500_000

#: Side power tables a `_System` keeps for reuse (`_System.tables`).
_SIDE_TABLES = 64


def _down(v: float) -> float:
    return math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of doubles with outward-rounded arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            if math.isnan(self.lo) or math.isnan(self.hi):
                raise OracleOverflow("interval arithmetic overflowed the range of doubles")
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(_down(min(products)), _up(max(products)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError("interval division by a range containing zero")
        quotients = (self.lo / other.lo, self.lo / other.hi,
                     self.hi / other.lo, self.hi / other.hi)
        return Interval(_down(min(quotients)), _up(max(quotients)))

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0.0 or self.hi < 0.0

    def sign(self) -> int | None:
        """+1 or -1 when the interval excludes zero, else None."""
        if self.lo > 0.0:
            return 1
        if self.hi < 0.0:
            return -1
        return None

    def strictly_inside(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


Box = tuple[Interval, Interval]


@dataclass(frozen=True)
class CertifiedPoint:
    """A classified point of the cusp system, with its isolating box.

    For kind 'cusp' the box is certified (by interval-Newton contraction) to
    contain exactly one solution of the system; degree_sign is the sign of
    the orientation polynomial over the box (None when undecided), and
    in_region is the verdict of the region polynomial over the box (None
    when undecided or when no region was supplied).
    """

    box: Box
    kind: str  # 'cusp' | 'unresolved'
    degree_sign: int | None = None
    in_region: bool | None = None


def _affine_powers(lo: float, hi: float, k: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The power table of [lo, hi] up to exponent k, and its shift l*k.

    With lo = a/d and hi = b/d over one power of two d, the map
    x = (A + B*s) / 2**l, for A = a + b, B = b - a and 2**l = 2*d, takes
    [-1, 1] onto [lo, hi].  Row i holds the coefficients in s of
    2**(l*(k - i)) * (A + B*s)**i, which is x**i times 2**(l*k).  A point
    (B = 0) has rows of one entry.
    """
    try:
        (a, m), (b, n) = lo.as_integer_ratio(), hi.as_integer_ratio()
    except OverflowError:
        raise OracleOverflow("a box end lies beyond the range of hardware doubles") from None
    d = max(m, n)  # m and n are powers of two
    a, b = a * (d // m), b * (d // n)
    l = d.bit_length()  # 2 * d = 2**l
    ends, width = a + b, b - a  # A and B
    rows = [[1]]
    for _ in range(k):
        row = [ends * c for c in rows[-1]]
        if width:
            row.append(0)
            for t, c in enumerate(rows[-1]):
                row[t + 1] += width * c
        rows.append(row)
    return tuple(tuple([c << l * (k - i) for c in row]) for i, row in enumerate(rows)), l * k


class _IntervalPoly:
    """A polynomial compiled for the enclosure over boxes and for fast
    approximate evaluation at points: its integer numerators over one
    denominator, grouped by the exponent of x, and each term's exponents
    with the nearest double to its coefficient."""

    __slots__ = ("den", "columns", "terms", "max_ex", "max_ey")

    def __init__(self, p: Polynomial):
        self.den = p._den
        self.terms = []
        columns: dict[int, list[tuple[int, int]]] = {}
        for key, num in p._nums.items():
            ex, ey = unpack(key)
            self.terms.append((ex, ey, _to_float(num, self.den)))
            columns.setdefault(ex, []).append((ey, num))
        self.columns = sorted(columns.items())
        self.max_ex = max((ex for ex, _, _ in self.terms), default=0)
        self.max_ey = max((ey for _, ey, _ in self.terms), default=0)

    def bounds(self, tables: tuple[tuple, tuple, int]) -> tuple[int, int]:
        """The centred form [lo, hi] of G, the polynomial times
        den * 2**shift, over the box of `tables`: with the table rows X_i(s)
        and Y_j(t), G is the sum of num_ij * X_i(s) * Y_j(t)."""
        xs, ys, _ = tables
        size = len(ys[self.max_ey])
        g = [[0] * size for _ in xs[self.max_ex]]
        for ex, column in self.columns:
            inner = [0] * size  # sum over j of num_ij * Y_j
            for ey, num in column:
                for b, c in enumerate(ys[ey]):
                    inner[b] += num * c
            for a, c in enumerate(xs[ex]):
                row = g[a]
                for b, v in enumerate(inner):
                    row[b] += c * v
        lo = hi = g[0][0]
        g[0][0] = 0
        for a, row in enumerate(g):
            for b, v in enumerate(row):
                if a % 2 or b % 2:
                    lo, hi = lo - abs(v), hi + abs(v)
                elif v < 0:
                    lo += v
                else:
                    hi += v
        return lo, hi

    def enclose(self, tables: tuple[tuple, tuple, int]) -> Interval:
        """`bounds` over the scale, each correctly rounded (int true
        division) and then widened by one ulp."""
        lo, hi = self.bounds(tables)
        scale = self.den << tables[2]
        try:
            return Interval(_down(lo / scale), _up(hi / scale))
        except OverflowError:
            raise OracleOverflow("an enclosure exceeds the range of hardware doubles") from None

    def range(self, x: Interval, y: Interval) -> Interval:
        return self.enclose(_tables(x, y, self.max_ex, self.max_ey))

    def approx(self, px: float, py: float) -> float:
        return sum(c * px ** ex * py ** ey for ex, ey, c in self.terms)


def _tables(x: Interval, y: Interval, kx: int, ky: int) -> tuple[tuple, tuple, int]:
    """The power tables of a box for polynomials of degree at most kx in x
    and ky in y, and the total shift of their scale."""
    xs, x_shift = _affine_powers(x.lo, x.hi, kx)
    ys, y_shift = _affine_powers(y.lo, y.hi, ky)
    return xs, ys, x_shift + y_shift


def _to_float(num: int, den: int) -> float:
    """The double nearest num/den: int true division is correctly rounded."""
    try:
        return num / den
    except OverflowError:
        coeff = Fraction(num, den)
        bits = abs(coeff.numerator).bit_length() - coeff.denominator.bit_length()
        raise OracleOverflow(f"a coefficient of about 2^{bits} in the cusp system "
                             "exceeds the range of hardware doubles") from None


def region_membership(u: Polynomial, point: CertifiedPoint) -> bool | None:
    """Interval verdict of {u > 0} over the point's isolating box.

    True/False when the sign of u is decided over the whole box; None when
    the range straddles zero.
    """
    value = _IntervalPoly(u).range(*point.box)
    sign = value.sign()
    return None if sign is None else sign > 0


# -- root isolation ----------------------------------------------------------

class _System:
    """Compiled evaluators for the cusp system and its derivatives."""

    def __init__(self, derived: DerivedSystem):
        eqs = (derived.jac, derived.vel1, derived.vel2)
        self.eqs = [_IntervalPoly(p) for p in eqs]
        self.grads = [(_IntervalPoly(p.partial("x")), _IntervalPoly(p.partial("y")))
                      for p in eqs]
        self.orientation = _IntervalPoly(derived.vel_jac)
        # partial derivatives have no larger exponents than their equations
        self.max_ex = max(p.max_ex for p in self.eqs)
        self.max_ey = max(p.max_ey for p in self.eqs)
        self._sides: dict[tuple[float, float, int], tuple[tuple, int]] = {}

    def tables(self, x: Interval, y: Interval) -> tuple[tuple, tuple, int]:
        """The power tables of a box for every equation and gradient.

        Tables are reused within one `isolate_cusps` call: each side's table
        is built once and kept while this system lives, among the
        `_SIDE_TABLES` built last, so the four children of a split share
        their two x-sides and two y-sides, and interval Newton's box and the
        exclusion of the box it certifies share one pair of tables.
        """
        xs, x_shift = self._side(x.lo, x.hi, self.max_ex)
        ys, y_shift = self._side(y.lo, y.hi, self.max_ey)
        return xs, ys, x_shift + y_shift

    def _side(self, lo: float, hi: float, k: int) -> tuple[tuple, int]:
        key = (lo, hi, k)  # -0.0 and 0.0 share a key and a table
        table = self._sides.get(key)
        if table is None:
            if len(self._sides) >= _SIDE_TABLES:
                del self._sides[next(iter(self._sides))]  # the oldest
            table = self._sides[key] = _affine_powers(lo, hi, k)
        return table


def _excluded(system: _System, box: Box, regions: Sequence[Box] = ()) -> bool:
    """Whether the box can hold no cusp outside the certified boxes whose
    uniqueness regions (`_uniqueness_region`) are `regions`: it lies in one
    of them, or the enclosure of an equation over it excludes zero.
    """
    if any(r[0].contains_interval(box[0]) and r[1].contains_interval(box[1])
           for r in regions):
        return True
    tables = system.tables(*box)
    return any(lo > 0 or hi < 0 for lo, hi in (p.bounds(tables) for p in system.eqs))


def _best_pair(system: _System, px: float, py: float) -> tuple[int, int]:
    """Indices of the two equations whose gradients are best conditioned."""
    grads = [(gx.approx(px, py), gy.approx(px, py)) for gx, gy in system.grads]
    norms = [math.hypot(gx, gy) for gx, gy in grads]
    best, best_score = (0, 1), -1.0
    for i in range(3):
        for j in range(i + 1, 3):
            det = grads[i][0] * grads[j][1] - grads[i][1] * grads[j][0]
            denom = norms[i] * norms[j]
            score = abs(det) / denom if denom > 0 else 0.0
            if score > best_score:
                best, best_score = (i, j), score
    return best


def _polish(system: _System, pair: tuple[int, int],
            px: float, py: float) -> tuple[float, float] | None:
    """Float Newton iteration on a square subsystem; None if it fails to settle."""
    f1, f2 = system.eqs[pair[0]].approx, system.eqs[pair[1]].approx
    (g1x, g1y), (g2x, g2y) = system.grads[pair[0]], system.grads[pair[1]]
    for _ in range(40):
        v1, v2 = f1(px, py), f2(px, py)
        a, b = g1x.approx(px, py), g1y.approx(px, py)
        c, d = g2x.approx(px, py), g2y.approx(px, py)
        det = a * d - b * c
        if det == 0 or not math.isfinite(det):
            return None
        dx = (d * v1 - b * v2) / det
        dy = (-c * v1 + a * v2) / det
        px, py = px - dx, py - dy
        if not (math.isfinite(px) and math.isfinite(py)):
            return None
        if abs(dx) + abs(dy) < 1e-14 * (1.0 + abs(px) + abs(py)):
            return (px, py)
    return None


def _jacobian(system: _System, pair: tuple[int, int], box: Box):
    """The pair's interval Jacobian entries over the box, and its determinant."""
    i, j = pair
    tables = system.tables(*box)
    (j11, j12), (j21, j22) = ([gx.enclose(tables), gy.enclose(tables)]
                              for gx, gy in (system.grads[i], system.grads[j]))
    return j11, j12, j21, j22, j11 * j22 - j12 * j21


def _interval_newton(system: _System, pair: tuple[int, int],
                     px: float, py: float, box: Box) -> bool:
    """Whether the pair has exactly one zero in the box, which holds (px, py).

    True when the interval-Newton image from (px, py) lies strictly inside
    the box.
    """
    box_x, box_y = box
    i, j = pair
    j11, j12, j21, j22, det = _jacobian(system, pair, box)
    if not det.excludes_zero():
        return False
    centre_x, centre_y = Interval.point(px), Interval.point(py)
    tables = system.tables(centre_x, centre_y)
    v1, v2 = system.eqs[i].enclose(tables), system.eqs[j].enclose(tables)
    newton_x = centre_x - (j22 * v1 - j12 * v2) / det
    newton_y = centre_y - (j11 * v2 - j21 * v1) / det
    return newton_x.strictly_inside(box_x) and newton_y.strictly_inside(box_y)


def _try_certify(system: _System, px: float, py: float,
                 certified: Sequence[Box] = ()) -> tuple[Box, tuple[int, int]] | None:
    """Polish (px, py) and certify a cusp box around the polished point q.

    Tries the box centred on q of each half-width in `_CERTIFY_RADII`.  A
    box that meets one in `certified` ends the search before interval
    Newton, since every wider box meets it too.  Returns the first box where
    interval Newton proves a unique zero of the pair, with that pair, or
    None when there is none or `_excluded` removes it.
    """
    pair = _best_pair(system, px, py)
    polished = _polish(system, pair, px, py)
    if polished is None:
        return None
    qx, qy = polished
    for radius in _CERTIFY_RADII:
        box = (Interval(qx - radius, qx + radius), Interval(qy - radius, qy + radius))
        if any(box[0].intersects(c[0]) and box[1].intersects(c[1]) for c in certified):
            return None
        if _interval_newton(system, pair, qx, qy, box):
            return None if _excluded(system, box) else (box, pair)
    return None


def _uniqueness_region(system: _System, pair: tuple[int, int], box: Box,
                       radius: float) -> Box:
    """The widest box found around a certified box in which the pair that
    certified it has no zero but the one in that box.

    Widening j is the box widened on every side, rounding outward, to the
    half-width min(half * 2**j, radius), half being the box's own, and J is
    the least j that reaches `radius`.  A widening passes when the pair's
    interval Jacobian determinant over it excludes zero (and does not
    overflow).  The search tests J first; while the widest widening that
    passed (at first j = 0, the box itself, which is never evaluated) and
    the narrowest that failed are not adjacent, it tests the j midway
    between them.  It returns the widest that passed.  Where passing at j
    implies passing below j, that is the widening before the first failure,
    which doubling the half-width finds.  Every Jacobian matrix over the
    returned convex box is nonsingular, so by the mean-value theorem the pair has at most one zero
    in it: the one in the certified box.  Every cusp is a zero of the pair,
    so the region holds no cusp outside the certified box, even when that
    box's own zero is not a cusp.  A region grown from another pair has no
    such guarantee.
    """
    half = grown = 0.5 * max(box[0].width, box[1].width)
    margins = [0.0]  # widening j's margin on every side
    while grown < radius:
        grown = min(2.0 * grown, radius)
        margins.append(grown - half)
    good, bad, region = 0, len(margins), box
    j = len(margins) - 1
    while j > good:
        margin = margins[j]
        wider = (Interval(_down(box[0].lo - margin), _up(box[0].hi + margin)),
                 Interval(_down(box[1].lo - margin), _up(box[1].hi + margin)))
        try:
            nonsingular = _jacobian(system, pair, wider)[4].excludes_zero()
        except OracleOverflow:  # a range past the doubles decides nothing
            nonsingular = False
        if nonsingular:
            good, region = j, wider
        else:
            bad = j
        j = (good + bad) // 2
    return region


def isolate_cusps(derived: DerivedSystem,
                  box_radius: float = DEFAULT_ORACLE_RADIUS) -> tuple[CertifiedPoint, ...]:
    """Isolate all solutions of the cusp system in [-r, r]^2.

    Returns certified cusp points (disjoint isolating boxes, each with a
    degree sign when the orientation polynomial's sign is decided) plus an
    'unresolved' entry for every box that could neither be excluded nor
    certified before reaching the minimum width.  Results are sorted by box
    corner, so the output is deterministic.  Raises OracleOverflow when a
    coefficient of the system exceeds the range of doubles.

    On a map that `census` rejects as not generic, boxes near its
    degenerate zeros may be neither excluded nor certified: on
    `quadratic-4` of the `oracle` workload at seed 1
    (f1 = -2*x^2 + 4*x*y + 3*y^2 - 2*x - 3*y + 4,
    f2 = -2*x^2 - 4*x*y - 2*y^2 + 2), at radius 1, the search runs to the
    `_MAX_BOXES` cap, takes about a minute of CPU, and returns one
    unresolved box [-1, 0.5] x [-1, 1].
    """
    if not 0 < box_radius < _INF:
        raise ValueError("box_radius must be a positive finite number")
    system = _System(derived)
    # a certified box is kept only when its centre lies in [-limit, limit]^2
    limit = box_radius + 1e-9 * (1.0 + box_radius)
    full = (Interval(-box_radius, box_radius), Interval(-box_radius, box_radius))
    stack = [full]
    certified: list[Box] = []
    regions: list[Box] = []  # the uniqueness region of each certified box
    unresolved: list[Box] = []
    processed = 0
    while stack:
        box = stack.pop()
        processed += 1
        if processed > _MAX_BOXES:
            unresolved.append(box)
            continue
        if _excluded(system, box, regions):
            continue
        width = max(box[0].width, box[1].width)
        if width <= _POLISH_TRIGGER:
            cusp_box, pair = _try_certify(system, box[0].mid, box[1].mid,
                                          certified) or (None, None)
            if cusp_box is not None and max(abs(cusp_box[0].mid),
                                            abs(cusp_box[1].mid)) <= limit:
                region = _uniqueness_region(system, pair, cusp_box, box_radius)
                certified.append(cusp_box)
                regions.append(region)
                if (region[0].contains_interval(box[0])
                        and region[1].contains_interval(box[1])):
                    continue
        if width <= MIN_BOX_WIDTH:
            unresolved.append(box)
            continue
        mx, my = box[0].mid, box[1].mid
        x_lo, x_hi = Interval(box[0].lo, mx), Interval(mx, box[0].hi)
        y_lo, y_hi = Interval(box[1].lo, my), Interval(my, box[1].hi)
        stack.extend(((x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi)))

    points = [CertifiedPoint(box=c, kind="cusp",
                             degree_sign=system.orientation.range(*c).sign())
              for c in certified]
    points.extend(CertifiedPoint(box=b, kind="unresolved") for b in _merge(unresolved))
    points.sort(key=lambda pt: (pt.box[0].lo, pt.box[1].lo))
    return tuple(points)


def _merge(boxes: list[Box]) -> list[Box]:
    """Coalesce adjacent unresolved boxes into maximal clusters.

    Each cluster grows from the last remaining box: every sweep absorbs, in
    list order, each box that meets the growing bounding box, and keeps the
    others in order for the next sweep, until a sweep absorbs none.
    """
    remaining = list(boxes)
    merged: list[Box] = []
    while remaining:
        bx, by = remaining.pop()
        x_lo, x_hi, y_lo, y_hi = bx.lo, bx.hi, by.lo, by.hi
        changed = True
        while changed:
            changed = False
            kept = []
            for other in remaining:
                ox, oy = other
                if x_lo <= ox.hi and ox.lo <= x_hi and y_lo <= oy.hi and oy.lo <= y_hi:
                    x_lo, x_hi = min(x_lo, ox.lo), max(x_hi, ox.hi)
                    y_lo, y_hi = min(y_lo, oy.lo), max(y_hi, oy.hi)
                    changed = True
                else:
                    kept.append(other)
            remaining = kept
        merged.append((Interval(x_lo, x_hi), Interval(y_lo, y_hi)))
    return merged
