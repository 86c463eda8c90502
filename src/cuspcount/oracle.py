"""Independent numeric referee for the symbolic cusp census.

Subdivision over a square domain discards boxes that one exclusion test,
`_excluded`, proves hold no cusp not yet certified.  It tries three things
in order.  The first is the natural range of each equation, the fold below.
The second is containment in the uniqueness region of a cusp box already
certified: the widest square around the box, grown by doubling, over which
the interval Jacobian determinant of the pair that certified the box
excludes zero.  That pair then has one zero in the region, the one in the
box, and every cusp is a zero of it, so the rest of the region holds no
cusp.  On a box that both keep and whose width is at most
``_MEAN_VALUE_WIDTH``, the third bounds each equation by its centred
mean-value form ``p(c) + dp/dx(B) * (B_x - c_x) + dp/dy(B) * (B_y - c_y)``,
with c the box's midpoint.  On small boxes that hold no zero it is much
tighter than the natural range, which alone would keep such boxes until
they are tiny; on wide boxes the gradient ranges are too wide for it to
pay, so it is not tried there.  Surviving boxes are polished by floating-point Newton
iteration on the best-conditioned pair of equations and then certified by
interval-Newton contraction, which proves existence and uniqueness of a
zero of the pair in a tiny isolating box.  That box is kept only if the
same exclusion test does not remove it, which checks the third equation
over the box: a necessary condition for a cusp, not a proof of one.  The
sign of the orientation polynomial over the box gives the local degree.

Interval arithmetic is outward-rounded on hardware doubles: every computed
range contains the true range.  The range of a polynomial over a box is one
fold over its terms on float endpoints: it does the products, the
``min``/``max``, the outward roundings and the additions of
``coeff * x**ex * y**ey`` summed by ``Interval`` arithmetic, in the same
order, and builds one ``Interval`` at the end.  The powers of x and y come
from one table per box, shared by every polynomial evaluated on that box.
An isolating box that would meet a cusp box already certified is dropped
before interval Newton: it could only be a duplicate.

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
from .poly import Polynomial

_INF = math.inf

#: Default half-width of the square searched for cusps.
DEFAULT_ORACLE_RADIUS = 16.0

#: Minimum subdivision box width; survivors below it are reported unresolved.
MIN_BOX_WIDTH = 2.0 ** -40

#: Half-widths tried for the certified isolating box (width stays <= 1e-6).
_CERTIFY_RADII = (1e-7, 4e-7)

#: Box width below which Newton polishing is attempted.
_POLISH_TRIGGER = 1.0 / 32

#: Box width at or below which the mean-value exclusion test is tried.
_MEAN_VALUE_WIDTH = 1.0

#: Hard cap on processed boxes; the remainder is reported unresolved.
_MAX_BOXES = 500_000


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


def _power_bounds(lo: float, hi: float, k: int) -> list[tuple[float, float]]:
    """Outward-rounded bounds (lo_n, hi_n) enclosing [lo, hi]**n for n = 0..k.

    One running product per endpoint e does, once, the float operations that
    multiplying [e, e] into [1, 1] n times repeats for every n; the ends of
    [lo, hi]**n are chosen by the endpoints' signs and the parity of n.
    Entry n does not depend on k, so one table serves every polynomial
    evaluated on the same interval.
    """
    after = math.nextafter  # after(v, -_INF) is _down(v), after(v, _INF) is _up(v)
    lo_lo = lo_hi = hi_lo = hi_hi = 1.0  # [lo_lo, lo_hi] encloses lo**n, [hi_lo, hi_hi] hi**n
    table = [(1.0, 1.0)]
    for n in range(1, k + 1):
        a, b = lo_lo * lo, lo_hi * lo
        lo_lo, lo_hi = after(min(a, b), -_INF), after(max(a, b), _INF)
        a, b = hi_lo * hi, hi_hi * hi
        hi_lo, hi_hi = after(min(a, b), -_INF), after(max(a, b), _INF)
        if n % 2 or lo >= 0.0:
            entry = (lo_lo, hi_hi)
        elif hi <= 0.0:
            entry = (hi_lo, lo_hi)
        else:
            entry = (0.0, lo_hi if -lo > hi else hi_hi)
        if not entry[0] <= entry[1]:
            Interval(*entry)  # raises as building the Interval would
        table.append(entry)
    return table


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


class _IntervalPoly:
    """A polynomial compiled for interval evaluation over boxes and for fast
    approximate evaluation at points: each term keeps its exponents, the
    nearest double to its coefficient, and the bounds of an interval
    enclosing it."""

    __slots__ = ("terms", "max_ex", "max_ey")

    def __init__(self, p: Polynomial):
        self.terms = []
        self.max_ex = 0
        self.max_ey = 0
        for mono, coeff in p.terms.items():
            approx = _to_float(coeff)
            if Fraction(approx) == coeff:
                c_lo = c_hi = approx
            else:
                c_lo, c_hi = _down(approx), _up(approx)
            self.terms.append((mono.ex, mono.ey, approx, c_lo, c_hi))
            self.max_ex = max(self.max_ex, mono.ex)
            self.max_ey = max(self.max_ey, mono.ey)

    def range(self, x: Interval, y: Interval) -> Interval:
        return self.fold(_power_bounds(x.lo, x.hi, self.max_ex),
                         _power_bounds(y.lo, y.hi, self.max_ey))

    def fold(self, xp: list[tuple[float, float]],
             yp: list[tuple[float, float]]) -> Interval:
        """Range over the box whose power tables (`_power_bounds`) are xp, yp.

        Each step does the float operations of `Interval.__mul__` and
        `Interval.__add__` on the term `coeff * x**ex * y**ey` and the running
        sum, in the same order, and keeps their `lo <= hi` check: a failed
        check builds the Interval, which raises the same error.
        """
        after, down, up = math.nextafter, -_INF, _INF
        lo = hi = 0.0
        for ex, ey, _, c_lo, c_hi in self.terms:
            x_lo, x_hi = xp[ex]
            a, b, c, d = c_lo * x_lo, c_lo * x_hi, c_hi * x_lo, c_hi * x_hi
            t_lo, t_hi = after(min(a, b, c, d), down), after(max(a, b, c, d), up)
            if not t_lo <= t_hi:
                Interval(t_lo, t_hi)
            y_lo, y_hi = yp[ey]
            a, b, c, d = t_lo * y_lo, t_lo * y_hi, t_hi * y_lo, t_hi * y_hi
            t_lo, t_hi = after(min(a, b, c, d), down), after(max(a, b, c, d), up)
            if not t_lo <= t_hi:
                Interval(t_lo, t_hi)
            lo, hi = after(lo + t_lo, down), after(hi + t_hi, up)
            if not lo <= hi:
                Interval(lo, hi)
        return Interval(lo, hi)

    def approx(self, px: float, py: float) -> float:
        return sum(c * px ** ex * py ** ey for ex, ey, c, _, _ in self.terms)


def _to_float(coeff: Fraction) -> float:
    try:
        return float(coeff)
    except OverflowError:
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

    def tables(self, x: Interval, y: Interval) -> tuple[list, list]:
        """The power tables of a box for every equation and gradient."""
        return (_power_bounds(x.lo, x.hi, self.max_ex),
                _power_bounds(y.lo, y.hi, self.max_ey))


def _mean_value_forms(system: _System, box: Box, xp: list, yp: list):
    """Yield, equation by equation, the centred mean-value enclosure of its
    range over the box whose power tables are xp, yp.

    With c the box's midpoint, p(B) lies in
    p(c) + dp/dx(B) * (B_x - c_x) + dp/dy(B) * (B_y - c_y) by the mean-value
    theorem, since B is convex and holds c; every step rounds outward.
    """
    centre_x, centre_y = Interval.point(box[0].mid), Interval.point(box[1].mid)
    dx, dy = box[0] - centre_x, box[1] - centre_y
    cxp, cyp = system.tables(centre_x, centre_y)
    for p, (gx, gy) in zip(system.eqs, system.grads):
        yield p.fold(cxp, cyp) + gx.fold(xp, yp) * dx + gy.fold(xp, yp) * dy


def _excluded(system: _System, box: Box, regions: Sequence[Box] = ()) -> bool:
    """Whether the box can hold no cusp outside the certified boxes whose
    uniqueness regions (`_uniqueness_region`) are `regions`.

    The tests run cheapest first: the natural range of an equation excludes
    zero; the box lies inside a uniqueness region, where the one zero of the
    certifying pair is the one in the certified box, and every cusp is a
    zero of that pair; on a box of width at most `_MEAN_VALUE_WIDTH`, the
    mean-value form of an equation excludes zero.
    """
    xp, yp = system.tables(*box)
    if any(p.fold(xp, yp).excludes_zero() for p in system.eqs):
        return True
    if any(r[0].contains_interval(box[0]) and r[1].contains_interval(box[1])
           for r in regions):
        return True
    return max(box[0].width, box[1].width) <= _MEAN_VALUE_WIDTH and any(
        value.excludes_zero() for value in _mean_value_forms(system, box, xp, yp))


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
    xp, yp = system.tables(*box)
    j11 = system.grads[i][0].fold(xp, yp)
    j12 = system.grads[i][1].fold(xp, yp)
    j21 = system.grads[j][0].fold(xp, yp)
    j22 = system.grads[j][1].fold(xp, yp)
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
    centre_x = Interval.point(px)
    centre_y = Interval.point(py)
    xp, yp = system.tables(centre_x, centre_y)
    v1 = system.eqs[i].fold(xp, yp)
    v2 = system.eqs[j].fold(xp, yp)
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

    The box is widened on every side, rounding outward, so that its
    half-width doubles, up to `radius`, while the pair's interval Jacobian
    determinant over the widened box excludes zero.  Every Jacobian matrix
    over that convex box is then nonsingular, so by the mean-value theorem
    the pair has at most one zero in it: the one in the certified box.
    Every cusp is a zero of the pair, so the region holds no cusp outside
    the certified box, even when that box's own zero is not a cusp.  A
    region grown from another pair has no such guarantee.
    """
    half = grown = 0.5 * max(box[0].width, box[1].width)
    region = box
    while grown < radius:
        grown = min(2.0 * grown, radius)
        margin = grown - half
        wider = (Interval(_down(box[0].lo - margin), _up(box[0].hi + margin)),
                 Interval(_down(box[1].lo - margin), _up(box[1].hi + margin)))
        try:
            det = _jacobian(system, pair, wider)[4]
        except OracleOverflow:  # a range past the doubles decides nothing
            break
        if not det.excludes_zero():
            break
        region = wider
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
