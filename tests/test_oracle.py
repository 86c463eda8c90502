"""Numeric referee: interval soundness, isolation of the fixtures, and
agreement with the symbolic census on random maps."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuspcount.errors import GenericityNotCertified, NotZeroDimensional, OracleOverflow
from cuspcount.exprio import ProblemInput, parse_problem
import cuspcount.oracle as oracle
from cuspcount.oracle import (_CERTIFY_RADII, CertifiedPoint, Interval, _affine_powers,
                              _best_pair, _excluded, _interval_newton, _IntervalPoly, _merge,
                              _System, _tables, _try_certify, _uniqueness_region,
                              isolate_cusps, region_membership)
from cuspcount.pipeline import DerivedSystem, census, derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y
from classification import Unclassifiable, classify_critical_point
from conftest import (EIGHT_CUSP_TEXT, SIX_CUSP_TEXT, TWO_CUSP_TEXT, WHITNEY_TEXT,
                      random_polynomial)


def reference_range(p: Polynomial, x: Interval, y: Interval) -> tuple[Fraction, Fraction]:
    """The centred form by Polynomial arithmetic on Fractions: p composed
    with the maps c + h*s and c + h*t of [-1, 1] onto the box's sides (c
    the midpoint, h the half-width) is the sum of g_ab * s**a * t**b; the
    form is g_00 plus [min(0, g_ab), max(0, g_ab)] for a and b both even and
    [-|g_ab|, |g_ab|] for every other term."""
    sides = [(Fraction(iv.lo) + Fraction(iv.hi)) / 2 + (Fraction(iv.hi) - Fraction(iv.lo)) / 2 * v
             for iv, v in ((x, X), (y, Y))]
    composed = Polynomial.zero()
    for (ex, ey), c in p.terms.items():
        composed = composed + c * sides[0] ** ex * sides[1] ** ey
    lo = hi = composed.coefficient(Monomial(0, 0))
    for (a, b), g in composed.terms.items():
        if a % 2 or b % 2:
            lo, hi = lo - abs(g), hi + abs(g)
        elif (a, b) != (0, 0):
            lo, hi = lo + min(0, g), hi + max(0, g)
    return lo, hi


def compiled_bounds(p: Polynomial, x: Interval, y: Interval) -> tuple[Fraction, Fraction]:
    """The integer bounds of the compiled p on the box's own tables, over
    their scale."""
    compiled = _IntervalPoly(p)
    tables = _tables(x, y, compiled.max_ex, compiled.max_ey)
    lo, hi = compiled.bounds(tables)
    scale = compiled.den << tables[2]
    return Fraction(lo, scale), Fraction(hi, scale)


def rounded_outward(lo: Fraction, hi: Fraction) -> Interval:
    """[lo, hi] correctly rounded to doubles and widened by one ulp."""
    try:
        return Interval(math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf))
    except OverflowError:
        raise OracleOverflow("past the doubles") from None


def doubling_region(system: _System, pair: tuple[int, int], box, radius: float):
    """The uniqueness region grown by doubling: the box widened, rounding
    outward, to the half-widths min(half * 2**j, radius) for j = 1, 2, ...
    while the pair's Jacobian determinant excludes zero, stopping at the
    first widening where it does not (or overflows)."""
    half = grown = 0.5 * max(box[0].width, box[1].width)
    region = box
    while grown < radius:
        grown = min(2.0 * grown, radius)
        margin = grown - half
        wider = (Interval(math.nextafter(box[0].lo - margin, -math.inf),
                          math.nextafter(box[0].hi + margin, math.inf)),
                 Interval(math.nextafter(box[1].lo - margin, -math.inf),
                          math.nextafter(box[1].hi + margin, math.inf)))
        try:
            det = oracle._jacobian(system, pair, wider)[4]
        except OracleOverflow:
            break
        if not det.excludes_zero():
            break
        region = wider
    return region


def count_calls(monkeypatch, name: str) -> list:
    """Replace the oracle's function `name` by a spy; the returned list gets
    one entry per call."""
    function, calls = getattr(oracle, name), []

    def spy(*args):
        calls.append(None)
        return function(*args)

    monkeypatch.setattr(oracle, name, spy)
    return calls


def reference_merge(boxes):
    """Cluster merging by removing each absorbed box from the list (quadratic)."""
    remaining = list(boxes)
    merged = []
    while remaining:
        bx, by = remaining.pop()
        changed = True
        while changed:
            changed = False
            for other in remaining[:]:
                if bx.intersects(other[0]) and by.intersects(other[1]):
                    bx = Interval(min(bx.lo, other[0].lo), max(bx.hi, other[0].hi))
                    by = Interval(min(by.lo, other[1].lo), max(by.hi, other[1].hi))
                    remaining.remove(other)
                    changed = True
        merged.append((bx, by))
    return merged


def outcome(evaluate, *args):
    """The bits of an interval result, or the type of the error raised."""
    try:
        value = evaluate(*args)
    except (OracleOverflow, ValueError) as err:
        return type(err)
    return value.lo.hex(), value.hi.hex()


def sample_intervals(rng: random.Random, count: int):
    """Positive, negative, straddling, zero-endpoint and point intervals."""

    def magnitude():
        return rng.uniform(0.5, 2.0) * 2.0 ** rng.choice((0, 0, 1, 3, -1, -3, 12, -12, 90))

    for i in range(count):
        a, b = sorted((magnitude(), magnitude()))
        kind = i % 8
        if kind == 0:
            yield Interval(a, b)
        elif kind == 1:
            yield Interval(-b, -a)
        elif kind == 2:
            yield Interval(-a, b)
        elif kind == 3:
            yield Interval(-b, a)
        elif kind == 4:
            yield Interval(-a, a)
        elif kind == 5:
            yield rng.choice((Interval(0.0, a), Interval(-a, 0.0)))
        elif kind == 6:
            v = rng.choice((a, -a))
            yield Interval(v, v)
        else:
            yield rng.choice((Interval(0.0, 0.0), Interval(-a, math.nextafter(a, 0.0)),
                              Interval(-b, b)))


@pytest.fixture(scope="module")
def two_cusp_points():
    problem = parse_problem(TWO_CUSP_TEXT)
    derived = derive_system(problem.f1, problem.f2)
    return problem, derived, isolate_cusps(derived, box_radius=10.0)


class TestInterval:
    def test_arithmetic_contains_truth(self):
        a = Interval(1.0, 2.0)
        b = Interval(-3.0, 0.5)
        assert (a + b).lo <= -2.0 and (a + b).hi >= 2.5
        assert (a * b).lo <= -6.0 and (a * b).hi >= 1.0
        assert (-a).lo == -2.0 and (-a).hi == -1.0

    def test_power_cases(self):
        # the centred form of x**n: exact on the side of zero where the
        # powers are monotone, loose across zero
        point = Interval.point(1.0)
        assert compiled_bounds(X ** 2, Interval(-2.0, 3.0), point) == (Fraction(-9, 4), 9)
        assert compiled_bounds(X ** 3, Interval(-2.0, 3.0), point) == (Fraction(-139, 8), 27)
        assert compiled_bounds(X ** 2, Interval(-3.0, -2.0), point) == (Fraction(15, 4), 9)
        square = _IntervalPoly(X ** 2).range(Interval(-3.0, -2.0), point)
        assert square.lo < 3.75 and 9.0 < square.hi

    def test_nan_endpoint_is_overflow(self):
        with pytest.raises(OracleOverflow):
            Interval(-math.inf, 1.0) * Interval(0.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 1.0) / Interval(-1.0, 1.0)

    def test_sign(self):
        assert Interval(0.5, 1.0).sign() == 1
        assert Interval(-2.0, -0.1).sign() == -1
        assert Interval(-1.0, 1.0).sign() is None

    @pytest.mark.parametrize("text", [EIGHT_CUSP_TEXT, SIX_CUSP_TEXT],
                             ids=["eight_cusp", "six_cusp"])
    def test_compiled_terms_match_the_fraction_coefficients(self, text):
        """Compiling keeps the integer numerators over one denominator, by
        the exponent of x, and gives, term by term and in order, the nearest
        double to each reduced Fraction coefficient: on the system of the
        map, whose coefficients are integers, and of the map scaled to
        (f1/3, 2*f2/7)."""
        problem = parse_problem(text)
        polys = []
        for f1, f2 in ((problem.f1, problem.f2),
                       (problem.f1 * Fraction(1, 3), problem.f2 * Fraction(2, 7))):
            d = derive_system(f1, f2)
            eqs = [d.jac, d.vel1, d.vel2]
            polys += eqs + [d.vel_jac] + [p.partial(var) for p in eqs for var in ("x", "y")]
        inexact = 0
        for p in polys:
            compiled = _IntervalPoly(p)
            assert compiled.terms == [(mono.ex, mono.ey, float(coeff))
                                      for mono, coeff in p.terms.items()]
            assert {(ex, ey): Fraction(num, compiled.den) for ex, column in compiled.columns
                    for ey, num in column} == p.terms
            inexact += sum(Fraction(c) != p.coefficient(Monomial(ex, ey))
                           for ex, ey, c in compiled.terms)
        assert inexact

    @pytest.mark.parametrize("coeff, bits", [
        (Fraction(3 ** 700, 7), 1107), (Fraction(-2 ** 1100, 3 ** 40), 1037), (10 ** 400, 1328)])
    def test_coefficient_past_the_doubles_is_overflow(self, coeff, bits):
        p = Polynomial({Monomial(1, 0): Fraction(1, 3), Monomial(0, 2): coeff})
        with pytest.raises(OracleOverflow, match=rf"^a coefficient of about 2\^{bits} in"):
            _IntervalPoly(p)

    def test_range_contains_sampled_values(self):
        rng = random.Random(20300)
        for _ in range(300):
            p = random_polynomial(rng, 4, lo=-9, hi=9)
            compiled = _IntervalPoly(p)
            cx, cy = rng.uniform(-4, 4), rng.uniform(-4, 4)
            wx, wy = rng.uniform(0, 2), rng.uniform(0, 2)
            box = (Interval(cx - wx, cx + wx), Interval(cy - wy, cy + wy))
            output = compiled.range(*box)
            for _ in range(5):
                px = rng.uniform(box[0].lo, box[0].hi)
                py = rng.uniform(box[1].lo, box[1].hi)
                value = float(p.evaluate((Fraction(px), Fraction(py))))
                assert output.lo <= value <= output.hi


class TestEnclosure:
    """The one enclosure over a box: the centred form, expanded exactly in
    integers from the box's power tables."""

    def test_power_table_is_the_affine_map_expanded(self):
        rng = random.Random(20410)
        for iv in sample_intervals(rng, 1000):
            k = rng.randint(0, 12)
            rows, shift = _affine_powers(iv.lo, iv.hi, k)
            lo, hi = Fraction(iv.lo), Fraction(iv.hi)
            side = (lo + hi) / 2 + (hi - lo) / 2 * X
            assert len(rows) == k + 1
            for i, row in enumerate(rows):
                assert len(row) == (1 if lo == hi else i + 1)
                expanded = Polynomial({Monomial(a, 0): Fraction(c, 2 ** shift)
                                       for a, c in enumerate(row)})
                assert expanded == side ** i, (iv, k, i)

    def test_bounds_match_the_composed_polynomial_exactly(self):
        rng = random.Random(20470)
        inexact = (Fraction(1, 3), Fraction(-7, 10), Fraction(2, 7), Fraction(-1, 10 ** 30))
        boxes = list(zip(sample_intervals(rng, 400), sample_intervals(rng, 400)))
        # an end beyond 2**342 takes x**3 past the doubles
        boxes += [(Interval(-2.0 ** rng.randint(200, 1000), rng.uniform(-1, 2)),
                   Interval(-rng.uniform(0, 2), rng.uniform(0, 2))) for _ in range(50)]
        raised = 0
        for x, y in boxes:
            p = random_polynomial(rng, 4, lo=-9, hi=9)
            p = p + Polynomial({Monomial(rng.randint(0, 3), rng.randint(0, 3)): rng.choice(inexact)})
            expected = reference_range(p, x, y)
            assert compiled_bounds(p, x, y) == expected, (p, x, y)
            expected = outcome(rounded_outward, *expected)
            assert outcome(_IntervalPoly(p).range, x, y) == expected, (p, x, y)
            raised += not isinstance(expected, tuple)
        assert raised

    def test_encloses_exact_values(self):
        rng = random.Random(20150)
        inexact = (Fraction(1, 3), Fraction(-7, 10), Fraction(2, 7))
        for _ in range(300):
            p = (random_polynomial(rng, 4, lo=-9, hi=9)
                 + Polynomial({Monomial(rng.randint(0, 3), rng.randint(0, 3)): rng.choice(inexact)}))
            cx, cy = rng.uniform(-4, 4), rng.uniform(-4, 4)
            wx, wy = 2.0 ** -rng.randint(0, 12), 2.0 ** -rng.randint(0, 12)
            box = (Interval(cx - wx * rng.random(), cx + wx * rng.random()),
                   Interval(cy - wy * rng.random(), cy + wy * rng.random()))
            lo, hi = reference_range(p, *box)
            form = _IntervalPoly(p).range(*box)
            (x_lo, x_hi), (y_lo, y_hi) = ((Fraction(iv.lo), Fraction(iv.hi)) for iv in box)
            corners = [(a, b) for a in (x_lo, x_hi) for b in (y_lo, y_hi)]
            inner = [(x_lo + Fraction(rng.randint(0, 64), 64) * (x_hi - x_lo),
                      y_lo + Fraction(rng.randint(0, 64), 64) * (y_hi - y_lo))
                     for _ in range(5)]
            for point in corners + inner:
                value = p.evaluate(point)
                assert lo <= value <= hi and form.lo <= value <= form.hi, (p, box, point)

    def test_point_box_is_the_exact_value_rounded_outward(self):
        rng = random.Random(20160)
        for _ in range(200):
            p = random_polynomial(rng, 4, lo=-9, hi=9) + Fraction(1, 3) * X * Y
            px, py = rng.uniform(-4, 4), rng.uniform(-4, 4)
            value = p.evaluate((Fraction(px), Fraction(py)))
            point = (Interval.point(px), Interval.point(py))
            assert compiled_bounds(p, *point) == (value, value)
            assert _IntervalPoly(p).range(*point) == rounded_outward(value, value)

    def test_enclosure_past_the_doubles_is_overflow(self):
        # 1 + x**3 * y**2 reaches about 1e600 on these boxes: its range is
        # past the doubles, but the exclusion test reads the integers
        p = 1 + X ** 3 * Y ** 2
        system = system_of(p, X, Y)
        near, far = ((Interval(-1e200, 1.0), Interval(-1.0, 1.0)),
                     (Interval(1e200, 2e200), Interval(1.0, 2.0)))
        for box in (near, far):
            with pytest.raises(OracleOverflow, match="^an enclosure exceeds"):
                _IntervalPoly(p).range(*box)
        assert not _excluded(system, near) and _excluded(system, far)
        with pytest.raises(OracleOverflow, match="^a box end lies beyond"):
            _IntervalPoly(X).range(Interval(0.0, math.inf), Interval(0.0, 1.0))

    def test_exclusion_is_decided_exactly(self):
        # x over [0, 1] has the lower bound 0 and is kept, but not from the
        # least double above 0; x - 1/3 likewise from the doubles on either
        # side of 1/3, which differ from it by less than an ulp
        y = Interval(-1.0, 1.0)
        assert not _excluded(system_of(X, X, X), (Interval(0.0, 1.0), y))
        assert _excluded(system_of(X, X, X), (Interval(5e-324, 1.0), y))
        third = Fraction(1, 3)
        below = float(third)
        above = math.nextafter(below, math.inf)
        assert Fraction(below) < third < Fraction(above)
        system = system_of(*[X - third] * 3)
        assert not _excluded(system, (Interval(below, 1.0), y))
        assert _excluded(system, (Interval(above, 1.0), y))

    @pytest.mark.parametrize("text, cusps", [
        (WHITNEY_TEXT, [(0.0, 0.0)]),
        (TWO_CUSP_TEXT, [(-4.0, 2.0), (0.0, 0.0)]),
    ], ids=["whitney", "two_cusp"])
    def test_keeps_every_box_holding_a_cusp(self, text, cusps):
        problem = parse_problem(text)
        derived = derive_system(problem.f1, problem.f2)
        system = _System(derived)
        for px, py in cusps:
            assert all(p.evaluate((px, py)) == 0
                       for p in (derived.jac, derived.vel1, derived.vel2))
            for k in range(-2, 41):
                width = 2.0 ** -k
                # the cusp at the centre, at a corner and at off-centre points
                for fx, fy in ((0.5, 0.5), (0.0, 0.0), (1.0, 0.25), (0.125, 0.875)):
                    box = (Interval(px - fx * width, px + (1 - fx) * width),
                           Interval(py - fy * width, py + (1 - fy) * width))
                    assert box[0].contains(px) and box[1].contains(py)
                    assert not _excluded(system, box), box

    def test_evaluates_nothing_on_a_box_inside_a_region(self, monkeypatch):
        # containment in the uniqueness region of a certified box, which holds
        # that box, is tested before any enclosure is computed
        problem = parse_problem(TWO_CUSP_TEXT)
        derived = derive_system(problem.f1, problem.f2)
        excluded, tables = oracle._excluded, _System.tables
        built: list = []
        seen = {"inside": 0, "evaluated": 0, "evaluated_inside": 0}

        def tables_spy(system, x, y):
            built.append((x, y))
            return tables(system, x, y)

        def excluded_spy(system, box, regions=()):
            built.clear()
            result = excluded(system, box, regions)
            inside = any(r[0].contains_interval(box[0]) and r[1].contains_interval(box[1])
                         for r in regions)
            seen["inside"] += inside
            seen["evaluated"] += bool(built)
            seen["evaluated_inside"] += inside and bool(built)
            return result

        monkeypatch.setattr(_System, "tables", tables_spy)
        monkeypatch.setattr(oracle, "_excluded", excluded_spy)
        points = isolate_cusps(derived, box_radius=16.0)
        assert [p.kind for p in points] == ["cusp", "cusp"]
        assert seen["inside"] > 0 and seen["evaluated"] > 0 and seen["evaluated_inside"] == 0


class TestIsolateCusps:
    def test_two_cusp_map(self, two_cusp_points):
        _, _, points = two_cusp_points
        cusps = [p for p in points if p.kind == "cusp"]
        assert len(cusps) == 2
        assert all(p.kind == "cusp" for p in points)
        # sorted by box corner: (-4, 2) comes before (0, 0)
        assert cusps[0].box[0].contains(-4.0) and cusps[0].box[1].contains(2.0)
        assert cusps[1].box[0].contains(0.0) and cusps[1].box[1].contains(0.0)
        for p in cusps:
            assert p.degree_sign == -1
            assert max(p.box[0].width, p.box[1].width) <= 1e-6

    def test_whitney_map(self):
        problem = parse_problem(WHITNEY_TEXT)
        derived = derive_system(problem.f1, problem.f2)
        points = isolate_cusps(derived, box_radius=2.0)
        assert len(points) == 1
        point = points[0]
        assert point.kind == "cusp"
        assert point.degree_sign == 1
        assert point.box[0].contains(0.0) and point.box[1].contains(0.0)
        assert max(point.box[0].width, point.box[1].width) <= 1e-6

    def test_immersion_has_no_candidates(self):
        derived = derive_system(X, Y)
        assert isolate_cusps(derived, box_radius=8.0) == ()

    def test_deterministic(self, two_cusp_points):
        _, derived, points = two_cusp_points
        assert isolate_cusps(derived, box_radius=10.0) == points

    def test_radius_must_be_positive(self, two_cusp_points):
        _, derived, _ = two_cusp_points
        with pytest.raises(ValueError):
            isolate_cusps(derived, box_radius=0.0)

    def test_certification_widens_to_the_second_radius(self):
        """The Whitney cusp moved to x = 2**29, where one ulp is 2**-23: the
        box of half-width 1e-7 is one ulp on either side and interval Newton
        fails on it, the box of half-width 4e-7 certifies.  (Up to 2**28 the
        first radius certifies.)"""
        shift = 2 ** 29
        problem = parse_problem(f"f1 = x - {shift}\nf2 = (x - {shift})*y + y^3\n")
        system = _System(derive_system(problem.f1, problem.f2))
        px, py = float(shift), 0.0
        r = _CERTIFY_RADII[0]
        first = (Interval(px - r, px + r), Interval(py - r, py + r))
        pair = _best_pair(system, px, py)
        assert not _interval_newton(system, pair, px, py, first)
        box, certifying_pair = _try_certify(system, px, py)
        assert box[0].contains(px) and certifying_pair == pair
        assert box[1] == Interval(-_CERTIFY_RADII[1], _CERTIFY_RADII[1])

    @pytest.mark.parametrize("k", [14, 20])
    def test_whitney_map_far_from_the_origin(self, k):
        """The Whitney cusp moved to y = 2**k is certified: each enclosure is
        exact in the coordinates of its own box, however far from the
        origin that box lies."""
        shift = 2 ** k
        problem = parse_problem(f"f1 = x\nf2 = x*(y - {shift}) + (y - {shift})^3\n")
        points = isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=2.0 * shift)
        assert [(p.kind, p.degree_sign) for p in points] == [("cusp", 1)]
        assert points[0].box[0].contains(0.0) and points[0].box[1].contains(float(shift))


def derived_of(p1: Polynomial, p2: Polynomial, p3: Polynomial) -> DerivedSystem:
    """A cusp system whose three equations are p1, p2, p3."""
    zero = Polynomial.zero()
    return DerivedSystem(jac=p1, vel1=p2, vel2=p3, vel_jac=zero, minor1=zero, minor2=zero)


def system_of(p1: Polynomial, p2: Polynomial, p3: Polynomial) -> _System:
    """The compiled system whose three equations are p1, p2, p3."""
    return _System(derived_of(p1, p2, p3))


class TestThirdEquation:
    """A box where interval Newton proves a unique zero of the best pair is
    kept only if the exclusion test of the subdivision keeps it too."""

    def test_box_where_the_third_equation_is_nonzero_is_rejected(self):
        system = system_of(X, Y, 1 + X)
        r = _CERTIFY_RADII[0]
        assert _best_pair(system, 1e-3, -2e-3) == (0, 1)
        assert _interval_newton(system, (0, 1), 0.0, 0.0, (Interval(-r, r), Interval(-r, r)))
        assert _try_certify(system, 1e-3, -2e-3) is None

    @pytest.mark.parametrize("third", [X + Y, X + Fraction(1, 10 ** 12)],
                             ids=["vanishes_there", "vanishes_nearby"])
    def test_box_where_the_third_equation_may_vanish_is_kept(self, third):
        # x + 1/10**12 has no common zero with x and y, but it vanishes on
        # x = -1/10**12, inside the box: the check is necessary, not sufficient
        r = _CERTIFY_RADII[0]
        certified = _try_certify(system_of(X, Y, third), 1e-3, -2e-3)
        assert certified == ((Interval(-r, r), Interval(-r, r)), (0, 1))


class TestSkipKnownCusps:
    """No interval Newton runs on a box, of any radius, that meets a cusp box
    already certified, and the uniqueness regions leave one polish per cusp."""

    @pytest.mark.parametrize("text, radius", [
        (TWO_CUSP_TEXT, 16.0),
        ("f1 = 5*x^2 + x*y + y^2 - 4*x + 2*y + 2\n"
         "f2 = -x^2 + 5*x*y + 5*y^2 + x + 5*y - 2\n", 1.0),
    ], ids=["two_cusp", "quadratic"])
    def test_no_newton_next_to_a_certified_box(self, monkeypatch, text, radius):
        problem = parse_problem(text)
        derived = derive_system(problem.f1, problem.f2)
        try_certify, polish, newton = oracle._try_certify, oracle._polish, oracle._interval_newton
        known: list = []
        calls = {"polished": 0, "newton": 0}

        def certify_spy(system, px, py, certified=()):
            known[:] = certified
            return try_certify(system, px, py, certified)

        def polish_spy(*args):
            point = polish(*args)
            calls["polished"] += point is not None
            return point

        def newton_spy(system, pair, px, py, box):
            calls["newton"] += 1
            assert not any(box[0].intersects(c[0]) and box[1].intersects(c[1])
                           for c in known)
            return newton(system, pair, px, py, box)

        monkeypatch.setattr(oracle, "_try_certify", certify_spy)
        monkeypatch.setattr(oracle, "_polish", polish_spy)
        monkeypatch.setattr(oracle, "_interval_newton", newton_spy)
        points = isolate_cusps(derived, box_radius=radius)
        cusps = [p for p in points if p.kind == "cusp"]
        assert cusps and calls["newton"] > 0
        # no box left near a certified cusp is polished onto it again
        assert calls["polished"] == len(cusps)


# x = y**2 + y = -x + (1 + y)/10**12 = 0 meet only at (0, -1); at (0, 0) the
# third equation is 10**-12, inside its range over a certified box there
PLANTED = derived_of(X, Y ** 2 + Y, -X + Fraction(1, 10 ** 12) * (1 + Y))


def cusp_centres(points) -> list[tuple[float, float]]:
    return [(round(p.box[0].mid, 6), round(p.box[1].mid, 6))
            for p in points if p.kind == "cusp"]


class TestCertifyingPair:
    """A uniqueness region is grown from the pair that certified its box.

    On the planted system the box at (0, 0) is certified by the pair
    (x, y**2 + y), whose Jacobian determinant 2y + 1 vanishes at y = -1/2,
    so its region stops short of the cusp at (0, -1).  The pair
    (x, -x + (1 + y)/10**12) has the constant determinant 10**-12; a region
    grown from it covers the whole search box."""

    def test_reports_the_false_positive_and_the_true_cusp(self):
        points = isolate_cusps(PLANTED, box_radius=2.0)
        assert cusp_centres(points) == [(0.0, -1.0), (0.0, 0.0)]
        assert all(p.kind == "cusp" for p in points)

    def test_a_region_from_another_pair_loses_the_true_cusp(self, monkeypatch):
        def other_pair(system, pair, box, radius):
            return _uniqueness_region(system, (0, 2), box, radius)

        monkeypatch.setattr(oracle, "_uniqueness_region", other_pair)
        assert cusp_centres(isolate_cusps(PLANTED, box_radius=2.0)) == [(0.0, 0.0)]


class TestUniquenessRegion:
    @pytest.mark.parametrize("text", [TWO_CUSP_TEXT, WHITNEY_TEXT, EIGHT_CUSP_TEXT],
                             ids=["two_cusp", "whitney", "eight_cusp"])
    def test_regions_are_sound(self, monkeypatch, text):
        problem = parse_problem(text)
        grown = []

        def region_spy(system, pair, box, radius):
            region = _uniqueness_region(system, pair, box, radius)
            grown.append((system, pair, box, region))
            return region

        monkeypatch.setattr(oracle, "_uniqueness_region", region_spy)
        derived = derive_system(problem.f1, problem.f2)
        grads = [(p.partial("x"), p.partial("y")) for p in (derived.jac, derived.vel1, derived.vel2)]
        points = isolate_cusps(derived, box_radius=16.0)
        boxes = [p.box for p in points if p.kind == "cusp"]
        assert len(grown) == len(boxes) and {box for _, _, box, _ in grown} == set(boxes)
        for _, (i, j), box, region in grown:
            assert region[0].contains_interval(box[0]) and region[1].contains_interval(box[1])
            assert region[0].width > 2 * box[0].width
            assert not any(region[0].contains(other[0].mid) and region[1].contains(other[1].mid)
                           for other in boxes if other != box)
            (gix, giy), (gjx, gjy) = ([rounded_outward(*reference_range(g, *region)) for g in pair]
                                      for pair in (grads[i], grads[j]))
            det = gix * gjy - giy * gjx
            assert det.excludes_zero(), (box, region)

    def test_growth_stops_where_the_jacobian_overflows(self):
        # the region around (0, 9/10) reaches y = 1.74 before the radius, where
        # 20 * 10**303 * x * y**19 passes the doubles; the search box never does
        derived = derived_of(X * (1 + 10 ** 303 * Y ** 20), Y - Fraction(9, 10),
                             X + Y - Fraction(9, 10))
        points = isolate_cusps(derived, box_radius=1.0)
        assert cusp_centres(points) == [(0.0, 0.9)]

    @pytest.mark.parametrize("text, ceiling", [
        (TWO_CUSP_TEXT, 300), (WHITNEY_TEXT, 100), (SIX_CUSP_TEXT, 4500), (EIGHT_CUSP_TEXT, 6500),
    ], ids=["two_cusp", "whitney", "six_cusp", "eight_cusp"])
    def test_boxes_tested_at_radius_16(self, monkeypatch, text, ceiling):
        # a deterministic count of the subdivision's work: without the
        # regions every cusp of the first two maps is subdivided down to its
        # certified box (891 and 534 calls); the last two take 4 051 and
        # 6 093 calls
        problem = parse_problem(text)
        excluded = oracle._excluded
        calls = []

        def excluded_spy(*args):
            calls.append(None)
            return excluded(*args)

        monkeypatch.setattr(oracle, "_excluded", excluded_spy)
        isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=16.0)
        assert len(calls) <= ceiling

    @pytest.mark.parametrize("text, radius", [
        (TWO_CUSP_TEXT, 16.0), (WHITNEY_TEXT, 16.0), (SIX_CUSP_TEXT, 16.0),
        (EIGHT_CUSP_TEXT, 16.0), (TWO_CUSP_TEXT, 1e200),
    ], ids=["two_cusp", "whitney", "six_cusp", "eight_cusp", "two_cusp_1e200"])
    def test_bisection_finds_the_doubling_region(self, monkeypatch, text, radius):
        problem = parse_problem(text)
        grown = []

        def region_spy(system, pair, box, radius):
            region = _uniqueness_region(system, pair, box, radius)
            grown.append((system, pair, box, radius, region))
            return region

        monkeypatch.setattr(oracle, "_uniqueness_region", region_spy)
        isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=radius)
        assert grown
        for system, pair, box, radius, region in grown:
            assert region == doubling_region(system, pair, box, radius), box

    @pytest.mark.parametrize("failing", [
        lambda last: {last // 2},
        lambda last: {last // 2, last},
        lambda last: set(range(last // 2, last + 1)) - {last - 1},
    ], ids=["middle", "middle_and_last", "all_but_one_above_middle"])
    def test_a_nonmonotone_test_still_gives_a_tested_region(self, monkeypatch, failing):
        # the determinant is made to straddle zero at chosen exponents j of
        # the widening (half-width 1e-7 * 2**j, j = 28 reaches the radius 16)
        box = (Interval(-1e-7, 1e-7), Interval(-1e-7, 1e-7))
        last = math.ceil(math.log2(16.0 / 1e-7))
        bad = failing(last)
        tested = []

        def jacobian_spy(system, pair, wider):
            j = round(math.log2(wider[0].width / box[0].width))
            assert 0 < j <= last
            det = Interval(-1.0, 1.0) if j in bad else Interval(1.0, 2.0)
            tested.append((wider, det.excludes_zero()))
            return None, None, None, None, det

        monkeypatch.setattr(oracle, "_jacobian", jacobian_spy)
        region = _uniqueness_region(system_of(X, Y, X + Y), (0, 1), box, 16.0)
        assert (region, True) in tested
        assert len(tested) <= 1 + math.ceil(math.log2(last))

    @pytest.mark.parametrize("text, ceiling", [
        (WHITNEY_TEXT, 3), (SIX_CUSP_TEXT, 60), (EIGHT_CUSP_TEXT, 80),
    ], ids=["whitney", "six_cusp", "eight_cusp"])
    def test_jacobians_at_radius_16(self, monkeypatch, text, ceiling):
        # interval Newton's and the regions' Jacobians together: 2, 42 and
        # 56; growing each region by doubling took 29, 125 and 160
        problem = parse_problem(text)
        calls = count_calls(monkeypatch, "_jacobian")
        isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=16.0)
        assert len(calls) <= ceiling

    def test_region_below_the_certify_radius_is_the_certified_box(self, monkeypatch):
        # the certified box of half-width 1e-7 already holds the search box
        # [-1e-8, 1e-8]^2: nothing is left to widen
        problem = parse_problem(WHITNEY_TEXT)
        calls = count_calls(monkeypatch, "_jacobian")
        grown = []

        def region_spy(system, pair, box, radius):
            before = len(calls)
            region = _uniqueness_region(system, pair, box, radius)
            grown.append((box, region, len(calls) - before))
            return region

        monkeypatch.setattr(oracle, "_uniqueness_region", region_spy)
        points = isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=1e-8)
        r = _CERTIFY_RADII[0]
        certified = (Interval(-r, r), Interval(-r, r))
        assert points == (CertifiedPoint(box=certified, kind="cusp", degree_sign=1),)
        assert grown == [(certified, certified, 0)]


class TestSideTables:
    """Each side's power table is built once per `isolate_cusps` call."""

    def test_tables_built_for_the_six_cusp_map(self, monkeypatch):
        # 1 624 tables; building both of every box's tables took 8 332
        problem = parse_problem(SIX_CUSP_TEXT)
        calls = count_calls(monkeypatch, "_affine_powers")
        isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=16.0)
        assert len(calls) <= 8332 // 2

    def test_calls_on_different_maps_return_what_each_returns_alone(self):
        # two maps of different degrees, so their tables of one side differ
        texts = (TWO_CUSP_TEXT, WHITNEY_TEXT)
        derived = [derive_system(p.f1, p.f2) for p in map(parse_problem, texts)]
        together = [repr(isolate_cusps(d)) for d in derived + derived]
        code = ("import sys\n"
                "from cuspcount.exprio import parse_problem\n"
                "from cuspcount.oracle import isolate_cusps\n"
                "from cuspcount.pipeline import derive_system\n"
                "p = parse_problem(sys.stdin.read())\n"
                "print(repr(isolate_cusps(derive_system(p.f1, p.f2))))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1]))
        alone = [subprocess.run([sys.executable, "-c", code], input=text, env=env, check=True,
                                capture_output=True, text=True).stdout.strip()
                 for text in texts]
        assert together == alone + alone


class TestMerge:
    def test_box_meeting_only_the_grown_bounding_box(self):
        a = (Interval(0.0, 1.0), Interval(0.0, 1.0))
        b = (Interval(1.0, 2.0), Interval(1.0, 2.0))
        c = (Interval(1.5, 3.0), Interval(0.0, 0.5))  # meets neither a nor b
        far = (Interval(5.0, 6.0), Interval(5.0, 6.0))
        boxes = [c, far, b, a]
        expected = [(Interval(0.0, 3.0), Interval(0.0, 2.0)), far]
        assert _merge(boxes) == reference_merge(boxes) == expected

    def test_matches_the_remove_loop_on_seeded_box_sets(self):
        rng = random.Random(20480)
        for _ in range(300):
            boxes = []
            for _ in range(rng.randint(0, 40)):
                x, y = rng.randint(-8, 7) / 4, rng.randint(-8, 7) / 4
                wx, wy = rng.choice((0.0, 0.25, 0.5)), rng.choice((0.0, 0.25, 1.0))
                boxes.append((Interval(x, x + wx), Interval(y, y + wy)))
            boxes.extend(rng.sample(boxes, min(3, len(boxes))))  # equal boxes
            rng.shuffle(boxes)
            assert _merge(boxes) == reference_merge(boxes)


class TestClassifyCriticalPoint:
    def test_two_cusp_map_points(self, two_cusp_points):
        _, derived, _ = two_cusp_points
        assert classify_critical_point(derived, (0, 0)) == "cusp"
        assert classify_critical_point(derived, (-4, 2)) == "cusp"
        assert classify_critical_point(derived, (1, 0)) == "not_critical"

    def test_fold(self):
        derived = derive_system(X ** 2, Y)
        assert classify_critical_point(derived, (0, 0)) == "fold"
        assert classify_critical_point(derived, (0, Fraction(7, 3))) == "fold"

    def test_unclassifiable(self):
        derived = derive_system(X ** 2, Y ** 2)
        with pytest.raises(Unclassifiable):
            classify_critical_point(derived, (0, 0))

    def test_agreement_with_certified_kinds(self, two_cusp_points):
        # exact classification at the rational centers of certified boxes
        _, derived, points = two_cusp_points
        for point in points:
            center = (Fraction(point.box[0].mid).limit_denominator(10 ** 6),
                      Fraction(point.box[1].mid).limit_denominator(10 ** 6))
            assert classify_critical_point(derived, center) == "cusp"


class TestRegionMembership:
    def test_two_cusp_map_flags(self, two_cusp_points):
        problem, _, points = two_cusp_points
        flags = [region_membership(problem.u, p) for p in points]
        # sorted order puts (-4, 2) first: outside the unit disc
        assert flags == [False, True]

    def test_unknown_when_straddling(self):
        point = CertifiedPoint(
            box=(Interval(-0.5, 0.5), Interval(0.0, 1.0)), kind="cusp")
        assert region_membership(X, point) is None


class TestAgreementWithAlgebra:
    # maps chosen among seeded degree-<=3 samples where isolation completes
    @pytest.mark.parametrize("seed", [5, 9, 6, 8])
    def test_random_maps(self, seed):
        rng = random.Random(seed)
        f1 = random_polynomial(rng, 3, lo=-4, hi=4)
        f2 = random_polynomial(rng, 3, lo=-4, hi=4)
        try:
            result = census(ProblemInput(f1=f1, f2=f2))
        except (GenericityNotCertified, NotZeroDimensional):
            pytest.skip("map not certified; oracle has nothing to check")
        points = isolate_cusps(derive_system(f1, f2), box_radius=64.0)
        if any(p.kind == "unresolved" for p in points):
            pytest.skip("oracle left unresolved boxes")
        signs = [p.degree_sign for p in points]
        if None in signs:
            pytest.skip("oracle could not decide a degree sign")
        assert len(points) == result.total_cusps
        assert sum(signs) == result.sum_of_degrees

    def test_two_cusp_totals(self, two_cusp_points, two_cusp_run):
        _, _, points = two_cusp_points
        cusps = [p for p in points if p.kind == "cusp"]
        c = two_cusp_run.census
        assert len(cusps) == c.sig1 == c.total_cusps
        assert sum(p.degree_sign for p in cusps) == c.sig2
