"""Numeric referee: interval soundness, isolation of the fixtures, and
agreement with the symbolic census on random maps."""

import math
import random
from fractions import Fraction

import pytest

from cuspcount.errors import GenericityNotCertified, NotZeroDimensional, OracleOverflow
from cuspcount.exprio import ProblemInput, parse_problem
import cuspcount.oracle as oracle
from cuspcount.oracle import (_CERTIFY_RADII, CertifiedPoint, Interval, _best_pair,
                              _interval_newton, _IntervalPoly, _mean_value_forms, _merge,
                              _MEAN_VALUE_WIDTH, _power_bounds, _System, _try_certify,
                              _uniqueness_region, isolate_cusps, region_membership)
from cuspcount.pipeline import DerivedSystem, census, derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y
from classification import Unclassifiable, classify_critical_point
from conftest import EIGHT_CUSP_TEXT, TWO_CUSP_TEXT, WHITNEY_TEXT, random_polynomial


def reference_point_pow(base: float, n: int) -> Interval:
    """base**n by repeated interval multiplication (the per-exponent route)."""
    result = Interval(1.0, 1.0)
    factor = Interval(base, base)
    for _ in range(n):
        result = result * factor
    return result


def reference_power(iv: Interval, n: int) -> Interval:
    """iv**n from the endpoint powers, case by case (the per-exponent route)."""
    if n == 0:
        return Interval(1.0, 1.0)
    if iv.lo >= 0.0:
        return Interval(reference_point_pow(iv.lo, n).lo, reference_point_pow(iv.hi, n).hi)
    if iv.hi <= 0.0:
        if n % 2 == 0:
            return Interval(reference_point_pow(iv.hi, n).lo,
                            reference_point_pow(iv.lo, n).hi)
        return Interval(reference_point_pow(iv.lo, n).lo, reference_point_pow(iv.hi, n).hi)
    if n % 2 == 0:
        bound = max(-iv.lo, iv.hi)
        return Interval(0.0, reference_point_pow(bound, n).hi)
    return Interval(reference_point_pow(iv.lo, n).lo, reference_point_pow(iv.hi, n).hi)


def power(iv: Interval, n: int) -> Interval:
    """iv**n, entry n of the interval's power table."""
    return Interval(*_power_bounds(iv.lo, iv.hi, n)[n])


def reference_range(poly: _IntervalPoly, x: Interval, y: Interval) -> Interval:
    """The Interval-operator fold: coeff * x**ex * y**ey summed term by term."""
    xp = [Interval(*e) for e in _power_bounds(x.lo, x.hi, poly.max_ex)]
    yp = [Interval(*e) for e in _power_bounds(y.lo, y.hi, poly.max_ey)]
    total = Interval(0.0, 0.0)
    for ex, ey, _, c_lo, c_hi in poly.terms:
        total = total + Interval(c_lo, c_hi) * xp[ex] * yp[ey]
    return total


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
        assert power(Interval(-2.0, 3.0), 2).lo == 0.0
        assert power(Interval(-2.0, 3.0), 2).hi >= 9.0
        cube = power(Interval(-2.0, 3.0), 3)
        assert cube.lo <= -8.0 and cube.hi >= 27.0
        neg = power(Interval(-3.0, -2.0), 2)
        assert neg.lo <= 4.0 <= 9.0 <= neg.hi

    def test_power_table_matches_per_exponent_powers(self):
        rng = random.Random(20410)
        for iv in sample_intervals(rng, 2000):
            k = rng.randint(0, 12)
            table = [Interval(*e) for e in _power_bounds(iv.lo, iv.hi, k)]
            assert len(table) == k + 1
            for n, enclosure in enumerate(table):
                expected = reference_power(iv, n)
                assert (enclosure.lo, enclosure.hi) == (expected.lo, expected.hi), (iv, n)
            assert power(iv, k) == table[k]

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

    def test_fold_matches_interval_operators_bit_for_bit(self):
        rng = random.Random(20470)
        inexact = (Fraction(1, 3), Fraction(-7, 10), Fraction(2, 7), Fraction(-1, 10 ** 30))
        boxes = list(zip(sample_intervals(rng, 800), sample_intervals(rng, 800)))
        # an end beyond 2**342 makes x**3 overflow to -inf, and y**2 starts at 0
        boxes += [(Interval(-2.0 ** rng.randint(200, 1000), rng.uniform(-1, 2)),
                   Interval(-rng.uniform(0, 2), rng.uniform(0, 2))) for _ in range(100)]
        raised = 0
        for x, y in boxes:
            p = random_polynomial(rng, 4, lo=-9, hi=9)
            p = p + Polynomial({Monomial(rng.randint(0, 3), rng.randint(0, 3)): rng.choice(inexact)})
            compiled = _IntervalPoly(p)
            assert any(c_lo < c_hi for _, _, _, c_lo, c_hi in compiled.terms)
            expected = outcome(reference_range, compiled, x, y)
            assert outcome(compiled.range, x, y) == expected, (p, x, y)
            raised += not isinstance(expected, tuple)
        assert raised  # huge endpoints overflow and some fold meets 0 * inf

    def test_nan_mid_fold_is_overflow(self):
        # x**3 has lower end -inf; times y**2 = [0, 1] that is -inf * 0 = NaN
        compiled = _IntervalPoly(1 + X ** 3 * Y ** 2)
        box = (Interval(-1e200, 1.0), Interval(-1.0, 1.0))
        with pytest.raises(OracleOverflow):
            compiled.range(*box)
        with pytest.raises(OracleOverflow):
            reference_range(compiled, *box)

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
        """The Whitney cusp moved to x = 2**27, where one ulp is 2**-25: the
        box of half-width 1e-7 is a few ulps wide and interval Newton fails
        on it, the box of half-width 4e-7 certifies."""
        shift = 2 ** 27
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


def derived_of(p1: Polynomial, p2: Polynomial, p3: Polynomial) -> DerivedSystem:
    """A cusp system whose three equations are p1, p2, p3."""
    zero = Polynomial.zero()
    return DerivedSystem(jac=p1, vel1=p2, vel2=p3, vel_jac=zero, minor1=zero, minor2=zero)


def system_of(p1: Polynomial, p2: Polynomial, p3: Polynomial) -> _System:
    """The compiled system whose three equations are p1, p2, p3."""
    return _System(derived_of(p1, p2, p3))


def mean_value_forms(system: _System, box) -> list[Interval]:
    return list(_mean_value_forms(system, box, *system.tables(*box)))


class TestMeanValueForm:
    def test_encloses_exact_values(self):
        rng = random.Random(20150)
        inexact = (Fraction(1, 3), Fraction(-7, 10), Fraction(2, 7))
        narrower = 0
        for _ in range(300):
            eqs = [random_polynomial(rng, 4, lo=-9, hi=9)
                   + Polynomial({Monomial(rng.randint(0, 3), rng.randint(0, 3)):
                                 rng.choice(inexact)})
                   for _ in range(3)]
            system = system_of(*eqs)
            cx, cy = rng.uniform(-4, 4), rng.uniform(-4, 4)
            wx, wy = 2.0 ** -rng.randint(0, 12), 2.0 ** -rng.randint(0, 12)
            box = (Interval(cx - wx * rng.random(), cx + wx * rng.random()),
                   Interval(cy - wy * rng.random(), cy + wy * rng.random()))
            forms = mean_value_forms(system, box)
            xp, yp = system.tables(*box)
            for p, compiled, form in zip(eqs, system.eqs, forms):
                narrower += form.width < compiled.fold(xp, yp).width
                corners = [(Fraction(box[0].lo), Fraction(box[1].lo)),
                           (Fraction(box[0].hi), Fraction(box[1].hi))]
                inner = [(Fraction(box[0].lo) + Fraction(rng.randint(0, 64), 64)
                          * (Fraction(box[0].hi) - Fraction(box[0].lo)),
                          Fraction(box[1].lo) + Fraction(rng.randint(0, 64), 64)
                          * (Fraction(box[1].hi) - Fraction(box[1].lo)))
                         for _ in range(5)]
                for point in corners + inner:
                    assert form.lo <= p.evaluate(point) <= form.hi, (p, box, point)
        assert narrower > 600  # mostly tighter than the natural range

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
                    forms = mean_value_forms(system, box)
                    assert not any(form.excludes_zero() for form in forms), (box, forms)

    def test_runs_only_on_narrow_boxes(self, monkeypatch, two_cusp_points):
        _, derived, points = two_cusp_points
        widths = []

        def spy(system, box, xp, yp):
            widths.append(max(box[0].width, box[1].width))
            return _mean_value_forms(system, box, xp, yp)

        monkeypatch.setattr(oracle, "_mean_value_forms", spy)
        assert isolate_cusps(derived, box_radius=10.0) == points
        assert widths and max(widths) <= _MEAN_VALUE_WIDTH

    def test_never_sees_a_box_inside_an_earlier_cusp_box(self, monkeypatch):
        # containment in the uniqueness region of a certified box, which holds
        # that box, is tested before the costlier mean-value form; the
        # certified box itself goes through the form before it is kept
        problem = parse_problem(TWO_CUSP_TEXT)
        derived = derive_system(problem.f1, problem.f2)
        regions: list = []
        seen = {"forms": 0, "inside": 0}

        def region_spy(system, pair, box, radius):
            regions.append(_uniqueness_region(system, pair, box, radius))
            return regions[-1]

        def forms_spy(system, box, xp, yp):
            seen["forms"] += 1
            seen["inside"] += any(r[0].contains_interval(box[0])
                                  and r[1].contains_interval(box[1]) for r in regions)
            return _mean_value_forms(system, box, xp, yp)

        monkeypatch.setattr(oracle, "_uniqueness_region", region_spy)
        monkeypatch.setattr(oracle, "_mean_value_forms", forms_spy)
        points = isolate_cusps(derived, box_radius=16.0)
        assert [p.kind for p in points] == ["cusp", "cusp"] and len(regions) == 2
        assert seen["forms"] > 0 and seen["inside"] == 0


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
        points = isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=16.0)
        boxes = [p.box for p in points if p.kind == "cusp"]
        assert len(grown) == len(boxes) and {box for _, _, box, _ in grown} == set(boxes)
        for system, (i, j), box, region in grown:
            assert region[0].contains_interval(box[0]) and region[1].contains_interval(box[1])
            assert region[0].width > 2 * box[0].width
            assert not any(region[0].contains(other[0].mid) and region[1].contains(other[1].mid)
                           for other in boxes if other != box)
            (gix, giy), (gjx, gjy) = system.grads[i], system.grads[j]
            det = (reference_range(gix, *region) * reference_range(gjy, *region)
                   - reference_range(giy, *region) * reference_range(gjx, *region))
            assert det.excludes_zero(), (box, region)

    def test_growth_stops_where_the_jacobian_overflows(self):
        # the region around (0, 9/10) reaches y = 1.74 before the radius, where
        # 20 * 10**303 * x * y**19 passes the doubles; the search box never does
        derived = derived_of(X * (1 + 10 ** 303 * Y ** 20), Y - Fraction(9, 10),
                             X + Y - Fraction(9, 10))
        points = isolate_cusps(derived, box_radius=1.0)
        assert cusp_centres(points) == [(0.0, 0.9)]

    @pytest.mark.parametrize("text, ceiling", [(TWO_CUSP_TEXT, 300), (WHITNEY_TEXT, 100)],
                             ids=["two_cusp", "whitney"])
    def test_boxes_tested_at_radius_16(self, monkeypatch, text, ceiling):
        # a deterministic count of the work the regions save: without them
        # every cusp is subdivided down to its certified box (891 and 454)
        problem = parse_problem(text)
        excluded = oracle._excluded
        calls = []

        def excluded_spy(*args):
            calls.append(None)
            return excluded(*args)

        monkeypatch.setattr(oracle, "_excluded", excluded_spy)
        isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=16.0)
        assert len(calls) <= ceiling


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
