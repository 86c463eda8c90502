"""Exact polynomial arithmetic: fixed examples plus ring-law properties."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount.errors import DegreeGuardExceeded
from cuspcount.poly import (FIELD, NEG_INFINITY, Monomial, Polynomial, X, Y, divides,
                            func_det, key_degree, lcm_key, pack, unpack, x_exponent)
from conftest import grevlex_key, mono_divides, mono_lcm, random_polynomial

ONE = Polynomial.constant(1)


def poly(text):
    from cuspcount.exprio import parse_polynomial

    return parse_polynomial(text)


class TestAdd:
    def test_cancellation(self):
        assert (X + Y) + (X - Y) == 2 * X

    def test_identity(self):
        p = poly("x*y^2 - 7")
        assert p + Polynomial.zero() == p

    def test_inverse(self):
        p = poly("x*y^2")
        assert (p + (-p)).is_zero()


class TestMul:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == poly("x^2 - y^2")

    def test_identity(self):
        p = poly("3*x^2 - 1/2*y")
        assert ONE * p == p

    def test_monomials(self):
        assert (2 * X) * (3 * Y) == poly("6*x*y")

    def test_pow(self):
        assert (X + Y) ** 3 == poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert (X - Y) ** 0 == ONE


class TestPartial:
    def test_basic(self):
        assert poly("x*y^2 - x^2").partial("x") == poly("y^2 - 2*x")

    def test_constant(self):
        assert Polynomial.constant(Fraction(5, 3)).partial("y").is_zero()

    def test_first_component_of_two_cusp_map(self):
        got = poly("x*y^2 - x^2 + y^2 + x - y").partial("y")
        assert got == poly("2*x*y + 2*y - 1")

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            X.partial("z")


class TestFuncDet:
    def test_two_cusp_map_jacobian(self):
        f1 = poly("x*y^2 - x^2 + y^2 + x - y")
        f2 = poly("x - y")
        assert func_det(f1, f2) == poly("-2*x*y - y^2 + 2*x - 2*y")

    def test_identity_map(self):
        assert func_det(X, Y) == ONE

    def test_cusp_normal_form(self):
        assert func_det(X, poly("x*y + y^3")) == poly("x + 3*y^2")


class TestEvaluate:
    def test_zero_at_origin(self):
        assert poly("2*x + 4*y").evaluate((0, 0)) == 0

    def test_unit_disc_boundary_function(self):
        assert poly("1 - x^2 - y^2").evaluate((-4, 2)) == -19

    def test_rational_point(self):
        assert poly("x - y").evaluate((3, 1)) == 2
        assert poly("x - y").evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 6)


class TestInvariants:
    def test_no_zero_terms_stored(self):
        p = Polynomial({Monomial(1, 0): 1, Monomial(0, 1): 0})
        assert list(p.terms) == [Monomial(1, 0)]

    def test_zero_degree_marker(self):
        assert Polynomial.zero().degree == NEG_INFINITY
        assert Polynomial.constant(3).degree == 0
        assert poly("x*y^2").degree == 3

    def test_leibniz_rule(self):
        rng = random.Random(20241)
        for _ in range(500):
            p = random_polynomial(rng, 4)
            q = random_polynomial(rng, 4)
            for var in ("x", "y"):
                assert (p * q).partial(var) == p.partial(var) * q + p * q.partial(var)

    def test_func_det_antisymmetry(self):
        rng = random.Random(20242)
        for _ in range(300):
            p = random_polynomial(rng, 4)
            q = random_polynomial(rng, 4)
            assert func_det(p, q) == -func_det(q, p)
            assert func_det(p, p).is_zero()

    def test_evaluate_is_ring_homomorphism(self):
        rng = random.Random(20243)
        for _ in range(300):
            p = random_polynomial(rng, 4)
            q = random_polynomial(rng, 4)
            point = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


# -- the representation: integer numerators over one denominator ----------
#
# The reference below is plain arithmetic on dicts of reduced Fractions, one
# per term, as the coefficients were once stored.  It also keeps the order in
# which terms arise, which the oracle's interval folds depend on.

def ref_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        new = out.get(mono, 0) + coeff
        if new:
            out[mono] = new
        else:
            del out[mono]
    return out


def ref_neg(a):
    return {mono: -coeff for mono, coeff in a.items()}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = Monomial(m1.ex + m2.ex, m1.ey + m2.ey)
            new = out.get(mono, 0) + c1 * c2
            if new:
                out[mono] = new
            else:
                del out[mono]
    return out


def ref_pow(a, n):
    out = {Monomial(0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_partial(a, var):
    if var == "x":
        return {Monomial(m.ex - 1, m.ey): c * m.ex for m, c in a.items() if m.ex}
    return {Monomial(m.ex, m.ey - 1): c * m.ey for m, c in a.items() if m.ey}


def ref_func_det(a, b):
    return ref_add(ref_mul(ref_partial(a, "x"), ref_partial(b, "y")),
                   ref_neg(ref_mul(ref_partial(a, "y"), ref_partial(b, "x"))))


def ref_evaluate(a, point):
    return sum((c * point[0] ** m.ex * point[1] ** m.ey for m, c in a.items()), Fraction(0))


def rational_terms(rng, max_degree):
    """Seeded Fraction coefficients with small, often shared denominators."""
    terms = {}
    for ex in range(max_degree + 1):
        for ey in range(max_degree + 1 - ex):
            if rng.random() < 0.6:
                coeff = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10, 35)))
                if coeff:
                    terms[Monomial(ex, ey)] = coeff
    return terms


def assert_matches(p, reference, point, ordered=True):
    nums, den = p.numerators, p.denominator
    assert den > 0
    assert gcd(den, *nums.values()) == 1
    assert all(nums.values())
    assert dict(p.terms) == reference
    if ordered:
        assert list(p.terms) == list(reference)
    assert p.evaluate(point) == ref_evaluate(reference, point)


class TestRepresentation:
    def test_least_common_denominator(self):
        p = Polynomial({(1, 0): Fraction(1, 6), (0, 1): Fraction(3, 4), (0, 0): 2})
        assert p.denominator == 12
        assert dict(p.numerators) == {Monomial(1, 0): 2, Monomial(0, 1): 9,
                                      Monomial(0, 0): 24}
        assert dict(p.terms) == {Monomial(1, 0): Fraction(1, 6),
                                 Monomial(0, 1): Fraction(3, 4), Monomial(0, 0): 2}
        assert Polynomial.zero().denominator == 1
        with pytest.raises(TypeError):
            p.numerators[Monomial(1, 0)] = 1

    def test_operations_match_the_fraction_reference(self):
        rng = random.Random(20511)
        for _ in range(300):
            a, b = rational_terms(rng, 3), rational_terms(rng, 3)
            p, q = Polynomial(a), Polynomial(b)
            point = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert_matches(p, a, point)
            assert_matches(p + q, ref_add(a, b), point)
            assert_matches(p - q, ref_add(a, ref_neg(b)), point)
            assert_matches(-p, ref_neg(a), point)
            assert_matches(p * q, ref_mul(a, b), point)
            assert_matches(p ** 3, ref_pow(a, 3), point, ordered=False)
            for var in ("x", "y"):
                assert_matches(p.partial(var), ref_partial(a, var), point)
            assert_matches(func_det(p, q), ref_func_det(a, b), point)

    def test_equal_values_compare_and_hash_equal(self):
        half = Polynomial({(1, 0): Fraction(1, 2)})
        assert half + half == X and hash(half + half) == hash(X)
        assert (half + half).denominator == 1
        assert 6 * Polynomial({(1, 0): Fraction(1, 6)}) == X
        assert Polynomial.constant(Fraction(2, 4)) == Polynomial({(0, 0): Fraction(1, 2)})
        p = Polynomial({(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 6)})
        zero = p - p
        assert zero == Polynomial.zero() and hash(zero) == hash(Polynomial.zero())
        assert zero.denominator == 1 and not zero.numerators
        # a constant equals, and hashes as, the int or Fraction it stands for
        for value in (0, 2, -7, Fraction(3, 4), Fraction(-5, 2)):
            for constant in (Polynomial.constant(value), Polynomial({(0, 0): value})):
                assert constant == value and hash(constant) == hash(value)
                assert value in {constant} and constant in {value}
        assert zero == 0 and hash(zero) == hash(0) and 0 in {zero}
        assert Polynomial({(1, 0): Fraction(1, 6)}) + Polynomial({(1, 0): Fraction(1, 3)}) \
            == Polynomial({(1, 0): Fraction(1, 2)})
        rng = random.Random(20512)
        for _ in range(200):
            p, q, r = (Polynomial(rational_terms(rng, 2)) for _ in range(3))
            for left, right in (((p + q) + r, p + (q + r)), ((p * q) * r, p * (q * r)),
                                (p * (q + r), p * q + p * r), (p * q, q * p)):
                assert left == right and hash(left) == hash(right)


# -- the packed monomial keys ----------------------------------------------

# small exponents and ones at the top of the field meet near-misses often
exponents = st.one_of(st.integers(0, 3), st.integers(FIELD - 3, FIELD - 1),
                      st.integers(0, FIELD - 1))
monomials = st.builds(Monomial, exponents, exponents)


class TestPackedMonomials:
    """The packed int ((a + b) << 16) | a stands for x^a y^b: its order,
    divisibility and lcm are those of the exponent pairs, for every exponent
    below the field limit."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(monomials, monomials)
    def test_order_divisibility_and_lcm_match_the_exponents(self, m, n):
        assert unpack(pack(*m)) == m and type(unpack(pack(*m))) is Monomial
        assert (key_degree(pack(*m)), x_exponent(pack(*m))) == (m.degree, m.ex)
        assert (pack(*m) < pack(*n)) == (grevlex_key(m) < grevlex_key(n))
        assert (pack(*m) == pack(*n)) == (m == n)
        assert divides(pack(*m), pack(*n)) == mono_divides(m, n)
        assert unpack(lcm_key(pack(*m), pack(*n))) == mono_lcm(m, n)

    def test_divisibility_at_the_field_edges(self):
        top = FIELD - 1
        for lead, key, expected in [((top, 0), (top, top), True), ((0, top), (top, top), True),
                                    ((1, 0), (0, top), False), ((0, 1), (top, 0), False),
                                    ((top, 0), (top - 1, top), False), ((0, 0), (0, 0), True)]:
            assert divides(pack(*lead), pack(*key)) is expected

    def test_product_of_keys_is_their_sum(self):
        assert pack(3, 4) + pack(5, 6) == pack(8, 10)
        assert (X ** 3 * Y ** 4) * (X ** 5 * Y ** 6) == Polynomial({(8, 10): 1})


class TestExponentField:
    """No exponent at or beyond 2**16 reaches a packed key: the constructor
    and products refuse it instead of corrupting a key."""

    @pytest.mark.parametrize("mono", [(FIELD, 0), (0, FIELD), (FIELD - 1, 1), (1, FIELD - 1)])
    def test_constructor_rejects_the_field_limit(self, mono):
        with pytest.raises(ValueError, match="exceeds the limit"):
            Polynomial({mono: 1})

    def test_constructor_accepts_just_below_the_limit(self):
        for mono in ((FIELD - 1, 0), (0, FIELD - 1), (FIELD // 2, FIELD // 2 - 1)):
            p = Polynomial({mono: 3})
            assert list(p.terms) == [Monomial(*mono)] and p.degree == FIELD - 1
            assert p.coefficient(mono) == 3

    def test_coefficient_beyond_the_field_is_zero(self):
        p = Polynomial({(FIELD - 1, 0): 1, (0, 0): 2})
        for mono in ((FIELD, 0), (0, FIELD), (FIELD, FIELD), (-1, 1)):
            assert p.coefficient(mono) == 0

    @pytest.mark.parametrize("make", [lambda: X ** FIELD, lambda: X ** (FIELD - 1) * Y,
                                      lambda: (X + 1) ** 3 * (X * Y) ** (FIELD // 2 - 1),
                                      lambda: Y * X ** (FIELD - 1)])
    def test_products_reaching_the_limit_raise(self, make):
        with pytest.raises(ValueError, match="exceeds the exponent field limit 65535") as raised:
            make()
        # a product past the field is also a degree guard, exit 6 at the command line
        assert isinstance(raised.value, DegreeGuardExceeded)

    def test_products_just_below_the_limit(self):
        p = X ** (FIELD - 1)
        assert p.degree == FIELD - 1 and p.coefficient((FIELD - 1, 0)) == 1
        q = (X + Y + 1) ** 3 * Y ** (FIELD - 4)
        assert q.degree == FIELD - 1 and len(q.terms) == 10
        assert (Polynomial.zero() * p).is_zero() and (p * 0).is_zero()
