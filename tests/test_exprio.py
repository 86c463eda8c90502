"""Parser and formatter: grammar examples, error reporting, round trips."""

import random
from fractions import Fraction

import pytest

from cuspcount.errors import (DegreeGuardExceeded, DuplicateKeyError,
                              MissingKeyError, ParseError)
from cuspcount.exprio import (format_monomial, format_polynomial, parse_polynomial,
                              parse_problem)
from cuspcount.poly import Monomial, Polynomial, X, Y


class TestParsePolynomial:
    def test_two_cusp_first_component(self):
        expected = (X * Y ** 2 - X ** 2 + Y ** 2 + X - Y)
        assert parse_polynomial("x*y^2 - x^2 + y^2 + x - y") == expected

    def test_zero(self):
        assert parse_polynomial("0").is_zero()

    def test_negated_square(self):
        assert parse_polynomial("-(x - y)^2") == -(X ** 2) + 2 * X * Y - Y ** 2

    def test_unary_minus_binds_loosely(self):
        assert parse_polynomial("-x^2") == -(X ** 2)
        assert parse_polynomial("(-x)^2") == X ** 2

    def test_rational_literals(self):
        assert parse_polynomial("3/4") == Polynomial.constant(Fraction(3, 4))
        assert parse_polynomial("-3") == Polynomial.constant(-3)
        assert parse_polynomial("2^3") == Polynomial.constant(8)
        assert parse_polynomial("1/2*x") == Polynomial({Monomial(1, 0): Fraction(1, 2)})

    def test_nested_parens(self):
        assert parse_polynomial("((x + 1) * (x - 1))") == X ** 2 - 1

    @pytest.mark.parametrize("bad", [
        "", "x +", "x y", "(x", "x ^ y", "x^-2", "3/0", "x**2", "z", "1..2", "x + @",
        "\u00b2", "x^\u00b3", "\u0663*x", "9" * 5000, "x^" + "9" * 5000,
        # coefficients beyond 4300 digits: a power, found before it is
        # computed, and products and quotients of literals, found at the end
        "((10^64)^64)^2*x", "(((((10^64)^64)^64)^64)^64)*x",
        "((10^50)^10)^10*x - ((10^50)^10)^10*x + x",
        "9" * 4300 + "*" + "9" * 4300, "1/" + "9" * 4300 + "*1/" + "9" * 4300,
    ], ids=lambda text: text if len(text) < 20 else f"{len(text)} characters")
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(ParseError):
            parse_polynomial(bad)

    def test_error_carries_position_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x + * y")
        assert info.value.position == 4
        assert info.value.expected

    def test_degree_guard(self):
        assert parse_polynomial("x^64").degree == 64
        with pytest.raises(DegreeGuardExceeded):
            parse_polynomial("x^65")
        with pytest.raises(DegreeGuardExceeded):
            parse_polynomial("x^3", degree_guard=2)

    @pytest.mark.parametrize("text, degree", [("((x^64)^64)^64", 262144),
                                              ("*".join(["(x^64)^64"] * 17), 65536),
                                              ("((x^64)^64)^64*0", 262144)])
    def test_degree_past_the_exponent_field_is_above_the_guard(self, text, degree):
        # the power or product that would pass the field is refused before it
        # is formed, in the guard's words, never as a product error
        with pytest.raises(DegreeGuardExceeded) as info:
            parse_polynomial(text)
        assert type(info.value) is DegreeGuardExceeded
        assert (info.value.degree, info.value.guard) == (degree, 64)
        assert str(info.value).endswith("during parsing")


class TestParseProblem:
    def test_two_cusp_problem(self):
        problem = parse_problem(
            "f1 = x*y^2-x^2+y^2+x-y\nf2 = x-y\nu = 1-x^2-y^2")
        assert problem.f1 == parse_polynomial("x*y^2-x^2+y^2+x-y")
        assert problem.f2 == X - Y
        assert problem.u == parse_polynomial("1-x^2-y^2")

    def test_region_optional(self):
        problem = parse_problem("f1 = x\nf2 = y")
        assert problem.u is None

    def test_degree_guard(self):
        # the guard reaches every line, the region's too
        text = "f1 = x\nf2 = y\nu = x^2*y - 1\n"
        assert parse_problem(text).u == parse_polynomial("x^2*y - 1")
        with pytest.raises(DegreeGuardExceeded) as info:
            parse_problem(text, degree_guard=2)
        assert (info.value.degree, info.value.guard) == (3, 2)

    def test_missing_required_key(self):
        with pytest.raises(MissingKeyError):
            parse_problem("f2 = y")

    def test_duplicate_key(self):
        with pytest.raises(DuplicateKeyError):
            parse_problem("f1 = x\nf1 = y\nf2 = y")

    def test_key_errors_carry_the_parse_error_fields(self):
        missing = MissingKeyError("f1")
        assert (missing.key, missing.position, missing.expected, missing.line) == \
            ("f1", None, (), None)
        assert str(missing) == "problem file is missing required key 'f1'"
        duplicate = DuplicateKeyError("f1", 3)
        assert (duplicate.key, duplicate.position, duplicate.expected, duplicate.line) == \
            ("f1", None, (), 3)
        assert str(duplicate) == "duplicate key 'f1' (line 3)"

    def test_comments_and_blank_lines(self):
        problem = parse_problem(
            "# a map\n\nf1 = x  # first\n\nf2 = y\n")
        assert problem.f1 == X and problem.f2 == Y

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_problem("f1 = x\nf2 = y\nv = x")

    def test_line_without_equals(self):
        with pytest.raises(ParseError):
            parse_problem("f1 = x\nnonsense\nf2 = y")

    def test_value_errors_carry_line(self):
        with pytest.raises(ParseError) as info:
            parse_problem("f1 = x\nf2 = y +")
        assert info.value.line == 2


class TestFormat:
    def test_two_cusp_jacobian_rendering(self):
        from cuspcount.poly import func_det

        jac = func_det(parse_polynomial("x*y^2 - x^2 + y^2 + x - y"), X - Y)
        assert format_polynomial(jac) == "-2*x*y - y^2 + 2*x - 2*y"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero()) == "0"

    def test_coefficients_and_powers(self):
        assert format_polynomial(parse_polynomial("y^2 - x")) == "y^2 - x"
        assert format_polynomial(parse_polynomial("3/4*x^2*y - 1")) == "3/4*x^2*y - 1"
        assert format_polynomial(Polynomial.constant(-2)) == "-2"

    def test_monomial_text(self):
        assert format_monomial(Monomial(0, 0)) == "1"
        assert format_monomial(Monomial(1, 0)) == "x"
        assert format_monomial(Monomial(2, 3)) == "x^2*y^3"

    def test_round_trip_fixed_cases(self):
        for text in ("0", "x", "-x", "x - y", "1/2", "x^2*y^3 - 7*y + 5"):
            p = parse_polynomial(text)
            assert parse_polynomial(format_polynomial(p)) == p


class TestParserTotality:
    def test_fuzz_never_crashes(self):
        rng = random.Random(20251)
        alphabet = "xy0123456789+-*/^() .#=\t"
        for _ in range(500):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 30)))
            try:
                result = parse_polynomial(text)
            except (ParseError, DegreeGuardExceeded):
                continue
            assert isinstance(result, Polynomial)

    def test_fuzz_arbitrary_unicode(self):
        rng = random.Random(20252)
        for _ in range(200):
            text = "".join(chr(rng.randint(1, 0x2FF))
                           for _ in range(rng.randint(0, 12)))
            try:
                result = parse_polynomial(text)
            except (ParseError, DegreeGuardExceeded):
                continue
            assert isinstance(result, Polynomial)
