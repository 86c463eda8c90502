"""End-to-end census: derived system, certificates, counts, invariances."""

import random
from itertools import chain
from math import gcd

import pytest

from cuspcount import pipeline, quotient, signature
from cuspcount.errors import (DegreeGuardExceeded, GenericityNotCertified,
                              NotZeroDimensional)
from cuspcount.exprio import parse_polynomial, parse_problem
from cuspcount.groebner import buchberger, normal_form
from cuspcount.pipeline import CuspCensus, census, certify_genericity, derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y, func_det
from cuspcount.quotient import build_algebra
from cuspcount.signature import primes, rank, rank_mod, signature_of
from conftest import (EIGHT_CUSP_TEXT, FOLD_ONLY_TEXT, IDENTITY_TEXT,
                      NON_GENERIC_TEXT, SIX_CUSP_TEXT, TWO_CUSP_TEXT,
                      WHITNEY_TEXT, random_polynomial)
from elimination import signature_by_elimination
from test_quotient import mult_matrix


def cusp_algebra(derived):
    """The quotient algebra by (jac, vel1, vel2) that the census builds."""
    return build_algebra(buchberger([derived.jac, derived.vel1, derived.vel2]))


def derived_of(text):
    problem = parse_problem(text)
    return derive_system(problem.f1, problem.f2)


class TestDeriveSystem:
    def test_two_cusp_map(self):
        d = derive_system(parse_polynomial("x*y^2 - x^2 + y^2 + x - y"), X - Y)
        assert d.jac == parse_polynomial("-2*x*y - y^2 + 2*x - 2*y")
        assert d.vel1 == parse_polynomial("-2*x*y^2 + 2*y^3 - 4*x^2 - 2*y^2 - 2*x + 8*y")
        assert d.vel2 == parse_polynomial("2*x + 4*y")
        assert d.vel_jac == parse_polynomial("8*x*y - 20*y^2 - 32*x + 8*y - 24")

    def test_identity_map(self):
        d = derive_system(X, Y)
        assert d.jac == Polynomial.constant(1)
        assert d.vel1.is_zero() and d.vel2.is_zero()
        assert d.vel_jac.is_zero()

    def test_cusp_normal_form(self):
        d = derive_system(X, parse_polynomial("x*y + y^3"))
        assert d.jac == parse_polynomial("x + 3*y^2")
        assert d.vel1 == parse_polynomial("-6*y")
        assert d.vel2 == parse_polynomial("x - 3*y^2")
        assert d.vel_jac == Polynomial.constant(6)

    def test_construction_identities(self):
        rng = random.Random(20290)
        for _ in range(50):
            f1 = random_polynomial(rng, 3)
            f2 = random_polynomial(rng, 3)
            d = derive_system(f1, f2)
            assert d.jac == func_det(f1, f2)
            assert d.vel1 == func_det(d.jac, f1)
            assert d.vel2 == func_det(d.jac, f2)
            assert d.vel_jac == func_det(d.vel1, d.vel2)
            assert d.minor1 == func_det(d.jac, d.vel1)
            assert d.minor2 == func_det(d.jac, d.vel2)

    def test_term_order_of_the_six_cusp_system(self):
        # the oracle folds a polynomial's terms in the order they are stored,
        # so the order each operation inserts terms in is part of its float
        # results; these are the orders of the Monomial-keyed implementation
        problem = parse_problem(SIX_CUSP_TEXT)
        d = derive_system(problem.f1, problem.f2)
        assert [tuple(m) for m in d.jac.terms] == [
            (5, 3), (1, 6), (2, 3), (1, 3), (5, 2), (1, 5), (2, 2), (1, 2), (4, 3), (0, 6),
            (0, 3), (5, 1), (1, 4), (2, 1), (1, 1), (4, 2), (0, 5), (0, 2), (4, 1), (0, 4),
            (0, 1), (3, 2), (3, 1), (5, 0), (3, 0), (4, 0), (2, 0)]
        assert [tuple(m) for m in d.vel1.terms] == [
            (6, 5), (6, 4), (5, 5), (6, 3), (5, 4), (5, 3), (2, 8), (2, 7), (1, 8), (2, 6),
            (1, 7), (1, 6), (3, 4), (2, 5), (3, 3), (2, 4), (2, 3), (1, 5), (1, 4), (1, 3),
            (6, 2), (5, 2), (3, 2), (2, 2), (1, 2), (4, 5), (4, 4), (4, 3), (6, 1), (5, 1),
            (3, 1), (2, 1), (1, 1), (4, 2), (4, 1), (6, 0), (5, 0), (4, 0), (3, 0), (2, 0),
            (0, 8), (0, 7), (0, 6), (0, 5), (0, 4), (0, 3), (0, 2), (0, 1)]
        assert [tuple(m) for m in d.vel2.terms] == [
            (8, 3), (4, 6), (5, 3), (4, 3), (0, 9), (0, 6), (2, 3), (1, 3), (0, 3), (8, 2),
            (4, 5), (5, 2), (4, 2), (0, 8), (1, 5), (2, 2), (1, 2), (7, 3), (3, 6), (3, 3),
            (8, 1), (4, 4), (5, 1), (4, 1), (0, 7), (1, 4), (0, 4), (2, 1), (1, 1), (0, 1),
            (7, 2), (3, 5), (3, 2), (7, 1), (3, 4), (3, 1), (6, 2), (2, 5), (6, 1), (2, 4),
            (8, 0), (5, 0), (4, 0), (6, 0), (3, 0), (2, 0), (7, 0), (1, 0), (1, 6)]
        for p in (d.jac, d.vel1, d.vel2):
            assert list(p.numerators) == list(p.terms)


class TestGenericityCertificate:
    def test_two_cusp_map_certified(self):
        d = derived_of(TWO_CUSP_TEXT)
        assert certify_genericity(d, cusp_algebra(d))

    def test_squares_map_not_certified(self):
        d = derive_system(X ** 2, Y ** 2)
        assert not certify_genericity(d, cusp_algebra(d))

    def test_identity_certified(self):
        d = derive_system(X, Y)
        algebra = cusp_algebra(d)
        assert algebra.dim == 0
        assert certify_genericity(d, algebra)

    def test_rank_deficient_minors(self):
        from sympy import Matrix

        # A = Q[x,y]/(x, y^2); the minors generate only the ideal (y) of A
        d = derive_system(X, Y ** 4 + X * Y)
        algebra = cusp_algebra(d)
        assert algebra.dim == 2
        blocks = [mult_matrix(algebra, normal_form(h, algebra.gb))
                  for h in (d.minor1, d.minor2)]
        block = [a + b for a, b in zip(*blocks)]
        assert rank(block) == rank([list(column) for column in zip(*block)]) == 1
        assert Matrix(block).rank() == 1
        assert not certify_genericity(d, algebra)

    def test_denominator_prime_falls_to_the_exact_rank(self, monkeypatch):
        """The eight-cusp map's M_x has denominator 2^4 3^3 7^3 13 23.  A
        stream that starts at 23 hands it to the modular block, whose rank
        falls short modulo 23, and the exact rank certifies."""
        d = derived_of(EIGHT_CUSP_TEXT)
        algebra = cusp_algebra(d)
        assert algebra.mx[1] % 23 == 0
        monkeypatch.setattr(quotient, "primes", lambda cap: chain([23], primes(cap)))
        modular, exact = [], []

        def spy_rank_mod(block, p):
            modular.append((p, rank_mod(block, p)))
            return modular[-1][1]

        def spy_rank(matrix):
            exact.append(rank(matrix))
            return exact[-1]

        monkeypatch.setattr(quotient, "rank_mod", spy_rank_mod)
        monkeypatch.setattr(quotient, "rank", spy_rank)
        assert certify_genericity(d, algebra)
        assert [p for p, _ in modular] == [23] and modular[0][1] < algebra.dim
        assert exact == [algebra.dim]

    def test_curve_of_cusp_candidates_is_not_certified(self):
        # jac, vel1 and vel2 all vanish on the line {y = 0}
        d = derive_system(X, Y ** 3)
        with pytest.raises(NotZeroDimensional):
            cusp_algebra(d)
        with pytest.raises(GenericityNotCertified,
                           match="do not generate the unit ideal"):
            census(parse_problem("f1 = x\nf2 = y^3\n"))

    @pytest.mark.parametrize("text", [TWO_CUSP_TEXT, WHITNEY_TEXT, EIGHT_CUSP_TEXT],
                             ids=["two_cusp", "whitney", "eight_cusp"])
    def test_modular_rank_certifies_on_its_own(self, monkeypatch, text):
        def no_exact_rank(matrix):
            raise AssertionError("the exact rank ran")

        monkeypatch.setattr(quotient, "rank", no_exact_rank)
        d = derived_of(text)
        assert certify_genericity(d, cusp_algebra(d))

    @pytest.mark.parametrize("text, verdict", [
        (TWO_CUSP_TEXT, True), (WHITNEY_TEXT, True), (EIGHT_CUSP_TEXT, True),
        (NON_GENERIC_TEXT, False)], ids=["two_cusp", "whitney", "eight_cusp", "squares"])
    def test_exact_rank_decides_when_every_prime_falls_short(
            self, monkeypatch, text, verdict):
        calls = []

        def deficient(matrix, p):
            calls.append(p)
            return 0

        monkeypatch.setattr(quotient, "rank_mod", deficient)
        handed = []

        def integer_rank(matrix):
            handed.append(matrix)
            return rank(matrix)

        monkeypatch.setattr(quotient, "rank", integer_rank)
        d = derived_of(text)
        assert certify_genericity(d, cusp_algebra(d)) is verdict
        assert len(calls) == 1
        # the exact fallback sees the integer columns of the block, no Fractions
        assert len(handed) == 1
        assert all(type(v) is int for row in handed[0] for v in row)


class TestCensus:
    def test_two_cusp_full_census(self, two_cusp_run):
        c = two_cusp_run.census
        assert c.dim == 2
        assert c.basis == (Monomial(0, 0), Monomial(0, 1))
        assert (c.sig1, c.sig2, c.sig3, c.sig4) == (2, -2, 0, 0)
        assert c.total_cusps == 2
        assert c.sum_of_degrees == -2
        assert (c.positive_cusps, c.negative_cusps) == (0, 2)
        assert (c.region.positive, c.region.negative) == (0, 1)

    def test_identity_zero_census(self):
        c = census(parse_problem(IDENTITY_TEXT))
        assert c.dim == 0
        assert c.total_cusps == 0
        assert (c.positive_cusps, c.negative_cusps) == (0, 0)
        assert c.sig3 is None and c.region is None

    def test_fold_only_map(self):
        c = census(parse_problem(FOLD_ONLY_TEXT))
        assert c.dim == 0
        assert c.total_cusps == 0

    def test_non_generic_map_raises(self):
        with pytest.raises(GenericityNotCertified):
            census(parse_problem(NON_GENERIC_TEXT))

    def test_region_optional(self):
        problem = parse_problem("f1 = x*y^2 - x^2 + y^2 + x - y\nf2 = x - y\n")
        c = census(problem)
        assert c.sig3 is None and c.sig4 is None and c.region is None
        assert c.total_cusps == 2

    def test_degree_guard_reaches_the_basis(self):
        # every line of the six-cusp map parses under 5; its jacobian has degree 8
        problem = parse_problem(SIX_CUSP_TEXT, degree_guard=5)
        with pytest.raises(DegreeGuardExceeded) as info:
            census(problem, degree_guard=5)
        assert str(info.value) == "degree 8 exceeds guard 5 during buchberger input"

    def test_degenerate_region_form(self):
        # u = x vanishes at the cusp (0,0), so the region form is degenerate:
        # the census returns its global counts and withholds the region counts
        problem = parse_problem(
            "f1 = x*y^2 - x^2 + y^2 + x - y\nf2 = x - y\nu = x\n")
        c = census(problem)
        assert isinstance(c, CuspCensus)
        assert c.region is None
        assert (c.sig3, c.sig4) == (-1, 1)
        assert c.total_cusps == 2
        assert (c.positive_cusps, c.negative_cusps) == (0, 2)

    def test_forms_reach_the_signature_as_integer_rows(self, monkeypatch):
        # the congruence gets each form's rows as they are, content and all,
        # without a copy
        forms, matrices = [], []
        congruence = signature._congruence_inertia

        def spy_form(*args):
            forms.append(quotient.form_matrix(*args))
            return forms[-1]

        def spy_congruence(matrix, *args):
            matrices.append(matrix)
            return congruence(matrix, *args)

        monkeypatch.setattr(pipeline, "form_matrix", spy_form)
        monkeypatch.setattr(signature, "_congruence_inertia", spy_congruence)
        census(parse_problem(EIGHT_CUSP_TEXT))
        assert len(matrices) == len(forms) == 4
        assert any(gcd(*(v for row in form.rows for v in row)) > 1 for form in forms)
        for form, matrix in zip(forms, matrices):
            assert matrix is form.rows

    def test_region_form_with_zero_diagonal(self, monkeypatch):
        # an odd map: Theta_3 has no nonzero diagonal entry to pivot on
        matrices = []

        def spy_signature(matrix):
            matrices.append(matrix)
            return signature_of(matrix)

        monkeypatch.setattr(pipeline, "signature_of", spy_signature)
        c = census(parse_problem("f1 = x^3 - 3*x*y^2 + 2*x + y^3\n"
                                 "f2 = x^3 + 2*y^3 - x*y^2 + y - x\nu = x\n"))
        assert c.dim == 16
        assert (c.sig1, c.sig2, c.sig3, c.sig4) == (4, 0, 0, 0)
        assert (c.region.positive, c.region.negative) == (1, 1)
        theta3 = matrices[2]
        assert not any(theta3[i][i] for i in range(16))
        assert signature_of(theta3) == signature_by_elimination(theta3)

    def test_identity_with_region(self):
        c = census(parse_problem("f1 = x\nf2 = y\nu = 1 - x^2 - y^2\n"))
        assert c.dim == 0
        assert (c.sig3, c.sig4) == (0, 0)
        assert (c.region.positive, c.region.negative) == (0, 0)


class TestCensusInvariants:
    def test_parity_and_bounds(self, two_cusp_run, eight_cusp_run, six_cusp_run):
        for run in (two_cusp_run, eight_cusp_run, six_cusp_run):
            c = run.census
            assert (c.sig1 + c.sig2) % 2 == 0
            assert (c.sig1 - c.sig2) % 2 == 0
            assert abs(c.sig2) <= c.sig1
            assert c.positive_cusps + c.negative_cusps == c.total_cusps
            assert c.positive_cusps - c.negative_cusps == c.sum_of_degrees
            if c.region is not None:
                assert 0 <= c.region.positive <= c.positive_cusps
                assert 0 <= c.region.negative <= c.negative_cusps

    def test_order_of_region_counts_matches_quarter_sums(self, eight_cusp_run):
        c = eight_cusp_run.census
        assert c.region.positive == (c.sig1 + c.sig2 + c.sig3 + c.sig4) // 4
        assert c.region.negative == (c.sig1 - c.sig2 + c.sig3 - c.sig4) // 4
