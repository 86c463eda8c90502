"""Buchberger, reduction and the ideal certificates."""

import random
from fractions import Fraction

import pytest

from cuspcount.errors import DegreeGuardExceeded, NotZeroDimensional
from cuspcount.exprio import parse_polynomial, parse_problem
from cuspcount.groebner import (MAX_DEGREE_GUARD, buchberger, is_zero_dimensional,
                                leading_monomial, normal_form, standard_monomials)
from cuspcount.pipeline import certify_genericity, derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y
from cuspcount.quotient import build_algebra
from conftest import (EIGHT_CUSP_TEXT, SIX_CUSP_TEXT, TWO_CUSP_TEXT, mono_divides,
                      random_polynomial)

ONE = Polynomial.constant(1)


def is_unit_ideal(gb):
    """True iff the reduced basis is {1}, i.e. the ideal is the whole ring."""
    return len(gb.generators) == 1 and gb.generators[0] == ONE


def gb_of(*texts, **kwargs):
    return buchberger([parse_polynomial(t) for t in texts], **kwargs)


def two_cusp_ideal():
    d = derive_system(parse_polynomial("x*y^2 - x^2 + y^2 + x - y"), X - Y)
    return [d.jac, d.vel1, d.vel2]


def two_cusp_genericity_ideal():
    d = derive_system(parse_polynomial("x*y^2 - x^2 + y^2 + x - y"), X - Y)
    return [d.jac, d.vel1, d.vel2, d.minor1, d.minor2]


class TestBuchberger:
    def test_already_reduced(self):
        gb = gb_of("x", "y")
        assert set(gb.generators) == {X, Y}

    def test_cusp_normal_form_ideal(self):
        gb = gb_of("x + 3*y^2", "-6*y", "x - 3*y^2")
        assert set(gb.generators) == {X, Y}

    def test_two_cusp_genericity_ideal_is_unit(self):
        gb = buchberger(two_cusp_genericity_ideal())
        assert gb.generators == (ONE,)

    def test_zero_generators_ignored(self):
        gb = buchberger([Polynomial.zero(), X, Polynomial.zero(), Y])
        assert set(gb.generators) == {X, Y}

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_all_zero_generators_give_zero_ideal(self):
        gb = buchberger([Polynomial.zero()])
        assert gb.generators == ()
        assert not is_unit_ideal(gb)

    def test_degree_guard(self):
        with pytest.raises(DegreeGuardExceeded):
            buchberger(two_cusp_ideal(), degree_guard=2)

    def test_degree_guard_keeps_lcms_inside_the_exponent_field(self):
        # leads of degree 2**15 whose S-pair lcm x^32768*y^32767 has degree 2**16 - 1
        top = MAX_DEGREE_GUARD
        gens = [X ** top + Y, X * Y ** (top - 1) + 1]
        gb = buchberger(gens, degree_guard=top)
        assert gb.generators == (Y ** top - X ** (top - 1), X * Y ** (top - 1) + 1, X ** top + Y)
        with pytest.raises(DegreeGuardExceeded):
            buchberger(gens, degree_guard=top - 1)
        with pytest.raises(ValueError, match="exceeds 32768"):
            buchberger([X, Y], degree_guard=top + 1)

    def test_output_is_monic_and_interreduced(self):
        gb = buchberger(two_cusp_ideal())
        leads = [leading_monomial(g) for g in gb.generators]
        for i, g in enumerate(gb.generators):
            assert g.terms[leads[i]] == 1
            for j, lead in enumerate(leads):
                if i != j:
                    assert not any(mono_divides(lead, m) for m in g.terms)


class TestNormalForm:
    def test_member_of_ideal(self):
        gb = gb_of("x", "y")
        assert normal_form(parse_polynomial("x^2 + y"), gb).is_zero()

    def test_constant_remainder(self):
        gb = gb_of("x", "y")
        assert normal_form(parse_polynomial("3 + x"), gb) == Polynomial.constant(3)

    def test_two_cusp_square_representative(self):
        gb = buchberger(two_cusp_ideal())
        residue = normal_form(Y * Y, gb)
        assert set(residue.terms) <= {Monomial(0, 0), Monomial(0, 1)}
        assert residue == 2 * Y


class TestUnitIdeal:
    def test_unit(self):
        assert is_unit_ideal(gb_of("5"))

    def test_not_unit(self):
        assert not is_unit_ideal(gb_of("x", "y"))

    def test_squares_map_genericity_fails(self):
        d = derive_system(X ** 2, Y ** 2)
        gb = buchberger([d.jac, d.vel1, d.vel2, d.minor1, d.minor2])
        assert not is_unit_ideal(gb)
        assert {leading_monomial(g) for g in gb.generators} == \
            {Monomial(2, 0), Monomial(1, 1), Monomial(0, 2)}


class TestStandardMonomials:
    def test_two_cusp_basis(self):
        gb = buchberger(two_cusp_ideal())
        assert standard_monomials(gb) == (Monomial(0, 0), Monomial(0, 1))

    def test_origin_only(self):
        assert standard_monomials(gb_of("x", "y")) == (Monomial(0, 0),)

    def test_unit_ideal_empty_basis(self):
        assert standard_monomials(gb_of("1")) == ()

    def test_positive_dimensional_rejected(self):
        with pytest.raises(NotZeroDimensional):
            standard_monomials(gb_of("x"))


class TestZeroDimensionality:
    def test_point(self):
        assert is_zero_dimensional(gb_of("x", "y"))

    def test_line(self):
        assert not is_zero_dimensional(gb_of("x"))


class TestMembershipSoundness:
    def test_multiples_of_generators_reduce_to_zero(self):
        rng = random.Random(20260)
        gb = buchberger(two_cusp_ideal())
        for _ in range(100):
            multiplier = random_polynomial(rng, 3, lo=-4, hi=4)
            index = rng.randrange(len(gb.generators))
            assert normal_form(multiplier * gb.generators[index], gb).is_zero()


PAPER_MAPS = {"two_cusps": TWO_CUSP_TEXT, "eight_cusps": EIGHT_CUSP_TEXT,
              "six_cusps": SIX_CUSP_TEXT}


def term_sets(generators):
    return {frozenset(g.terms.items()) for g in generators}


def sympy_basis(gens):
    """sympy's monic reduced grevlex basis of the ideal, as term sets."""
    from sympy import QQ
    from sympy.polys.groebnertools import groebner
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import ring

    R, _, _ = ring("x,y", QQ, grevlex)
    elements = [R({tuple(m): QQ(c.numerator, c.denominator) for m, c in g.terms.items()})
                for g in gens if not g.is_zero()]
    return {frozenset((Monomial(*m), Fraction(int(c.numerator), int(c.denominator)))
                      for m, c in g.terms())
            for g in groebner(elements, R)}


def five_generators(d):
    return [d.jac, d.vel1, d.vel2, d.minor1, d.minor2]


def census_verdict(d):
    """The census' genericity verdict and the case that decided it."""
    try:
        algebra = build_algebra(buchberger([d.jac, d.vel1, d.vel2]))
    except NotZeroDimensional:
        return False, "not zero-dimensional"
    verdict = certify_genericity(d, algebra)
    return verdict, "certified" if verdict else "rank-deficient"


def dense_polynomial(rng, degree, bound=5):
    """Every monomial up to degree, top-degree coefficients nonzero."""
    nonzero = [c for c in range(-bound, bound + 1) if c]
    return Polynomial({
        Monomial(ex, ey): rng.choice(nonzero) if ex + ey == degree
        else rng.randint(-bound, bound)
        for ex in range(degree + 1) for ey in range(degree + 1 - ex)})


def sparse_polynomial(rng, degree=3, bound=3):
    """Two or three random monomials of degree 1..degree."""
    monos = [Monomial(ex, ey) for ex in range(degree + 1)
             for ey in range(degree + 1 - ex) if ex + ey]
    nonzero = [c for c in range(-bound, bound + 1) if c]
    return Polynomial({m: rng.choice(nonzero)
                       for m in rng.sample(monos, rng.randint(2, 3))})


class TestSympyReference:
    """Reduced bases and genericity verdicts against sympy's Buchberger."""

    @pytest.mark.parametrize("name", PAPER_MAPS)
    def test_paper_cusp_ideal(self, name):
        problem = parse_problem(PAPER_MAPS[name])
        d = derive_system(problem.f1, problem.f2)
        gens = [d.jac, d.vel1, d.vel2]
        assert term_sets(buchberger(gens).generators) == sympy_basis(gens)

    def test_random_ideals(self):
        rng = random.Random(20300)
        for _ in range(200):
            gens = [random_polynomial(rng, rng.randint(1, 4), lo=-5, hi=5)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()] or [X + Y]
            assert term_sets(buchberger(gens).generators) == sympy_basis(gens)

    @pytest.mark.parametrize("fixture_name",
                             ["two_cusp_run", "eight_cusp_run", "six_cusp_run"])
    def test_paper_maps_are_certified_generic(self, request, fixture_name):
        run = request.getfixturevalue(fixture_name)  # its census passed the rank certificate
        d = derive_system(run.problem.f1, run.problem.f2)
        assert sympy_basis(five_generators(d)) == term_sets([ONE])

    def test_squares_map_is_not_certified(self):
        d = derive_system(X ** 2, Y ** 2)
        assert census_verdict(d) == (False, "rank-deficient")
        assert sympy_basis(five_generators(d)) == \
            term_sets(buchberger(five_generators(d)).generators)

    def test_random_map_verdicts(self):
        """The rank certificate agrees with the 5-generator unit-ideal test.

        Maps are shaped like the benchmark's random batch: dense of degrees
        (2,2), (3,2) and (3,3), and sparse with two or three monomials of
        degree at most 3; the sparse ones supply the rank-deficient and the
        not zero-dimensional cases.
        """
        rng = random.Random(20310)
        cases = {}
        for degrees, count in (((2, 2), 20), ((3, 2), 40), ((3, 3), 20), (None, 70)):
            for _ in range(count):
                if degrees is None:
                    f1, f2 = sparse_polynomial(rng), sparse_polynomial(rng)
                else:
                    f1, f2 = (dense_polynomial(rng, degree) for degree in degrees)
                d = derive_system(f1, f2)
                verdict, case = census_verdict(d)
                assert verdict == (sympy_basis(five_generators(d)) == term_sets([ONE])), \
                    (f1, f2)
                cases[case] = cases.get(case, 0) + 1
        assert set(cases) == {"certified", "rank-deficient", "not zero-dimensional"}
