"""Quotient algebra: multiplication matrices, traces and trace forms."""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from cuspcount.errors import NotZeroDimensional
from cuspcount.exprio import parse_polynomial
from cuspcount.groebner import GroebnerBasis, buchberger, normal_form
from cuspcount.pipeline import derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y
from cuspcount import quotient
from cuspcount.quotient import (_block_mod, build_algebra, form_matrix,
                                generates_algebra, mult_matrix)
from cuspcount.signature import prime_cap, primes
from conftest import random_polynomial

ONE = Polynomial.constant(1)


def trace_functional(algebra, h):
    """Trace of multiplication by h; linear in h and blind to ideal members."""
    m = mult_matrix(algebra, h)
    return sum(m[i][i] for i in range(len(m)))


@pytest.fixture(scope="module")
def two_cusp():
    d = derive_system(parse_polynomial("x*y^2 - x^2 + y^2 + x - y"), X - Y)
    gb = buchberger([d.jac, d.vel1, d.vel2])
    return d, gb, build_algebra(gb)


def frac_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def random_algebra(rng):
    """Quotient by two random generators of degree at most 4 (dimension 0-16);
    None when it is not finite."""
    gens = [random_polynomial(rng, rng.randint(1, 4), lo=-5, hi=5) for _ in range(2)]
    try:
        return build_algebra(buchberger([g for g in gens if not g.is_zero()] or [X]))
    except NotZeroDimensional:
        return None


class TestBuildAlgebra:
    def test_origin_point_algebra(self):
        algebra = build_algebra(buchberger([X, Y]))
        assert algebra.basis == (Monomial(0, 0),)
        assert algebra.mult_x == ((0,),)
        assert algebra.mult_y == ((0,),)

    def test_two_cusp_algebra(self, two_cusp):
        _, _, algebra = two_cusp
        assert algebra.basis == (Monomial(0, 0), Monomial(0, 1))
        # x = -2y and y*y = 2y modulo the ideal
        assert algebra.mult_x == frac_matrix([[0, 0], [-2, -4]])
        assert algebra.mult_y == frac_matrix([[0, 0], [1, 2]])

    def test_unit_ideal_gives_zero_algebra(self):
        algebra = build_algebra(buchberger([ONE]))
        assert algebra.basis == ()
        assert algebra.mult_x == ()

    def test_multiplication_matrices_commute(self, two_cusp):
        _, _, algebra = two_cusp
        mx, my = algebra.mult_x, algebra.mult_y

        def matmul(a, b):
            n = len(a)
            return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                               for j in range(n)) for i in range(n))

        assert matmul(mx, my) == matmul(my, mx)


class TestCertificate:
    def test_basis_must_generate_its_inputs(self):
        gb = GroebnerBasis((X * X - 2, Y), (X * X - 1, Y))
        with pytest.raises(RuntimeError, match="input generator 0"):
            build_algebra(gb)

    @pytest.mark.parametrize("gens", [
        (X * X - Y * Y, Y * Y),          # tail y^2 is a leading monomial
        (2 * X, Y),                      # not monic
    ])
    def test_basis_must_be_reduced(self, gens):
        with pytest.raises(RuntimeError, match="basis element 0"):
            build_algebra(GroebnerBasis(gens, gens))

    def test_multiplication_matrices_must_commute(self):
        # reduced and monic, its inputs reduce to 0 and its standard
        # monomials are 1, y, x; but x*(x*y) = y and y*(x*x) = 0 disagree
        gens = (X * X - Y, Y * Y, X * Y - 1)
        with pytest.raises(RuntimeError, match="fail to commute"):
            build_algebra(GroebnerBasis(gens, gens))


def coordinates_by_fractions(algebra, mono, cache):
    """Coordinates of a monomial by Fraction matrix-vector products with
    M_x and M_y, from the unit vectors of the basis up."""
    if not cache:
        n = algebra.dim
        cache.update({b: tuple(Fraction(int(j == i)) for j in range(n))
                      for i, b in enumerate(algebra.basis)})
        cache.setdefault(Monomial(0, 0), ())
    if mono not in cache:
        prev = Monomial(mono.ex - 1, mono.ey) if mono.ex else Monomial(mono.ex, mono.ey - 1)
        vec = coordinates_by_fractions(algebra, prev, cache)
        matrix = algebra.mult_x if mono.ex else algebra.mult_y
        cache[mono] = tuple(
            sum((row[c] * vec[c] for c in range(len(vec)) if vec[c]), Fraction(0))
            for row in matrix)
    return cache[mono]


def is_fraction_matrix(m, n):
    return (type(m) is tuple and len(m) == n
            and all(type(row) is tuple and len(row) == n
                    and all(type(v) is Fraction for v in row) for row in m))


class TestIntegerRepresentation:
    """The integer numerators over one denominator stand for the same
    Fractions as before, and the public matrices keep their types."""

    def test_coordinates_match_fraction_recursion(self):
        rng = random.Random(20702)
        dims = set()
        for _ in range(40):
            algebra = random_algebra(rng)
            if algebra is None:
                continue
            dims.add(algebra.dim)
            basis = algebra.basis
            monomials = {bi * bj for bi in basis for bj in basis}
            monomials |= {Monomial(a, d - a) for d in range(9) for a in range(d + 1)}
            cache = {}
            for mono in sorted(monomials):
                expected = coordinates_by_fractions(algebra, mono, cache)
                assert algebra.coordinates(mono) == expected
                assert all(type(v) is Fraction for v in algebra.coordinates(mono))
            # every cached vector is reduced, over a positive denominator
            for nums, den in algebra._vectors.values():
                assert den > 0 and gcd(den, *nums) == 1
            for rows, den in (algebra._mx, algebra._my):
                assert den > 0 and gcd(den, *(v for row in rows for v in row)) == 1
        assert min(dims) == 0 and max(dims) == 16

    def test_multiplication_matrices_are_normal_forms(self):
        rng = random.Random(20703)
        for _ in range(30):
            algebra = random_algebra(rng)
            if algebra is None:
                continue
            basis, n = algebra.basis, algebra.dim
            for matrix, var in ((algebra.mult_x, X), (algebra.mult_y, Y)):
                assert is_fraction_matrix(matrix, n)
                columns = [normal_form(var * Polynomial.monomial(b), algebra.gb)
                           for b in basis]
                assert matrix == tuple(tuple(columns[c].coefficient(basis[r])
                                             for c in range(n)) for r in range(n))

    def test_mult_matrix_equals_evaluation_at_generator_matrices(self):
        rng = random.Random(20704)

        def matmul(a, b):
            n = len(a)
            return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                               for j in range(n)) for i in range(n))

        checked = 0
        while checked < 25:
            algebra = random_algebra(rng)
            if algebra is None:
                continue
            n = algebra.dim
            identity = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                             for i in range(n))
            h = random_polynomial(rng, 3) + Polynomial({Monomial(1, 1): Fraction(-2, 3)})
            expected = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            for mono, coeff in h.terms.items():
                term = identity
                for _ in range(mono.ex):
                    term = matmul(term, algebra.mult_x)
                for _ in range(mono.ey):
                    term = matmul(term, algebra.mult_y)
                expected = tuple(tuple(e + coeff * t for e, t in zip(er, tr))
                                 for er, tr in zip(expected, term))
            result = mult_matrix(algebra, h)
            assert is_fraction_matrix(result, n)
            assert result == expected
            checked += 1


class TestMultMatrix:
    def test_one_gives_identity(self, two_cusp):
        _, _, algebra = two_cusp
        assert mult_matrix(algebra, ONE) == frac_matrix([[1, 0], [0, 1]])

    def test_trace_of_y_multiplication(self, two_cusp):
        _, _, algebra = two_cusp
        m = mult_matrix(algebra, Y)
        assert m[0][0] + m[1][1] == 2

    def test_ideal_members_annihilate(self, two_cusp):
        d, _, algebra = two_cusp
        zero = frac_matrix([[0, 0], [0, 0]])
        assert mult_matrix(algebra, d.jac) == zero
        assert mult_matrix(algebra, (X + Y) * d.vel1) == zero

    def test_equals_evaluation_at_generator_matrices(self, two_cusp):
        _, _, algebra = two_cusp
        rng = random.Random(20275)

        def matmul(a, b):
            n = len(a)
            return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                               for j in range(n)) for i in range(n))

        n = len(algebra.basis)
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                         for i in range(n))
        for _ in range(50):
            h = random_polynomial(rng, 4)
            expected = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            for mono, coeff in h.terms.items():
                term = identity
                for _ in range(mono.ex):
                    term = matmul(term, algebra.mult_x)
                for _ in range(mono.ey):
                    term = matmul(term, algebra.mult_y)
                expected = tuple(tuple(e + coeff * t for e, t in zip(er, tr))
                                 for er, tr in zip(expected, term))
            assert mult_matrix(algebra, h) == expected

    def test_algebra_homomorphism(self, two_cusp):
        _, _, algebra = two_cusp
        rng = random.Random(20270)

        def matmul(a, b):
            n = len(a)
            return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                               for j in range(n)) for i in range(n))

        def matadd(a, b):
            return tuple(tuple(x + y for x, y in zip(ra, rb))
                         for ra, rb in zip(a, b))

        for _ in range(200):
            p = random_polynomial(rng, 4)
            q = random_polynomial(rng, 4)
            assert mult_matrix(algebra, p * q) == \
                matmul(mult_matrix(algebra, p), mult_matrix(algebra, q))
            assert mult_matrix(algebra, p + q) == \
                matadd(mult_matrix(algebra, p), mult_matrix(algebra, q))


class TestTraceFunctional:
    def test_fixed_values(self, two_cusp):
        _, _, algebra = two_cusp
        assert trace_functional(algebra, ONE) == 2
        assert trace_functional(algebra, Y) == 2
        assert trace_functional(algebra, Y * Y) == 4
        assert trace_functional(algebra, Polynomial.zero()) == 0

    def test_blind_to_ideal_members(self, two_cusp):
        d, _, algebra = two_cusp
        rng = random.Random(20271)
        for _ in range(100):
            h = random_polynomial(rng, 4)
            member = random_polynomial(rng, 2) * d.jac + \
                random_polynomial(rng, 2) * d.vel2
            assert trace_functional(algebra, h + member) == \
                trace_functional(algebra, h)


class TestFormMatrix:
    def test_counting_form(self, two_cusp):
        _, _, algebra = two_cusp
        form = form_matrix(algebra, ONE)
        assert form.matrix == frac_matrix([[2, 2], [2, 4]])

    def test_orientation_form(self, two_cusp):
        d, gb, algebra = two_cusp
        form = form_matrix(algebra, normal_form(d.vel_jac, gb))
        assert form.matrix == frac_matrix([[-48, -48], [-48, -96]])

    def test_region_forms(self, two_cusp):
        d, gb, algebra = two_cusp
        u = parse_polynomial("1 - x^2 - y^2")
        region = form_matrix(algebra, normal_form(u, gb))
        assert region.matrix == frac_matrix([[-18, -38], [-38, -76]])
        combined = form_matrix(algebra, normal_form(u * d.vel_jac, gb))
        assert combined.matrix == frac_matrix([[24 * 18, 24 * 38], [24 * 38, 24 * 76]])

    def test_symmetry(self, two_cusp):
        d, gb, algebra = two_cusp
        rng = random.Random(20273)
        for _ in range(50):
            delta = random_polynomial(rng, 4)
            m = form_matrix(algebra, delta).matrix
            assert all(m[i][j] == m[j][i]
                       for i in range(len(m)) for j in range(len(m)))

    def test_quadratic_form_consistency(self, two_cusp):
        # the matrix applied to the coordinates of a class equals the trace
        # of delta times the square of that class
        d, gb, algebra = two_cusp
        rng = random.Random(20274)
        for _ in range(100):
            delta = random_polynomial(rng, 3)
            matrix = form_matrix(algebra, delta).matrix
            a = random_polynomial(rng, 3)
            residue = normal_form(a, gb)
            coords = [residue.coefficient(b) for b in algebra.basis]
            quadratic = sum(coords[i] * matrix[i][j] * coords[j]
                            for i in range(len(coords))
                            for j in range(len(coords)))
            assert quadratic == trace_functional(algebra, delta * a * a)

    def test_equals_per_entry_traces(self):
        # entry (i, j) is by definition the trace of delta * b_i * b_j
        rng = random.Random(20420)
        dims = set()
        for _ in range(40):
            algebra = random_algebra(rng)
            if algebra is None:
                continue
            dims.add(algebra.dim)
            fresh = build_algebra(algebra.gb)  # caches the form builder never saw
            for delta in (random_polynomial(rng, 4, lo=-9, hi=9),
                          normal_form(random_polynomial(rng, 4), algebra.gb)):
                products = {bi * bj for bi in algebra.basis for bj in algebra.basis}
                traces = {m: trace_functional(fresh, delta * Polynomial.monomial(m))
                          for m in products}
                expected = tuple(tuple(traces[bi * bj] for bj in algebra.basis)
                                 for bi in algebra.basis)
                form = form_matrix(algebra, delta)
                assert form.matrix == expected
                assert form.denominator > 0
                assert gcd(form.denominator, *(v for row in form.rows for v in row)) == 1
                assert form.matrix == tuple(
                    tuple(Fraction(v, form.denominator) for v in row) for row in form.rows)
        assert min(dims) == 0 and max(dims) == 16


class TestGeneratesAlgebra:
    def test_modular_block_is_the_exact_block_mod_p(self):
        """_block_mod is [M_h1 | M_h2] of mult_matrix, reduced modulo p."""
        rng = random.Random(20330)
        p = 268435399
        checked = 0
        while checked < 40:
            gens = [random_polynomial(rng, rng.randint(1, 3), lo=-5, hi=5)
                    for _ in range(3)]
            try:
                algebra = build_algebra(buchberger([g for g in gens if not g.is_zero()]
                                                   or [X]))
            except NotZeroDimensional:
                continue
            if not algebra.dim:  # generates_algebra answers n = 0 by itself
                continue
            hs = [normal_form(random_polynomial(rng, 3), algebra.gb) for _ in range(2)]
            exact = [mult_matrix(algebra, h) for h in hs]
            expected = [[v.numerator * pow(v.denominator, -1, p) % p
                         for m in exact for v in m[i]] for i in range(algebra.dim)]
            assert _block_mod(algebra, hs, p).tolist() == expected
            checked += 1

    @pytest.mark.parametrize("h, verdict", [(ONE, True), (X, False)])
    def test_prime_dividing_a_denominator_is_skipped(self, two_cusp, monkeypatch, h, verdict):
        """A prime that divides a reduced polynomial's denominator comes first
        in the stream; generates_algebra passes over it to the next prime and
        keeps its verdict.  x vanishes at the cusp (0, 0), so it generates
        nothing."""
        _, gb, algebra = two_cusp
        bad = 1000003
        hs = [normal_form(h * Polynomial.constant(Fraction(1, bad)), gb)]
        assert hs[0].denominator % bad == 0
        assert generates_algebra(algebra, hs) is verdict
        monkeypatch.setattr(quotient, "primes", lambda cap: chain([bad], primes(cap)))
        tried = []

        def spy(algebra, reduced, p):
            tried.append(p)
            return _block_mod(algebra, reduced, p)

        monkeypatch.setattr(quotient, "_block_mod", spy)
        assert generates_algebra(algebra, hs) is verdict
        assert tried == [next(primes(prime_cap(algebra.dim)))]
