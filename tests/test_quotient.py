"""Quotient algebra: multiplication matrices, traces and trace forms."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

import pytest

from cuspcount.errors import NotZeroDimensional
from cuspcount.exprio import parse_polynomial, parse_problem
from cuspcount.groebner import GroebnerBasis, buchberger, normal_form, standard_monomials
from cuspcount.pipeline import derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y, unpack
from cuspcount import quotient
from cuspcount.quotient import _block, _commute, build_algebra, form_matrix, generates_algebra
from cuspcount.signature import prime_cap, primes, rank
from conftest import (EIGHT_CUSP_TEXT, SIX_CUSP_TEXT, TWO_CUSP_TEXT, grevlex_key, mono_mul,
                      random_polynomial)

ONE = Polynomial.constant(1)


def mult_matrix(algebra, h):
    """Matrix of multiplication by h on the quotient, in the standard basis.

    Equals the evaluation of h at the pair of generator matrices; h is
    reduced first, so any member of the ideal yields the zero matrix.
    """
    columns = reference_mult_columns(algebra, normal_form(h, algebra.gb))
    return tuple(zip(*([Fraction(v, den) for v in col] for col, den in columns)))


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


def fractions_of(scaled):
    """The Fraction matrix of integer rows over one denominator, such as
    `algebra.mx` and `algebra.my`."""
    rows, den = scaled
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


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
        assert fractions_of(algebra.mx) == ((0,),)
        assert fractions_of(algebra.my) == ((0,),)

    def test_two_cusp_algebra(self, two_cusp):
        _, _, algebra = two_cusp
        assert algebra.basis == (Monomial(0, 0), Monomial(0, 1))
        # x = -2y and y*y = 2y modulo the ideal
        assert fractions_of(algebra.mx) == frac_matrix([[0, 0], [-2, -4]])
        assert fractions_of(algebra.my) == frac_matrix([[0, 0], [1, 2]])

    def test_unit_ideal_gives_zero_algebra(self):
        algebra = build_algebra(buchberger([ONE]))
        assert algebra.basis == ()
        assert fractions_of(algebra.mx) == ()

    def test_multiplication_matrices_commute(self, two_cusp):
        _, _, algebra = two_cusp
        mx, my = fractions_of(algebra.mx), fractions_of(algebra.my)

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

    def test_sparse_commutation_check_agrees_with_full_rows(self):
        """A commuting integer pair (X, Y), and copies that differ from it in
        one entry of a column with more than one nonzero and at least one
        zero, which the sparse check skips: `_commute` accepts exactly the
        pairs whose products by full rows agree."""
        rng = random.Random(20723)
        pairs = []
        for text in (EIGHT_CUSP_TEXT, SIX_CUSP_TEXT):
            algebra = cusp_algebra_of(text)[1]
            pairs.append((algebra.mx[0], algebra.my[0]))
        while len(pairs) < 12:
            # polynomials in one sparse integer matrix commute
            n = rng.randint(3, 8)
            a = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)] for _ in range(n)]
            a2 = dense_product(a, a)
            pairs.append((a2, [[3 * u - v for u, v in zip(r, s)]
                               for r, s in zip(a, dense_product(a2, a))]))
        rejected = 0
        for x, y in pairs:
            n = len(x)
            assert _commute(sparse_columns(x), sparse_columns(y), n)
            assert dense_product(x, y) == dense_product(y, x)
            for matrix in (x, y):
                for j in range(n):
                    column = [row[j] for row in matrix]
                    if sum(map(bool, column)) < 2 or all(column):
                        continue
                    for r in (rng.choice([r for r, v in enumerate(column) if v]),
                              rng.choice([r for r, v in enumerate(column) if not v])):
                        planted = [list(row) for row in matrix]
                        planted[r][j] += rng.choice((-1, 1)) * rng.randint(1, 7)
                        px, py = (planted, y) if matrix is x else (x, planted)
                        dense = dense_product(px, py) == dense_product(py, px)
                        assert _commute(sparse_columns(px), sparse_columns(py), n) is dense
                        rejected += not dense
        assert rejected > 100


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
        matrix = fractions_of(algebra.mx if mono.ex else algebra.my)
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
            monomials = {mono_mul(bi, bj) for bi in basis for bj in basis}
            monomials |= {Monomial(a, d - a) for d in range(9) for a in range(d + 1)}
            cache = {}
            for mono in sorted(monomials):
                residue = normal_form(Polynomial.monomial(mono), algebra.gb)
                assert tuple(residue.coefficient(b) for b in basis) == \
                    coordinates_by_fractions(algebra, mono, cache)
            # every table vector is the recursion's, reduced, over a positive denominator
            for key, (nums, den) in algebra.products.items():
                assert tuple(Fraction(v, den) for v in nums) == \
                    coordinates_by_fractions(algebra, unpack(key), cache)
                assert den > 0 and gcd(den, *nums) == 1
            for rows, den in (algebra.mx, algebra.my):
                assert den > 0 and gcd(den, *(v for row in rows for v in row)) == 1
        assert min(dims) == 0 and max(dims) == 16

    def test_multiplication_matrices_are_normal_forms(self):
        rng = random.Random(20703)
        for _ in range(30):
            algebra = random_algebra(rng)
            if algebra is None:
                continue
            basis, n = algebra.basis, algebra.dim
            for matrix, var in ((fractions_of(algebra.mx), X), (fractions_of(algebra.my), Y)):
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
            mx, my = fractions_of(algebra.mx), fractions_of(algebra.my)
            identity = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                             for i in range(n))
            h = random_polynomial(rng, 3) + Polynomial({Monomial(1, 1): Fraction(-2, 3)})
            expected = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            for mono, coeff in h.terms.items():
                term = identity
                for _ in range(mono.ex):
                    term = matmul(term, mx)
                for _ in range(mono.ey):
                    term = matmul(term, my)
                expected = tuple(tuple(e + coeff * t for e, t in zip(er, tr))
                                 for er, tr in zip(expected, term))
            result = mult_matrix(algebra, h)
            assert is_fraction_matrix(result, n)
            assert result == expected
            checked += 1


def dense_product(a, b):
    """The integer matrix product AB by full rows."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def sparse_columns(rows):
    """The nonzero entries (row, value) of each column of an integer matrix."""
    return [tuple((r, row[j]) for r, row in enumerate(rows) if row[j])
            for j in range(len(rows))]


def cusp_algebra_of(text):
    """The derived system of a map and the quotient algebra its census builds."""
    problem = parse_problem(text)
    d = derive_system(problem.f1, problem.f2)
    return d, build_algebra(buchberger([d.jac, d.vel1, d.vel2]))


class TestProductTable:
    """build_algebra computes the coordinates of every product of two basis
    monomials, and nothing computes anything into an algebra afterwards."""

    def test_vectors_are_normal_forms(self):
        rng = random.Random(20702)
        algebras = [cusp_algebra_of(SIX_CUSP_TEXT)[1]]
        algebras += [a for a in (random_algebra(rng) for _ in range(40)) if a is not None]
        assert {a.dim for a in algebras} >= {0, 16, 56}
        for algebra in algebras:
            basis = algebra.basis
            assert set(map(unpack, algebra.products)) == \
                {mono_mul(bi, bj) for bi in basis for bj in basis}
            for key, (nums, den) in algebra.products.items():
                residue = normal_form(Polynomial.monomial(unpack(key)), algebra.gb)
                assert tuple(Fraction(v, den) for v in nums) == \
                    tuple(residue.coefficient(b) for b in basis)

    @pytest.mark.parametrize("text", [TWO_CUSP_TEXT, SIX_CUSP_TEXT], ids=["two_cusp", "six_cusp"])
    def test_readers_leave_the_algebra_as_built(self, text):
        d, algebra = cusp_algebra_of(text)
        built = dict(vars(algebra))
        products, traces = dict(algebra.products), dict(algebra.traces[0])
        pairs = [list(row) for row in algebra.pairs]
        form_matrix(algebra, d.vel_jac)
        mult_matrix(algebra, d.minor1 * X)
        assert generates_algebra(algebra, (d.minor1, d.minor2))
        assert vars(algebra).keys() == built.keys()
        assert all(vars(algebra)[k] is v for k, v in built.items())
        assert algebra.products == products and algebra.traces[0] == traces
        # the pair table is immutable, and its positions still index both
        # tables, whose keys keep their order
        assert type(algebra.pairs) is tuple and all(type(row) is tuple for row in algebra.pairs)
        assert [list(row) for row in algebra.pairs] == pairs
        assert list(algebra.products) == list(products) == list(algebra.traces[0])


def reference_algebra(gb):
    """(XY == YX, mx, my, products, traces) by the dense formulas: every
    column of M_x and M_y the normal form of x*b or y*b, XY and YX by full
    rows, each product of two basis monomials by a dense matrix-vector
    product from the one a degree below it, and each trace by keyed
    lookups of the products b_k*b_j."""
    basis = standard_monomials(gb)
    n = len(basis)

    def matrix(var):
        columns = [normal_form(var * Polynomial.monomial(b), gb) for b in basis]
        den = lcm(*(c.denominator for c in columns))
        rows = tuple(tuple(c.numerators.get(b, 0) * (den // c.denominator) for c in columns)
                     for b in basis)
        return rows, den

    mx, my = matrix(X), matrix(Y)
    commute = dense_product(mx[0], my[0]) == dense_product(my[0], mx[0])
    units = {b: (tuple(int(j == i) for j in range(n)), 1) for i, b in enumerate(basis)}
    products = dict(units)
    for m in sorted({mono_mul(bi, bj) for bi in basis for bj in basis} - units.keys(),
                    key=grevlex_key):
        rows, dm = mx if m.ex else my
        nums, den = products[Monomial(m.ex - 1, m.ey) if m.ex else Monomial(m.ex, m.ey - 1)]
        product = [sum(map(mul, row, nums)) for row in rows]
        g = gcd(den * dm, *product)
        products[m] = tuple(v // g for v in product), den * dm // g
    den = lcm(*(d for _, d in products.values()))
    tau = [sum(nums[j] * (den // d) for j, (nums, d) in
               enumerate(products[mono_mul(b, other)] for other in basis)) for b in basis]
    return commute, mx, my, products, reference_contract(tau, den, products)


def unpacked(table):
    """A table of the algebra, keyed by the packed ints of its monomials,
    keyed by the `Monomial`s instead, in the same order."""
    return {unpack(key): value for key, value in table.items()}


def reference_contract(weights, weight_den, products):
    """w . c for w = weights/weight_den and every product's coordinates c,
    keyed by the product, as gcd-reduced integers over one denominator."""
    den = lcm(*(d for _, d in products.values()))
    entries = {m: sum(map(mul, weights, nums)) * (den // d)
               for m, (nums, d) in products.items()}
    den *= weight_den
    g = gcd(den, *entries.values())
    return {m: v // g for m, v in entries.items()}, den // g


def reference_form(algebra, delta):
    """(rows, denominator) of the trace form of delta, its weights read off
    the trace table by the key mono*b of every term of delta and every basis
    monomial b, and entry (i, j) by the key b_i*b_j."""
    basis = algebra.basis
    traces, trace_den = unpacked(algebra.traces[0]), algebra.traces[1]
    residue = normal_form(delta, algebra.gb)
    weights = [sum(c * traces[mono_mul(mono, b)] for mono, c in residue.numerators.items())
               for b in basis]
    entries, den = reference_contract(weights, trace_den * residue.denominator,
                                      unpacked(algebra.products))
    return tuple(tuple(entries[mono_mul(bi, bj)] for bj in basis) for bi in basis), den


def reference_mult_columns(algebra, residue):
    """Columns of M_h for h in normal form, summing the products keyed by
    mono*b for every term of h and every basis monomial b."""
    columns = []
    products = unpacked(algebra.products)
    for b in algebra.basis:
        parts = [(c, products[mono_mul(mono, b)]) for mono, c in residue.numerators.items()]
        den = lcm(*(d for _, (_, d) in parts))
        col = [0] * algebra.dim
        for c, (nums, d) in parts:
            col = [a + c * (den // d) * v for a, v in zip(col, nums)]
        columns.append((tuple(col), den * residue.denominator))
    return columns


def assert_equals_reference(algebra, deltas):
    commute, mx, my, products, (traces, trace_den) = reference_algebra(algebra.gb)
    assert commute
    assert algebra.mx == mx and algebra.my == my
    assert unpacked(algebra.products) == products
    assert (unpacked(algebra.traces[0]), algebra.traces[1]) == (traces, trace_den)
    # one order for both tables, and the pair table locates every product in it
    keys = tuple(map(unpack, algebra.products))
    assert tuple(map(unpack, algebra.traces[0])) == keys
    assert keys[:algebra.dim] == algebra.basis
    assert algebra.pairs == tuple(tuple(keys.index(mono_mul(bi, bj)) for bj in algebra.basis)
                                  for bi in algebra.basis)
    for delta in deltas:
        form = form_matrix(algebra, delta)
        assert (form.rows, form.denominator) == reference_form(algebra, delta)


class TestDenseReference:
    """build_algebra and form_matrix, which work on nonzero entries and on
    positions, equal the dense formulas entry for entry."""

    @pytest.mark.parametrize("text", [TWO_CUSP_TEXT, EIGHT_CUSP_TEXT, SIX_CUSP_TEXT],
                             ids=["two_cusp", "eight_cusp", "six_cusp"])
    def test_paper_maps(self, text):
        problem = parse_problem(text)
        d, algebra = cusp_algebra_of(text)
        gb = algebra.gb
        vel_jac, u = normal_form(d.vel_jac, gb), normal_form(problem.u, gb)
        assert_equals_reference(algebra, (ONE, vel_jac, u, normal_form(u * vel_jac, gb)))

    def test_random_algebras(self):
        rng = random.Random(20724)
        dims = set()
        for _ in range(40):
            algebra = random_algebra(rng)
            if algebra is None:
                continue
            dims.add(algebra.dim)
            assert_equals_reference(algebra, (ONE, random_polynomial(rng, 4, lo=-9, hi=9),
                                              normal_form(random_polynomial(rng, 4),
                                                          algebra.gb)))
        assert min(dims) == 0 and max(dims) == 16


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
        mx, my = fractions_of(algebra.mx), fractions_of(algebra.my)
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                         for i in range(n))
        for _ in range(50):
            h = random_polynomial(rng, 4)
            expected = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            for mono, coeff in h.terms.items():
                term = identity
                for _ in range(mono.ex):
                    term = matmul(term, mx)
                for _ in range(mono.ey):
                    term = matmul(term, my)
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
            for delta in (random_polynomial(rng, 4, lo=-9, hi=9),
                          normal_form(random_polynomial(rng, 4), algebra.gb)):
                products = {mono_mul(bi, bj) for bi in algebra.basis for bj in algebra.basis}
                traces = {m: trace_functional(algebra, delta * Polynomial.monomial(m))
                          for m in products}
                expected = tuple(tuple(traces[mono_mul(bi, bj)] for bj in algebra.basis)
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
        """Column (h, b) of _block without a prime, for b = x^i y^j, is
        column b of mult_matrix(h) times h.denominator * dx**i * dy**j, in
        Python ints; with a prime p it is that column modulo p, also for
        primes that divide those denominators: the eight-cusp map's dx is
        divisible by 2, 3 and 23."""
        rng = random.Random(20330)
        d, eight = cusp_algebra_of(EIGHT_CUSP_TEXT)
        assert all(eight.mx[1] % p == 0 for p in (2, 3, 23))
        cases = [(eight, [normal_form(h, eight.gb) for h in (d.minor1, d.minor2)])]
        while len(cases) < 41:
            gens = [random_polynomial(rng, rng.randint(1, 3), lo=-5, hi=5)
                    for _ in range(3)]
            try:
                algebra = build_algebra(buchberger([g for g in gens if not g.is_zero()]
                                                   or [X]))
            except NotZeroDimensional:
                continue
            if algebra.dim:  # generates_algebra answers n = 0 by itself
                cases.append((algebra, [normal_form(random_polynomial(rng, 3), algebra.gb)
                                        for _ in range(2)]))
        for algebra, hs in cases:
            (_, dx), (_, dy) = algebra.mx, algebra.my
            columns = []
            for h in hs:
                exact = mult_matrix(algebra, h)
                for j, b in enumerate(algebra.basis):
                    scale = h.denominator * dx ** b.ex * dy ** b.ey
                    column = [row[j] * scale for row in exact]
                    assert all(v.denominator == 1 for v in column)
                    columns.append([int(v) for v in column])
            exact = _block(algebra, hs)
            assert exact.T.tolist() == columns
            assert {type(v) for v in exact.flat} == {int}
            for p in (2, 3, 23, next(primes(prime_cap(algebra.dim)))):
                assert _block(algebra, hs, p).T.tolist() == \
                    [[v % p for v in column] for column in columns]

    @pytest.mark.parametrize("h, verdict", [(ONE, True), (X, False)])
    def test_prime_dividing_a_denominator_is_used(self, two_cusp, monkeypatch, h, verdict):
        """A prime that divides a reduced polynomial's denominator comes first
        in the stream; generates_algebra reduces the block modulo it and keeps
        its verdict.  The numerators of 1/p are those of 1, so the block has
        full rank modulo p; x vanishes at the cusp (0, 0), so it generates
        nothing, which the exact rank of the same block, built without a
        prime, decides."""
        _, gb, algebra = two_cusp
        bad = 1000003
        hs = [normal_form(h * Polynomial.constant(Fraction(1, bad)), gb)]
        assert hs[0].denominator % bad == 0
        assert generates_algebra(algebra, hs) is verdict
        monkeypatch.setattr(quotient, "primes", lambda cap: chain([bad], primes(cap)))
        tried = []

        def spy(algebra, reduced, p=None):
            tried.append(p)
            return _block(algebra, reduced, p)

        monkeypatch.setattr(quotient, "_block", spy)
        assert generates_algebra(algebra, hs) is verdict
        assert tried == ([bad] if verdict else [bad, None])

    def test_needs_no_product_pair_or_trace_table(self, two_cusp, monkeypatch):
        """Genericity reads only M_x and M_y: with the product, pair and
        trace tables set to None, generates_algebra gives the verdict of the
        exact rank of the reference columns, on the paper maps, on random
        algebras, and when a first prime dividing denominators sends
        full-rank cases to the exact rank.  Over the ideal (p*q, r), q
        vanishes at the common zeros of q and r, so it seldom generates."""
        rng = random.Random(20828)
        cases = []
        for text in (TWO_CUSP_TEXT, EIGHT_CUSP_TEXT, SIX_CUSP_TEXT):
            d, algebra = cusp_algebra_of(text)
            cases.append((algebra, (d.minor1, d.minor2)))
        cases.append((two_cusp[2], (X,)))
        while len(cases) < 40:
            p, q, r = (random_polynomial(rng, rng.randint(1, 2), lo=-3, hi=3) for _ in range(3))
            try:
                algebra = build_algebra(buchberger([g for g in (p * q, r) if not g.is_zero()]
                                                   or [X]))
            except NotZeroDimensional:
                continue
            if algebra.dim:
                cases.append((algebra, [q] if len(cases) % 2 else [p + q, p * r + 1]))
        expected = []
        for algebra, hs in cases:
            columns = [col for h in hs
                       for col, _ in reference_mult_columns(algebra, normal_form(h, algebra.gb))]
            expected.append(rank(columns) == algebra.dim)
        assert True in expected and False in expected
        bare = [(replace(algebra, products=None, pairs=None, traces=None), hs)
                for algebra, hs in cases]
        assert [generates_algebra(algebra, hs) for algebra, hs in bare] == expected
        # modulo 2, which divides many of the denominators, some full-rank
        # blocks fall short, and the exact block decides them
        monkeypatch.setattr(quotient, "primes", lambda cap: chain([2], primes(cap)))
        exact = []
        monkeypatch.setattr(quotient, "rank", lambda m: exact.append(m) or rank(m))
        assert [generates_algebra(algebra, hs) for algebra, hs in bare] == expected
        assert len(exact) > expected.count(False)
