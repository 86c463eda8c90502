"""Signature machinery: char poly against a brute-force oracle and sympy,
Descartes counts, Sylvester invariance, and agreement with the elimination
route."""

import math
import random
from fractions import Fraction
from math import gcd
from itertools import permutations

import numpy as np
import pytest

from cuspcount.errors import NotSymmetric
from cuspcount.signature import (_PRIME_CHUNK, SignatureResult, _char_poly_crt,
                                 _coefficient_bound_bits, _crt_symmetric, _prime_pool,
                                 _scaled_integer_matrix, char_poly, prime_cap, rank,
                                 rank_mod, signature_of)
from elimination import signature_by_elimination


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def brute_force_char_poly(matrix):
    """det(lambda*I - M) by Leibniz expansion over permutations; oracle for n <= 6."""
    n = len(matrix)
    total = [Fraction(0)] * (n + 1)
    for perm in permutations(range(n)):
        prod = [Fraction(1)]
        for i in range(n):
            if perm[i] == i:
                prod = _poly_mul(prod, [-Fraction(matrix[i][i]), Fraction(1)])
            else:
                prod = [-Fraction(matrix[i][perm[i]]) * c for c in prod]
        sign = _perm_sign(perm)
        for k, c in enumerate(prod):
            total[k] += sign * c
    return tuple(reversed(total))


def random_symmetric(rng, n, lo=-9, hi=9, singular_bias=False):
    m = [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[j][i] = m[i][j]
    if singular_bias and n >= 2 and rng.random() < 0.4:
        # duplicate a row and column to force rank deficiency
        src, dst = 0, n - 1
        for k in range(n):
            m[dst][k] = m[src][k]
        for k in range(n):
            m[k][dst] = m[k][src]
        m[dst][dst] = m[src][src]
    return m


class TestCharPoly:
    def test_two_by_two(self):
        assert char_poly([[4, 2], [2, 2]]) == (1, -6, 4)

    def test_zero_one_by_one(self):
        assert char_poly([[0]]) == (1, 0)

    def test_empty_matrix(self):
        assert char_poly([]) == (1,)

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
        assert char_poly(m) == brute_force_char_poly(m)

    def test_against_brute_force(self):
        rng = random.Random(20280)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_symmetric(rng, n)
            assert char_poly(m) == brute_force_char_poly(m)

    def test_non_symmetric_input_still_exact(self):
        rng = random.Random(20281)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            assert char_poly(m) == brute_force_char_poly(m)

    def test_modular_route_matches_trace_recursion(self):
        """The multimodular route against sympy's characteristic polynomial."""
        from sympy import Matrix

        rng = random.Random(20282)

        def symmetric(n, entry):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = entry()
            return m

        cases = [("dim 13-16", symmetric(rng.randint(13, 16), lambda: rng.randint(-50, 50)
                                         * 10 ** rng.randint(0, 9))) for _ in range(10)]
        # entries of about 1100 bits, the size of the paper's trace forms
        cases += [(f"dim {n}, 1100-bit", symmetric(n, lambda: rng.randint(-2 ** 1100, 2 ** 1100)))
                  for n in range(1, 13)]
        # zero subdiagonal entries make the Hessenberg reduction swap rows
        # or meet a zero pivot
        for n in range(3, 11):
            m = symmetric(n, lambda: rng.randint(-9, 9) if rng.random() < 0.3 else 0)
            m[0][1] = m[1][0] = 0
            m[0][2] = m[2][0] = 7
            cases.append((f"dim {n}, sparse", m))
        cases.append(("block diagonal", [[2, 0, 0, 0], [0, 3, 1, 0], [0, 1, 0, 0], [0, 0, 0, 5]]))
        # a bound beyond one chunk of primes, with a short last chunk
        chunked = symmetric(4, lambda: rng.randint(-2 ** 2000, 2 ** 2000))
        primes = _prime_pool(prime_cap(4), _coefficient_bound_bits(chunked, 4) + 1)
        assert len(primes) > _PRIME_CHUNK and len(primes) % _PRIME_CHUNK
        cases.append(("several prime chunks", chunked))
        for label, m in cases:
            assert _char_poly_crt(m) == Matrix(m).charpoly().all_coeffs(), label

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2]])


class TestSignatureOf:
    def test_positive_definite(self):
        result = signature_of([[4, 2], [2, 2]])
        assert result == SignatureResult(2, 2, 2, 0, True)

    def test_negative_definite(self):
        assert signature_of([[-96, -48], [-48, -48]]).signature == -2

    def test_indefinite_nondegenerate(self):
        result = signature_of([[-76, -38], [-38, -18]])
        assert result.signature == 0
        assert result.nondegenerate

    def test_degenerate_diag(self):
        result = signature_of([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        assert result == SignatureResult(0, 2, 1, 1, False)

    def test_empty_form(self):
        assert signature_of([]) == SignatureResult(0, 0, 0, 0, True)

    def test_zero_matrix(self):
        assert signature_of([[0, 0], [0, 0]]) == SignatureResult(0, 0, 0, 0, False)

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            signature_of([[1, 2], [3, 4]])


class TestNondegeneracy:
    def test_region_form_of_two_cusp_map(self):
        assert signature_of([[-76, -38], [-38, -18]]).nondegenerate

    def test_rank_one(self):
        assert not signature_of([[1, 1], [1, 1]]).nondegenerate

    def test_empty(self):
        assert signature_of([]).nondegenerate


class TestInvariance:
    def test_scaling(self):
        rng = random.Random(20284)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = random_symmetric(rng, n)
            base = signature_of(m)
            doubled = [[3 * v for v in row] for row in m]
            negated = [[-v for v in row] for row in m]
            assert signature_of(doubled) == base
            flipped = signature_of(negated)
            assert flipped.signature == -base.signature
            assert flipped.rank == base.rank

    def test_elimination_handles_zero_diagonal(self):
        hyperbolic = [[0, 5], [5, 0]]
        assert signature_by_elimination(hyperbolic) == SignatureResult(0, 2, 1, 1, True)
        assert signature_of(hyperbolic) == SignatureResult(0, 2, 1, 1, True)


class TestRank:
    """Exact and modular rank of rectangular matrices against sympy."""

    def test_planted_ranks(self):
        from sympy import Matrix

        rng = random.Random(20320)
        p = 268435399  # a prime below 2**28
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 14)
            inner = rng.randint(0, min(rows, cols))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(cols)] for _ in range(inner)]
            m = [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
                  for j in range(cols)] for i in range(rows)]
            expected = Matrix(m).rank()
            assert rank(m) == expected
            # times the common denominator 6 the entries are integers; the
            # rank mod p falls short only if p divides every nonzero maximal
            # minor, which the fixed seed shows does not happen here
            scaled = np.array([[int(v * 6) for v in row] for row in m], dtype=np.int64)
            assert rank_mod(scaled, p) == expected

    def test_modular_rank_can_fall_short(self):
        assert rank([[7, 0], [0, 1]]) == 2
        assert rank_mod(np.array([[7, 0], [0, 1]], dtype=np.int64), 7) == 1

    def test_empty(self):
        assert rank([]) == 0


def crt_by_weights(residues, primes):
    """Symmetric CRT lift by one modulus-sized weight per prime, column by column."""
    modulus = math.prod(primes)
    half = modulus // 2
    weights = []
    for p in primes:
        m = modulus // p
        weights.append(m * pow(m % p, p - 2, p) % modulus)
    out = []
    for column in range(residues.shape[1]):
        total = 0
        for i, w in enumerate(weights):
            r = int(residues[i, column])
            if r:
                total += r * w
        value = total % modulus
        if value > half:
            value -= modulus
        out.append(value)
    return out


class TestCrtSymmetric:
    # 2275 primes reconstruct the six-cusp map's orientation form
    @pytest.mark.parametrize("count", [1, 2, 3, 255, 256, 257, 2275])
    def test_product_tree_matches_weights(self, count):
        primes = _prime_pool(prime_cap(56), 28 * count)[:count]
        assert len(primes) == count
        modulus = math.prod(primes)
        half = (modulus - 1) // 2
        rng = random.Random(20700 + count)
        values = [0, 1, -1, half, -half, half - 1, -half + 1]
        values += [rng.randint(-half, half) for _ in range(6)]
        values += [rng.randint(-9, 9) for _ in range(3)]
        residues = np.array([[v % p for v in values] for p in primes], dtype=np.int64)
        assert _crt_symmetric(residues, primes) == values
        assert crt_by_weights(residues, primes) == values


def scaled_by_fractions(matrix):
    """(s*M as integers, s) with per-entry Fraction products."""
    denominator_lcm = 1
    for row in matrix:
        for value in row:
            d = Fraction(value).denominator
            denominator_lcm = denominator_lcm * d // gcd(denominator_lcm, d)
    scaled = [[int(Fraction(v) * denominator_lcm) for v in row] for row in matrix]
    content = 0
    for row in scaled:
        for v in row:
            content = gcd(content, v)
            if content == 1:
                break
    if content > 1:
        scaled = [[v // content for v in row] for row in scaled]
    else:
        content = 1
    return scaled, Fraction(denominator_lcm, content)


class TestScaledIntegerMatrix:
    def test_matches_fraction_products(self):
        rng = random.Random(20701)
        cases = [[[0, 0], [0, 0]], [[Fraction(0)]], [[5]], [[Fraction(-3, 7)]],
                 [[6, -4], [-4, 10]], [[Fraction(4, 3), Fraction(-8, 9)]]]
        while len(cases) < 200:
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            content = rng.choice([1, 1, 2, 6, 35])
            m = [[content * rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            if rng.random() < 0.7:
                m = [[Fraction(v, rng.choice([1, 2, 3, 4, 9, 10])) for v in row]
                     for row in m]
            cases.append(m)
        for m in cases:
            assert _scaled_integer_matrix(m) == scaled_by_fractions(m), m
