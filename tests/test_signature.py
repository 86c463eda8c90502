"""Signature machinery: leading minors against a brute-force oracle and
sympy, the modular kernels, unlucky primes and congruence retries, Sylvester
invariance, and agreement with Descartes' rule and the elimination route."""

import math
import random
from fractions import Fraction
from math import gcd
from itertools import permutations

import numpy as np
import pytest

from cuspcount import signature
from cuspcount.errors import CertificateFailed, NotSymmetric
from cuspcount.signature import (_ATTEMPTS, _PRIME_CHUNK, SignatureResult, _certified_minors,
                                 _crt_symmetric, _eliminate,
                                 _exponent_bits, _inverse_mod, _leading_minors, _limbs,
                                 _prime_pool, _residue_table, _row_bits,
                                 _scaled_integer_matrix, prime_cap, rank, rank_mod,
                                 signature_of)
from elimination import signature_by_elimination


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def brute_force_det(matrix):
    """det M by Leibniz expansion over permutations; oracle for n <= 6."""
    n = len(matrix)
    return sum(_perm_sign(perm) * math.prod(matrix[i][perm[i]] for i in range(n))
               for perm in permutations(range(n)))


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


def integer_symmetric(n, entry):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry()
    return m


def expected_minors(leading, rank_of):
    """D_1..D_r when the first r leading minors are nonzero and r is the rank,
    else None: what _leading_minors must return."""
    minors = []
    for d in leading:
        if not d:
            break
        minors.append(d)
    return minors if len(minors) == rank_of else None


def sympy_expected_minors(m):
    from sympy import Matrix

    matrix = Matrix(m)
    leading = (int(matrix[:k, :k].det()) for k in range(1, len(m) + 1))
    return expected_minors(leading, matrix.rank())


def descartes_counts(coeffs):
    """(positive, negative, zero) roots of a real-rooted polynomial from its
    descending coefficients, by Descartes' rule of signs."""
    coeffs = list(coeffs)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    top = len(coeffs) - 1

    def variations(values):
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    mirrored = [c if (top - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return variations(coeffs), variations(mirrored), zero


class TestLeadingMinors:
    def test_two_by_two(self):
        assert _certified_minors([[4, 2], [2, 2]]) == ([4, 4], 1)

    def test_zero_one_by_one(self):
        assert _certified_minors([[0]]) == ([], 1)
        assert signature_of([[0]]) == SignatureResult(0, 0, 0, 0, False)

    def test_empty_matrix(self):
        # signature_of answers the 0x0 matrix without an elimination; a zero
        # matrix of any size stops every prime at step 0 with a zero block
        assert signature_of([]) == SignatureResult(0, 0, 0, 0, True)
        for n in range(1, 5):
            assert _certified_minors([[0] * n for _ in range(n)]) == ([], 1)

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
        scaled, scale = _scaled_integer_matrix(m)
        assert scale == 30 and scaled == [[15, 10], [10, 6]]
        assert _certified_minors(scaled) == ([15, -10], 1)
        assert signature_of(m) == signature_by_elimination(m) == SignatureResult(0, 2, 1, 1, True)

    def test_against_brute_force(self):
        rng = random.Random(20280)
        for _ in range(200):
            n = rng.randint(1, 5)
            m, _ = _scaled_integer_matrix(random_symmetric(rng, n, singular_bias=True))
            leading = [brute_force_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
            assert _leading_minors(m) == expected_minors(leading, rank(m)), m

    def test_minors_match_sympy(self):
        """The multimodular minors against sympy's determinants of the leading blocks."""
        rng = random.Random(20282)
        cases = [("dim 13-16", integer_symmetric(rng.randint(13, 16), lambda: rng.randint(-50, 50)
                                                 * 10 ** rng.randint(0, 9))) for _ in range(4)]
        # entries of about 1100 bits, the size of the paper's trace forms
        cases += [(f"dim {n}, 1100-bit", integer_symmetric(n, lambda: rng.randint(-2 ** 1100, 2 ** 1100)))
                  for n in range(1, 13)]
        # zero entries give zero leading minors before the rank, or a zero pivot
        for n in range(3, 11):
            m = integer_symmetric(n, lambda: rng.randint(-9, 9) if rng.random() < 0.3 else 0)
            m[0][1] = m[1][0] = 0
            m[0][2] = m[2][0] = 7
            cases.append((f"dim {n}, sparse", m))
        cases.append(("block diagonal", [[2, 0, 0, 0], [0, 3, 1, 0], [0, 1, 0, 0], [0, 0, 0, 5]]))
        # a bound beyond one chunk of primes, with a short last chunk
        chunked = integer_symmetric(4, lambda: rng.randint(-2 ** 2000, 2 ** 2000))
        primes = _prime_pool(prime_cap(4), sum(_row_bits(chunked)) + 1)
        assert len(primes) > _PRIME_CHUNK and len(primes) % _PRIME_CHUNK
        cases.append(("several prime chunks", chunked))
        outcomes = set()
        for label, m in cases:
            expected = sympy_expected_minors(m)
            assert _leading_minors(m) == expected, label
            outcomes.add(expected is None)
        assert outcomes == {True, False}  # both certified chains and retries occur

    def test_unlucky_prime_is_dropped_and_the_pool_extended(self, monkeypatch):
        p = _prime_pool(prime_cap(56), 1)[0]  # the largest prime of the pool
        assert prime_cap(2) == prime_cap(56)
        seen = []

        def spy(h, primes):
            seen.extend(primes.tolist())
            return _eliminate(h, primes)

        monkeypatch.setattr(signature, "_eliminate", spy)
        two = [[p, 1], [1, 1]]
        initial = _prime_pool(prime_cap(2), sum(_row_bits(two)) + 1)
        assert _certified_minors(two) == ([p, p - 1], 1)
        assert p in seen and len(seen) > len(initial)
        assert signature_of(two) == SignatureResult(2, 2, 2, 0, True)

        rng = random.Random(20290)
        big = integer_symmetric(56, lambda: rng.randint(-3, 3))
        big[0][0] = p
        seen.clear()
        minors, attempts = _certified_minors(big)
        assert attempts == 1 and minors[0] == p and p in seen
        assert signature_of(big) == signature_by_elimination(big)

    def test_hadamard_bound_covers_leading_and_bordered_minors(self, monkeypatch):
        """Every leading minor and every bordered minor (the leading r x r
        block with one more row i and column j, both >= r) of A, taken from
        sympy, is at most the product of the norms of its rows and below
        2**sum(_row_bits(A)), the bound `_leading_minors` asks the primes to
        exceed twice over.  Sylvester-Hadamard matrices meet Hadamard's
        inequality with equality."""
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix

        def sylvester_hadamard(n):
            h = [[1]]
            while len(h) < n:
                h = [row + row for row in h] + [row + [-v for v in row] for row in h]
            return h

        rng = random.Random(20300)
        hadamards = [sylvester_hadamard(n) for n in (8, 16, 32)]
        cases = list(hadamards)
        for n in range(1, 9):
            bits = rng.choice([3, 60, 400])
            cases.append(integer_symmetric(
                n, lambda: rng.randint(-2 ** bits, 2 ** bits) if rng.random() < 0.7 else 0))
        requests = []
        pool = signature._prime_pool
        monkeypatch.setattr(signature, "_prime_pool",
                            lambda cap, bits: requests.append(bits) or pool(cap, bits))
        for m in cases:
            n = len(m)
            norms = [sum(v * v for v in row) for row in m]
            bound = 2 ** sum(_row_bits(m))
            dm = DomainMatrix([[ZZ(v) for v in row] for row in m], (n, n), ZZ)
            for r in range(n):
                for i in range(r, n):
                    for j in range(i, n):  # A is symmetric: minor (j, i) equals (i, j)
                        rows = [*range(r), i]
                        minor = int(dm.extract(rows, [*range(r), j]).det())
                        assert minor ** 2 <= math.prod(norms[k] for k in rows)
                        assert abs(minor) < bound
            if m in hadamards:
                assert int(dm.det()) ** 2 == math.prod(norms)
            requests.clear()
            _leading_minors(m)
            assert requests[0] == sum(_row_bits(m)) + 1

    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_prime_pool_returns_the_shortest_prefix(self, monkeypatch, order):
        """Below 2**28 every prime counts 27 bits, so 27 bits take one prime,
        28 and 54 two, 55 three and 10000 371: each request gets the
        shortest prefix of the descending primes whose bits reach it."""
        from sympy import prevprime

        monkeypatch.setattr(signature, "_PRIME_POOLS", {})
        cap = prime_cap(56)
        assert cap == 2 ** 28
        descending = [prevprime(cap)]
        while len(descending) < 371:
            descending.append(prevprime(descending[-1]))
        lengths = {1: 1, 27: 1, 28: 2, 54: 2, 55: 3, 10000: 371}
        for bits in sorted(lengths, reverse=order == "falling"):
            primes = _prime_pool(cap, bits)
            assert primes == descending[:lengths[bits]], bits
            counted = [p.bit_length() - 1 for p in primes]
            assert sum(counted[:-1]) < bits <= sum(counted)

    @pytest.mark.parametrize("matrix, expected", [
        ([[0, 1], [1, 0]], SignatureResult(0, 2, 1, 1, True)),
        ([[0, 0], [0, 1]], SignatureResult(1, 1, 1, 0, False)),
        # a Gram matrix of rank 2 whose kernel lies along e_1
        ([[0, 0, 0], [0, 5, 11], [0, 11, 25]], SignatureResult(2, 2, 2, 0, False)),
    ], ids=["hyperbolic plane", "zero first pivot", "gram kernel along e1"])
    def test_congruence_retry(self, matrix, expected):
        assert _leading_minors(matrix) is None
        minors, attempts = _certified_minors(matrix)
        assert attempts == 2 and len(minors) == expected.rank
        assert signature_of(matrix) == expected

    def test_every_attempt_failing_raises(self, monkeypatch):
        calls = []
        monkeypatch.setattr(signature, "_leading_minors", lambda m: calls.append(m))
        with pytest.raises(CertificateFailed, match="in all 4 attempts"):
            signature_of([[1, 2], [2, 1]])
        assert len(calls) == _ATTEMPTS
        assert calls[0] == [[1, 2], [2, 1]] and calls[1] != calls[0]

    @pytest.mark.parametrize("n", [64, 65])
    def test_delayed_reduction_stays_in_int64(self, n):
        """Entries near the largest primes, eliminated in int64 and in exact
        Python integers: the unreduced trailing block never overflows."""
        cap = prime_cap(n)
        assert max(n, 64) * cap ** 2 <= 2 ** 62
        primes = np.array(_prime_pool(cap, 27 * 8)[:8], dtype=np.int64)
        rng = np.random.default_rng(20291 + n)
        h = primes - 1 - rng.integers(0, 1 << 10, size=(n, n, len(primes)))
        h = np.minimum(h, h.transpose(1, 0, 2))
        exact = _eliminate(h.astype(object), primes.astype(object))
        fast = _eliminate(h.copy(), primes)
        for a, b in zip(fast, exact):
            assert (a == b).all()
        m = [[int(cap - 1 - v) for v in row] for row in rng.integers(0, 1 << 10, size=(n, n))]
        m = [[min(m[i][j], m[j][i]) for j in range(n)] for i in range(n)]
        assert signature_of(m) == signature_by_elimination(m)


class TestModularKernels:
    def test_residue_table_matches_python_mod(self):
        primes = _prime_pool(prime_cap(56), 27 * 300)[:300]  # a chunk and a short one
        rng = random.Random(20292)
        values = [0, 1, -1]
        for p in primes[:3] + primes[-3:]:
            values += [p - 1, -(p - 1), p, -p, p + 1, -(p + 1)]
        values += [rng.randint(-2 ** 1100, 2 ** 1100) for _ in range(20)]
        # more than 8192 bits needs more than one block of 512 limbs
        values += [rng.randint(-2 ** 20000, 2 ** 20000) for _ in range(5)]
        values += [2 ** 8192 - 1, -(2 ** 8192), 2 ** 8192 + 1, 2 ** 20000 - 1, 1 - 2 ** 20000]
        limbs, negative = _limbs(values)
        assert limbs.shape[1] > 512
        for start in range(0, len(primes), _PRIME_CHUNK):
            chunk = primes[start:start + _PRIME_CHUNK]
            table = _residue_table(limbs, negative, np.array(chunk, dtype=np.int64))
            assert table.tolist() == [[v % p for p in chunk] for v in values]

    def test_fermat_inverse_matches_pow(self):
        rng = random.Random(20293)
        for cap, count in ((prime_cap(2), 300), (prime_cap(65), 300),
                           (prime_cap(10 ** 6), 300), (1000, 100)):
            primes = _prime_pool(cap, 9 * count)[:count]
            values = [0, 1] + [rng.randrange(1, p) for p in primes[2:]]
            values[-1] = primes[-1] - 1
            parr = np.array(primes, dtype=np.int64)
            out = _inverse_mod(np.array(values, dtype=np.int64), parr, _exponent_bits(parr))
            assert out.tolist() == [pow(v, -1, p) if v else 0 for v, p in zip(values, primes)]


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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            signature_of([[1, 2]])

    def test_matches_descartes_and_elimination(self):
        """X D X^T has the inertia of D (Sylvester) and every rank from 0 to n;
        signature_of agrees with it, with Descartes' rule on sympy's
        characteristic polynomial, and with the elimination route."""
        from sympy import Matrix

        rng = random.Random(20294)
        for n in range(1, 8):
            for r in range(n + 1):
                while True:
                    x = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                    if Matrix(x).det():
                        break
                d = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(r)] + [0] * (n - r)
                m = [[sum(x[i][k] * d[k] * x[j][k] for k in range(n)) for j in range(n)]
                     for i in range(n)]
                positive = sum(v > 0 for v in d)
                negative = r - positive
                expected = SignatureResult(positive - negative, r, positive, negative, r == n)
                assert signature_of(m) == expected
                assert descartes_counts(Matrix(m).charpoly().all_coeffs()) == (
                    positive, negative, n - r)
                assert signature_by_elimination(m) == expected


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
