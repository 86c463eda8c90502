"""Signature machinery: signature_of against Jacobi's rule on brute-force
and sympy leading minors, the elimination route and Descartes' rule; the
congruence certificate, the kernel deflation with its unlucky primes, the
prime stream, residues, echelon form and Chinese remaindering underneath;
the exact rank of matrices of any shape; Sylvester invariance."""

import math
import random
from fractions import Fraction
from math import gcd
from itertools import islice, permutations

import numpy as np
import pytest

from cuspcount import signature
from cuspcount.errors import CertificateFailed, NotSymmetric
from cuspcount.signature import (SignatureResult, _crt, _dominant_inertia, _echelon_mod,
                                 _hadamard_bits, _kernel_lifts, _pivot_columns, _residues,
                                 _scaled_integer_matrix, prime_cap, primes, rank, rank_mod,
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


def jacobi(leading, rank_of):
    """Inertia by Jacobi's rule when the leading minors D_1..D_r are nonzero
    and r is the rank, else None: negative = sign changes in (1, D_1..D_r)."""
    n = len(leading)
    minors = leading[:rank_of]
    if not all(minors):
        return None
    negative = sum((a > 0) != (b > 0) for a, b in zip([1] + minors, minors))
    positive = rank_of - negative
    return SignatureResult(positive - negative, rank_of, positive, negative, rank_of == n)


def sympy_jacobi(m):
    from sympy import Matrix

    matrix = Matrix(m)
    return jacobi([int(matrix[:k, :k].det()) for k in range(1, len(m) + 1)], matrix.rank())


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
    """The cases written against Jacobi's rule on leading minors: zero and
    vanishing leading minors, unlucky primes, entries of thousands of bits.
    signature_of answers them by congruence and deflation; Jacobi's rule on
    exact minors stays the oracle wherever it applies."""

    def test_two_by_two(self):
        assert signature_of([[4, 2], [2, 2]]) == jacobi([4, 4], 2) == SignatureResult(2, 2, 2, 0, True)

    def test_zero_one_by_one(self):
        assert _pivot_columns([[0]]) == []
        assert signature_of([[0]]) == SignatureResult(0, 0, 0, 0, False)

    def test_empty_matrix(self):
        # signature_of answers the 0x0 matrix without a prime; a zero matrix
        # of any size deflates to the empty block
        assert signature_of([]) == SignatureResult(0, 0, 0, 0, True)
        for n in range(1, 5):
            zero = [[0] * n for _ in range(n)]
            assert _pivot_columns(zero) == []
            assert signature_of(zero) == SignatureResult(0, 0, 0, 0, False)

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]]
        scaled, scale = _scaled_integer_matrix(m)
        assert scale == 30 and scaled == [[15, 10], [10, 6]]
        assert jacobi([15, -10], 2) == SignatureResult(0, 2, 1, 1, True)
        assert signature_of(m) == signature_by_elimination(m) == SignatureResult(0, 2, 1, 1, True)

    def test_against_brute_force(self):
        from sympy import Matrix

        rng = random.Random(20280)
        applied = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            m, _ = _scaled_integer_matrix(random_symmetric(rng, n, singular_bias=True))
            leading = [brute_force_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
            result = signature_of(m)
            assert result.rank == Matrix(m).rank() == rank(m), m
            assert result == signature_by_elimination(m), m
            if result.nondegenerate:  # det A has the sign of (-1)**negative
                assert (leading[-1] > 0) == (result.negative_count % 2 == 0)
            expected = jacobi(leading, result.rank)
            if expected is not None:
                assert result == expected, m
                applied += 1
        assert 100 < applied < 200

    def test_minors_match_sympy(self):
        """signature_of against Jacobi's rule on sympy's determinants of the
        leading blocks, and against the elimination route where a leading
        minor vanishes before the rank."""
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
        cases.append(("2000-bit", integer_symmetric(4, lambda: rng.randint(-2 ** 2000, 2 ** 2000))))
        outcomes = set()
        for label, m in cases:
            expected = sympy_jacobi(m)
            result = signature_of(m)
            assert result == signature_by_elimination(m), label
            if expected is not None:
                assert result == expected, label
            outcomes.add(expected is None)
        assert outcomes == {True, False}  # both Jacobi's rule and its failures occur

    def test_unlucky_prime_is_dropped_and_the_pool_extended(self, monkeypatch):
        p = next(primes(prime_cap(56)))  # the largest prime of the stream
        assert prime_cap(2) == prime_cap(56)
        seen = []

        def spy(a, q):
            seen.append(q)
            return _echelon_mod(a, q)

        monkeypatch.setattr(signature, "_echelon_mod", spy)
        # det = p: singular modulo the first prime only
        two = [[p + 1, 1], [1, 1]]
        assert _pivot_columns(two) == [0, 1]
        assert seen[0] == p and len(seen) > 1
        assert signature_of(two) == SignatureResult(2, 2, 2, 0, True)
        # rank 1, but rank 0 modulo p: p is dropped for the next prime
        seen.clear()
        assert _pivot_columns([[p, 2 * p], [2 * p, 4 * p]]) == [0]
        assert seen[0] == p and len(seen) > 1

        rng = random.Random(20290)
        big = integer_symmetric(56, lambda: rng.randint(-3, 3))
        big[0][0] = p
        assert signature_of(big) == signature_by_elimination(big)

    def test_hadamard_bound_covers_leading_and_bordered_minors(self):
        """Every leading minor and every bordered minor (the leading r x r
        block with one more row i and column j, both >= r) of A, taken from
        sympy, is at most the product of the norms of its rows and below
        2**_hadamard_bits(A), the bound past which a kernel must lift.
        Sylvester-Hadamard matrices meet Hadamard's inequality with
        equality."""
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
        for m in cases:
            n = len(m)
            norms = [sum(v * v for v in row) for row in m]
            bound = 2 ** _hadamard_bits(m)
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

    @pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
    def test_prime_stream_descends_through_every_prime(self, monkeypatch, cached):
        """primes(cap) yields the primes up to cap in descending order, the
        same whether it finds them or reads them from the cache, and two
        streams on one cap interleave without skipping or repeating."""
        from sympy import prevprime

        monkeypatch.setattr(signature, "_PRIMES", {})
        cap = prime_cap(56)
        assert cap == 2 ** 28
        descending = [prevprime(cap)]
        while len(descending) < 371:
            descending.append(prevprime(descending[-1]))
        if cached:
            assert list(islice(primes(cap), 371)) == descending
        first, second = primes(cap), primes(cap)
        interleaved = [(next(first), next(second)) for _ in range(371)]
        assert interleaved == [(p, p) for p in descending]
        assert signature._PRIMES[cap] == descending

    def test_prime_stream_starts_at_an_odd_cap_and_ends(self, monkeypatch):
        monkeypatch.setattr(signature, "_PRIMES", {})
        assert list(islice(primes(8), 3)) == [7, 5, 3]
        stream = primes(7)
        assert list(islice(stream, 3)) == [7, 5, 3]
        with pytest.raises(CertificateFailed, match="prime pool exhausted"):
            next(stream)

    @pytest.mark.parametrize("matrix, expected, kept", [
        ([[0, 1], [1, 0]], SignatureResult(0, 2, 1, 1, True), [0, 1]),
        ([[0, 0], [0, 1]], SignatureResult(1, 1, 1, 0, False), [1]),
        # a Gram matrix of rank 2 whose kernel lies along e_1
        ([[0, 0, 0], [0, 5, 11], [0, 11, 25]], SignatureResult(2, 2, 2, 0, False), [1, 2]),
    ], ids=["hyperbolic plane", "zero first pivot", "gram kernel along e1"])
    def test_congruence_retry(self, matrix, expected, kept):
        # a leading minor vanishes before the rank: Jacobi's rule needs a
        # congruent copy, the deflation keeps a nonsingular block
        assert sympy_jacobi(matrix) is None
        assert _pivot_columns(matrix) == kept
        assert signature_of(matrix) == signature_by_elimination(matrix) == expected

    def test_every_attempt_failing_raises(self, monkeypatch):
        # every prime proposes the whole space as kernel of a nonsingular form
        calls = []
        monkeypatch.setattr(signature, "_residues",
                            lambda m, p: calls.append(p) or np.zeros((len(m), len(m)), dtype=np.int64))
        m = [[2 ** 100, 1], [1, 2 ** 100]]
        with pytest.raises(CertificateFailed, match="inertia: the kernel proposed modulo primes does not lift"):
            signature_of(m)
        # the primes go past twice the Hadamard bound before the certificate gives up
        assert sum(p.bit_length() - 1 for p in calls) > 2 * _hadamard_bits(m) + 1 > 27 * 7


class TestModularKernels:
    def test_residue_table_matches_python_mod(self):
        stream = list(islice(primes(prime_cap(56)), 300))
        rng = random.Random(20292)
        values = [0, 1, -1]
        for p in stream[:3] + stream[-3:]:
            values += [p - 1, -(p - 1), p, -p, p + 1, -(p + 1)]
        values += [rng.randint(-2 ** 1100, 2 ** 1100) for _ in range(20)]
        values += [rng.randint(-2 ** 20000, 2 ** 20000) for _ in range(5)]
        values += [2 ** 8192 - 1, -(2 ** 8192), 2 ** 8192 + 1, 2 ** 20000 - 1, 1 - 2 ** 20000]
        for p in stream[:3] + stream[-3:]:
            table = _residues([values, values[::-1]], p)
            assert table.dtype == np.int64
            assert table.tolist() == [[v % p for v in values], [v % p for v in values[::-1]]]

    @pytest.mark.parametrize("n", [64, 65])
    def test_echelon_matches_exact_arithmetic(self, n):
        """Entries near the largest prime of the cap, reduced in int64 and in
        exact Python integers: no product leaves int64."""
        p = next(primes(prime_cap(n)))
        rng = np.random.default_rng(20291 + n)
        a = p - 1 - rng.integers(0, 1 << 10, size=(n, n + 3))
        a[:, -1] = a[:, 0] + a[:, 1]  # a dependent column
        a[:, -1] %= p
        fast = _echelon_mod(a.copy(), p)
        exact = _echelon_mod(a.astype(object), p)
        assert fast[0] == exact[0] and len(fast[0]) == n
        assert (fast[1] == exact[1]).all()
        assert rank_mod(a, p) == n

    def test_echelon_matches_sympy(self):
        from sympy import GF, Matrix
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(20293)
        p = next(primes(prime_cap(8)))
        for _ in range(50):
            rows, cols = rng.randint(1, 6), rng.randint(1, 8)
            inner = rng.randint(0, min(rows, cols))
            left = Matrix(rows, inner, lambda i, j: rng.randint(-5, 5))
            right = Matrix(inner, cols, lambda i, j: rng.randint(-5, 5))
            m = (left * right).applyfunc(lambda v: v % p)
            pivots, reduced = _echelon_mod(np.array(m.tolist(), dtype=np.int64), p)
            expected, expected_pivots = DomainMatrix.from_Matrix(m).convert_to(GF(p)).rref()
            assert pivots == list(expected_pivots)
            assert reduced.tolist() == [[int(v) % p for v in row]
                                        for row in expected.to_Matrix().tolist()[:len(pivots)]]


class TestCongruence:
    def test_dominance_is_strict(self):
        # weakly dominant rows prove nothing: these are singular
        for weak in ([[1, 1], [1, 1]], [[1, -1], [-1, 1]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]):
            b = np.array(weak, dtype=object)
            assert _dominant_inertia(b, [0] * len(weak)) is None
        b = np.array([[3, 1, 1], [1, -3, 1], [1, 1, 3]], dtype=object)
        assert _dominant_inertia(b, [0, 0, 0]) == (2, 1)

    def test_rows_are_weighted_by_the_equilibration(self):
        # row 2 is dominant only once its small entries count 2**-600 of the rest
        b = np.array([[2 ** 1201, 0, 1], [0, -2 ** 1201, 1], [1, 1, 1]], dtype=object)
        assert _dominant_inertia(b, [0, 0, 0]) is None
        assert _dominant_inertia(b, [601, 601, 1]) == (2, 1)
        assert signature_of(b.tolist()) == signature_by_elimination(b.tolist())

    @pytest.mark.parametrize("matrix", [
        [[1, 2 ** 1100], [2 ** 1100, 1]],
        [[1, 2 ** 1100, 0], [2 ** 1100, 1, 3], [0, 3, 2 ** 3000]],
        [[0, 2 ** 1200, 0], [2 ** 1200, 0, 1], [0, 1, 1]],
        [[2 ** 2400, 0, 1], [0, -2 ** 2400, 1], [1, 1, 1]],
    ], ids=["hyperbolic, 1100 bits", "3000 bits apart", "zero diagonal", "graded"])
    def test_entries_beyond_the_float_range(self, matrix):
        assert signature_of(matrix) == signature_by_elimination(matrix)

    @pytest.mark.parametrize("n", [40, 60])
    def test_hilbert_takes_several_rounds(self, monkeypatch, n):
        rounds = []
        proposal = signature._proposal
        monkeypatch.setattr(signature, "_proposal",
                            lambda b, e: rounds.append(len(b)) or proposal(b, e))
        hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert signature_of(hilbert) == SignatureResult(n, n, n, 0, True)
        assert len(rounds) > 3
        negated = [[-v for v in row] for row in hilbert]
        assert signature_of(negated) == SignatureResult(-n, n, 0, n, True)


class TestDeflation:
    def test_planted_kernel(self):
        """X D X^T with 30-bit X and zeros in D: the kernel lifts, the
        rank and inertia are those of D."""
        rng = random.Random(20294)
        for zeros in (1, 2, 4):
            n = 8
            x = [[rng.randint(-2 ** 30, 2 ** 30) for _ in range(n)] for _ in range(n)]
            d = [rng.choice([-1, 1]) for _ in range(n - zeros)] + [0] * zeros
            m = [[sum(x[i][k] * d[k] * x[j][k] for k in range(n)) for j in range(n)]
                 for i in range(n)]
            positive = d.count(1)
            kept = _pivot_columns(m)
            assert len(kept) == n - zeros
            assert signature_of(m) == SignatureResult(2 * positive - n + zeros, n - zeros,
                                                      positive, n - zeros - positive, False)

    def test_a_wrong_kernel_is_rejected(self):
        m = [[1, 2, 3], [2, 4, 6], [3, 6, 10]]  # kernel (2, -1, 0)
        p = next(primes(prime_cap(3)))
        pivots, reduced = _echelon_mod(_residues(m, p), p)
        assert pivots == [0, 2]
        block = np.delete(reduced, pivots, axis=1)
        assert _kernel_lifts(m, pivots, [p], [block])
        assert not _kernel_lifts(m, pivots, [p], [(block + 1) % p])
        assert not _kernel_lifts(m, [0, 1], [p], [block])


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
        assert rank([]) == rank([[]]) == rank([[], []]) == 0

    @pytest.mark.parametrize("matrix, row", [
        ([[1, 2], [3]], 1), ([[1], [2, 3]], 1), ([[1, 2], [3, 4], []], 2), ([[], [1]], 1)])
    def test_rejects_ragged_rows(self, matrix, row):
        with pytest.raises(ValueError, match=f"row {row} has"):
            rank(matrix)

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5), (3, 12), (12, 3)],
                             ids=["wide", "tall", "very wide", "very tall"])
    def test_planted_kernels_lift_over_several_primes(self, monkeypatch, shape):
        """L R with 120-bit L and R of inner dimension r below both sides: the
        echelon entries are ratios of minors of hundreds of bits, so the
        kernel lifts only from several primes, and the certified rank is
        sympy's on the matrix and on its transpose."""
        from sympy import Matrix

        rng = random.Random(20330 + shape[0])
        rows, cols = shape
        seen = []

        def spy(a, q):
            seen.append(q)
            return _echelon_mod(a, q)

        monkeypatch.setattr(signature, "_echelon_mod", spy)
        for inner in range(min(shape)):
            left = [[rng.randint(-2 ** 120, 2 ** 120) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-2 ** 120, 2 ** 120) for _ in range(cols)] for _ in range(inner)]
            m = [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols)]
                 for i in range(rows)]
            seen.clear()
            assert rank(m) == Matrix(m).rank() == inner
            assert len(seen) > 1 or inner == 0  # the zero matrix lifts at once
            assert rank([list(column) for column in zip(*m)]) == inner

    def test_full_rank_takes_one_prime_and_no_bound(self, monkeypatch):
        """A matrix of full rank modulo the first prime is certified by it
        alone; the Hadamard bound is never computed."""
        def unread(matrix):
            raise AssertionError("the Hadamard bound was computed")

        monkeypatch.setattr(signature, "_hadamard_bits", unread)
        rng = random.Random(20331)
        for rows, cols in ((4, 7), (7, 4), (6, 6)):
            m = [[rng.randint(-2 ** 300, 2 ** 300) for _ in range(cols)] for _ in range(rows)]
            assert rank(m) == min(rows, cols)

    def test_runs_no_congruence(self, monkeypatch):
        """rank is the deflation alone: no Gram matrix goes through
        signature_of or the congruence."""
        def forbidden(*args):
            raise AssertionError("rank ran the inertia certificate")

        monkeypatch.setattr(signature, "signature_of", forbidden)
        monkeypatch.setattr(signature, "_congruence_inertia", forbidden)
        assert rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert rank([[1, 2], [2, 4], [0, 1]]) == 2
        assert rank([[Fraction(1, 3), 1], [1, 3]]) == 1


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
        stream = list(islice(primes(prime_cap(56)), count))
        assert len(stream) == count
        modulus = math.prod(stream)
        half = (modulus - 1) // 2
        rng = random.Random(20700 + count)
        values = [0, 1, -1, half, -half, half - 1, -half + 1]
        values += [rng.randint(-half, half) for _ in range(6)]
        values += [rng.randint(-9, 9) for _ in range(3)]
        residues = np.array([[v % p for v in values] for p in stream], dtype=np.int64)
        assert _crt(residues.tolist(), stream) == (values, modulus)
        assert crt_by_weights(residues, stream) == values


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
