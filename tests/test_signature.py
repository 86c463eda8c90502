"""Signature machinery: signature_of against Jacobi's rule on brute-force
and sympy leading minors, the elimination route and Descartes' rule; the
congruence certificate, its truncation with the bound on the dropped bits
and its exact congruent copies, the kernel deflation with its unlucky
primes, the prime stream, residues, echelon form and Chinese remaindering
underneath; the exact rank of matrices of any shape; Sylvester invariance."""

import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount import products, signature
from cuspcount.errors import CertificateFailed, NotSymmetric
from cuspcount.exprio import parse_problem
from cuspcount.pipeline import census
from cuspcount.products import congruent_copy
from cuspcount.signature import (SignatureResult, _crt, _dominance,
                                 _echelon_mod, _exponents, _hadamard_bits, _kernel_lifts,
                                 _pivot_columns, _proposal, _residues, _scaled_integer_matrix,
                                 prime_cap, primes, rank, rank_mod, signature_of)
from conftest import EIGHT_CUSP_TEXT, SIX_CUSP_TEXT
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
        assert _scaled_integer_matrix(m) == [[15, 10], [10, 6]]
        assert jacobi([15, -10], 2) == SignatureResult(0, 2, 1, 1, True)
        assert signature_of(m) == signature_by_elimination(m) == SignatureResult(0, 2, 1, 1, True)

    def test_against_brute_force(self):
        from sympy import Matrix

        rng = random.Random(20280)
        applied = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            m = _scaled_integer_matrix(random_symmetric(rng, n, singular_bias=True))
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


@pytest.fixture(scope="module")
def six_cusp_rounds():
    """Per form of the six-cusp census, in the census' order, every
    congruence round as (B, W): the round forms the copy W^T B W."""
    forms = []
    congruence, copy = signature._congruence_inertia, congruent_copy

    def each_form(*args):
        forms.append([])
        return congruence(*args)

    def each_round(b, w):
        forms[-1].append((b, w))
        return copy(b, w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signature, "_congruence_inertia", each_form)
        patch.setattr(signature, "congruent_copy", each_round)
        census(parse_problem(SIX_CUSP_TEXT))
    return forms


def exact(n):
    """The zero bound: the dominance test on b itself."""
    return np.zeros(n, dtype=object)


def spy_truncations(monkeypatch):
    """The (k, first bound) of every truncation the congruence starts from."""
    seen = []
    truncated = signature._truncated

    def spy(a, exponents, k):
        s, bound = truncated(a, exponents, k)
        seen.append((k, bound))
        return s, bound

    monkeypatch.setattr(signature, "_truncated", spy)
    return seen


def proposal_by_lists(b, exponents):
    """W assembled from the float step entry by entry in Python integers:
    the reference for the numpy assembly in _proposal."""
    upper, order, turns = signature._elimination(b, exponents)
    w = [[] for _ in range(len(b))]
    for a, (row, k) in enumerate(zip(upper.tolist(), order)):
        w[k] = [int(v) for v in row]
        w[k][a] = 1 << signature._PRECISION
    for i, j in reversed(turns):
        w[i], w[j] = [x + y for x, y in zip(w[i], w[j])], [x - y for x, y in zip(w[i], w[j])]
    top = max(exponents)
    return [[v << (top - e) for v in row] for row, e in zip(w, exponents)]


def assert_proposal(b):
    exponents = _exponents(np.abs(b))
    w = _proposal(b, exponents)
    assert w.dtype == object and all(type(v) is int for v in w.ravel())
    assert w.tolist() == proposal_by_lists(b, exponents)
    return w


def assert_congruent_copy(b, w):
    b, w = np.array(b, dtype=object), np.array(w, dtype=object)
    assert congruent_copy(b, w).tolist() == (w.T @ b @ w).tolist()


class TestCongruence:
    def test_proposal_matches_the_assembly_by_lists(self, six_cusp_rounds):
        # every round of the six-cusp forms, among them entries of U past
        # the 53 bits of a double, which the assembly shifts as integers
        wide = 0
        for rounds in six_cusp_rounds:
            for b, w in rounds:
                assert assert_proposal(b).tolist() == w.tolist()
                upper = signature._elimination(b, _exponents(np.abs(b)))[0]
                wide += int((np.abs(upper) > 2.0 ** 53).sum())
        assert wide

    def test_copy_of_the_orientation_form(self, six_cusp_rounds):
        rounds = six_cusp_rounds[1]
        assert [len(b) for b, _ in rounds] == [56, 56]
        for b, w in rounds:
            assert_congruent_copy(b, w)

    def test_copy_of_every_six_cusp_round(self, six_cusp_rounds):
        assert [len(rounds) for rounds in six_cusp_rounds] == [1, 2, 1, 2]
        for rounds in six_cusp_rounds:
            for b, w in rounds:
                assert len(b) == 56
                assert_congruent_copy(b, w)

    def test_copy_stays_within_its_memory_budget(self, six_cusp_rounds):
        # the second round of the orientation form, B of 235 bits and W of
        # 81: the float temporaries are formed by blocks of rows and the
        # digits of B W are held in int16, which keeps the peak, the
        # copy's own integers included, within 1 MiB
        b, w = six_cusp_rounds[1][1]
        assert max(abs(v).bit_length() for v in b.ravel()) == 235
        tracemalloc.start()
        try:
            congruent_copy(b, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_sums_are_carried_before_they_pass_the_float_limit(self, monkeypatch):
        # with the limit at 2**35, a sum takes a few digits of W before a
        # partial sum could pass it: the planes are carried first, and the
        # copy stays exact
        monkeypatch.setattr(products, "_EXACT", 2 ** 35)
        bounds = []
        carry = products._carry
        monkeypatch.setattr(products, "_carry",
                            lambda planes, bound: bounds.append(bound) or carry(planes, bound))
        rng = random.Random(25001)
        for n in (1, 2, 4):
            b = integer_symmetric(n, lambda: rng.randint(-2 ** 400, 2 ** 400))
            w = [[rng.randint(-2 ** 300, 2 ** 300) for _ in range(n)] for _ in range(n)]
            assert_congruent_copy(b, w)
        # W has 19 digits; a sum of n digit products is at most n 2**30,
        # against B and against B W, whose digits are kept in int16, so both
        # products of dimension n carry mid-sum every 32 / n digits:
        # 1 + 1 + 2 + 2 times in all, besides the carry that ends each of the six
        assert len(bounds) == 6 + 6 and max(bounds) <= 2 ** 35

    def test_carries_end_with_digits_in_int16(self):
        # a unit carried out of 2**15 carries on through a digit that it
        # takes to 2**15; the values stay, and every digit but the top ends
        # in [-2**15, 2**15)
        planes = np.array([[2 ** 15, -2 ** 15 - 1, 5], [2 ** 15 - 1, 0, -2 ** 15], [0, 0, 0]],
                          dtype=float)

        def values():
            return [sum(int(d) << 16 * k for k, d in enumerate(column)) for column in planes.T]

        before = values()
        products._carry(planes, 2 ** 15 + 1)
        assert values() == before
        assert planes.tolist() == [[-2 ** 15, 2 ** 15 - 1, 5], [-2 ** 15, -1, -2 ** 15], [1, 0, 0]]

    def test_copies_run_on_truncated_entries(self, six_cusp_rounds):
        # the six-cusp forms have entries of 650 to 1240 bits; every copy
        # runs on their top 128 bits and the copies of those
        assert max(abs(v).bit_length() for rounds in six_cusp_rounds
                   for b, _ in rounds for v in b.ravel()) < 512

    def test_copy_after_a_rotation(self):
        # the zero diagonal takes a rotation, which mixes two rows of W: the
        # first two columns, in pivot order, are nonzero on all three rows
        b = np.array([[0, 2 ** 1200, 0], [2 ** 1200, 0, 1], [0, 1, 1]], dtype=object)
        assert signature._elimination(b, _exponents(np.abs(b)))[2]
        w = assert_proposal(b)
        support = w.T != 0
        assert not all(support[:a + 1].any(axis=0).sum() <= a + 1 for a in range(3))
        assert_congruent_copy(b, w)

    @pytest.mark.parametrize("b, w", [
        ([[-7]], [[3]]),
        ([[2 ** 900]], [[0]]),
        ([[0, 5], [5, -2]], [[1, 1], [1, -1]]),
        ([[3, -2 ** 700], [-2 ** 700, 1]], [[2 ** 53, 0], [-9, 2 ** 60]]),
    ], ids=["1x1", "1x1 zero", "2x2 rotation", "2x2 triangular"])
    def test_copy_of_small_matrices(self, b, w):
        assert_congruent_copy(b, w)

    def test_copy_of_random_matrices(self):
        rng = random.Random(21001)
        for _ in range(200):
            n = rng.randint(1, 9)
            bits = rng.choice([4, 64, 1024])
            b = integer_symmetric(n, lambda: rng.randint(-2 ** bits, 2 ** bits))
            while True:
                w = [[rng.randint(-2 ** 60, 2 ** 60) if rng.random() < 0.6 else 0
                      for _ in range(n)] for _ in range(n)]
                if rank(w) == n:
                    break
            assert_congruent_copy(b, w)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 64), st.integers(0, 1100), st.integers(0, 1100),
           st.integers(0, 2 ** 32), st.booleans())
    def test_copy_matches_the_object_product(self, n, bits_b, bits_w, seed, zero_column):
        # entries up to 1100 bits, a quarter of them on a digit boundary:
        # +-2**(16 k), +-(2**(16 k) - 1) and -2**(16 k) - 1; some rows of W
        # zero and, in half the examples, a column
        rng = random.Random(seed)

        def entry(bits):
            if rng.random() < 0.25:
                k = rng.randint(0, bits // 16)
                return rng.choice([2 ** (16 * k), -2 ** (16 * k), 2 ** (16 * k) - 1,
                                   1 - 2 ** (16 * k), -2 ** (16 * k) - 1])
            return rng.randint(-2 ** bits, 2 ** bits)

        b = integer_symmetric(n, lambda: entry(bits_b))
        w = [[0] * n if rng.random() < 0.2 else [entry(bits_w) for _ in range(n)]
             for _ in range(n)]
        if zero_column:
            column = rng.randrange(n)
            for row in w:
                row[column] = 0
        assert_congruent_copy(b, w)

    def test_dominance_is_strict(self):
        # weakly dominant rows prove nothing: these are singular
        for weak in ([[1, 1], [1, 1]], [[1, -1], [-1, 1]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]):
            size = np.abs(np.array(weak, dtype=object))
            assert _dominance(size, [0] * len(weak), exact(len(weak))) == (False, False)
        b = [[3, 1, 1], [1, -3, 1], [1, 1, 3]]
        assert _dominance(np.abs(np.array(b, dtype=object)), [0, 0, 0], exact(3)) == (True, True)
        assert signature_of(b) == SignatureResult(1, 3, 2, 1, True)

    def test_rows_are_weighted_by_the_equilibration(self):
        # row 2 is dominant only once its small entries count 2**-600 of the rest
        b = np.array([[2 ** 1201, 0, 1], [0, -2 ** 1201, 1], [1, 1, 1]], dtype=object)
        assert _dominance(np.abs(b), [0, 0, 0], exact(3)) == (False, False)
        assert _dominance(np.abs(b), [601, 601, 1], exact(3)) == (True, True)
        assert signature_of(b.tolist()) == signature_by_elimination(b.tolist())

    @pytest.mark.parametrize("g, dominant", [
        ([0, 0], True), ([1, 1], True), ([2, 1], False), ([1, 3], False), ([3, 3], False),
    ])
    def test_dominance_covers_the_bound(self, g, dominant):
        # b + X is dominant for every |X_ij| <= g_i g_j when both
        # 8 - g0^2 > 5 + g0 g1 and 17 - g1^2 > 5 + g0 g1
        size = np.abs(np.array([[8, 5], [5, -17]], dtype=object))
        bound = np.array(g, dtype=object)
        # b itself is dominant, whatever the bound
        assert _dominance(size, [0, 0], bound) == (True, dominant)

    @pytest.mark.parametrize("matrix", [
        [[1, 2 ** 1100], [2 ** 1100, 1]],
        [[1, 2 ** 1100, 0], [2 ** 1100, 1, 3], [0, 3, 2 ** 3000]],
        [[0, 2 ** 1200, 0], [2 ** 1200, 0, 1], [0, 1, 1]],
        [[2 ** 2400, 0, 1], [0, -2 ** 2400, 1], [1, 1, 1]],
    ], ids=["hyperbolic, 1100 bits", "3000 bits apart", "zero diagonal", "graded"])
    def test_entries_beyond_the_float_range(self, matrix):
        assert signature_of(matrix) == signature_by_elimination(matrix)

    @pytest.mark.parametrize("n, widths", [(40, [128]), (60, [128, 256])], ids=["40", "60"])
    def test_hilbert_takes_several_rounds(self, monkeypatch, n, widths):
        # order 40 has 114-bit entries, which the first k covers: the exact
        # rounds; order 60 has 172-bit entries and a condition number near
        # 2**300, past what 128 bits of it carry, so k doubles
        rounds = []
        monkeypatch.setattr(signature, "_proposal",
                            lambda b, e: rounds.append((b, _proposal(b, e))) or rounds[-1][1])
        truncations = spy_truncations(monkeypatch)
        hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert signature_of(hilbert) == SignatureResult(n, n, n, 0, True)
        assert [k for k, _ in truncations] == widths
        assert not truncations[-1][1].any()
        assert len(rounds) > 3
        for b, w in rounds:
            assert_congruent_copy(b, w)
        negated = [[-v for v in row] for row in hilbert]
        assert signature_of(negated) == SignatureResult(-n, n, 0, n, True)

    def test_ill_conditioned_forms_of_known_inertia(self):
        # by Sylvester's law U^T diag(d) U has the inertia of the signs of d
        # for every nonsingular U: here a permuted unit upper triangular one
        rng = random.Random(22002)
        for _ in range(300):
            n = rng.randint(1, 24)
            d = [rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.randint(0, 900)) for _ in range(n)]
            u = np.array([[int(i == j) if i >= j else rng.randint(-2 ** 8, 2 ** 8)
                           for j in range(n)] for i in range(n)], dtype=object)
            u = u[rng.sample(range(n), n)]
            a = u.T @ (np.array(d, dtype=object)[:, None] * u)
            positive = sum(v > 0 for v in d)
            assert signature_of(a.tolist()) == SignatureResult(
                2 * positive - n, n, positive, n - positive, True)

    def test_the_bound_catches_a_truncation_of_other_inertia(self, monkeypatch):
        # det A = -1, so A has inertia (1, 1); its top 128 bits are
        # positive definite, and so is 2**46 times its top 256 bits
        a = [[2 ** 300, 2 ** 300 - 1], [2 ** 300 - 1, 2 ** 300 - 2]]
        truncations = spy_truncations(monkeypatch)
        assert signature_of(a) == SignatureResult(0, 2, 1, 1, True)
        assert [k for k, _ in truncations] == [128, 256, 512]
        assert signature_by_elimination(a) == SignatureResult(0, 2, 1, 1, True)
        # with the bound dropped, the truncation's inertia passes for A's
        truncated = signature._truncated
        monkeypatch.setattr(signature, "_truncated",
                            lambda a, e, k: (truncated(a, e, k)[0], exact(len(a))))
        assert signature_of(a) == SignatureResult(2, 2, 2, 0, True)

    def test_a_singular_truncation_takes_more_bits(self, monkeypatch):
        # the top 128 bits of this positive definite form are the singular
        # 2**126 [[1, 1], [1, 1]], which no congruence makes dominant
        a = [[2 ** 300, 2 ** 300], [2 ** 300, 2 ** 300 + 1]]
        truncations = spy_truncations(monkeypatch)
        assert signature_of(a) == SignatureResult(2, 2, 2, 0, True)
        assert truncations[0][0] == 128 and len(truncations) > 1
        s, bound = signature._truncated(np.array(a, dtype=object), [151, 151], 128)
        assert s.tolist() == [[2 ** 126] * 2] * 2 and bound.tolist() == [1, 1]

    def test_a_dominant_truncation_takes_more_bits_at_once(self, monkeypatch):
        # each truncation of this form is dominant by a margin of 1, less
        # than the bound asks: k doubles before any round, up to A itself
        x = 2 ** 300
        rounds = []
        monkeypatch.setattr(signature, "_proposal",
                            lambda b, e: rounds.append(b) or _proposal(b, e))
        truncations = spy_truncations(monkeypatch)
        assert signature_of([[x, x - 1], [x - 1, x]]) == SignatureResult(2, 2, 2, 0, True)
        assert [k for k, _ in truncations] == [128, 256, 512] and rounds == []

    def test_truncation_floors_the_equilibrated_matrix(self):
        rng = random.Random(22001)
        for _ in range(100):
            n = rng.randint(1, 6)
            a = integer_symmetric(n, lambda: rng.randint(-2 ** 400, 2 ** 400) >> rng.randint(0, 400))
            if not any(map(any, a)):
                continue
            exponents = _exponents(np.abs(np.array(a, dtype=object)))
            for k in (128, 256, 512, 1024):
                s, bound = signature._truncated(np.array(a, dtype=object), exponents, k)
                if k >= 2 * max(exponents):
                    assert s.tolist() == a and not bound.any()
                    break
                assert bound.tolist() == [1] * n
                for i in range(n):
                    for j in range(n):
                        scaled = Fraction(a[i][j] * 2 ** k, 2 ** (exponents[i] + exponents[j]))
                        assert s[i, j] == math.floor(scaled)
                        assert abs(s[i, j]) <= 2 ** k


def spy_deflation_stages(monkeypatch):
    """In order, ("stage", k, truncated) for every stage the congruence
    starts and "deflate" for every deflation."""
    events = []
    truncated, pivot_columns = signature._truncated, _pivot_columns

    def stage(a, exponents, k):
        s, bound = truncated(a, exponents, k)
        events.append(("stage", k, bool(bound.any())))
        return s, bound

    monkeypatch.setattr(signature, "_truncated", stage)
    monkeypatch.setattr(signature, "_pivot_columns",
                        lambda matrix: events.append("deflate") or pivot_columns(matrix))
    return events


def planted(rng, bits, d):
    """X diag(d) X^T for a random X with entries of the given bits."""
    n = len(d)
    x = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)] for _ in range(n)]
    return [[sum(x[i][k] * d[k] * x[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def six_cusp_region_form():
    """Theta_3 of the six-cusp map with u = x: rank 55 of 56, entries of
    600 to 1200 bits."""
    forms = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cuspcount.pipeline.signature_of",
                      lambda m: forms.append(m) or signature_of(m))
        census(parse_problem(SIX_CUSP_TEXT.replace("u = x - 1", "u = x")))
    return forms[2]


class TestDeflation:
    def test_paper_forms_need_no_deflation(self, monkeypatch):
        # a dominant congruent copy proves the six- and eight-cusp forms
        # nonsingular, in truncated stages: the echelon form never runs
        events = spy_deflation_stages(monkeypatch)
        for text in (SIX_CUSP_TEXT, EIGHT_CUSP_TEXT):
            census(parse_problem(text))
        assert "deflate" not in events
        assert len(events) == 8 and all(truncated for _, _, truncated in events)

    @pytest.mark.parametrize("build, expected, stages", [
        (lambda: [[0] * 3] * 3, SignatureResult(0, 0, 0, 0, False), 0),
        (lambda: [[1, 2, 3], [2, 4, 6], [3, 6, 10]], SignatureResult(2, 2, 2, 0, False), 0),
        (lambda: planted(random.Random(24001), 300, [1, -1, 1, 0, -1, 1]),
         SignatureResult(1, 5, 3, 2, False), 1),
        (six_cusp_region_form, SignatureResult(-1, 55, 27, 28, False), 1),
    ], ids=["zero", "small entries", "large entries", "six-cusp region form"])
    def test_singular_forms_deflate_once(self, monkeypatch, build, expected, stages):
        # the exact stage needs a proof of nonsingularity before its first
        # round, and a truncated stage that ends uncertified asks for one:
        # the deflation runs once, and the rounds go on on A[N, N]
        matrix = build()
        events = spy_deflation_stages(monkeypatch)
        assert signature_of(matrix) == expected
        assert events.count("deflate") == 1
        # stages: the truncated stages that end uncertified before it
        before = events[:events.index("deflate")]
        assert [k for _, k, _ in before] == [128 * 2 ** i for i in range(stages + 1)]
        assert [truncated for _, _, truncated in before] == [True] * stages + [stages > 0]

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
    # the lift to least absolute values that the deflation's kernels take,
    # over prime counts on both sides of a power of two and a large odd one
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
    """s*M as integers, s the lcm of the denominators, by per-entry Fraction products."""
    denominator_lcm = 1
    for row in matrix:
        for value in row:
            d = Fraction(value).denominator
            denominator_lcm = denominator_lcm * d // gcd(denominator_lcm, d)
    return [[int(Fraction(v) * denominator_lcm) for v in row] for row in matrix]


class TestScaledIntegerMatrix:
    def test_matches_fraction_products(self):
        # the content of the scaled matrix stays: no rank or inertia needs it gone
        assert _scaled_integer_matrix([[Fraction(4, 3), Fraction(-8, 9)]]) == [[12, -8]]
        assert _scaled_integer_matrix([[6, -4], [-4, 10]]) == [[6, -4], [-4, 10]]
        rng = random.Random(20701)
        cases = [[[0, 0], [0, 0]], [[Fraction(0)]], [[5]], [[Fraction(-3, 7)]]]
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
