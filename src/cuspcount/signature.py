"""Exact signature, rank and nondegeneracy of symmetric rational matrices.

The primary route is an exact characteristic polynomial followed by
Descartes' rule of signs.  For a symmetric matrix every root of the
characteristic polynomial is real, which makes the Descartes counts exact
rather than upper bounds.  Rescaling a matrix by a positive rational never
disturbs inertia, so the counts run on a denominator-cleared integer matrix.

The integer characteristic polynomial has one exact route, a multimodular
Hessenberg reduction: the coefficients are computed modulo enough
word-size primes to exceed a Hadamard-style bound and reconstructed by the
Chinese remainder theorem.  Primes are processed in chunks; each chunk
reduces every distinct matrix entry modulo its primes into one residue
table of the chunk's own size, and each Hessenberg pivot is inverted by one
modular power per prime.  The Chinese remaindering sums the scaled
residues of each coefficient up a product tree of the primes, two integer
products per merge and one reduction at the root, instead of against one
modulus-sized weight per prime.  Rational Hessenberg and the Faddeev-LeVerrier
trace recursion take minutes at dimension 56 with thousand-bit entries,
far outside the pipeline's runtime budget.

`signature_of` is the one runtime route to inertia, rank and
nondegeneracy.  The test suite checks it against an independent symmetric
elimination kept under tests/.  The exact rank of a rectangular matrix,
`rank`, goes through it too, via the Gram matrix; `rank_mod` is the cheap
rank over a prime field, a lower bound on the rank over the rationals when
the prime divides no denominator.

A failed internal check raises CertificateFailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from .errors import CertificateFailed, NotSymmetric

_ONE = Fraction(1)
_ZERO = Fraction(0)

MatrixLike = Sequence[Sequence]

#: Primes are processed in batches of this many.
_PRIME_CHUNK = 256


@dataclass(frozen=True)
class SignatureResult:
    """Inertia of a symmetric matrix: eigenvalue sign counts with multiplicity."""

    signature: int
    rank: int
    positive_count: int
    negative_count: int
    nondegenerate: bool


def _dimension_of(matrix: MatrixLike) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return n


def _require_symmetric(matrix: MatrixLike, n: int) -> None:
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise NotSymmetric(
                    f"entries ({i},{j}) and ({j},{i}) differ: "
                    f"{matrix[i][j]} vs {matrix[j][i]}")


def _scaled_integer_matrix(matrix: MatrixLike) -> tuple[list[list[int]], Fraction]:
    """Return (s*M as integers, s) for the smallest convenient rational s > 0."""
    denominator_lcm = lcm(*(v.denominator for row in matrix for v in row))
    scaled = [[v.numerator * (denominator_lcm // v.denominator) for v in row]
              for row in matrix]
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


# -- integer characteristic polynomial ---------------------------------------

def _coefficient_bound_bits(matrix: list[list[int]], n: int) -> int:
    """Bits of a bound on |char poly coefficients|, via Hadamard on minors."""
    half_bits = sorted(
        ((sum(v * v for v in row)).bit_length() + 1) // 2 + 1 for row in matrix)
    half_bits.reverse()
    best = 1
    acc = 0
    for k in range(1, n + 1):
        acc += half_bits[k - 1]
        best = max(best, comb(n, k).bit_length() + acc)
    return best + 2


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < 3.2e9."""
    if p < 2:
        return False
    for small in (2, 3, 5, 7):
        if p % small == 0:
            return p == small
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


_PRIME_POOLS: dict[int, list[int]] = {}


def prime_cap(n: int) -> int:
    """Bound on the primes for dimension n: a sum of n products of two
    residues, as in a matrix product, stays below 2**62 and fits in int64."""
    return isqrt(2 ** 62 // max(n, 64))


def _prime_pool(cap: int, min_bits: int) -> list[int]:
    """Descending primes below cap whose product exceeds 2**min_bits."""
    pool = _PRIME_POOLS.setdefault(cap, [])
    have = sum(p.bit_length() - 1 for p in pool)
    if pool:
        candidate = pool[-1] - 2
    else:
        candidate = cap if cap % 2 else cap - 1
    while have < min_bits:
        if _is_prime(candidate):
            pool.append(candidate)
            have += candidate.bit_length() - 1
        candidate -= 2
        if candidate < 3:
            raise CertificateFailed("prime pool exhausted")
    have = 0
    for count, p in enumerate(pool, start=1):
        have += p.bit_length() - 1
        if have >= min_bits:
            return pool[:count]
    return pool


def rank(matrix: MatrixLike) -> int:
    """Exact rank of a rational matrix of any shape.

    Over the rationals rank B = rank B B^T, and a positive scaling of B
    changes neither, so the rank is read off the integer Gram matrix by the
    exact route of `signature_of`.
    """
    if not matrix:
        return 0
    scaled, _ = _scaled_integer_matrix(matrix)
    gram = [[sum(a * b for a, b in zip(r, s)) for s in scaled] for r in scaled]
    return signature_of(gram).rank


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an int64 matrix, by row echelon reduction.

    p must be below 2**31, so that the product of two residues fits in
    int64.  The input is not modified.
    """
    a = matrix % p
    rows, cols = a.shape
    r = 0  # rows reduced so far
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.nonzero(a[r:, c])[0]
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        a[r + 1:] = (a[r + 1:] - a[r + 1:, c:c + 1] * a[r]) % p
        r += 1
    return r


def _mod_inverse(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Inverse of each value modulo its prime; zero maps to zero."""
    return np.array([pow(v, -1, p) if v % p else 0
                     for v, p in zip(values.tolist(), primes.tolist())],
                    dtype=np.int64)


def _hessenberg_mod(h: np.ndarray, primes: np.ndarray) -> None:
    """In-place similarity reduction to upper Hessenberg, per prime."""
    _, n, _ = h.shape
    pm_col = primes[:, None]
    pm_block = primes[:, None, None]
    for c in range(n - 2):
        pivot = h[:, c + 1, c]
        below_nonzero = (h[:, c + 2:, c] != 0).any(axis=1)
        need_swap = (pivot == 0) & below_nonzero
        if need_swap.any():
            for idx in np.nonzero(need_swap)[0]:
                sub = h[idx]
                r = c + 2 + int(np.nonzero(sub[c + 2:, c])[0][0])
                sub[[c + 1, r], :] = sub[[r, c + 1], :]
                sub[:, [c + 1, r]] = sub[:, [r, c + 1]]
            pivot = h[:, c + 1, c]
        multipliers = (h[:, c + 2:, c] * _mod_inverse(pivot, primes)[:, None]) % pm_col
        if not multipliers.any():
            continue
        h[:, c + 2:, c:] = (h[:, c + 2:, c:]
                            - multipliers[:, :, None] * h[:, c + 1:c + 2, c:]) % pm_block
        h[:, :, c + 1] = (h[:, :, c + 1]
                          + np.einsum("pkr,pr->pk", h[:, :, c + 2:], multipliers)) % pm_col


def _charpoly_mod(h: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Ascending char poly coefficients per prime for upper Hessenberg input."""
    chunk, n, _ = h.shape
    pm = primes[:, None]
    polys = [np.zeros((chunk, k + 1), dtype=np.int64) for k in range(n + 1)]
    polys[0][:, 0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = polys[k]
        cur[:, 1:k + 1] = prev
        cur[:, :k] = (cur[:, :k] - h[:, k - 1, k - 1][:, None] * prev) % pm
        beta = np.ones(chunk, dtype=np.int64)
        for m in range(2, k + 1):
            beta = (beta * h[:, k - m + 1, k - m]) % primes
            if not beta.any():
                break
            factor = (h[:, k - m, k - 1] * beta) % primes
            cur[:, :k - m + 1] = (cur[:, :k - m + 1]
                                  - factor[:, None] * polys[k - m]) % pm
    return polys[n]


def _char_poly_crt(matrix: list[list[int]]) -> list[int]:
    """Exact integer char poly through enough primes to beat the Hadamard bound."""
    n = len(matrix)
    bound_bits = _coefficient_bound_bits(matrix, n)
    primes = _prime_pool(prime_cap(n), bound_bits + 1)
    # residues are taken once per distinct entry: a symmetric matrix repeats
    # every off-diagonal entry
    slot: dict[int, int] = {}
    layout = np.array([[slot.setdefault(v, len(slot)) for v in row] for row in matrix],
                      dtype=np.intp)
    distinct = list(slot)
    residues = np.empty((len(primes), n + 1), dtype=np.int64)
    for start in range(0, len(primes), _PRIME_CHUNK):
        chunk = primes[start:start + _PRIME_CHUNK]
        parr = np.array(chunk, dtype=np.int64)
        table = np.array([[v % p for v in distinct] for p in chunk], dtype=np.int64)
        h = table[:, layout]
        _hessenberg_mod(h, parr)
        residues[start:start + len(chunk)] = _charpoly_mod(h, parr)

    out = _crt_symmetric(residues, primes)[::-1]
    if out[0] != 1:
        raise CertificateFailed("modular characteristic polynomial reconstruction failed")
    return out


def _crt_symmetric(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The integer of least absolute value with the given residues, per column.

    residues has one row per prime.  With M the product of the primes, the
    value is sum_i s_i * M/p_i modulo M, s_i = r_i * (M/p_i)^-1 mod p_i,
    which numpy forms for all columns at once (each product is below p_i^2).
    The sum runs up a product tree of the primes, one column at a time: a
    node holds x = sum over its leaves of s_i * m/p_i for its own modulus m,
    so two children merge as x_L*m_R + x_R*m_L, with no division.  The root
    sum is below k*M for k primes, and one reduction modulo M ends it.
    """
    levels = [primes]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([a * b for a, b in zip(below[::2], below[1::2])]
                      + below[len(below) - len(below) % 2:])
    modulus = levels[-1][0]
    half = modulus // 2
    parr = np.array(primes, dtype=np.int64)[:, None]
    inverses = np.array([pow(modulus // p % p, -1, p) for p in primes], dtype=np.int64)
    scaled = residues * inverses[:, None] % parr
    out = []
    for column in scaled.T:
        nodes = column.tolist()
        for moduli in levels[:-1]:
            merged = [xl * mr + xr * ml for xl, xr, ml, mr in
                      zip(nodes[::2], nodes[1::2], moduli[::2], moduli[1::2])]
            if len(nodes) % 2:  # the odd node rises unmerged
                merged.append(nodes[-1])
            nodes = merged
        value = nodes[0] % modulus
        out.append(value - modulus if value > half else value)
    return out


def char_poly(matrix: MatrixLike) -> tuple[Fraction, ...]:
    """Coefficients of det(lambda*I - M), descending from lambda^n; leading 1.

    The empty 0x0 matrix yields the constant polynomial (1,).
    """
    n = _dimension_of(matrix)
    if n == 0:
        return (_ONE,)
    scaled, scale = _scaled_integer_matrix(matrix)
    raw = _char_poly_crt(scaled)
    # char(M) coefficients recover from char(s*M) by c_j / s^j
    power = _ONE
    out = []
    for c in raw:
        out.append(Fraction(c) / power)
        power *= scale
    return tuple(out)


# -- Descartes counting -------------------------------------------------------

def _sign_variations(signs: list[int]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _descartes_counts(coeffs: list, n: int) -> tuple[int, int, int]:
    """(positive, negative, zero) root counts for an all-real-root polynomial."""
    coeffs = list(coeffs)
    zero_mult = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero_mult += 1
    top_degree = len(coeffs) - 1
    pos_signs = []
    neg_signs = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        sign = 1 if c > 0 else -1
        pos_signs.append(sign)
        neg_signs.append(sign if (top_degree - i) % 2 == 0 else -sign)
    positive = _sign_variations(pos_signs)
    negative = _sign_variations(neg_signs)
    if positive + negative + zero_mult != n:
        raise CertificateFailed("Descartes counts are inconsistent; "
                           "input cannot have been symmetric")
    return positive, negative, zero_mult


def signature_of(matrix: MatrixLike) -> SignatureResult:
    """Exact inertia of a symmetric matrix via Descartes counts on char_poly.

    Raises NotSymmetric when the input is not exactly symmetric; the 0x0
    matrix is legal and has signature 0.
    """
    n = _dimension_of(matrix)
    _require_symmetric(matrix, n)
    if n == 0:
        return SignatureResult(0, 0, 0, 0, True)
    # positive rescaling preserves inertia, so count on the integer matrix
    scaled, _ = _scaled_integer_matrix(matrix)
    positive, negative, zero_mult = _descartes_counts(_char_poly_crt(scaled), n)
    return SignatureResult(
        signature=positive - negative,
        rank=n - zero_mult,
        positive_count=positive,
        negative_count=negative,
        nondegenerate=zero_mult == 0,
    )
