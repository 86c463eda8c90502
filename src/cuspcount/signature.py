"""Exact signature, rank and nondegeneracy of symmetric rational matrices.

Rescaling a matrix by a positive rational never disturbs inertia, so the
counts run on a denominator-cleared integer matrix A.  Inertia is read off
the leading principal minors D_1..D_n of A by Jacobi's rule: when
D_1..D_r are nonzero and r is the rank of A, A is congruent to
diag(D_1, D_2/D_1, ..., D_r/D_(r-1), 0, ..., 0), so the number of negative
eigenvalues is the number of sign changes in (1, D_1, ..., D_r), the
number of positive ones is r minus that, and n - r are zero.

The minors come from one symmetric Gaussian elimination without pivoting
modulo each of a pool of word-size primes, in chunks of primes laid out as
one (n, n, chunk) int64 array.  The pivot of step k is D_(k+1)/D_k mod p,
so D_k mod p is the running product of the pivots.  Chinese remaindering
up a product tree of the primes rebuilds each D_k from primes whose
product reaches 2**(b + 1), where 2**b bounds the product of the row
norms of A: by Hadamard's inequality a minor is at most the product of the
norms of its rows, so every minor of A, leading or bordered, is below 2**b
in absolute value and equals its symmetric residue modulo those primes.
Each prime's residue table comes from one float64 product of the entries'
16-bit limbs with the powers 2**(16j) mod p.  The pivots are taken two at
a time, as 2 x 2 blocks, and each pair of steps inverts its blocks'
determinants by one vectorized Fermat power.

Delayed reduction: `prime_cap` keeps max(n, 64) * p**2 <= 2**62.  A pair
of steps reduces only its two pivot rows into [0, p) and subtracts two
products below p**2 from each entry of the trailing block, so the block
absorbs all n rank-one updates without a reduction and without leaving
int64.

Unlucky primes: the elimination modulo p stops at the first leading minor
p divides.  With r the furthest step any prime reaches, a prime that
stopped earlier divides a nonzero minor; it is dropped, and the pool is
extended until the primes that reach r exceed the bound.  Those primes all
divide D_(r+1), so D_(r+1) = 0 (or r = n), and they rebuild D_1..D_r
exactly.  The rank is r exactly when the trailing block left after step r,
the Schur complement of the leading r x r block, is zero; D_r times each of
its entries is a bordered minor, so the rank is certified when the block is
zero modulo every kept prime.

Congruence: when the block is not zero, a leading minor vanished before the
rank.  The elimination is then repeated on P^T A P, which has the same
inertia (Sylvester's law), for P unit lower triangular with entries from a
fixed seeded sequence in [-2**20, 2**20): the product of its first r
leading minors is a nonzero polynomial of degree r(r+1) in the entries of
P, so an attempt fails with probability at most r(r+1)/2**21
(Schwartz-Zippel).  After `_ATTEMPTS` attempts CertificateFailed is raised.

`signature_of` is the one runtime route to inertia, rank and
nondegeneracy.  The test suite checks it against an independent symmetric
elimination kept under tests/.  The exact rank of a rectangular matrix,
`rank`, goes through it too, via the Gram matrix; `rank_mod` is the cheap
rank over a prime field, a lower bound on the rank over the rationals when
the prime divides no denominator.

A failed internal check raises CertificateFailed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from .errors import CertificateFailed, NotSymmetric

MatrixLike = Sequence[Sequence]

#: Primes are processed in batches of this many.
_PRIME_CHUNK = 256

#: Attempts at Jacobi's rule: the matrix itself, then random congruences.
_ATTEMPTS = 4

#: The congruences draw their multipliers from this seed, so runs repeat.
_CONGRUENCE_SEED = 20800

#: The multipliers of a congruence lie in [-2**_CONGRUENCE_BITS, 2**_CONGRUENCE_BITS).
_CONGRUENCE_BITS = 20

#: 16-bit limbs per float64 product: the primes are below 2**28, so each
#: partial sum is below 512 * 2**16 * 2**28 = 2**53 and exact.
_LIMB_BLOCK = 512


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


# -- primes -------------------------------------------------------------------

def _row_bits(matrix: list[list[int]]) -> list[int]:
    """Per row, a b with the row's Euclidean norm below 2**b."""
    return [((sum(v * v for v in row)).bit_length() + 1) // 2 + 1 for row in matrix]


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


#: Per cap, the descending primes found so far and their running bit totals.
_PRIME_POOLS: dict[int, tuple[list[int], list[int]]] = {}


def prime_cap(n: int) -> int:
    """Bound on the primes for dimension n: a sum of n products of two
    residues, as in a matrix product, stays below 2**62 and fits in int64.
    The bound is at most 2**28."""
    return isqrt(2 ** 62 // max(n, 64))


def _prime_pool(cap: int, min_bits: int) -> list[int]:
    """The shortest prefix of the descending primes below cap whose bits,
    p.bit_length() - 1 each, reach min_bits: its product exceeds 2**min_bits."""
    pool, totals = _PRIME_POOLS.setdefault(cap, ([], []))
    candidate = pool[-1] - 2 if pool else cap - 1 + cap % 2
    have = totals[-1] if totals else 0
    while have < min_bits:
        if _is_prime(candidate):
            pool.append(candidate)
            have += candidate.bit_length() - 1
            totals.append(have)
        candidate -= 2
        if candidate < 3:
            raise CertificateFailed("prime pool exhausted")
    return pool[:bisect_left(totals, min_bits) + 1]


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


# -- modular kernels ----------------------------------------------------------

def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The 16-bit limbs of |v|, least significant first, one float64 row per
    value, and whether each value is negative."""
    width = max(1, max((abs(v).bit_length() + 15) // 16 for v in values))
    raw = b"".join(abs(v).to_bytes(2 * width, "little") for v in values)
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(values), width)
    return limbs.astype(np.float64), np.array([v < 0 for v in values])


def _residue_table(limbs: np.ndarray, negative: np.ndarray,
                   primes: np.ndarray) -> np.ndarray:
    """v mod p for each value (rows) given by its limbs and each prime (columns).

    |v| mod p is the product of the limbs with w_j = 2**(16j) mod p, taken
    in float64 over blocks of `_LIMB_BLOCK` limbs, where it is exact; the
    sign is applied afterwards.
    """
    width = limbs.shape[1]
    weights = np.empty((width, len(primes)), dtype=np.int64)
    weights[0] = 1
    span, power = 1, 65536 % primes  # power is 2**(16*span) mod p
    while span < width:
        take = min(span, width - span)
        weights[span:span + take] = weights[:take] * power % primes
        span, power = 2 * span, power * power % primes
    weights = weights.astype(np.float64)
    table = np.zeros((len(limbs), len(primes)), dtype=np.int64)
    for start in range(0, width, _LIMB_BLOCK):
        block = limbs[:, start:start + _LIMB_BLOCK] @ weights[start:start + _LIMB_BLOCK]
        table += block.astype(np.int64) % primes
    table %= primes
    return np.where(negative[:, None], -table % primes, table)


def _exponent_bits(primes: np.ndarray) -> np.ndarray:
    """The bits of p - 2 for each prime, most significant first, as rows."""
    exponents = primes - 2
    shifts = np.arange(int(exponents.max()).bit_length() - 1, -1, -1)
    return (exponents >> shifts[:, None]) & 1 == 1


def _inverse_mod(values: np.ndarray, primes: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """v**(p - 2) mod p for residues v in [0, p): the inverse of v modulo its
    prime, and zero for zero.  bits is `_exponent_bits(primes)`."""
    out = np.ones_like(values)
    for bit in bits:
        out *= out
        out %= primes
        np.multiply(out, values, out=out, where=bit)
        out %= primes
    return out


def _eliminate(h: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric elimination without pivoting modulo each prime; destroys h.

    h is (n, n, chunk): entry (i, j) of the matrix modulo each prime of the
    chunk, in [0, p).  With the primes on the last axis every update runs
    over contiguous rows of residues.  Returns per prime the step at which
    it stopped (its first zero pivot, or n), the residues of D_1..D_n as an
    (n, chunk) array (those past the stop are meaningless), and whether the
    trailing block at the stop is zero.

    Pivots are taken two at a time, so that one inverse serves two steps:
    with rows r and s of the current block and its leading 2 x 2 block
    [[a, b], [b, c]], a = D_(k+1)/D_k and e = ac - b**2 = D_(k+2)/D_k, and
    the block below loses (c*r - b*s)^T r / e + (a*s - b*r)^T s / e, two
    products below p**2 per entry for two steps.
    """
    n, _, chunk = h.shape
    bits = _exponent_bits(primes)
    steps = np.full(chunk, n)
    clear = np.ones(chunk, dtype=bool)
    minors = np.zeros((n, chunk), dtype=np.int64)
    alive = np.ones(chunk, dtype=bool)
    det = np.ones(chunk, dtype=np.int64)
    for k in range(0, n, 2):
        r = h[k, k:] % primes
        a = r[0]
        stopped = alive & (a == 0)
        if stopped.any():
            at = np.nonzero(stopped)[0]
            steps[at] = k
            clear[at] = ~(h[k:, k:, at] % primes[at]).any(axis=(0, 1))
            alive &= ~stopped
            if not alive.any():
                break
        minors[k] = det * a % primes
        if k + 1 == n:
            break
        s = h[k + 1, k:] % primes
        b, c = s[0], s[1]
        e = (a * c - b * b) % primes
        stopped = alive & (e == 0)
        if stopped.any():
            at = np.nonzero(stopped)[0]
            steps[at] = k + 1
            # the block left by step k alone, times the unit a
            left = (h[k + 1:, k + 1:, at] % primes[at] * a[at]
                    - r[1:, None, at] * r[None, 1:, at])
            clear[at] = ~(left % primes[at]).any(axis=(0, 1))
            alive &= ~stopped
            if not alive.any():
                break
        det = det * e % primes
        minors[k + 1] = det
        if k + 2 == n:
            break
        # a stopped prime runs on with meaningless values, within the same bound
        inverse = _inverse_mod(e, primes, bits)
        below = h[k + 2:, k + 2:]
        below -= ((c * r[2:] - b * s[2:]) % primes * inverse % primes)[:, None] * r[None, 2:]
        below -= ((a * s[2:] - b * r[2:]) % primes * inverse % primes)[:, None] * s[None, 2:]
    return steps, minors, clear


def _crt_symmetric(residues: np.ndarray, primes: list[int]) -> list[int]:
    """The integer of least absolute value with the given residues, per column.

    residues has one row per prime.  With M the product of the primes, the
    value is sum_i s_i * M/p_i modulo M, s_i = r_i * (M/p_i)^-1 mod p_i,
    which numpy forms for all columns at once (each product is below p_i^2).
    The sum runs up a product tree of the primes, one column at a time: a
    node holds x = sum over its leaves of s_i * m/p_i for its own modulus m,
    so two children merge as x_L*m_R + x_R*m_L, with no division.  The root
    sum is below k*M for k primes, and one reduction modulo M ends it.
    The cofactors (M/p_i) mod p_i come down the same tree, each node's from
    its parent's, rather than from one division of M per prime.
    """
    levels = [primes]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append([a * b for a, b in zip(below[::2], below[1::2])]
                      + below[len(below) - len(below) % 2:])
    modulus = levels[-1][0]
    half = modulus // 2
    # (M/m) mod m for each node m, from the root down: node t's parent is
    # t // 2 and its sibling t ^ 1, and (M/m) = (M/parent) * sibling
    cofactors = [1]
    for moduli in reversed(levels[:-1]):
        cofactors = [cofactors[t // 2] % m * (moduli[t ^ 1] if t ^ 1 < len(moduli) else 1) % m
                     for t, m in enumerate(moduli)]
    parr = np.array(primes, dtype=np.int64)
    inverses = _inverse_mod(np.array(cofactors, dtype=np.int64), parr, _exponent_bits(parr))
    scaled = residues * inverses[:, None] % parr[:, None]
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


# -- Jacobi's rule ------------------------------------------------------------

def _leading_minors(matrix: list[list[int]]) -> list[int] | None:
    """D_1..D_r of an integer symmetric matrix of rank r, or None when a
    leading minor vanishes before the rank."""
    n = len(matrix)
    row_bits = _row_bits(matrix)
    need = sum(row_bits) + 1
    cap = prime_cap(n)
    # residues are taken once per distinct entry: a symmetric matrix repeats
    # every off-diagonal entry
    slot: dict[int, int] = {}
    layout = np.array([[slot.setdefault(v, len(slot)) for v in row] for row in matrix],
                      dtype=np.intp)
    limbs, negative = _limbs(list(slot))
    primes: list[int] = []
    runs = []
    want = need
    while True:
        pool = _prime_pool(cap, want)
        for start in range(len(primes), len(pool), _PRIME_CHUNK):
            parr = np.array(pool[start:start + _PRIME_CHUNK], dtype=np.int64)
            runs.append(_eliminate(_residue_table(limbs, negative, parr)[layout], parr))
        primes = pool
        steps, minors, clear = (np.concatenate(parts, axis=-1) for parts in zip(*runs))
        reached = int(steps.max())
        kept = np.nonzero(steps == reached)[0]
        have = sum(primes[i].bit_length() - 1 for i in kept.tolist())
        if have >= need:
            break
        want += need - have  # the primes that stopped short divide a nonzero minor
    if not clear[kept].all():
        return None
    if not reached:
        return []
    kept_primes = [primes[i] for i in kept.tolist()]
    residues = minors[:reached, kept].T
    # D_k is below the product of the first k row norms (Hadamard), so it
    # needs only the first of the kept primes; one product tree serves the
    # minors that need the same whole number of chunks of them
    bits = np.cumsum([p.bit_length() - 1 for p in kept_primes])
    counts = np.searchsorted(bits, np.cumsum(row_bits[:reached]) + 1) + 1
    counts = np.minimum(-(-counts // _PRIME_CHUNK) * _PRIME_CHUNK, len(kept_primes))
    out = []
    for count in dict.fromkeys(counts.tolist()):  # counts never fall with k
        columns = np.nonzero(counts == count)[0]
        out += _crt_symmetric(residues[:count, columns], kept_primes[:count])
    if not all(out):
        raise CertificateFailed("a leading minor reconstructed to zero")
    return out


def _congruence(matrix: list[list[int]], rng: random.Random) -> list[list[int]]:
    """P^T A P for P unit lower triangular with multipliers drawn from rng."""
    n = len(matrix)
    low = -(1 << _CONGRUENCE_BITS)
    p = [[1 if i == j else rng.randrange(low, -low) if i > j else 0 for j in range(n)]
         for i in range(n)]
    ap = [[sum(row[j] * p[j][b] for j in range(b, n)) for b in range(n)] for row in matrix]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            out[a][b] = out[b][a] = sum(p[i][a] * ap[i][b] for i in range(a, n))
    return out


def _certified_minors(matrix: list[list[int]]) -> tuple[list[int], int]:
    """D_1..D_r, r the rank, of the integer symmetric matrix or of a
    congruent copy, and the number of the attempt that certified them."""
    rng = random.Random(_CONGRUENCE_SEED)
    congruent = matrix
    for attempt in range(1, _ATTEMPTS + 1):
        minors = _leading_minors(congruent)
        if minors is not None:
            return minors, attempt
        congruent = _congruence(matrix, rng)
    raise CertificateFailed(f"inertia: a leading minor vanished before the rank "
                            f"in all {_ATTEMPTS} attempts")


def signature_of(matrix: MatrixLike) -> SignatureResult:
    """Exact inertia of a symmetric matrix via Jacobi's rule on its leading minors.

    Raises NotSymmetric when the input is not exactly symmetric; the 0x0
    matrix is legal and has signature 0.
    """
    n = _dimension_of(matrix)
    _require_symmetric(matrix, n)
    if n == 0:
        return SignatureResult(0, 0, 0, 0, True)
    # positive rescaling preserves inertia, so count on the integer matrix
    scaled, _ = _scaled_integer_matrix(matrix)
    minors, _ = _certified_minors(scaled)
    negative = sum(1 for a, b in zip([1] + minors, minors) if (a > 0) != (b > 0))
    positive = len(minors) - negative
    return SignatureResult(
        signature=positive - negative,
        rank=len(minors),
        positive_count=positive,
        negative_count=negative,
        nondegenerate=len(minors) == n,
    )
