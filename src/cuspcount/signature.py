"""Exact inertia of symmetric rational matrices, exact rank of any matrix.

Scaling a matrix by a positive integer changes neither its rank nor, when
it is symmetric, its inertia, so the counts run on the integer matrix A
that the least common multiple of the entries' denominators clears; a
matrix of ints is used as it is.  One certificate gives them: a congruence
to a diagonally dominant matrix, which also proves A nonsingular, and,
only where the congruence needs that proof first, an exact deflation of
the kernel.

Congruence.  By Sylvester's law of inertia, B = W^T A W has the inertia of
A for every nonsingular W.  If every row of B is strictly diagonally
dominant, B has the inertia of its diagonal: along diag(B) + t*offdiag(B),
0 <= t <= 1, every row stays dominant, so by Gershgorin's discs no
eigenvalue crosses zero.  The rows are weighted by the powers of two that
equilibrate B, which is the same test on the congruent E B E, E = diag(w).
W is proposed in float64 from an LDL^T of the equilibration D A D, where
D = diag(2**-e_i) and 2**(2 e_i) exceeds the largest entry of row i, so
every entry is below 1.  The pivot is the largest live diagonal entry;
where every live diagonal entry is below half the largest live
off-diagonal entry s_ij, the rotation (e_i + e_j, e_i - e_j) first turns
that 2 x 2 block into one whose diagonal is at least |s_ij|, which bounds
the multipliers by 2.  W is the integer matrix D' R U: D' the powers of
two of D up to a common factor, R the product of the rotations, and U the
inverse transpose of the unit triangular factor, rounded with diagonal
exactly 2**_PRECISION and kept triangular in the pivot order.  So W is
nonsingular by construction, whatever the rounding.  B is formed exactly
by `products.congruent_copy`: A W from float64 products of the balanced
16-bit digits of A and W, the error-free splitting of Ozaki, Ogita, Oishi
and Rump, carried back to digits before a partial sum could pass 2**53,
so that every float64 sum is an exact integer whatever the order of the
additions; then W^T (A W) from those digits in the same way, on and above
the diagonal only, since B is symmetric because A is.  The floating-point
step only proposes, and a poor W costs another round on B, never
soundness.  The rounds on A go on for as long as it takes: they run only
once A is proven nonsingular (see Deflation).

Truncation.  The rounds first run on the top k = 128 bits of D A D.  With
e_i as above, |A_ij| < 2**(e_i + e_j); let S_ij be the floor of
2**(k - e_i - e_j) A_ij, formed by exact shifts.  Then
2**k D A D = S + X with 0 <= X_ij < 1, and 2**k D A D, a congruence of A
by a positive diagonal, has the inertia of A.  After rounds W_1, ..., W_r
with product V, the copy is B_t = V^T S V, while the copy of 2**k D A D is
B = B_t + V^T X V, and |(V^T X V)_ij| is at most g_i g_j for any g at
least the column sums of |V|.  g starts at all ones and each round sets g
to |W|^T g, which bounds the column sums of |V W| without forming V.  B_t
is accepted when every weighted row has
(|B_t,ii| - g_i^2) w_i > sum_{j != i} (|B_t,ij| + g_i g_j) w_j: then
every matrix within g_i g_j of B_t, B among them, is strictly dominant,
and its diagonal has the signs of diag(B_t), since it moves by at most
g_i^2 < |B_t,ii|.  k doubles when B_t is dominant but not by the bound,
and when, after a round, some g_i^2 reaches |B_t,ii|: the dropped bits may
then decide that diagonal entry's sign, and every later round builds on it.
Once k >= 2 max e_i nothing is dropped: S is A, g = 0, the test is the one
above and the rounds are those on A.  So the loop ends: k doubles at most
ceil(log2(max e_i / 64)) times before the exact case.  Below it, the
rounds on a nonsingular S end as those on A do, with a dominant B_t, which
passes or doubles k; a singular or nearly singular S leaves in B_t a
diagonal entry that is a rounding residue of the float step, which each
round shrinks against g_i^2 until the second rule doubles k.  Neither rule
asks A to be nonsingular, so a truncated stage ends on a singular A too:
it cannot pass, since a passing copy proves A nonsingular, so it doubles k.

Deflation.  One certificate gives the exact rank of an integer matrix A of
any shape.  The reduced echelon form R of A modulo a prime proposes the
pivot columns N.  Reduction modulo a prime never raises a rank, so full
rank there, |N| = min(rows, columns), proves rank A = |N|.  Otherwise R
proposes a kernel V: per free column f, v_f = 1, v_N = -R[:, f] and zeros
elsewhere.  Its residues are lifted by Chinese remaindering and rational
reconstruction, and A V = 0, checked in integers, proves rank A <= |N|.
A prime whose echelon form has a smaller rank than another's, or the same
rank with lexicographically later pivot columns, divides a nonzero minor
of A and is dropped.  The entries of R are ratios of minors of A, and by
Hadamard's inequality every minor is below 2**h, h the sum of the bits of
A's row norms.  Once the kept primes exceed 2**(2h + 1) the lift is right,
so a check that still fails raises CertificateFailed; h is computed only
once a prime falls short.  For a symmetric A the pivot columns span the
column space, so A[N, N] is nonsingular, T = [e_N | V] is nonsingular and
T^T A T = diag(A[N, N], 0): the inertia of A is that of A[N, N], which the
congruence certifies.  `rank` turns a wide matrix first, so that V has a
vector per column beyond the rank; `rank_mod` shares the echelon form.

When the deflation runs.  The congruence starts on the whole of A.  A copy
that passes proves A nonsingular, since a strictly dominant matrix is and
so is every matrix congruent to it: then rank A = n, and no deflation is
needed.  The deflation runs only where the rounds need that proof: before
the first round of the exact stage, whose rounds end only on a
nonsingular matrix, and when a truncated stage ends uncertified, which a
singular A always does.  Full rank lets the rounds go on where they were;
otherwise they run on A[N, N], nonsingular by the certificate above, and
the rank is |N|.  So the deflation runs at most once per matrix, and
never for a matrix that the first truncated stage certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

from .errors import CertificateFailed, NotSymmetric
from .products import congruent_copy

MatrixLike = Sequence[Sequence]

#: The rounded triangular factor of a congruence has diagonal 2**_PRECISION.
_PRECISION = 53

#: The congruence first runs on the top _TRUNCATION bits of the equilibrated
#: matrix, and doubles them while the dropped bits may decide the inertia.
_TRUNCATION = 128


@dataclass(frozen=True)
class SignatureResult:
    """Inertia of a symmetric matrix: eigenvalue sign counts with multiplicity."""

    signature: int
    rank: int
    positive_count: int
    negative_count: int
    nondegenerate: bool


def _require_symmetric(matrix: MatrixLike, n: int) -> None:
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise NotSymmetric(
                    f"entries ({i},{j}) and ({j},{i}) differ: "
                    f"{matrix[i][j]} vs {matrix[j][i]}")


def _integer_rows(matrix: MatrixLike) -> MatrixLike:
    """s*M as rows of Python ints, for s the least common multiple of the
    entries' denominators, from rows or a 2-d array of ints, numpy integers
    and Fractions; rows of ints are returned as they are.  Raises
    ValueError when the rows differ in length, and TypeError naming the
    first entry of any other type: no count on a float is a certificate.
    """
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()  # numpy integers become Python ints
    width = len(matrix[0]) if matrix else 0
    for i, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {width}")
    if {int} >= set(map(type, chain.from_iterable(matrix))):
        return matrix
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if not isinstance(v, (int, Fraction, np.integer)):
                raise TypeError(f"entry ({i}, {j}) is {v!r} of type {type(v).__name__}; "
                                "a matrix holds ints and Fractions only")
    s = lcm(*(v.denominator for row in matrix for v in row))
    return [[int(v.numerator) * (s // v.denominator) for v in row] for row in matrix]


# -- primes -------------------------------------------------------------------

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


#: Per cap, the descending primes found so far.
_PRIMES: dict[int, list[int]] = {}


def prime_cap(n: int) -> int:
    """Bound on the primes for dimension n: a sum of n products of two
    residues, as in a matrix product, stays below 2**62 and fits in int64.
    The bound is at most 2**28."""
    return isqrt(2 ** 62 // max(n, 64))


def primes(cap: int):
    """The primes up to cap in descending order, one at a time; the primes
    found are cached per cap and shared by every stream."""
    found = _PRIMES.setdefault(cap, [])
    for i in count():
        if i == len(found):
            candidate = found[-1] - 2 if found else cap - 1 + cap % 2
            while not _is_prime(candidate):
                candidate -= 2
                if candidate < 3:
                    raise CertificateFailed("prime pool exhausted")
            found.append(candidate)
        yield found[i]


# -- rank ---------------------------------------------------------------------

def rank(matrix: MatrixLike) -> int:
    """Exact rank of a rational matrix of any shape, by the certificate of
    the module docstring.

    Raises what `_integer_rows` raises; a matrix without entries has rank 0.
    """
    # a positive scaling and a transposition change no rank
    rows = _integer_rows(matrix)
    if not rows or not rows[0]:
        return 0
    if len(rows[0]) > len(rows):
        rows = [list(column) for column in zip(*rows)]
    return len(_pivot_columns(rows))


def _echelon_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The pivot columns and the nonzero rows of the reduced row echelon
    form over GF(p) of an int64 matrix with entries in [0, p); p must be
    below 2**31, so that the product of two residues fits in int64.  The
    input is overwritten."""
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        if nonzero[0]:
            a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        column = a[:, c].copy()
        column[r] = 0
        a[:, c:] = (a[:, c:] - column[:, None] * a[r, c:]) % p
        pivots.append(c)
    return pivots, a[:len(pivots)]


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an int64 matrix; p < 2**31.  The input is not modified."""
    return len(_echelon_mod(matrix % p, p)[0])


# -- deflation ----------------------------------------------------------------

def _residues(matrix: list[list[int]], p: int) -> np.ndarray:
    return np.array([[v % p for v in row] for row in matrix], dtype=np.int64)


def _hadamard_bits(matrix: list[list[int]]) -> int:
    """h with every minor of the integer matrix below 2**h in absolute
    value: by Hadamard's inequality a minor is at most the product of the
    norms of its rows."""
    return sum((sum(v * v for v in row).bit_length() + 1) // 2 for row in matrix)


def _crt(residues: list[list[int]], primes: list[int]) -> tuple[list[int], int]:
    """Per column of residues (one row per prime), the integer of least
    absolute value with those residues; and the product M of the primes.
    The two halves of the primes are lifted first and then joined, so the
    moduli multiply up a product tree."""
    if len(primes) == 1:
        (p,), (row,) = primes, residues
        return [r - p if 2 * r > p else r for r in row], p
    half = len(primes) // 2
    low, m = _crt(residues[:half], primes[:half])
    high, q = _crt(residues[half:], primes[half:])
    step = pow(m, -1, q)
    modulus = m * q
    values = (x + m * ((y - x) * step % q) for x, y in zip(low, high))
    return [v - modulus if 2 * v > modulus else v for v in values], modulus


def _rational(x: int, modulus: int, bound: int) -> Fraction | None:
    """The fraction a/b = x modulo the modulus with |a| <= bound and
    0 < b <= bound, if there is one (Wang's reconstruction)."""
    r0, r1, t0, t1 = modulus, x % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _kernel_lifts(matrix: list[list[int]], pivots: list[int],
                  primes: list[int], blocks: list[np.ndarray]) -> bool:
    """Whether the kernel that the reduced echelon forms propose (blocks:
    per prime, the columns of R off the pivots) lifts to the rationals and
    is annihilated by the matrix exactly."""
    lifted, modulus = _crt([block.ravel().tolist() for block in blocks], primes)
    # the entries of R share one denominator, the minor of its pivot block;
    # the running lcm of the denominators divides it, so each entry scaled
    # by it is a fraction within the bound once the modulus is large enough
    bound = isqrt(modulus // 2)
    common = 1
    fractions = []
    for x in lifted:
        value = _rational(x * common, modulus, bound)
        if value is None:
            return False
        fractions.append(value / common)
        common = lcm(common, fractions[-1].denominator)
    numerators = [int(v * common) for v in fractions]
    free = [c for c in range(len(matrix[0])) if c not in set(pivots)]
    for k, f in enumerate(free):
        column = numerators[k::len(free)]
        for row in matrix:
            if common * row[f] != sum(row[c] * v for c, v in zip(pivots, column)):
                return False
    return True


def _pivot_columns(matrix: list[list[int]]) -> list[int]:
    """The pivot columns N of the echelon form modulo a prime of an integer
    matrix A with at least one column, certified by the deflation of the
    module docstring: |N| = rank A, and A[N, N] is nonsingular when A is
    symmetric."""
    full = min(len(matrix), len(matrix[0]))
    enough = None
    best = None
    kept: list[int] = []
    blocks: list[np.ndarray] = []
    check_at = 0
    for p in primes(prime_cap(len(matrix))):
        pivots, reduced = _echelon_mod(_residues(matrix, p), p)
        if len(pivots) == full:
            return pivots
        if enough is None:
            enough = 2 * _hadamard_bits(matrix) + 1
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue  # p divides a nonzero minor
        if key != best:
            best, kept, blocks = key, [], []
        kept.append(p)
        blocks.append(np.delete(reduced, pivots, axis=1))
        have = sum(q.bit_length() - 1 for q in kept)
        if have >= check_at:
            if _kernel_lifts(matrix, pivots, kept, blocks):
                return pivots
            if have > enough:
                raise CertificateFailed("inertia: the kernel proposed modulo primes "
                                        "does not lift past the Hadamard bound")
            check_at = min(2 * have, enough + 1)


# -- congruence ---------------------------------------------------------------

def _exponents(size: np.ndarray) -> list[int]:
    """e_i with 2**(2 e_i) above every entry of row i, from the absolute
    values of the entries."""
    return [(v.bit_length() + 1) // 2 for v in size.max(axis=1)]


def _dominance(size: np.ndarray, exponents: list[int], bound: np.ndarray) -> tuple[bool, bool]:
    """For the absolute values of an integer matrix b: whether each row of
    E b E is strictly diagonally dominant, for E = diag(2**-e_i), and
    whether each row of E (b + X) E is, for every X with |X_ij| <= g_i g_j,
    g the bound.  Every such b + X then has the signs of diag(b) on its
    diagonal.  With g = 0 the two tests are one."""
    top = max(exponents)
    weights = np.array([1 << (top - e) for e in exponents], dtype=object)
    # |b_ii| w_i > sum_{j != i} |b_ij| w_j is 2 |b_ii| w_i - sum_j |b_ij| w_j > 0,
    # and (|b_ii| - g_i^2) w_i > sum_{j != i} (|b_ij| + g_i g_j) w_j is
    # 2 |b_ii| w_i - sum_j |b_ij| w_j > g_i sum_j g_j w_j
    margin = 2 * size.diagonal() * weights - size @ weights
    if not (margin > 0).all():
        return False, False
    return True, bool((margin > bound * (bound @ weights)).all())


def _elimination(b: np.ndarray,
                 exponents: list[int]) -> tuple[np.ndarray, list[int], list[tuple[int, int]]]:
    """The float step of the proposal for b: the strictly upper triangle of
    U, rounded, with zeros for what overflowed; the pivot order; and the
    rotations (i, j) in the order taken."""
    n = len(b)
    # |b_ij| < 2**(e_i + e_j), so b_ij >> shift fits in 62 bits
    bits = np.add.outer(exponents, exponents)
    shift = np.maximum(bits - 62, 0)
    s = np.ldexp((b >> shift).astype(float), shift - bits)
    low = np.zeros((n, n))  # low[c, k]: multiplier of pivot k in row c
    size, update = np.empty((n, n)), np.empty((n, n))
    live = np.ones(n, dtype=bool)
    order, turns = [], []
    with np.errstate(all="ignore"):
        for _ in range(n):
            # eliminated rows and columns of s are zero
            np.abs(s, out=size)
            diagonal = np.where(live, size.diagonal(), -1.0)
            if size.max() > 2 * diagonal.max():  # an off-diagonal entry
                i, j = divmod(int(size.argmax()), n)
                for m in (s, s.T, low):
                    m[[i, j]] = m[i] + m[j], m[i] - m[j]
                turns.append((i, j))
                diagonal = np.where(live, np.abs(s.diagonal()), -1.0)
            k = int(diagonal.argmax())
            live[k] = False
            order.append(k)
            column = s[:, k] * live
            if s[k, k]:
                low[:, k] = column / s[k, k]
                np.multiply.outer(column, column, out=update)
                update /= s[k, k]
                s -= update  # symmetric to the last bit
            s[k] = s[:, k] = 0.0
        # U = L^-T in pivot order, by forward substitution for L^-1
        unit = low[np.ix_(order, order)]
        inverse = np.eye(n)
        for i in range(1, n):
            inverse[i] -= unit[i, :i] @ inverse[:i]
        upper = np.triu(np.rint(np.ldexp(inverse.T, _PRECISION)), 1)
    upper[~np.isfinite(upper)] = 0
    return upper, order, turns


def _proposal(b: np.ndarray, exponents: list[int]) -> np.ndarray:
    """The integer matrix W = D' R U of the module docstring for b."""
    upper, order, turns = _elimination(b, exponents)
    # an entry m 2**p, 1/2 <= |m| < 1, is m 2**(p - shift) << shift with
    # shift = max(p - 53, 0): m 2**53 is an integer, as a double has 53 bits
    mantissa, power = np.frexp(upper)
    shift = np.maximum(power - 53, 0)
    u = np.ldexp(mantissa, power - shift).astype(np.int64).astype(object)
    wide = shift > 0
    u[wide] = u[wide] << shift[wide]
    np.fill_diagonal(u, 1 << _PRECISION)
    w = np.empty_like(u)
    w[order] = u  # row a of U is row order[a] of W
    for i, j in reversed(turns):
        w[[i, j]] = w[i] + w[j], w[i] - w[j]
    return w << (max(exponents) - np.array(exponents))[:, None]


def _truncated(a: np.ndarray, exponents: list[int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """S and the first bound g of the truncation at k bits: S_ij is
    floor(2**(k - e_i - e_j) a_ij), formed by exact shifts, and g = 1; once
    2**k covers every entry of the equilibrated a, S = a and g = 0."""
    n = len(a)
    if k >= 2 * max(exponents):
        return a, np.zeros(n, dtype=object)
    drop = np.add.outer(exponents, exponents) - k
    return (a << np.maximum(-drop, 0)) >> np.maximum(drop, 0), np.ones(n, dtype=object)


def _congruence_inertia(matrix: MatrixLike, nonsingular: bool = False) -> tuple[int, int, int]:
    """(positive, negative, rank) of a nonempty integer symmetric matrix A,
    certified by a diagonally dominant congruent copy of its truncation at
    k bits, k doubling from _TRUNCATION.  Unless the caller knows A to be
    nonsingular, the deflation runs where the rounds need that proof:
    before the exact stage, and after a truncated stage that ends
    uncertified.  A singular A goes on as A[N, N]."""
    a = np.array(matrix, dtype=object)
    scale = _exponents(np.abs(a))
    k = _TRUNCATION
    while True:
        b, bound = _truncated(a, scale, k)
        truncated = bound.any()
        # the exact stage, or a stage after one that ended uncertified
        if not nonsingular and (k > _TRUNCATION or not truncated):
            kept = _pivot_columns(matrix)
            if len(kept) < len(a):
                return (_congruence_inertia([[matrix[i][j] for j in kept] for i in kept], True)
                        if kept else (0, 0, 0))
            nonsingular = True
        for rounds in count():
            size = np.abs(b)
            exponents = _exponents(size)
            dominant, covered = _dominance(size, exponents, bound)
            if covered:
                positive = int((b.diagonal() > 0).sum())
                return positive, len(b) - positive, len(b)
            if truncated and (dominant or rounds and (bound * bound >= size.diagonal()).any()):
                break  # the dropped bits may decide: take more of them
            w = _proposal(b, exponents)
            b = congruent_copy(b, w)
            if truncated:  # else g stays 0
                bound = np.abs(w).T @ bound
        k *= 2


def signature_of(matrix: MatrixLike) -> SignatureResult:
    """Exact inertia of a symmetric matrix by a certified congruence.

    Raises what `_integer_rows` raises, ValueError when the matrix is not
    square, and NotSymmetric when it is not exactly symmetric; the 0x0
    matrix is legal and has signature 0.
    """
    # positive rescaling preserves inertia, so count on the integer matrix
    rows = _integer_rows(matrix)
    n = len(rows)
    if n and len(rows[0]) != n:
        raise ValueError("matrix must be square")
    _require_symmetric(matrix, n)
    if n == 0:
        return SignatureResult(0, 0, 0, 0, True)
    positive, negative, rank_of = _congruence_inertia(rows)
    return SignatureResult(
        signature=positive - negative,
        rank=rank_of,
        positive_count=positive,
        negative_count=negative,
        nondegenerate=rank_of == n,
    )
