"""The finite-dimensional quotient algebra A = Q[x,y]/I and its trace forms.

Given a reduced zero-dimensional Groebner basis G of I, the standard
monomials form a vector-space basis of A.  Multiplication by x and by y
become commuting square matrices, the trace of multiplication-by-h defines
a linear functional T, and each polynomial delta yields a symmetric
quadratic form a -> T(delta * a^2) whose signature counts the real zeros of
the ideal weighted by the sign of delta there.

`build_algebra` is where G is certified, once, with three conditions:
(1) the multiplication matrices commute; (2) G is reduced: monic, no
leading monomial divides another, and every tail monomial is standard, so
each element of G belongs to the border prebasis; (3) every input generator
recorded on G has normal form zero.  By the border-basis criterion (1) and
(2) prove that the standard monomials are a basis of Q[x,y]/(G), and (3)
proves that the inputs lie in (G); Buchberger builds G from the inputs, so
A is the quotient by the ideal of the inputs.

`generates_algebra` decides whether given polynomials generate A itself as
an ideal, by the rank of their multiplication matrices side by side, each
column scaled by a positive integer that clears its denominators: modulo
the first word-size prime of `signature.primes`, and by the exact rank
certificate of `signature.rank` when that falls short.  Both ranks read one
block, climbed from M_x and M_y alone (`_block`), so the product, pair and
trace tables below are read by `form_matrix` alone.  The census uses it for
the one-genericity certificate.

The exact arithmetic runs on integers: M_x and M_y are held as integer
matrices over one positive denominator each, X/dx and Y/dy, and every
coordinate vector as integer numerators over one positive denominator,
content-reduced by one gcd per vector.  Many columns of X and Y are unit
vectors (x*b or y*b is again a basis monomial), so `build_algebra` derives
the nonzero entries of every column once and works on those alone: the
commutation check compares X times each column of Y with Y times the same
column of X, and every matrix-vector product sums the columns of the
matrix at the vector's nonzero coordinates.  Once G is certified,
`build_algebra` computes the three tables every form reads.  The product
table holds the coordinates of each distinct product b_i*b_j of two basis
monomials, the basis monomials first and the others in degree order: a
basis monomial is a unit vector, any other product is M_x (or, without x,
M_y) applied to the product one degree below it, one sparse integer
matrix-vector product X*v over dx*d.  The pair table records, for every
pair (i, j), the position of b_i*b_j in the product table.  The trace
table holds T(b_i*b_j) for every product, as integers over one
denominator.  A form reduces delta to sum_m c_m*b_m, forms its weights
w_k = T(delta*b_k) = sum_m c_m*T(b_m*b_k) by position in the trace table,
contracts them with every product vector, one integer dot product each,
all over one denominator, and fills its rows by position too.
Polynomials are read as their stored integer numerators, keyed by packed
monomials (see `poly`), over their one denominator: a normal form is a
coordinate vector as it stands, and multiplication matrices, traces and
residues modulo a prime scale by that denominator once per polynomial.
The border, product and pair tables key on the packed ints too: x*b is
b + X_KEY, b_i*b_j is b_i + b_j, and their sorted order is the term order.
The Fraction matrix of the public interface, `SymmetricForm.matrix`, is
built from the integers on request.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from .errors import CertificateFailed
from .groebner import GroebnerBasis, _leads, _standard_keys, normal_form
from .poly import (X_KEY, Y_KEY, Monomial, Polynomial, _canonical, divides, pack, unpack,
                   x_exponent)
from .signature import prime_cap, primes, rank, rank_mod

Matrix = tuple[tuple[Fraction, ...], ...]

#: Integer numerators over one positive denominator: a vector (nums, d)
#: stands for nums/d, a matrix (rows, d) for rows/d.
Scaled = tuple[tuple[int, ...], int]
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]
#: The nonzero entries (index, value) of an integer vector.
_Sparse = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SymmetricForm:
    """Exact symmetric matrix of a quadratic form on the quotient algebra:
    gcd-reduced integer rows over one positive denominator, the Fractions
    of `matrix` built from them on request."""

    rows: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def matrix(self) -> Matrix:
        return tuple(tuple(Fraction(v, self.denominator) for v in row) for row in self.rows)


@dataclass(frozen=True, eq=False)
class QuotientAlgebra:
    """Basis, multiplication matrices, product table and trace table of Q[x,y]/I.

    `basis` holds the standard monomials as `Monomial`s; the tables key on
    their packed ints (see `poly`).  `mx` and `my` are the multiplication
    matrices by x and y as integer rows over one positive denominator each.
    `products` maps every distinct product of two basis monomials to its
    coordinates, reduced integers over one positive denominator, the basis
    monomials first and the others in increasing degree order; `pairs[i][j]`
    is the position of b_i*b_j among those products; `traces` holds the
    trace of each product, keyed in the same order, as integers over one
    positive denominator.  Only `form_matrix` reads `products`, `pairs` and
    `traces`; `generates_algebra` needs `gb`, `basis`, `mx` and `my`.
    `build_algebra` computes all of them once; instances never change and
    may be shared freely between threads and the form builders below.
    """

    gb: GroebnerBasis
    basis: tuple[Monomial, ...]
    mx: ScaledMatrix
    my: ScaledMatrix
    products: dict[int, Scaled]
    pairs: tuple[tuple[int, ...], ...]
    traces: tuple[dict[int, int], int]

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_algebra(gb: GroebnerBasis) -> QuotientAlgebra:
    """Construct and certify the quotient algebra of a zero-dimensional basis.

    Condition (1) is checked on integer numerators: with M_x = X/dx and
    M_y = Y/dy, M_x*M_y = XY/(dx*dy) and M_y*M_x = YX/(dx*dy), so the
    matrices commute exactly when XY = YX (`_commute`).  The product, pair
    and trace tables are computed once the three conditions hold.

    Raises NotZeroDimensional when the basis has infinitely many standard
    monomials, and CertificateFailed naming the failed condition when any of
    the three certificate conditions in the module docstring fails.
    """
    basis = _standard_keys(gb)
    _require_reduced(gb)
    dim = len(basis)
    units = {b: (tuple(int(j == i) for j in range(dim)), 1) for i, b in enumerate(basis)}
    border: dict[int, Scaled] = {}
    index = {m: i for i, m in enumerate(basis)}

    def column(product: int) -> Scaled:
        vec = units.get(product) or border.get(product)
        if vec is None:
            residue = normal_form(_canonical({product: 1}, 1), gb)
            coords = [0] * dim
            for mono, num in residue._nums.items():
                coords[index[mono]] = num
            vec = tuple(coords), residue.denominator
            border[product] = vec
        return vec

    def matrix(columns: list[Scaled]) -> tuple[ScaledMatrix, list[_Sparse]]:
        # the least common denominator of reduced columns leaves the matrix
        # reduced; the nonzero entries of its columns are all that is read
        den = lcm(*(d for _, d in columns))
        scaled = [[v * (den // d) for v in nums] for nums, d in columns]
        nonzeros = [tuple((r, v) for r, v in enumerate(col) if v) for col in scaled]
        return (tuple(zip(*scaled)), den), nonzeros

    mx, x_cols = matrix([column(b + X_KEY) for b in basis])
    my, y_cols = matrix([column(b + Y_KEY) for b in basis])
    if not _commute(x_cols, y_cols, dim):
        raise CertificateFailed("multiplication matrices fail to commute; "
                                "the basis is not a Groebner basis of its ideal")
    for i, p in enumerate(gb.inputs):
        if not normal_form(p, gb).is_zero():
            raise CertificateFailed(f"input generator {i} has a nonzero normal form; "
                                    "the basis does not generate its inputs")

    # the product one degree below a product of two basis monomials is again
    # one, because the basis is closed under division
    products = dict(units)
    for m in sorted({bi + bj for bi in basis for bj in basis} - units.keys()):
        # M*(v/d) = (M's numerators * v)/(dm*d)
        (_, dm), cols, previous = ((mx, x_cols, m - X_KEY) if x_exponent(m)
                                   else (my, y_cols, m - Y_KEY))
        nums, den = products[previous]
        product = _apply(cols, [(k, v) for k, v in enumerate(nums) if v], dim)
        den *= dm
        g = gcd(den, *product)
        products[m] = tuple(v // g for v in product), den // g
    # pairs[i][j] is the position of b_i*b_j
    position = {m: k for k, m in enumerate(products)}
    pairs = tuple(tuple(position[bi + bj] for bj in basis) for bi in basis)

    # T(b_k) is the sum over j of coordinate j of b_k*b_j, here tau_k / den
    vectors = tuple(products.values())
    den = lcm(*(d for _, d in vectors))
    scales = [den // d for _, d in vectors]
    tau = [sum(vectors[p][0][j] * scales[p] for j, p in enumerate(row)) for row in pairs]
    entries, trace_den = _contract(tau, den, vectors)
    return QuotientAlgebra(gb, tuple(map(unpack, basis)), mx, my, products, pairs,
                           (dict(zip(products, entries)), trace_den))


def _commute(x_cols: list[_Sparse], y_cols: list[_Sparse], n: int) -> bool:
    """XY = YX for the n x n integer matrices X and Y given by the nonzero
    entries of their columns: column j of XY is X times column j of Y, and
    both sides of each column are summed over those nonzeros alone."""
    return all(_apply(x_cols, yc, n) == _apply(y_cols, xc, n)
               for xc, yc in zip(x_cols, y_cols))


def _apply(columns: list[_Sparse], vector, n: int) -> list[int]:
    """A*v as a list of n integers, for the matrix A given by the nonzero
    entries of its columns and v by its nonzero entries (k, v_k)."""
    out = [0] * n
    for k, v in vector:
        for r, a in columns[k]:
            out[r] += a * v
    return out


def _contract(weights: list[int], weight_den: int,
              vectors: Collection[Scaled]) -> tuple[list[int], int]:
    """w . c for the weight vector w = weights/weight_den and each of the
    coordinate vectors c, as gcd-reduced integers over one positive
    denominator."""
    den = lcm(*(d for _, d in vectors))
    entries = [sum(map(mul, weights, nums)) * (den // d) for nums, d in vectors]
    den *= weight_den
    g = gcd(den, *entries)
    return [v // g for v in entries], den // g


def _require_reduced(gb: GroebnerBasis) -> None:
    """Certificate condition (2): G is monic and every tail monomial is standard."""
    leads = _leads(gb)
    for i, (g, lead) in enumerate(zip(gb.generators, leads)):
        if g._nums[lead] != g.denominator:
            raise CertificateFailed(f"basis element {i} is not monic")
        for mono in g._nums:
            if any(divides(other, mono) for j, other in enumerate(leads)
                   if j != i or mono != lead):
                raise CertificateFailed(
                    f"basis element {i} is not reduced: its term {unpack(mono)} is "
                    "divisible by another leading monomial")


def _basis_index(algebra: QuotientAlgebra) -> dict[int, int]:
    """Position of each basis monomial by its packed key."""
    return {pack(*b): i for i, b in enumerate(algebra.basis)}


def generates_algebra(algebra: QuotientAlgebra, hs) -> bool:
    """True iff the polynomials hs generate the whole algebra as an ideal.

    The ideal they generate is the column space of the n x kn block
    [M_h1 | ... | M_hk] of their multiplication matrices, so the answer is
    whether that block has rank n = dim A; the zero algebra is generated by
    anything.  Scaling a column by a positive integer changes no rank, so
    both tests run on the integer columns of `_block`.  Full rank of the
    block modulo any prime proves full rank over Q, because reduction
    modulo a prime is a ring map and cannot raise a rank.  The first prime
    of the descending stream is tried; when the rank falls short modulo it,
    as it may when the prime divides a denominator, the exact rank of the
    same block decides, so a false verdict is exact too.
    """
    n = algebra.dim
    if n == 0:
        return True
    reduced = [normal_form(h, algebra.gb) for h in hs]
    p = next(primes(prime_cap(n)))
    if rank_mod(_block(algebra, reduced, p), p) == n:
        return True
    return rank(_block(algebra, reduced)) == n


def _block(algebra: QuotientAlgebra, reduced, p: int | None = None) -> np.ndarray:
    """[M_h1 | ... | M_hk] for hs already in normal form, with each column
    scaled by a positive integer: exact, as Python ints in an object array,
    or modulo a prime p in int64.

    The column of M_h for a basis monomial b holds the coordinates of h*b:
    those of h itself for b = 1, else M_x or M_y applied to the column of
    b/x or b/y, which is standard because the basis is closed under
    division.  The recursion runs on the integer numerators X = dx*M_x,
    Y = dy*M_y and h.denominator*h, climbing in y first and then in x, so
    the column of b = x^i y^j is the exact one times
    h.denominator * dx**i * dy**j, which changes no rank.  Any prime
    p <= prime_cap(n) serves, and keeps each product in int64.
    """
    n = algebra.dim
    index = _basis_index(algebra)
    if p is None:
        mx, my = (np.array(rows, dtype=object) for rows, _ in (algebra.mx, algebra.my))
    else:
        mx, my = (np.array([[v % p for v in row] for row in rows], dtype=np.int64)
                  for rows, _ in (algebra.mx, algebra.my))
    columns = np.zeros((n, n, len(reduced)), dtype=mx.dtype)
    for k, h in enumerate(reduced):
        for mono, num in h._nums.items():
            columns[0, index[mono], k] = num if p is None else num % p
    for b, j in index.items():
        if j:
            previous, matrix = (b - X_KEY, mx) if x_exponent(b) else (b - Y_KEY, my)
            column = matrix @ columns[index[previous]]
            columns[j] = column if p is None else column % p
    return columns.transpose(1, 2, 0).reshape(n, -1)


def form_matrix(algebra: QuotientAlgebra, delta: Polynomial) -> SymmetricForm:
    """Symmetric matrix of the quadratic form a -> trace(delta * a^2).

    Entry (i, j) is the trace of multiplication by delta * b_i * b_j.  Modulo
    the ideal b_i * b_j = sum_k c_ij[k] * b_k, where c_ij is the coordinate
    vector of the product, and the trace is linear and blind to the ideal, so
    the entry equals w . c_ij for the weight vector w_k = trace(delta * b_k).
    Once delta is reduced to sum_m c_m * b_m, w_k = sum_m c_m * T(b_m * b_k)
    is read off the trace table at the positions of the pair table, and
    entry (i, j) is the contraction at position pairs[i][j].  The matrix is
    symmetric by construction.
    """
    traces, trace_den = algebra.traces
    values = tuple(traces.values())
    residue = normal_form(delta, algebra.gb)
    index = _basis_index(algebra)
    weights = [0] * algebra.dim
    for mono, c in residue._nums.items():
        # row m of the pair table locates b_m * b_k for every k
        weights = [w + c * values[p] for w, p in zip(weights, algebra.pairs[index[mono]])]
    entries, den = _contract(weights, trace_den * residue.denominator,
                             algebra.products.values())
    rows = tuple(tuple(map(entries.__getitem__, row)) for row in algebra.pairs)
    return SymmetricForm(rows, den)
