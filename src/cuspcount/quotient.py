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
an ideal, by the rank of their multiplication matrices side by side: modulo
one word-size prime first, exactly when that falls short.  The census uses it
for the one-genericity certificate.

The exact arithmetic runs on integers: M_x and M_y are held as integer
matrices over one positive denominator each, X/dx and Y/dy, and the
coordinate vector of every monomial as integer numerators over one
positive denominator, content-reduced by one gcd per vector.  Normal forms
of monomials are computed once and cached: the coordinate vector of
x^a*y^b is reached from its neighbours by one integer matrix-vector
product, X*v over dx*d, rather than a fresh division.  The trace is one
integer table over one denominator per algebra: T(b_i*b_j) for every
distinct product of two basis monomials.  A form reduces delta, reads its
weights w_k = T(delta*b_k) off the table and applies them to the
coordinates of each distinct b_i*b_j: one integer dot product each, all
over one denominator.  Polynomials are read as their integer numerators
over their one denominator (`Polynomial.numerators`,
`Polynomial.denominator`): a normal form is a coordinate vector as it
stands, and multiplication matrices, traces and residues modulo a prime
scale by that denominator once per polynomial.  The Fraction matrices and
coordinates of the public interface are built from the integers on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from .errors import CertificateFailed
from .groebner import (GroebnerBasis, leading_monomial, normal_form,
                       standard_monomials)
from .poly import Monomial, Polynomial
from .signature import _prime_pool, prime_cap, rank, rank_mod

Matrix = tuple[tuple[Fraction, ...], ...]

#: Integer numerators over one positive denominator: a vector (nums, d)
#: stands for nums/d, a matrix (rows, d) for rows/d.
Scaled = tuple[tuple[int, ...], int]
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]

#: Bits of the prime pool the modular rank draws from (about 38 primes).
_RANK_POOL_BITS = 1024


@dataclass(frozen=True)
class SymmetricForm:
    """Exact symmetric matrix of a quadratic form on the quotient algebra:
    gcd-reduced integer rows over one positive denominator, the Fractions
    of `matrix` built from them on request."""

    rows: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def matrix(self) -> Matrix:
        return _to_fractions((self.rows, self.denominator))


def _to_fractions(scaled: ScaledMatrix) -> Matrix:
    rows, den = scaled
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


class QuotientAlgebra:
    """Basis, multiplication matrices and trace table of Q[x,y]/I.

    `mx` and `my` are the multiplication matrices by x and y as integer
    rows over one positive denominator each; the trace table, built on
    first use, holds the trace of every product of two basis monomials.
    Immutable after construction (internal caches only grow); instances may
    be shared freely between threads and the form builders below.
    """

    def __init__(self, gb: GroebnerBasis, basis: tuple[Monomial, ...],
                 mx: ScaledMatrix, my: ScaledMatrix):
        self.gb = gb
        self.basis = basis
        self._mx = mx
        self._my = my
        self._index = {m: i for i, m in enumerate(basis)}
        self._vectors: dict[Monomial, Scaled] = {}
        for i, mono in enumerate(basis):
            self._vectors[mono] = (tuple(int(j == i) for j in range(len(basis))), 1)
        if not basis:
            self._vectors[Monomial(0, 0)] = ((), 1)
        self._traces: tuple[dict[Monomial, int], int] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def mult_x(self) -> Matrix:
        """Matrix of multiplication by x, in Fractions."""
        return _to_fractions(self._mx)

    @property
    def mult_y(self) -> Matrix:
        """Matrix of multiplication by y, in Fractions."""
        return _to_fractions(self._my)

    def coordinates(self, mono: Monomial) -> tuple[Fraction, ...]:
        """Coordinate vector of the residue class of a monomial."""
        nums, den = self._vector(mono)
        return tuple(Fraction(v, den) for v in nums)

    def _vector(self, mono: Monomial) -> Scaled:
        """Coordinates of a monomial as reduced integer numerators over one
        positive denominator."""
        cached = self._vectors.get(mono)
        if cached is not None:
            return cached
        # reach the monomial from a smaller cached one, one variable at a time
        pending = [mono]
        while pending:
            m = pending[-1]
            if m in self._vectors:
                pending.pop()
                continue
            prev = Monomial(m.ex - 1, m.ey) if m.ex else Monomial(m.ex, m.ey - 1)
            prev_vec = self._vectors.get(prev)
            if prev_vec is None:
                pending.append(prev)
                continue
            # M*(v/d) = (rows*v)/(dm*d)
            rows, dm = self._mx if m.ex else self._my
            nums, den = prev_vec
            product = [sum(map(mul, row, nums)) for row in rows]
            den *= dm
            g = gcd(den, *product)
            self._vectors[m] = tuple(v // g for v in product), den // g
            pending.pop()
        return self._vectors[mono]

    def _trace_table(self) -> tuple[dict[Monomial, int], int]:
        """T(b_i*b_j) for every distinct product of two basis monomials, as
        gcd-reduced integers over one positive denominator: T(b_k) is the sum
        over j of coordinate j of b_k*b_j, and T(m) = sum_k T(b_k) * m_k."""
        if self._traces is None:
            basis = self.basis
            vectors = {bi * bj: self._vector(bi * bj) for bi in basis for bj in basis}
            den = lcm(*(d for _, d in vectors.values()))
            tau = [sum(nums[j] * (den // d) for j, (nums, d) in
                       enumerate(vectors[b * other] for other in basis)) for b in basis]
            # T(b_k) = tau_k / den, so T(m) = (tau . nums) * (den / d) / den**2
            table = {m: sum(map(mul, tau, nums)) * (den // d)
                     for m, (nums, d) in vectors.items()}
            g = gcd(den * den, *table.values())
            self._traces = {m: t // g for m, t in table.items()}, den * den // g
        return self._traces


def build_algebra(gb: GroebnerBasis) -> QuotientAlgebra:
    """Construct and certify the quotient algebra of a zero-dimensional basis.

    Condition (1) is checked on integer numerators: with M_x = X/dx and
    M_y = Y/dy, M_x*M_y = XY/(dx*dy) and M_y*M_x = YX/(dx*dy), so the
    matrices commute exactly when XY = YX.

    Raises NotZeroDimensional when the basis has infinitely many standard
    monomials, and CertificateFailed naming the failed condition when any of
    the three certificate conditions in the module docstring fails.
    """
    basis = standard_monomials(gb)
    _require_reduced(gb)
    dim = len(basis)
    standard = set(basis)
    border: dict[Monomial, Scaled] = {}
    index = {m: i for i, m in enumerate(basis)}

    def column(product: Monomial) -> Scaled:
        if product in standard:
            return tuple(int(j == index[product]) for j in range(dim)), 1
        vec = border.get(product)
        if vec is None:
            residue = normal_form(Polynomial.monomial(product), gb)
            coords = [0] * dim
            for mono, num in residue.numerators.items():
                coords[index[mono]] = num
            vec = tuple(coords), residue.denominator
            border[product] = vec
        return vec

    def matrix(columns: list[Scaled]) -> ScaledMatrix:
        # the least common denominator of reduced columns leaves the matrix reduced
        den = lcm(*(d for _, d in columns))
        scaled = [[v * (den // d) for v in nums] for nums, d in columns]
        return tuple(zip(*scaled)), den

    mx = matrix([column(Monomial(b.ex + 1, b.ey)) for b in basis])
    my = matrix([column(Monomial(b.ex, b.ey + 1)) for b in basis])
    x, y = mx[0], my[0]
    x_cols, y_cols = tuple(zip(*x)), tuple(zip(*y))
    if any(sum(map(mul, xr, yc)) != sum(map(mul, yr, xc))
           for xr, yr in zip(x, y) for xc, yc in zip(x_cols, y_cols)):
        raise CertificateFailed("multiplication matrices fail to commute; "
                                "the basis is not a Groebner basis of its ideal")
    for i, p in enumerate(gb.inputs):
        if not normal_form(p, gb).is_zero():
            raise CertificateFailed(f"input generator {i} has a nonzero normal form; "
                                    "the basis does not generate its inputs")
    algebra = QuotientAlgebra(gb, basis, mx, my)
    algebra._vectors.update(border)
    return algebra


def _require_reduced(gb: GroebnerBasis) -> None:
    """Certificate condition (2): G is monic and every tail monomial is standard."""
    leads = [leading_monomial(g) for g in gb.generators]
    for i, (g, lead) in enumerate(zip(gb.generators, leads)):
        if g.numerators[lead] != g.denominator:
            raise CertificateFailed(f"basis element {i} is not monic")
        for mono in g.numerators:
            if any(other.divides(mono) for j, other in enumerate(leads)
                   if j != i or mono != lead):
                raise CertificateFailed(
                    f"basis element {i} is not reduced: its term {mono} is "
                    "divisible by another leading monomial")


def mult_matrix(algebra: QuotientAlgebra, h: Polynomial) -> Matrix:
    """Matrix of multiplication by h on the quotient, in the standard basis.

    Equals the evaluation of h at the pair of generator matrices; h is
    reduced internally, so any member of the ideal yields the zero matrix.
    """
    dim = algebra.dim
    terms = h.numerators.items()
    columns = []
    for b in algebra.basis:
        parts = [(c, algebra._vector(mono * b)) for mono, c in terms]
        den = lcm(*(d for _, (_, d) in parts))
        col = [0] * dim
        for c, (nums, d) in parts:
            scale = c * (den // d)
            col = [a + scale * v for a, v in zip(col, nums)]
        den *= h.denominator
        columns.append([Fraction(v, den) for v in col])
    return tuple(zip(*columns))


def generates_algebra(algebra: QuotientAlgebra, hs) -> bool:
    """True iff the polynomials hs generate the whole algebra as an ideal.

    The ideal they generate is the column space of the n x kn block
    [M_h1 | ... | M_hk] of their multiplication matrices, so the answer is
    whether that block has rank n = dim A; the zero algebra is generated by
    anything.  Full rank modulo a prime that divides no denominator of M_x,
    M_y or the reduced hs proves full rank over Q, because reduction modulo
    such a prime is a ring map and cannot raise a rank.  One usable prime
    is tried; when the rank falls short modulo it, the exact rank decides,
    so a false verdict is exact too.
    """
    n = algebra.dim
    if n == 0:
        return True
    reduced = [normal_form(h, algebra.gb) for h in hs]
    for p in _prime_pool(prime_cap(n), _RANK_POOL_BITS):
        try:
            block = _block_mod(algebra, reduced, p)
        except ValueError:  # p divides a denominator
            continue
        if rank_mod(block, p) == n:
            return True
        break
    blocks = [mult_matrix(algebra, h) for h in reduced]
    return rank([sum((m[i] for m in blocks), ()) for i in range(n)]) == n


def _block_mod(algebra: QuotientAlgebra, reduced, p: int) -> np.ndarray:
    """[M_h1 | ... | M_hk] modulo p for hs already in normal form.

    The column of M_h for a basis monomial b holds the coordinates of h*b:
    those of h itself for b = 1, else M_x or M_y applied to the column of
    b/x or b/y, which is standard because the basis is closed under
    division.  p < prime_cap(n) keeps each product in int64.
    """
    n = algebra.dim
    mx, my = (np.array([[v % p for v in row] for row in rows], dtype=np.int64)
              * pow(den, -1, p) % p for rows, den in (algebra._mx, algebra._my))
    columns = np.zeros((n, n, len(reduced)), dtype=np.int64)
    for k, h in enumerate(reduced):
        inverse = pow(h.denominator, -1, p)  # ValueError when p divides it
        for mono, num in h.numerators.items():
            columns[0, algebra._index[mono], k] = num * inverse % p
    for j, b in enumerate(algebra.basis[1:], start=1):
        if b.ex:
            previous, matrix = Monomial(b.ex - 1, b.ey), mx
        else:
            previous, matrix = Monomial(b.ex, b.ey - 1), my
        columns[j] = matrix @ columns[algebra._index[previous]] % p
    return columns.transpose(1, 2, 0).reshape(n, -1)


def form_matrix(algebra: QuotientAlgebra, delta: Polynomial) -> SymmetricForm:
    """Symmetric matrix of the quadratic form a -> trace(delta * a^2).

    Entry (i, j) is the trace of multiplication by delta * b_i * b_j.  Modulo
    the ideal b_i * b_j = sum_k c_ij[k] * b_k, where c_ij is the coordinate
    vector of the product, and the trace is linear and blind to the ideal, so
    the entry equals w . c_ij for the weight vector w_k = trace(delta * b_k).
    Once delta is reduced, every delta-term times b_k is a product of two
    basis monomials, so the weights are read off the trace table.  The
    matrix is symmetric by construction.
    """
    basis = algebra.basis
    traces, trace_den = algebra._trace_table()
    residue = normal_form(delta, algebra.gb)
    terms = residue.numerators.items()
    # w_k over trace_den * residue.denominator
    weights = [sum(c * traces[mono * b] for mono, c in terms) for b in basis]
    vectors = {product: algebra._vector(product) for product in traces}
    den = lcm(*(d for _, d in vectors.values()))
    entries = {product: sum(map(mul, weights, nums)) * (den // d)
               for product, (nums, d) in vectors.items()}
    den *= trace_den * residue.denominator
    g = gcd(den, *entries.values())
    entries = {product: v // g for product, v in entries.items()}
    rows = tuple(tuple(entries[bi * bj] for bj in basis) for bi in basis)
    return SymmetricForm(rows, den // g)
