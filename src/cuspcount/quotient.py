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
word-size primes first, exactly when those fall short.  The census uses it
for the one-genericity certificate.

Normal forms of monomials are computed once and cached: the coordinate
vector of x^a*y^b is reached from its neighbours by one matrix-vector
product rather than a fresh division.  A form matrix needs only the
coordinates of the products b_i*b_j of basis monomials, which the trace
vector needs too, and one weight vector per form: entry (i, j) is the
weight vector w_k = T(delta * b_k) applied to the coordinates of b_i*b_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificateFailed
from .exprio import format_polynomial
from .groebner import (GroebnerBasis, leading_monomial, normal_form,
                       standard_monomials)
from .poly import Monomial, Polynomial
from .signature import _prime_pool, prime_cap, rank, rank_mod

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)

#: Usable primes whose rank must all fall short before the exact rank runs.
_RANK_PRIMES = 3

#: Bits of the prime pool the modular rank draws from (about 38 primes).
_RANK_POOL_BITS = 1024


@dataclass(frozen=True)
class SymmetricForm:
    """Exact symmetric matrix of a quadratic form on the quotient algebra."""

    matrix: Matrix
    delta_label: str


class QuotientAlgebra:
    """Basis, multiplication matrices and trace data of Q[x,y]/I.

    Immutable after construction (internal caches only grow); instances may
    be shared freely between threads and the form builders below.
    """

    def __init__(self, gb: GroebnerBasis, basis: tuple[Monomial, ...],
                 mult_x: Matrix, mult_y: Matrix):
        self.gb = gb
        self.basis = basis
        self.mult_x = mult_x
        self.mult_y = mult_y
        self._index = {m: i for i, m in enumerate(basis)}
        self._vectors: dict[Monomial, tuple[Fraction, ...]] = {}
        for i, mono in enumerate(basis):
            unit = tuple(Fraction(int(j == i)) for j in range(len(basis)))
            self._vectors[mono] = unit
        if not basis:
            self._vectors[Monomial(0, 0)] = ()
        self._traces: dict[Monomial, Fraction] = {}
        self._tau: tuple[Fraction, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, mono: Monomial) -> tuple[Fraction, ...]:
        """Coordinate vector of the residue class of a monomial."""
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
            matrix = self.mult_x if m.ex else self.mult_y
            self._vectors[m] = _matvec(matrix, prev_vec)
            pending.pop()
        return self._vectors[mono]

    def _trace_of_monomial(self, mono: Monomial) -> Fraction:
        cached = self._traces.get(mono)
        if cached is None:
            tau = self._tau_vector()
            vec = self.coordinates(mono)
            cached = sum((t * v for t, v in zip(tau, vec) if v), _ZERO)
            self._traces[mono] = cached
        return cached

    def _tau_vector(self) -> tuple[Fraction, ...]:
        """Traces of multiplication by each basis monomial."""
        if self._tau is None:
            tau = []
            for b in self.basis:
                total = _ZERO
                for j, other in enumerate(self.basis):
                    total += self.coordinates(b * other)[j]
                tau.append(total)
            self._tau = tuple(tau)
        return self._tau


def _matvec(matrix: Matrix, vec) -> tuple[Fraction, ...]:
    return tuple(
        sum((row[c] * vec[c] for c in range(len(vec)) if vec[c]), _ZERO)
        for row in matrix
    )


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(n) if a[r][k]), _ZERO)
              for c in range(cols))
        for r in range(n)
    )


def build_algebra(gb: GroebnerBasis) -> QuotientAlgebra:
    """Construct and certify the quotient algebra of a zero-dimensional basis.

    Raises NotZeroDimensional when the basis has infinitely many standard
    monomials, and CertificateFailed naming the failed condition when any of
    the three certificate conditions in the module docstring fails.
    """
    basis = standard_monomials(gb)
    _require_reduced(gb)
    dim = len(basis)
    standard = set(basis)
    border: dict[Monomial, tuple[Fraction, ...]] = {}
    index = {m: i for i, m in enumerate(basis)}

    def column(product: Monomial) -> tuple[Fraction, ...]:
        if product in standard:
            return tuple(Fraction(int(j == index[product])) for j in range(dim))
        vec = border.get(product)
        if vec is None:
            residue = normal_form(Polynomial.monomial(product), gb)
            coords = [_ZERO] * dim
            for mono, coeff in residue.terms.items():
                coords[index[mono]] = coeff
            vec = tuple(coords)
            border[product] = vec
        return vec

    cols_x = [column(Monomial(b.ex + 1, b.ey)) for b in basis]
    cols_y = [column(Monomial(b.ex, b.ey + 1)) for b in basis]
    mult_x = tuple(tuple(cols_x[c][r] for c in range(dim)) for r in range(dim))
    mult_y = tuple(tuple(cols_y[c][r] for c in range(dim)) for r in range(dim))
    if _matmul(mult_x, mult_y) != _matmul(mult_y, mult_x):
        raise CertificateFailed("multiplication matrices fail to commute; "
                                "the basis is not a Groebner basis of its ideal")
    for i, p in enumerate(gb.inputs):
        if not normal_form(p, gb).is_zero():
            raise CertificateFailed(f"input generator {i} has a nonzero normal form; "
                                    "the basis does not generate its inputs")
    algebra = QuotientAlgebra(gb, basis, mult_x, mult_y)
    algebra._vectors.update(border)
    return algebra


def _require_reduced(gb: GroebnerBasis) -> None:
    """Certificate condition (2): G is monic and every tail monomial is standard."""
    leads = [leading_monomial(g) for g in gb.generators]
    for i, (g, lead) in enumerate(zip(gb.generators, leads)):
        if g.terms[lead] != 1:
            raise CertificateFailed(f"basis element {i} is not monic")
        for mono in g.terms:
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
    terms = list(h.terms.items())
    columns = []
    for b in algebra.basis:
        col = [_ZERO] * dim
        for mono, coeff in terms:
            vec = algebra.coordinates(mono * b)
            for r in range(dim):
                if vec[r]:
                    col[r] += coeff * vec[r]
        columns.append(col)
    return tuple(tuple(columns[c][r] for c in range(dim)) for r in range(dim))


def generates_algebra(algebra: QuotientAlgebra, hs) -> bool:
    """True iff the polynomials hs generate the whole algebra as an ideal.

    The ideal they generate is the column space of the n x kn block
    [M_h1 | ... | M_hk] of their multiplication matrices, so the answer is
    whether that block has rank n = dim A; the zero algebra is generated by
    anything.  Full rank modulo a prime that divides no denominator of M_x,
    M_y or the reduced hs proves full rank over Q, because reduction modulo
    such a prime is a ring map and cannot raise a rank.  When the rank falls
    short modulo `_RANK_PRIMES` usable primes, the exact rank decides, so a
    false verdict is exact too.
    """
    n = algebra.dim
    if n == 0:
        return True
    reduced = [normal_form(h, algebra.gb) for h in hs]
    deficient = 0
    for p in _prime_pool(prime_cap(n), _RANK_POOL_BITS):
        try:
            block = _block_mod(algebra, reduced, p)
        except ValueError:  # p divides a denominator
            continue
        if rank_mod(block, p) == n:
            return True
        deficient += 1
        if deficient == _RANK_PRIMES:
            break
    blocks = [mult_matrix(algebra, h) for h in reduced]
    return rank([sum((m[i] for m in blocks), ()) for i in range(n)]) == n


def _residue(value: Fraction, p: int) -> int:
    """value modulo p; ValueError when p divides its denominator."""
    return value.numerator * pow(value.denominator, -1, p) % p


def _block_mod(algebra: QuotientAlgebra, reduced, p: int) -> np.ndarray:
    """[M_h1 | ... | M_hk] modulo p for hs already in normal form.

    The column of M_h for a basis monomial b holds the coordinates of h*b:
    those of h itself for b = 1, else M_x or M_y applied to the column of
    b/x or b/y, which is standard because the basis is closed under
    division.  p < prime_cap(n) keeps each product in int64.
    """
    n = algebra.dim
    mx, my = (np.array([[_residue(v, p) if v else 0 for v in row] for row in m],
                       dtype=np.int64)
              for m in (algebra.mult_x, algebra.mult_y))
    columns = np.zeros((n, n, len(reduced)), dtype=np.int64)
    for k, h in enumerate(reduced):
        for mono, coeff in h.terms.items():
            columns[0, algebra._index[mono], k] = _residue(coeff, p)
    for j, b in enumerate(algebra.basis[1:], start=1):
        if b.ex:
            previous, matrix = Monomial(b.ex - 1, b.ey), mx
        else:
            previous, matrix = Monomial(b.ex, b.ey - 1), my
        columns[j] = matrix @ columns[algebra._index[previous]] % p
    return columns.transpose(1, 2, 0).reshape(n, -1)


def trace_functional(algebra: QuotientAlgebra, h: Polynomial) -> Fraction:
    """Trace of multiplication by h; linear in h and blind to ideal members."""
    total = _ZERO
    for mono, coeff in h.terms.items():
        total += coeff * algebra._trace_of_monomial(mono)
    return total


def form_matrix(algebra: QuotientAlgebra, delta: Polynomial,
                label: str | None = None) -> SymmetricForm:
    """Symmetric matrix of the quadratic form a -> trace(delta * a^2).

    Entry (i, j) is the trace of multiplication by delta * b_i * b_j.  Modulo
    the ideal b_i * b_j = sum_k c_ij[k] * b_k, where c_ij is the coordinate
    vector of the product, and the trace is linear and blind to the ideal, so
    the entry equals w . c_ij for the weight vector w_k = trace(delta * b_k),
    computed once per form.  The matrix is symmetric by construction.
    """
    basis = algebra.basis
    weights = [trace_functional(algebra, delta * Polynomial.monomial(b)) for b in basis]
    entries = {}
    for product in {bi * bj for bi in basis for bj in basis}:
        coords = algebra.coordinates(product)
        entries[product] = sum((w * c for w, c in zip(weights, coords) if c), _ZERO)
    matrix = tuple(tuple(entries[bi * bj] for bj in basis) for bi in basis)
    return SymmetricForm(matrix, label if label is not None else format_polynomial(delta))
