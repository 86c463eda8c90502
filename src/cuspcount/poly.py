"""Exact sparse polynomial arithmetic over the rationals in the plane variables x, y.

A polynomial is a finite map from monomials to nonzero rational
coefficients, held as integer numerators over one positive denominator, the
least common denominator of the coefficients: no prime divides it and every
numerator, so equality and hashing are term-wise.  The ring operations and
derivatives run on the integers and end in one gcd normalisation.

Inside the package a monomial x^a y^b is the packed int
`((a + b) << 16) | a`, its total degree in the top field and its x exponent
in the low 16 bits (Monagan and Pearce's packed exponent vectors).  A
product of monomials is one integer addition, and integer comparison is the
package's one term order, graded reverse lexicographic with x > y (degree,
then the larger x exponent).  l divides m exactly when
deg m - deg l >= a_m - a_l >= 0, which `divides` reads off the one
difference m - l.  The fields are exact while every exponent stays below
2**16: the constructor rejects a term of total degree 2**16 or more, and a
product that would reach it raises `DegreeFieldExceeded`.  The layout is
known only here: other modules read keys through `key_degree`,
`x_exponent`, `divides` and `lcm_key`, save one inlined `divides` in the
Groebner reduction loop.

`Monomial`, a pair of exponents, is the boundary type: `terms` (the reduced
Fraction coefficients) and `numerators` are views keyed by it, built on
request.  Everything is exact: no floats enter, so results downstream
(Groebner bases, trace-form signatures) are certificates rather than
estimates.  Values are immutable after construction and all operations are
pure, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import DegreeFieldExceeded

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

#: Width of the low field, the x exponent; the total degree sits above it.
SHIFT = 16
#: Every exponent, and every total degree, of a stored term is below this.
FIELD = 1 << SHIFT
_MASK = FIELD - 1
#: The packed keys of x and y: adding one multiplies by that variable.
X_KEY = FIELD | 1
Y_KEY = FIELD


class Monomial(NamedTuple):
    """A power product x^ex * y^ey with non-negative exponents."""

    ex: int
    ey: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey

    def __str__(self) -> str:
        parts = []
        if self.ex:
            parts.append("x" if self.ex == 1 else f"x^{self.ex}")
        if self.ey:
            parts.append("y" if self.ey == 1 else f"y^{self.ey}")
        return "*".join(parts) if parts else "1"


def pack(ex: int, ey: int) -> int:
    """The packed key of x^ex * y^ey, for exponents below FIELD."""
    return ((ex + ey) << SHIFT) | ex


def unpack(key: int) -> Monomial:
    ex = key & _MASK
    return Monomial(ex, (key >> SHIFT) - ex)


def key_degree(key: int) -> int:
    """The total degree of the packed monomial `key`."""
    return key >> SHIFT


def x_exponent(key: int) -> int:
    """The exponent of x in the packed monomial `key`."""
    return key & _MASK


def divides(lead: int, key: int) -> bool:
    """Whether the monomial `lead` divides `key`: the difference of the keys
    is then itself a monomial, its x exponent at most its degree.  When
    a_key < a_lead the difference borrows from the degree field and its low
    field exceeds what is left above it, so the test fails, for any y
    exponents below FIELD + 1."""
    q = key - lead
    return (q & _MASK) <= (q >> SHIFT)


def lcm_key(m: int, n: int) -> int:
    """The least common multiple of two monomials."""
    a = max(m & _MASK, n & _MASK)
    return pack(a, max((m >> SHIFT) - (m & _MASK), (n >> SHIFT) - (n & _MASK)))


class Polynomial:
    """Sparse polynomial in x, y with exact rational coefficients.

    Zero coefficients are never stored; equality is term-wise.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[tuple, Scalar] | Iterable[tuple] | None = None):
        clean: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for mono, coeff in items:
            if isinstance(coeff, float):
                raise TypeError(f"coefficient {coeff!r} is a float; give an int or a Fraction")
            coeff = Fraction(coeff)
            if coeff:
                ex, ey = mono = Monomial(*mono)
                if ex < 0 or ey < 0:
                    raise ValueError(f"negative exponent in {mono}")
                if ex + ey >= FIELD:
                    raise ValueError(f"degree of {mono} exceeds the limit {FIELD - 1}")
                key = pack(ex, ey)
                new = clean.get(key, _ZERO_FRAC) + coeff
                if new:
                    clean[key] = new
                else:
                    clean.pop(key, None)
        den = lcm(*(c.denominator for c in clean.values()))
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        if type(value) is not int:
            return cls({(0, 0): value})
        return _canonical({0: value} if value else {}, 1)

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name == "x":
            return _canonical({X_KEY: 1}, 1)
        if name == "y":
            return _canonical({Y_KEY: 1}, 1)
        raise ValueError(f"unknown variable {name!r}; only x and y exist")

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls({mono: coeff})

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return MappingProxyType({unpack(m): Fraction(c, self._den)
                                 for m, c in self._nums.items()})

    @property
    def numerators(self) -> Mapping[Monomial, int]:
        return MappingProxyType({unpack(m): c for m, c in self._nums.items()})

    @property
    def denominator(self) -> int:
        return self._den

    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int | float:
        """Total degree, or -inf for the zero polynomial."""
        if not self._nums:
            return NEG_INFINITY
        return max(self._nums) >> SHIFT

    def coefficient(self, mono: Monomial) -> Fraction:
        ex, ey = mono
        if ex < 0 or ey < 0 or ex + ey >= FIELD:  # no term there; its key could alias one
            return Fraction(0)
        return Fraction(self._nums.get(pack(ex, ey), 0), self._den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self._den, other._den)
        out = {m: c * (den // self._den) for m, c in self._nums.items()}
        scale = den // other._den
        for mono, coeff in other._nums.items():
            new = out.get(mono, 0) + scale * coeff
            if new:
                out[mono] = new
            else:
                del out[mono]
        return _canonical(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _canonical({m: -c for m, c in self._nums.items()}, self._den)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        nums, others = self._nums, other._nums
        if nums and others:
            # the top keys hold the degrees; below FIELD no x exponent carries
            degree = (max(nums) >> SHIFT) + (max(others) >> SHIFT)
            if degree >= FIELD:
                raise DegreeFieldExceeded(degree, FIELD - 1)
        out: dict[int, int] = {}
        for m1, c1 in nums.items():
            for m2, c2 in others.items():
                mono = m1 + m2
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    del out[mono]
        return _canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if isinstance(other, Polynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int or Fraction value, so it hashes as that value
        if self._nums.keys() <= {0}:
            return hash(Fraction(self._nums.get(0, 0), self._den))
        return hash((self._den, frozenset(self._nums.items())))

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- calculus and evaluation -----------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to 'x' or 'y'."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}; only x and y exist")
        if var == "x":
            out = {m - X_KEY: c * e for m, c in self._nums.items() if (e := m & _MASK)}
        else:
            out = {m - Y_KEY: c * e for m, c in self._nums.items()
                   if (e := (m >> SHIFT) - (m & _MASK))}
        return _canonical(out, self._den)

    def evaluate(self, point: tuple[Scalar, Scalar]) -> Fraction:
        """Exact value at a rational point (px, py)."""
        px, py = Fraction(point[0]), Fraction(point[1])
        total = _ZERO_FRAC
        xpow: dict[int, Fraction] = {0: Fraction(1)}
        ypow: dict[int, Fraction] = {0: Fraction(1)}
        for mono, coeff in self._nums.items():
            ex = mono & _MASK
            total += coeff * _power(px, ex, xpow) * _power(py, (mono >> SHIFT) - ex, ypow)
        return total / self._den

    def __repr__(self) -> str:
        from .exprio import format_polynomial

        return f"Polynomial({format_polynomial(self)!r})"


def _canonical(nums: dict[int, int], den: int) -> Polynomial:
    """nums/den for zero-free nums keyed by packed monomials and den > 0,
    their common factor divided out: the integer constructor."""
    common = gcd(den, *nums.values()) if den != 1 else 1
    if common != 1:
        nums, den = {m: c // common for m, c in nums.items()}, den // common
    p = Polynomial.__new__(Polynomial)
    p._nums, p._den = nums, den
    return p


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


def _power(base: Fraction, exp: int, cache: dict[int, Fraction]) -> Fraction:
    if exp not in cache:
        cache[exp] = base ** exp
    return cache[exp]


_ZERO_FRAC = Fraction(0)

X = Polynomial.variable("x")
Y = Polynomial.variable("y")
ONE = Polynomial.constant(1)
ZERO = Polynomial.zero()


def func_det(p: Polynomial, q: Polynomial) -> Polynomial:
    """Functional determinant of the pair (p, q): p_x * q_y - p_y * q_x.

    Antisymmetric in its arguments; func_det(p, p) = 0.
    """
    return p.partial("x") * q.partial("y") - p.partial("y") * q.partial("x")
