"""Exact sparse polynomial arithmetic over the rationals in the plane variables x, y.

A polynomial is a finite map from monomials (pairs of exponents) to nonzero
rational coefficients, held as integer `numerators` over one positive
`denominator`, the least common denominator of the coefficients: no prime
divides it and every numerator, so equality and hashing are term-wise.  The
ring operations and derivatives run on the integers and end in one gcd
normalisation; `terms`, the reduced Fraction coefficients, is built on
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

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


class Monomial(NamedTuple):
    """A power product x^ex * y^ey with non-negative exponents."""

    ex: int
    ey: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(self.ex + other.ex, self.ey + other.ey)

    def divides(self, other: "Monomial") -> bool:
        return self.ex <= other.ex and self.ey <= other.ey

    def quotient(self, other: "Monomial") -> "Monomial":
        """Return self / other; caller must ensure other divides self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.ex - other.ex, self.ey - other.ey)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(self.ex, other.ex), max(self.ey, other.ey))

    def is_coprime(self, other: "Monomial") -> bool:
        return min(self.ex, other.ex) == 0 and min(self.ey, other.ey) == 0

    def __str__(self) -> str:
        parts = []
        if self.ex:
            parts.append("x" if self.ex == 1 else f"x^{self.ex}")
        if self.ey:
            parts.append("y" if self.ey == 1 else f"y^{self.ey}")
        return "*".join(parts) if parts else "1"


UNIT_MONOMIAL = Monomial(0, 0)


class Polynomial:
    """Sparse polynomial in x, y with exact rational coefficients.

    Zero coefficients are never stored; equality is term-wise.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[tuple, Scalar] | Iterable[tuple] | None = None):
        clean: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for mono, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                mono = Monomial(*mono)
                if mono.ex < 0 or mono.ey < 0:
                    raise ValueError(f"negative exponent in {mono}")
                new = clean.get(mono, _ZERO_FRAC) + coeff
                if new:
                    clean[mono] = new
                else:
                    clean.pop(mono, None)
        den = lcm(*(c.denominator for c in clean.values()))
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self._den = den

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({UNIT_MONOMIAL: value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name == "x":
            return cls({Monomial(1, 0): 1})
        if name == "y":
            return cls({Monomial(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}; only x and y exist")

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls({mono: coeff})

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return MappingProxyType({m: Fraction(c, self._den) for m, c in self._nums.items()})

    @property
    def numerators(self) -> Mapping[Monomial, int]:
        return MappingProxyType(self._nums)

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
        return max(m.degree for m in self._nums)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self._nums.get(Monomial(*mono), 0), self._den)

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
        out: dict[Monomial, int] = {}
        for m1, c1 in self._nums.items():
            for m2, c2 in other._nums.items():
                mono = Monomial(m1.ex + m2.ex, m1.ey + m2.ey)
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
        if self._nums.keys() <= {UNIT_MONOMIAL}:
            return hash(Fraction(self._nums.get(UNIT_MONOMIAL, 0), self._den))
        return hash((self._den, frozenset(self._nums.items())))

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- calculus and evaluation -----------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to 'x' or 'y'."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}; only x and y exist")
        if var == "x":
            out = {Monomial(m.ex - 1, m.ey): c * m.ex for m, c in self._nums.items() if m.ex}
        else:
            out = {Monomial(m.ex, m.ey - 1): c * m.ey for m, c in self._nums.items() if m.ey}
        return _canonical(out, self._den)

    def evaluate(self, point: tuple[Scalar, Scalar]) -> Fraction:
        """Exact value at a rational point (px, py)."""
        px, py = Fraction(point[0]), Fraction(point[1])
        total = _ZERO_FRAC
        xpow: dict[int, Fraction] = {0: Fraction(1)}
        ypow: dict[int, Fraction] = {0: Fraction(1)}
        for mono, coeff in self._nums.items():
            total += coeff * _power(px, mono.ex, xpow) * _power(py, mono.ey, ypow)
        return total / self._den

    def __repr__(self) -> str:
        from .exprio import format_polynomial

        return f"Polynomial({format_polynomial(self)!r})"


def _canonical(nums: dict[Monomial, int], den: int) -> Polynomial:
    """nums/den for zero-free nums and den > 0, their common factor divided out."""
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
