"""Exact sparse polynomial arithmetic over the rationals in the plane variables x, y.

A polynomial is a finite map from monomials (pairs of exponents) to nonzero
Fraction coefficients.  Everything here is exact: no floats enter, so results
downstream (Groebner bases, trace-form signatures) are certificates rather
than estimates.  Values are immutable after construction and all operations
are pure, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
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

    __slots__ = ("_terms",)

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
        self._terms = clean

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
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int | float:
        """Total degree, or -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INFINITY
        return max(m.degree for m in self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(Monomial(*mono), _ZERO_FRAC)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = out.get(mono, _ZERO_FRAC) + coeff
            if new:
                out[mono] = new
            else:
                del out[mono]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self._terms.items()})

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
        if not self._terms or not other._terms:
            return _raw({})
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = Monomial(m1.ex + m2.ex, m1.ey + m2.ey)
                new = out.get(mono, _ZERO_FRAC) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    del out[mono]
        return _raw(out)

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
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- calculus and evaluation -----------------------------------------

    def partial(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to 'x' or 'y'."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}; only x and y exist")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            if var == "x":
                if mono.ex:
                    out[Monomial(mono.ex - 1, mono.ey)] = coeff * mono.ex
            else:
                if mono.ey:
                    out[Monomial(mono.ex, mono.ey - 1)] = coeff * mono.ey
        return _raw(out)

    def evaluate(self, point: tuple[Scalar, Scalar]) -> Fraction:
        """Exact value at a rational point (px, py)."""
        px, py = Fraction(point[0]), Fraction(point[1])
        total = _ZERO_FRAC
        xpow: dict[int, Fraction] = {0: Fraction(1)}
        ypow: dict[int, Fraction] = {0: Fraction(1)}
        for mono, coeff in self._terms.items():
            total += coeff * _power(px, mono.ex, xpow) * _power(py, mono.ey, ypow)
        return total

    # -- term access ------------------------------------------------------

    def sorted_terms(self, key, reverse: bool = False) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted by a monomial key function (e.g. a term order's key)."""
        return sorted(self._terms.items(), key=lambda item: key(item[0]), reverse=reverse)

    def __repr__(self) -> str:
        from .exprio import format_polynomial

        return f"Polynomial({format_polynomial(self)!r})"


def _raw(terms: dict[Monomial, Fraction]) -> Polynomial:
    """Build a Polynomial from an already-clean term dict (no copying checks)."""
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
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
