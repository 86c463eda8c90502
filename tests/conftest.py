"""Shared fixtures: the standard test maps and cached expensive censuses."""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from cuspcount import ProblemInput, census, parse_problem
from cuspcount.pipeline import CuspCensus
from cuspcount.poly import Monomial, Polynomial

# A cubic-by-linear map with two negative cusps, at (0,0) and (-4,2); the
# unit disc region contains exactly one of them.
TWO_CUSP_TEXT = """\
f1 = x*y^2 - x^2 + y^2 + x - y
f2 = x - y
u = 1 - x^2 - y^2
"""

# A quintic pair with eight cusps (six positive, two negative); outside the
# unit disc lie three positive and both negative ones.
EIGHT_CUSP_TEXT = """\
f1 = x^2*y^3 - x^2*y + x*y^2 - x
f2 = x^3*y - x^2*y + y^3 + x - y
u = x^2 + y^2 - 1
"""

# A degree-five pair with six cusps (five positive, one negative); the
# negative one lies in the half plane {x > 1}.
SIX_CUSP_TEXT = """\
f1 = 10*x^2*y^3 + 4*x^2*y^2 - 2*x*y^3 - 6*x^2*y + 8*x*y^2 - 5*x*y
f2 = 5*x^4*y + 10*x^4 - y^4 + 5*x^2 - 3*x*y - 9*y
u = x - 1
"""

# The cusp normal form (u, v) -> (u, u*v + v^3): one positive cusp at the origin.
WHITNEY_TEXT = """\
f1 = x
f2 = x*y + y^3
"""

IDENTITY_TEXT = "f1 = x\nf2 = y\n"
FOLD_ONLY_TEXT = "f1 = x^2\nf2 = y\n"
NON_GENERIC_TEXT = "f1 = x^2\nf2 = y^2\n"


@dataclass(frozen=True)
class TimedCensus:
    problem: ProblemInput
    census: CuspCensus
    seconds: float


def _timed(text: str) -> TimedCensus:
    problem = parse_problem(text)
    start = time.perf_counter()
    result = census(problem)
    return TimedCensus(problem, result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def two_cusp_run() -> TimedCensus:
    return _timed(TWO_CUSP_TEXT)


@pytest.fixture(scope="session")
def eight_cusp_run() -> TimedCensus:
    return _timed(EIGHT_CUSP_TEXT)


@pytest.fixture(scope="session")
def six_cusp_run() -> TimedCensus:
    return _timed(SIX_CUSP_TEXT)


@pytest.fixture(scope="session")
def whitney_run() -> TimedCensus:
    return _timed(WHITNEY_TEXT)


def random_polynomial(rng, max_degree: int, lo: int = -6, hi: int = 6,
                      density: float = 0.7) -> Polynomial:
    """Random sparse polynomial with small integer coefficients."""
    terms = {}
    for ex in range(max_degree + 1):
        for ey in range(max_degree + 1 - ex):
            if rng.random() < density:
                coeff = rng.randint(lo, hi)
                if coeff:
                    terms[Monomial(ex, ey)] = coeff
    return Polynomial(terms)


# Monomial arithmetic for the tests; the package itself multiplies, divides
# and orders monomials as packed ints.

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(a.ex + b.ex, a.ey + b.ey)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return a.ex <= b.ex and a.ey <= b.ey


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(max(a.ex, b.ex), max(a.ey, b.ey))


def mono_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b, for b dividing a."""
    assert mono_divides(b, a)
    return Monomial(a.ex - b.ex, a.ey - b.ey)


def grevlex_key(m: Monomial) -> tuple[int, int]:
    """Sort key of the term order: degree, then the larger x exponent."""
    return (m.ex + m.ey, m.ex)


def substitute(p: Polynomial, sx: Polynomial, sy: Polynomial) -> Polynomial:
    """p(sx, sy), expanded exactly; used to compose maps with translations."""
    result = Polynomial.zero()
    for mono, coeff in p.terms.items():
        result = result + Polynomial.constant(coeff) * sx ** mono.ex * sy ** mono.ey
    return result
