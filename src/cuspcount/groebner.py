"""Buchberger's algorithm, multivariate reduction, and ideal certificates.

Every computation uses one term order: graded reverse lexicographic with
x > y, which on the packed monomial keys of `poly` is integer comparison.
Every internal term dict is keyed by those ints: a reduction step shifts a
reducer's terms by one integer difference, the heap of pending monomials
holds negated keys, an S-pair's lcm is read off the two fields, and two
leads are coprime when their lcm is their product, the sum of the keys.
`Monomial` appears only in the public `leading_monomial` and
`standard_monomials`.  One ideal test is decided here: whether an ideal is
zero-dimensional (finitely many standard monomials), which the cusp
pipeline needs.  One-genericity is decided on the quotient algebra (see
`quotient.generates_algebra`).

One exact reduction kernel serves the whole module: `_reduce_full` divides
integer-coefficient polynomials fraction-free (content removed during
reduction) to avoid rational blow-up, and reports the positive rational
factor by which it scaled its input.  It reads a polynomial's integer
numerators as they are stored, with no per-entry conversion: Buchberger's
S-pair reductions call it directly, and `normal_form` puts the remainder
over the input's denominator times that factor.  The published basis is
monic, its numerators over the leading coefficient.  Under a degree guard
of at most MAX_DEGREE_GUARD no S-pair lcm passes twice the guard, so every
exponent the kernel meets stays inside the packed field.

A basis is certified once, where it is consumed, in
`quotient.build_algebra`: (1) the multiplication matrices by x and y on the
standard monomials commute, (2) the basis is reduced (monic, no leading
monomial divides another, every tail monomial standard), and (3) every
input generator recorded on the basis has normal form zero.  The quotient
module explains why these prove the standard monomials a basis of the
quotient by the inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import DegreeGuardExceeded, NotZeroDimensional
from .poly import (_MASK, FIELD, Monomial, Polynomial, _canonical, divides, key_degree, lcm_key,
                   pack, unpack, x_exponent)

DEFAULT_DEGREE_GUARD = 64
#: The largest degree guard: S-pair lcms reach twice the guard, and every
#: exponent stays inside the packed field while that is at most FIELD.
MAX_DEGREE_GUARD = FIELD >> 1

# Integer term dict used internally: packed monomial -> nonzero int.
_IntPoly = dict

_ONE = Fraction(1)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis and the generators it was computed from."""

    generators: tuple[Polynomial, ...]
    inputs: tuple[Polynomial, ...]

    def __len__(self) -> int:
        return len(self.generators)

    @cached_property
    def _reducers(self):
        """The generators as primitive integer entries for `_reduce_full`."""
        return tuple(_entry(g._nums) for g in self.generators)


def leading_monomial(p: Polynomial) -> Monomial:
    """Largest monomial of a nonzero polynomial under the term order."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    return unpack(max(p._nums))


# -- internal integer-coefficient machinery ---------------------------------

def _content(terms: _IntPoly) -> int:
    """Non-negative gcd of the coefficients (0 for the empty dict)."""
    content = 0
    for c in terms.values():
        content = gcd(content, c)
        if content == 1:
            break
    return content


def _reduce_full(p: _IntPoly, reducers) -> tuple[_IntPoly, Fraction]:
    """Full multivariate division, fraction-free over the integers.

    reducers is a sequence of (lead_monomial, lead_coeff > 0, terms) with
    primitive integer terms.  Returns (r, s): every term of r is irreducible
    and r is s times the remainder of dividing p over the rationals, where
    s > 0 is the product of the fraction-free scalings divided by the
    contents removed on the way.  r is not content-normalized; callers do
    that as needed.  The heap holds negated packed monomials, so it pops
    the largest first.
    """
    p = dict(p)
    heap = [-m for m in p]
    heapq.heapify(heap)
    done: set[int] = set()
    scale = _ONE
    steps = 0
    while heap:
        mono = -heapq.heappop(heap)
        if mono in done or mono not in p:
            continue
        for lead, lead_coeff, terms in reducers:
            shift = mono - lead
            # `poly.divides(lead, mono)`, inlined; 16 is `poly.SHIFT`
            if (shift & _MASK) <= (shift >> 16):
                break
        else:
            done.add(mono)
            continue
        coeff = p[mono]
        common = gcd(coeff, lead_coeff)
        scale_p = lead_coeff // common
        scale_g = coeff // common
        if scale_p != 1:
            for k in p:
                p[k] *= scale_p
            scale *= scale_p
        for mg, cg in terms.items():
            target = mg + shift
            new = p.get(target, 0) - scale_g * cg
            if new:
                if target not in p and target not in done:
                    heapq.heappush(heap, -target)
                p[target] = new
            else:
                p.pop(target, None)
        steps += 1
        if steps % 64 == 0 and p:
            # periodic content removal keeps fraction-free growth bounded
            if max(abs(c) for c in p.values()).bit_length() > 1 << 12:
                content = _content(p)
                if content > 1:
                    p = {m: c // content for m, c in p.items()}
                    scale /= content
    return p, scale


def _spoly(f, g) -> _IntPoly:
    """S-polynomial of two primitive entries (lead, lead_coeff, terms)."""
    (lmf, lcf, tf), (lmg, lcg, tg) = f, g
    lcm_mono = lcm_key(lmf, lmg)
    common = gcd(lcf, lcg)
    mult_f = lcg // common
    mult_g = lcf // common
    shift_f, shift_g = lcm_mono - lmf, lcm_mono - lmg
    out: _IntPoly = {m + shift_f: c * mult_f for m, c in tf.items()}
    for m, c in tg.items():
        target = m + shift_g
        new = out.get(target, 0) - c * mult_g
        if new:
            out[target] = new
        else:
            out.pop(target, None)
    return out


def _entry(terms: _IntPoly):
    """Package integer terms as (lead, lead_coeff > 0, primitive terms)."""
    lead = max(terms)
    content = _content(terms)
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {m: c // content for m, c in terms.items()}
    return (lead, terms[lead], terms)


def _is_constant(terms: _IntPoly) -> bool:
    return len(terms) == 1 and 0 in terms


def buchberger(gens, degree_guard: int = DEFAULT_DEGREE_GUARD) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    gens must be a non-empty sequence of Polynomial; zero polynomials are
    ignored.  The result records gens as its inputs.  Raises
    DegreeGuardExceeded if any generator or intermediate reduction result
    exceeds degree_guard, and ValueError for a guard above MAX_DEGREE_GUARD.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("buchberger requires at least one generator")
    if degree_guard > MAX_DEGREE_GUARD:
        raise ValueError(f"degree guard {degree_guard} exceeds {MAX_DEGREE_GUARD}")
    unit = GroebnerBasis((Polynomial.constant(1),), gens)
    basis = []
    for g in gens:
        if g.is_zero():
            continue
        if g.degree > degree_guard:
            raise DegreeGuardExceeded(g.degree, degree_guard, context="buchberger input")
        if _is_constant(g._nums):
            return unit
        basis.append(_entry(g._nums))
    if not basis:
        return GroebnerBasis((), gens)

    pairs: set[tuple[int, int]] = {(i, j) for j in range(len(basis)) for i in range(j)}
    pair_lcm = {(i, j): lcm_key(basis[i][0], basis[j][0]) for (i, j) in pairs}

    def chain_redundant(i: int, j: int, lcm_mono: int) -> bool:
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if divides(basis[k][0], lcm_mono):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda ij: (pair_lcm[ij], ij))
        pairs.discard((i, j))
        lcm_mono = pair_lcm.pop((i, j))
        if lcm_mono == basis[i][0] + basis[j][0]:
            continue  # coprime leads: their lcm is their product
        if chain_redundant(i, j, lcm_mono):
            continue
        remainder, _ = _reduce_full(_spoly(basis[i], basis[j]), basis)
        if not remainder:
            continue
        degree = key_degree(max(remainder))
        if degree > degree_guard:
            raise DegreeGuardExceeded(degree, degree_guard, context="buchberger reduction")
        if _is_constant(remainder):
            return unit
        entry = _entry(remainder)
        new_index = len(basis)
        basis.append(entry)
        for k in range(new_index):
            pairs.add((k, new_index))
            pair_lcm[(k, new_index)] = lcm_key(basis[k][0], entry[0])

    return GroebnerBasis(tuple(_to_monic_polynomial(t) for t in _interreduce(basis)),
                         gens)


def _interreduce(basis):
    """Minimalize (drop entries with redundant leads) and fully reduce tails."""
    minimal = []
    for entry in sorted(basis, key=lambda e: e[0]):
        if not any(divides(kept[0], entry[0]) for kept in minimal):
            minimal.append(entry)
    reduced = []
    for idx, entry in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        reduced.append(_reduce_full(entry[2], others)[0] if others else entry[2])
    return reduced


def _to_monic_polynomial(terms: _IntPoly) -> Polynomial:
    # the lead is positive: `_entry` makes it so, and reduction only scales
    # by positive factors
    return _canonical(dict(terms), terms[max(terms)])


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of full division of p by the basis.

    No term of the result is divisible by any leading monomial of the basis,
    and p minus the result lies in the ideal.  Idempotent and linear over
    the rationals.
    """
    remainder, scale = _reduce_full(p._nums, gb._reducers)
    # remainder = scale * (the remainder of p's numerators), scale > 0
    return _canonical({m: c * scale.denominator for m, c in remainder.items()},
                      scale.numerator * p.denominator)


def _leads(gb: GroebnerBasis) -> list[int]:
    return [max(g._nums) for g in gb.generators]


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the quotient is finite-dimensional.

    Criterion: for each variable some pure power of it (possibly the
    constant 1) appears among the leading monomials.
    """
    leads = _leads(gb)
    # a pure power of x has its degree as its x exponent, one of y has x exponent 0
    return (any(key_degree(lead) == x_exponent(lead) for lead in leads)
            and any(not x_exponent(lead) for lead in leads))


def standard_monomials(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    """All monomials outside the leading-term ideal, ascending in the order.

    These form a vector-space basis of the quotient algebra; the length of
    the result is its dimension.  Raises NotZeroDimensional when infinite.
    """
    return tuple(map(unpack, _standard_keys(gb)))


def _standard_keys(gb: GroebnerBasis) -> list[int]:
    """`standard_monomials` as packed keys, ascending."""
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional(
            "the ideal is not zero-dimensional: no pure power of each "
            "variable occurs among the leading monomials")
    leads = _leads(gb)
    bound_x = min(x_exponent(lead) for lead in leads if key_degree(lead) == x_exponent(lead))
    bound_y = min(key_degree(lead) for lead in leads if not x_exponent(lead))
    grid = (pack(a, b) for a in range(bound_x) for b in range(bound_y))
    return sorted(m for m in grid if not any(divides(lead, m) for lead in leads))
