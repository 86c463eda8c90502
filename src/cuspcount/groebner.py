"""Buchberger's algorithm, multivariate reduction, and ideal certificates.

Every computation uses one term order: graded reverse lexicographic with
x > y.  One ideal test is decided here: whether an ideal is
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
monic, its numerators over the leading coefficient.

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
from .poly import Monomial, Polynomial, _canonical

DEFAULT_DEGREE_GUARD = 64

# Integer term dict used internally: Monomial -> nonzero int.
_IntPoly = dict

_ONE = Fraction(1)


def _grevlex_key(m: Monomial) -> tuple[int, int]:
    """Sort key of the term order: larger key means larger monomial."""
    return (m[0] + m[1], m[0])


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
        return tuple(_entry(g.numerators) for g in self.generators)


def leading_monomial(p: Polynomial) -> Monomial:
    """Largest monomial of a nonzero polynomial under the term order."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    return max(p.numerators, key=_grevlex_key)


# -- internal integer-coefficient machinery ---------------------------------

def _content(terms: _IntPoly) -> int:
    """Non-negative gcd of the coefficients (0 for the empty dict)."""
    content = 0
    for c in terms.values():
        content = gcd(content, c)
        if content == 1:
            break
    return content


def _degree(terms: _IntPoly) -> int:
    return max(m[0] + m[1] for m in terms)


def _reduce_full(p: _IntPoly, reducers) -> tuple[_IntPoly, Fraction]:
    """Full multivariate division, fraction-free over the integers.

    reducers is a sequence of (lead_monomial, lead_coeff > 0, terms) with
    primitive integer terms.  Returns (r, s): every term of r is irreducible
    and r is s times the remainder of dividing p over the rationals, where
    s > 0 is the product of the fraction-free scalings divided by the
    contents removed on the way.  r is not content-normalized; callers do
    that as needed.
    """
    p = dict(p)
    heap = [((-k[0], -k[1]), m) for m in p for k in (_grevlex_key(m),)]
    heapq.heapify(heap)
    done: set[Monomial] = set()
    scale = _ONE
    steps = 0
    while heap:
        _, mono = heapq.heappop(heap)
        if mono in done or mono not in p:
            continue
        hit = None
        for lead, lead_coeff, terms in reducers:
            if lead.ex <= mono.ex and lead.ey <= mono.ey:
                hit = (lead, lead_coeff, terms)
                break
        if hit is None:
            done.add(mono)
            continue
        lead, lead_coeff, terms = hit
        coeff = p[mono]
        common = gcd(coeff, lead_coeff)
        scale_p = lead_coeff // common
        scale_g = coeff // common
        if scale_p != 1:
            for k in p:
                p[k] *= scale_p
            scale *= scale_p
        shift_x = mono.ex - lead.ex
        shift_y = mono.ey - lead.ey
        for mg, cg in terms.items():
            target = Monomial(mg.ex + shift_x, mg.ey + shift_y)
            new = p.get(target, 0) - scale_g * cg
            if new:
                if target not in p and target not in done:
                    k = _grevlex_key(target)
                    heapq.heappush(heap, ((-k[0], -k[1]), target))
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
    lcm_mono = lmf.lcm(lmg)
    common = gcd(lcf, lcg)
    mult_f = lcg // common
    mult_g = lcf // common
    fx, fy = lcm_mono.ex - lmf.ex, lcm_mono.ey - lmf.ey
    gx, gy = lcm_mono.ex - lmg.ex, lcm_mono.ey - lmg.ey
    out: _IntPoly = {}
    for m, c in tf.items():
        out[Monomial(m.ex + fx, m.ey + fy)] = c * mult_f
    for m, c in tg.items():
        target = Monomial(m.ex + gx, m.ey + gy)
        new = out.get(target, 0) - c * mult_g
        if new:
            out[target] = new
        else:
            out.pop(target, None)
    return out


def _entry(terms: _IntPoly):
    """Package integer terms as (lead, lead_coeff > 0, primitive terms)."""
    lead = max(terms, key=_grevlex_key)
    content = _content(terms)
    if terms[lead] < 0:
        content = -content
    if content != 1:
        terms = {m: c // content for m, c in terms.items()}
    return (lead, terms[lead], terms)


def _is_constant(terms: _IntPoly) -> bool:
    return len(terms) == 1 and Monomial(0, 0) in terms


def buchberger(gens, degree_guard: int = DEFAULT_DEGREE_GUARD) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    gens must be a non-empty sequence of Polynomial; zero polynomials are
    ignored.  The result records gens as its inputs.  Raises
    DegreeGuardExceeded if any generator or intermediate reduction result
    exceeds degree_guard.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("buchberger requires at least one generator")
    unit = GroebnerBasis((Polynomial.constant(1),), gens)
    basis = []
    for g in gens:
        if g.is_zero():
            continue
        if g.degree > degree_guard:
            raise DegreeGuardExceeded(g.degree, degree_guard, context="buchberger input")
        if _is_constant(g.numerators):
            return unit
        basis.append(_entry(g.numerators))
    if not basis:
        return GroebnerBasis((), gens)

    pairs: set[tuple[int, int]] = {(i, j) for j in range(len(basis)) for i in range(j)}
    pair_lcm = {(i, j): basis[i][0].lcm(basis[j][0]) for (i, j) in pairs}

    def chain_redundant(i: int, j: int, lcm_mono: Monomial) -> bool:
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            lead_k = basis[k][0]
            if lead_k.divides(lcm_mono):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    return True
        return False

    while pairs:
        i, j = min(pairs, key=lambda ij: (_grevlex_key(pair_lcm[ij]), ij))
        pairs.discard((i, j))
        lcm_mono = pair_lcm.pop((i, j))
        lead_i, lead_j = basis[i][0], basis[j][0]
        if lead_i.is_coprime(lead_j):
            continue
        if chain_redundant(i, j, lcm_mono):
            continue
        remainder, _ = _reduce_full(_spoly(basis[i], basis[j]), basis)
        if not remainder:
            continue
        if _degree(remainder) > degree_guard:
            raise DegreeGuardExceeded(_degree(remainder), degree_guard,
                                      context="buchberger reduction")
        if _is_constant(remainder):
            return unit
        entry = _entry(remainder)
        new_index = len(basis)
        basis.append(entry)
        for k in range(new_index):
            pairs.add((k, new_index))
            pair_lcm[(k, new_index)] = basis[k][0].lcm(entry[0])

    return GroebnerBasis(tuple(_to_monic_polynomial(t) for t in _interreduce(basis)),
                         gens)


def _interreduce(basis):
    """Minimalize (drop entries with redundant leads) and fully reduce tails."""
    minimal = []
    for entry in sorted(basis, key=lambda e: _grevlex_key(e[0])):
        if not any(kept[0].divides(entry[0]) for kept in minimal):
            minimal.append(entry)
    reduced = []
    for idx, entry in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        reduced.append(_reduce_full(entry[2], others)[0] if others else entry[2])
    return reduced


def _to_monic_polynomial(terms: _IntPoly) -> Polynomial:
    # the lead is positive: `_entry` makes it so, and reduction only scales
    # by positive factors
    return _canonical(dict(terms), terms[max(terms, key=_grevlex_key)])


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of full division of p by the basis.

    No term of the result is divisible by any leading monomial of the basis,
    and p minus the result lies in the ideal.  Idempotent and linear over
    the rationals.
    """
    remainder, scale = _reduce_full(p.numerators, gb._reducers)
    # remainder = scale * (the remainder of p's numerators), scale > 0
    return _canonical({m: c * scale.denominator for m, c in remainder.items()},
                      scale.numerator * p.denominator)


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the quotient is finite-dimensional.

    Criterion: for each variable some pure power of it (possibly the
    constant 1) appears among the leading monomials.
    """
    has_x_power = False
    has_y_power = False
    for g in gb.generators:
        lead = leading_monomial(g)
        if lead.ey == 0:
            has_x_power = True
        if lead.ex == 0:
            has_y_power = True
    return has_x_power and has_y_power


def standard_monomials(gb: GroebnerBasis) -> tuple[Monomial, ...]:
    """All monomials outside the leading-term ideal, ascending in the order.

    These form a vector-space basis of the quotient algebra; the length of
    the result is its dimension.  Raises NotZeroDimensional when infinite.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional(
            "the ideal is not zero-dimensional: no pure power of each "
            "variable occurs among the leading monomials")
    leads = [leading_monomial(g) for g in gb.generators]
    bound_x = min(lm.ex for lm in leads if lm.ey == 0)
    bound_y = min(lm.ey for lm in leads if lm.ex == 0)
    out = [
        Monomial(a, b)
        for a in range(bound_x)
        for b in range(bound_y)
        if not any(lm.divides(Monomial(a, b)) for lm in leads)
    ]
    out.sort(key=_grevlex_key)
    return tuple(out)
