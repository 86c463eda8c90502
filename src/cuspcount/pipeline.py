"""End-to-end cusp census for a polynomial map of the plane to itself.

From the map f = (f1, f2) we derive: the Jacobian determinant; the velocity
of f along its critical curve (two components, whose common zeros with the
Jacobian are the cusp candidates); the functional determinant of that
velocity pair, whose sign at a cusp equals the local topological degree;
and two transversality minors.  When the five-generator ideal is the whole
ring, every critical point is a fold or a simple cusp and the cusp set is
finite, so the census runs on the quotient algebra A by the three-generator
ideal: the signatures of four trace forms yield the number of cusps, the sum
of their degrees, and the split of both inside a region {u > 0}.

The census computes A first and decides genericity on it.  The five
polynomials generate the unit ideal exactly when the two minors generate A
itself, that is, when the block [M_minor1 | M_minor2] of their
multiplication matrices on A has full row rank.  When A is not
finite-dimensional the five cannot generate the unit ideal: the zero set of
the three-generator ideal then contains a curve, along which the jacobian
and both velocity components vanish, so their gradients annihilate the
curve's tangent and both minors vanish on it as well.  That case is
reported as a failed genericity certificate.

All hypotheses are enforced: a failed certificate raises instead of
producing numbers the theory does not back, and a degenerate region form
withholds the region counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateFailed, GenericityNotCertified, NotZeroDimensional
from .exprio import ProblemInput
from .groebner import DEFAULT_DEGREE_GUARD, buchberger, normal_form
from .poly import Monomial, Polynomial, func_det
from .quotient import QuotientAlgebra, build_algebra, form_matrix, generates_algebra
from .signature import signature_of


@dataclass(frozen=True)
class DerivedSystem:
    """The six polynomials derived from a map f = (f1, f2).

    jac      : Jacobian determinant of (f1, f2).
    vel1/vel2: components of Df applied to the tangent of {jac = 0}, i.e.
               func_det(jac, f1) and func_det(jac, f2); the velocity of f
               along its critical curve.  Cusps are the common zeros of
               jac, vel1, vel2.
    vel_jac  : func_det(vel1, vel2); its sign at a cusp is the local degree.
    minor1/2 : func_det(jac, vel1) and func_det(jac, vel2); if the ideal
               generated by all five polynomials above is the whole ring,
               the map is one-generic with only folds and simple cusps.
    """

    jac: Polynomial
    vel1: Polynomial
    vel2: Polynomial
    vel_jac: Polynomial
    minor1: Polynomial
    minor2: Polynomial


@dataclass(frozen=True)
class RegionCount:
    """Cusps inside the open region {u > 0}, split by local degree."""

    positive: int
    negative: int


@dataclass(frozen=True)
class CuspCensus:
    """Full report of the symbolic cusp count of a certified one-generic map.

    sig1..sig4 are the signatures of the trace forms with weights
    1, vel_jac, u and u*vel_jac; sig3/sig4 and region are present only when
    a region polynomial was supplied.  region additionally requires the
    u-weighted form to be nondegenerate, which certifies that no cusp lies
    on the boundary {u = 0}; when it is degenerate, region is None next to
    sig3/sig4, and the region counts are withheld.
    """

    dim: int
    basis: tuple[Monomial, ...]
    sig1: int
    sig2: int
    sig3: int | None
    sig4: int | None
    total_cusps: int
    sum_of_degrees: int
    positive_cusps: int
    negative_cusps: int
    region: RegionCount | None


def derive_system(f1: Polynomial, f2: Polynomial) -> DerivedSystem:
    """Compute all six derived polynomials exactly."""
    jac = func_det(f1, f2)
    vel1 = func_det(jac, f1)
    vel2 = func_det(jac, f2)
    return DerivedSystem(
        jac=jac,
        vel1=vel1,
        vel2=vel2,
        vel_jac=func_det(vel1, vel2),
        minor1=func_det(jac, vel1),
        minor2=func_det(jac, vel2),
    )


def certify_genericity(derived: DerivedSystem, algebra: QuotientAlgebra) -> bool:
    """True iff the five derived polynomials generate the unit ideal.

    algebra is the quotient A by (jac, vel1, vel2).  The five generate the
    unit ideal exactly when minor1 and minor2 generate A, i.e. when the
    n x 2n block [M_minor1 | M_minor2] has rank n = dim A (always so for
    n = 0); `quotient.generates_algebra` decides that rank exactly.  A cusp
    ideal that is not zero-dimensional has no such A and never certifies:
    on a curve of common zeros of jac, vel1 and vel2 both minors vanish.

    A true verdict certifies that the map is one-generic, that its critical
    points are folds and simple cusps only, and that the cusp set is finite.
    False is a verdict, not an error: the certificate is sufficient but not
    necessary.
    """
    return generates_algebra(algebra, (derived.minor1, derived.minor2))


_NOT_CERTIFIED = ("one-genericity certificate failed: the jacobian, the two "
                  "critical-curve velocity components and the two transversality "
                  "minors do not generate the unit ideal")


def _even_half(a: int, b: int, what: str) -> int:
    if (a + b) % 2:
        raise CertificateFailed(f"inconsistent signatures while computing {what}: "
                                f"{a} and {b} have odd sum")
    return (a + b) // 2


def census(problem: ProblemInput, degree_guard: int = DEFAULT_DEGREE_GUARD) -> CuspCensus:
    """Count cusps of the map, globally and (if u is given) inside {u > 0}.

    A region whose trace form is degenerate (a cusp may lie on {u = 0})
    comes back with sig3/sig4 set and region None: the global counts stand,
    the region counts are withheld.  Raises GenericityNotCertified when the
    one-genericity certificate fails (also when the cusp ideal is not
    zero-dimensional) and CertificateFailed when a consistency check on the
    signatures fails.  DegreeGuardExceeded from the basis computation, run
    under degree_guard, propagates.
    """
    derived = derive_system(problem.f1, problem.f2)
    gb = buchberger([derived.jac, derived.vel1, derived.vel2], degree_guard=degree_guard)
    try:
        algebra = build_algebra(gb)
    except NotZeroDimensional as err:
        raise GenericityNotCertified(_NOT_CERTIFIED) from err
    if not certify_genericity(derived, algebra):
        raise GenericityNotCertified(_NOT_CERTIFIED)

    vel_jac_reduced = normal_form(derived.vel_jac, gb)
    sig1 = signature_of(form_matrix(algebra, Polynomial.constant(1)).rows).signature
    sig2 = signature_of(form_matrix(algebra, vel_jac_reduced).rows).signature

    positive = _even_half(sig1, sig2, "positive cusp count")
    negative = _even_half(sig1, -sig2, "negative cusp count")
    if positive < 0 or negative < 0:
        raise CertificateFailed("negative cusp counts: "
                                "signature computation is inconsistent")

    sig3 = sig4 = region = None
    if problem.u is not None:
        u_reduced = normal_form(problem.u, gb)
        region_result = signature_of(form_matrix(algebra, u_reduced).rows)
        sig3 = region_result.signature
        sig4 = signature_of(
            form_matrix(algebra, normal_form(u_reduced * vel_jac_reduced, gb)).rows).signature
        if region_result.nondegenerate:
            quarter_pos = sig1 + sig2 + sig3 + sig4
            quarter_neg = sig1 - sig2 + sig3 - sig4
            if quarter_pos % 4 or quarter_neg % 4:
                raise CertificateFailed("region signature sums not divisible by 4; "
                                        "signature computation is inconsistent")
            region = RegionCount(quarter_pos // 4, quarter_neg // 4)
            if not (0 <= region.positive <= positive and 0 <= region.negative <= negative):
                raise CertificateFailed("region counts exceed global counts; "
                                        "signature computation is inconsistent")
    return CuspCensus(dim=algebra.dim, basis=algebra.basis,
                      sig1=sig1, sig2=sig2, sig3=sig3, sig4=sig4,
                      total_cusps=sig1, sum_of_degrees=sig2,
                      positive_cusps=positive, negative_cusps=negative, region=region)
