"""Exact classification of rational points for the test suite.

A cross-check route for the oracle: at the rational centre of a certified
box, the derived polynomials decide exactly whether the point is a cusp.
"""

from cuspcount.errors import CuspCountError
from cuspcount.pipeline import DerivedSystem


class Unclassifiable(CuspCountError):
    """A point where all classification polynomials vanish; outside the certified cases."""


def classify_critical_point(derived: DerivedSystem,
                            point: tuple) -> str:
    """Exact classification of a rational point: 'not_critical', 'fold' or 'cusp'.

    Raises Unclassifiable when the jacobian, both velocity components and
    both minors all vanish there (outside the certified situation).
    """
    if derived.jac.evaluate(point) != 0:
        return "not_critical"
    if derived.vel1.evaluate(point) != 0 or derived.vel2.evaluate(point) != 0:
        return "fold"
    if derived.minor1.evaluate(point) != 0 or derived.minor2.evaluate(point) != 0:
        return "cusp"
    raise Unclassifiable(
        f"all classification polynomials vanish at {point}; "
        "the point is outside the certified fold/cusp dichotomy")
