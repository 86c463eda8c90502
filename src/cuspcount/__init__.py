"""Exact cusp counting for polynomial maps of the plane into the plane.

The symbolic pipeline builds the finite-dimensional quotient algebra of the
cusp ideal, certifies one-genericity by a rank test on it, and reads the
number of positive and negative cusps — globally and inside a region
{u > 0} — off the signatures of four trace forms.  A certified numeric
root-isolation oracle provides an independent cross-check.
"""

from .errors import (CertificateFailed, CuspCountError, DegreeGuardExceeded,
                     DuplicateKeyError, GenericityNotCertified, MissingKeyError,
                     NotSymmetric, NotZeroDimensional, OracleOverflow, ParseError)
from .exprio import (ProblemInput, format_monomial, format_polynomial,
                     parse_polynomial, parse_problem)
from .groebner import (GroebnerBasis, buchberger, is_zero_dimensional,
                       normal_form, standard_monomials)
from .oracle import CertifiedPoint, Interval, isolate_cusps, region_membership
from .pipeline import (CuspCensus, DerivedSystem, RegionCount, census,
                       certify_genericity, derive_system)
from .poly import Monomial, Polynomial, func_det
from .quotient import (QuotientAlgebra, SymmetricForm, build_algebra,
                       form_matrix, generates_algebra)
from .signature import SignatureResult, signature_of

__version__ = "0.1.0"

__all__ = [
    "CertificateFailed", "CuspCountError", "DegreeGuardExceeded",
    "DuplicateKeyError", "GenericityNotCertified", "MissingKeyError",
    "NotSymmetric", "NotZeroDimensional", "OracleOverflow", "ParseError",
    "ProblemInput", "format_monomial", "format_polynomial",
    "parse_polynomial", "parse_problem",
    "GroebnerBasis", "buchberger",
    "is_zero_dimensional", "normal_form", "standard_monomials",
    "CertifiedPoint", "Interval", "isolate_cusps", "region_membership",
    "CuspCensus", "DerivedSystem", "RegionCount", "census",
    "certify_genericity", "derive_system",
    "Monomial", "Polynomial", "func_det",
    "QuotientAlgebra", "SymmetricForm", "build_algebra", "form_matrix",
    "generates_algebra",
    "SignatureResult", "signature_of",
    "__version__",
]
