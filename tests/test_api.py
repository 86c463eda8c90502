"""The public API: the names exported by the package."""

import cuspcount

PUBLIC_NAMES = [
    "CertificateFailed", "CertifiedPoint", "CuspCensus", "CuspCountError",
    "DegreeGuardExceeded", "DerivedSystem",
    "DuplicateKeyError", "GenericityNotCertified", "GroebnerBasis", "Interval",
    "MissingKeyError", "Monomial", "NotSymmetric", "NotZeroDimensional",
    "OracleOverflow", "ParseError", "Polynomial", "ProblemInput",
    "QuotientAlgebra", "RegionCount", "SignatureResult",
    "SymmetricForm", "__version__", "buchberger", "build_algebra", "census",
    "certify_genericity", "derive_system", "form_matrix",
    "format_monomial", "format_polynomial", "func_det", "generates_algebra",
    "is_zero_dimensional", "isolate_cusps",
    "normal_form", "parse_polynomial", "parse_problem", "region_membership",
    "signature_of", "standard_monomials",
]


def test_all_is_pinned():
    # a name added to or removed from the API shows up as a change here
    assert sorted(cuspcount.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    for name in cuspcount.__all__:
        assert hasattr(cuspcount, name), name
