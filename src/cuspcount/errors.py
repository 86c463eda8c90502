"""Exception types shared across the package.

Each error names the certificate or contract that failed so that callers
(and the command line front end) can report precisely what went wrong.
"""

from __future__ import annotations


class CuspCountError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CuspCountError, ValueError):
    """Malformed polynomial or problem text.

    Carries the character position and, when known, the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, position: int | None = None,
                 expected: tuple[str, ...] = (), line: int | None = None):
        self.position = position
        self.expected = expected
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if position is not None:
            where.append(f"position {position}")
        suffix = f" ({', '.join(where)})" if where else ""
        if expected:
            suffix += f"; expected one of: {', '.join(expected)}"
        super().__init__(message + suffix)


class MissingKeyError(ParseError):
    """A required key (f1 or f2) is absent from a problem file."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"problem file is missing required key {key!r}")


class DuplicateKeyError(ParseError):
    """A key appears more than once in a problem file."""

    def __init__(self, key: str, line: int):
        self.key = key
        super().__init__(f"duplicate key {key!r}", line=line)


class DegreeGuardExceeded(CuspCountError):
    """A polynomial exceeded the configured total-degree guard."""

    def __init__(self, degree, guard: int, context: str = ""):
        self.degree = degree
        self.guard = guard
        where = f" during {context}" if context else ""
        super().__init__(f"degree {degree} exceeds guard {guard}{where}")


class DegreeFieldExceeded(DegreeGuardExceeded, ValueError):
    """A product's total degree would reach 2**16, past the exponent field of
    the packed monomial keys (see `poly`); a hard guard under every other."""

    def __init__(self, degree: int, limit: int):
        CuspCountError.__init__(
            self, f"degree {degree} of a product exceeds the exponent field limit {limit}")
        self.degree = degree
        self.guard = limit


class NotZeroDimensional(CuspCountError):
    """The ideal has infinitely many solutions; the quotient is not finite-dimensional."""


class NotSymmetric(CuspCountError):
    """Signature requested for a matrix that is not exactly symmetric."""


class GenericityNotCertified(CuspCountError):
    """The unit-ideal certificate for one-genericity failed.

    This does not prove the map is degenerate; it only means the sufficient
    certificate does not hold, so signature-based counts are not justified.
    """


class CertificateFailed(CuspCountError, RuntimeError):
    """An exact certificate the computation relies on did not hold.

    Raised by the quotient algebra's basis certificate, the census'
    consistency checks on signatures and the internal checks of the
    signature routines.  It means a result could not be backed, not that
    the input is invalid.
    """


class OracleOverflow(CuspCountError):
    """The interval oracle left the range of hardware doubles.

    Either a coefficient of the cusp system lies beyond that range, so the
    oracle cannot approximate it and does not run, or a range that must be
    rounded to doubles (over a certified box, or in an interval-Newton
    step) lies beyond them.
    """
