"""Parsing and formatting of polynomial expressions and problem files.

Expression grammar (explicit '*' required, exponents are natural numbers):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' natural)?
    base   := rational | 'x' | 'y' | '(' expr ')'
    rational := natural ('/' natural)?

Unary minus binds more loosely than '^', so "-x^2" denotes -(x^2).

Problem files are UTF-8 text with one "key = expression" per line, where key
is f1, f2 or u; '#' starts a comment and blank lines are ignored.

No parsed coefficient has a numerator or denominator of more than 4300
decimal digits, the interpreter's default limit on converting integers to
and from text (which already bounds integer literals), so every parsed
polynomial can be formatted and parsed again.  A power that could exceed the
limit is rejected before it is computed, which keeps nested powers from
building numbers of unbounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeGuardExceeded, DuplicateKeyError, MissingKeyError, ParseError
from .groebner import DEFAULT_DEGREE_GUARD
from .poly import FIELD, Monomial, Polynomial, _canonical, unpack


@dataclass(frozen=True)
class ProblemInput:
    """A parsed problem: the map components f1, f2 and an optional region polynomial u."""

    f1: Polynomial
    f2: Polynomial
    u: Polynomial | None = None


# -- tokenizer -------------------------------------------------------------

_MAX_DIGITS = 4300
_COEFFICIENT_LIMIT = 10 ** _MAX_DIGITS

_SINGLE = {"+", "-", "*", "^", "/", "(", ")", "x", "y"}
_DIGITS = "0123456789"  # str.isdigit also accepts '²' and other scripts' digits


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kind 'int' or the literal char."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in _SINGLE:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i,
                         expected=("number", "x", "y", "operator", "parenthesis"))
    tokens.append(("end", "", n))
    return tokens


def _natural(tok) -> int:
    """Value of an 'int' token."""
    try:
        return int(tok[1])
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long",
                         position=tok[2]) from None


def _check_power_size(base: Polynomial, exponent: int, position: int) -> None:
    """Reject base^exponent when its coefficients could exceed _MAX_DIGITS digits.

    With D the base's denominator and N the sum of the absolute values of its
    numerators over D, every coefficient of the power has a numerator of at
    most N^exponent and a denominator dividing D^exponent.
    """
    norm = sum(map(abs, base._nums.values()))
    if exponent * math.log10(max(norm, base.denominator)) >= _MAX_DIGITS:
        raise ParseError(f"^{exponent} could give coefficients of more "
                         f"than {_MAX_DIGITS} digits", position=position)


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens, degree_guard: int):
        self.tokens = tokens
        self.pos = 0
        self.guard = degree_guard

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"unexpected {self._describe(tok)}", position=tok[2],
                             expected=(kind,))
        return self.next()

    @staticmethod
    def _describe(tok) -> str:
        return "end of input" if tok[0] == "end" else f"token {tok[1]!r}"

    def parse_expr(self) -> Polynomial:
        result = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() == "*":
            self.next()
            factor = self.parse_factor()
            if result and factor:
                self._check_field(result.degree + factor.degree)
            result = result * factor
        return result

    def _check_field(self, degree: int) -> None:
        """Refuse a power or product whose degree the exponent field cannot
        hold, as a degree above the guard: every guard is below the field."""
        if degree >= FIELD:
            raise DegreeGuardExceeded(degree, self.guard, context="parsing")

    def parse_factor(self) -> Polynomial:
        if self.peek() == "-":
            self.next()
            return -self.parse_factor()
        base = self.parse_base()
        if self.peek() == "^":
            self.next()
            tok = self.expect("int")
            exponent = _natural(tok)
            if exponent > self.guard:
                raise DegreeGuardExceeded(exponent, self.guard, context="parsing")
            _check_power_size(base, exponent, tok[2])
            if base:
                self._check_field(base.degree * exponent)
            return base ** exponent
        return base

    def parse_base(self) -> Polynomial:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            numerator, denominator = _natural(tok), 1
            if self.peek() == "/":
                self.next()
                dtok = self.expect("int")
                denominator = _natural(dtok)
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", position=dtok[2])
            # the integer constructor divides out the common factor
            return _canonical({0: numerator} if numerator else {}, denominator)
        if kind == "x" or kind == "y":
            return Polynomial.variable(kind)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {self._describe((kind, value, pos))}", position=pos,
                         expected=("number", "x", "y", "'('", "'-'"))


def parse_polynomial(text: str, degree_guard: int = DEFAULT_DEGREE_GUARD) -> Polynomial:
    """Parse an expression into canonical sparse form.

    Raises ParseError (with position and expected tokens) for malformed
    input, and DegreeGuardExceeded for exponents above the guard.
    """
    parser = _Parser(_tokenize(text), degree_guard)
    result = parser.parse_expr()
    tok = parser.tokens[parser.pos]
    if tok[0] != "end":
        raise ParseError(f"trailing input starting with {tok[1]!r}", position=tok[2],
                         expected=("+", "-", "*", "^", "end of input"))
    if result.degree != float("-inf") and result.degree > degree_guard:
        raise DegreeGuardExceeded(result.degree, degree_guard, context="parsing")
    den = result.denominator
    for num in result._nums.values():
        # a coefficient num/den in lowest terms has both parts at most these
        if abs(num) >= _COEFFICIENT_LIMIT or den >= _COEFFICIENT_LIMIT:
            common = math.gcd(num, den)
            if abs(num) // common >= _COEFFICIENT_LIMIT or den // common >= _COEFFICIENT_LIMIT:
                raise ParseError(f"a coefficient has more than {_MAX_DIGITS} digits")
    return result


_PROBLEM_KEYS = ("f1", "f2", "u")


def parse_problem(text: str, degree_guard: int = DEFAULT_DEGREE_GUARD) -> ProblemInput:
    """Parse a problem file into a ProblemInput.

    Raises MissingKeyError if f1 or f2 is absent, DuplicateKeyError on
    repeated keys, ParseError for anything else malformed, and
    DegreeGuardExceeded for a polynomial or exponent above the guard.
    """
    seen: dict[str, Polynomial] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = expression'", line=lineno)
        key, _, expr = line.partition("=")
        key = key.strip()
        if key not in _PROBLEM_KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno,
                             expected=_PROBLEM_KEYS)
        if key in seen:
            raise DuplicateKeyError(key, lineno)
        try:
            seen[key] = parse_polynomial(expr, degree_guard=degree_guard)
        except ParseError as err:
            raise ParseError(f"in value for {key!r}: {err.args[0]}", line=lineno) from err
    for key in ("f1", "f2"):
        if key not in seen:
            raise MissingKeyError(key)
    return ProblemInput(f1=seen["f1"], f2=seen["f2"], u=seen.get("u"))


# -- formatting ------------------------------------------------------------

def format_monomial(mono: Monomial) -> str:
    """Canonical text of a power product: '1', 'x', 'y^3', 'x^2*y', ..."""
    return str(Monomial(*mono))


def format_polynomial(p: Polynomial) -> str:
    """Canonical text: terms in descending order of the Groebner term order,
    which in two variables is graded-lexicographic.

    Round-trips through parse_polynomial.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for mono, num in sorted(p._nums.items(), reverse=True):
        sign = "-" if num < 0 else "+"
        magnitude = Fraction(abs(num), p.denominator)
        if mono == 0:
            body = str(magnitude)
        elif magnitude == 1:
            body = str(unpack(mono))
        else:
            body = f"{magnitude}*{unpack(mono)}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)
