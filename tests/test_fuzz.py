"""Fuzzing of the parser and the command line's exit codes with hypothesis.

Whatever the problem text, `cli.main` returns one of the documented exit
codes and never raises; every failure is reported in one line on standard
error.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspcount import cli
from cuspcount.exprio import format_polynomial
from cuspcount.poly import Monomial, Polynomial

DOCUMENTED_EXIT_CODES = {0, 1, 2, 4, 5, 6}

FUZZ = settings(derandomize=True, deadline=None)

MONOMIALS_UP_TO_3 = [Monomial(ex, ey) for ex in range(4) for ey in range(4 - ex)]

coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))

polynomials = st.dictionaries(st.sampled_from(MONOMIALS_UP_TO_3), coefficients,
                              max_size=6).map(Polynomial)

problem_texts = st.builds(
    lambda f1, f2, u: "".join(
        f"{key} = {format_polynomial(p)}\n"
        for key, p in (("f1", f1), ("f2", f2), ("u", u)) if p is not None),
    polynomials, polynomials, st.none() | polynomials)

# text built from the grammar's own characters, mixed with digits of other
# scripts and superscripts (which str.isdigit accepts) and arbitrary text
JUNK_ALPHABET = "xyfu12=0+-*/^() \n#."
junk_characters = (st.sampled_from(JUNK_ALPHABET)
                   | st.characters(categories=("No",))
                   | st.characters(categories=("Nd",), min_codepoint=128))
junk_texts = st.one_of(
    st.text(),
    st.text(alphabet=junk_characters, max_size=40),
    st.builds(lambda body: f"f1 = {body}\nf2 = y\n",
              st.text(alphabet=junk_characters, max_size=20)))


def run_main(text: str, flags: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["-", *flags])
    return code, out.getvalue(), err.getvalue()


def check_outcome(code: int, out: str, err: str) -> None:
    assert code in DOCUMENTED_EXIT_CODES
    if code in (0, 4):
        assert out
    else:
        assert out == ""
    if code:
        assert err.startswith("cuspcount: ") and err.count("\n") == 1
    else:
        assert err == ""


@FUZZ
@given(problem_texts, st.sampled_from([[], ["--json"], ["--basis"]]))
def test_maps_of_degree_at_most_3(text, flags):
    check_outcome(*run_main(text, flags))


@settings(FUZZ, max_examples=300)
@given(junk_texts)
def test_junk_text(text):
    check_outcome(*run_main(text, []))
