"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is exact (rational arithmetic end to end); runtime
limits are asserted against wall-clock measurements of the session-scoped
census fixtures, which time a single cold run of each pipeline, and against
the process CPU time of one command-line run for the larger maps.
"""

import json
import random
import time
from fractions import Fraction

from cuspcount import cli
from cuspcount.exprio import ProblemInput, format_polynomial, parse_polynomial, parse_problem
from cuspcount.groebner import buchberger, leading_monomial, normal_form
from cuspcount.oracle import isolate_cusps, region_membership
from cuspcount.pipeline import census, certify_genericity, derive_system
from cuspcount.poly import Monomial, Polynomial, X, Y
from cuspcount.quotient import build_algebra, form_matrix
from cuspcount.signature import signature_of
from conftest import (FOLD_ONLY_TEXT, IDENTITY_TEXT, NON_GENERIC_TEXT, mono_lcm,
                      mono_quotient, random_polynomial, substitute)
from elimination import signature_by_elimination


def report(number: int, text: str) -> None:
    print(f"\n[acceptance {number}] PASS - {text}")


def permuted(matrix):
    """Rows and columns reversed: ascending basis (1, y) to printed (y, 1)."""
    n = len(matrix)
    return tuple(tuple(matrix[n - 1 - i][n - 1 - j] for j in range(n))
                 for i in range(n))


def test_criterion_1_two_cusp_exact_reproduction(two_cusp_run):
    c = two_cusp_run.census
    assert c.dim == 2
    assert c.basis == (Monomial(0, 0), Monomial(0, 1))

    problem = two_cusp_run.problem
    d = derive_system(problem.f1, problem.f2)
    gb = buchberger([d.jac, d.vel1, d.vel2])
    algebra = build_algebra(gb)
    thetas = [
        form_matrix(algebra, Polynomial.constant(1)).matrix,
        form_matrix(algebra, normal_form(d.vel_jac, gb)).matrix,
        form_matrix(algebra, normal_form(problem.u, gb)).matrix,
        form_matrix(algebra, normal_form(problem.u * d.vel_jac, gb)).matrix,
    ]
    expected_in_y_1_basis = [
        ((4, 2), (2, 2)),
        ((-96, -48), (-48, -48)),
        ((-76, -38), (-38, -18)),
        ((24 * 76, 24 * 38), (24 * 38, 24 * 18)),
    ]
    for theta, expected in zip(thetas, expected_in_y_1_basis):
        assert permuted(theta) == expected

    assert (c.sig1, c.sig2, c.sig3, c.sig4) == (2, -2, 0, 0)
    assert (c.total_cusps, c.positive_cusps, c.negative_cusps) == (2, 0, 2)
    assert (c.region.positive, c.region.negative) == (0, 1)
    assert two_cusp_run.seconds < 1.0
    report(1, f"two-cusp map reproduced exactly in {two_cusp_run.seconds:.3f}s")


def test_criterion_2_eight_cusp_map(eight_cusp_run):
    c = eight_cusp_run.census
    assert c.dim == 38
    assert (c.total_cusps, c.positive_cusps, c.negative_cusps) == (8, 6, 2)
    assert (c.region.positive, c.region.negative) == (3, 2)
    assert (c.sig1, c.sig2, c.sig3, c.sig4) == (8, 4, 2, -2)
    assert eight_cusp_run.seconds < 30.0
    report(2, f"dim 38, 8 cusps (6 positive, 2 negative), 3+2 in region, "
              f"signatures (8,4,2,-2), in {eight_cusp_run.seconds:.1f}s")


def test_criterion_3_six_cusp_map(six_cusp_run):
    c = six_cusp_run.census
    assert c.dim == 56
    assert (c.total_cusps, c.positive_cusps, c.negative_cusps) == (6, 5, 1)
    assert c.region is not None  # region form certified nondegenerate
    assert c.region.negative == 1
    assert c.sig3 - c.sig4 == 2
    assert six_cusp_run.seconds < 60.0
    report(3, f"dim 56, 6 cusps (5 positive, 1 negative), negative one in "
              f"region, sig3-sig4 = 2, in {six_cusp_run.seconds:.1f}s")


def test_criterion_3_genericity_certificate_runtime(six_cusp_run):
    # a ceiling no 5-generator Buchberger run (about 12 s here) could meet
    problem = six_cusp_run.problem
    d = derive_system(problem.f1, problem.f2)
    algebra = build_algebra(buchberger([d.jac, d.vel1, d.vel2]))
    start = time.perf_counter()
    assert certify_genericity(d, algebra)
    seconds = time.perf_counter() - start
    assert seconds < 2.0
    report(3, f"six-cusp map certified one-generic on its dim-56 quotient "
              f"in {seconds:.3f}s")


def test_criterion_4_cusp_normal_form(whitney_run):
    c = whitney_run.census
    assert (c.total_cusps, c.positive_cusps, c.negative_cusps) == (1, 1, 0)
    problem = whitney_run.problem
    points = isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=2.0)
    assert len(points) == 1
    point = points[0]
    assert point.kind == "cusp"
    assert point.degree_sign == 1
    assert point.box[0].contains(0.0) and point.box[1].contains(0.0)
    assert max(point.box[0].width, point.box[1].width) <= 1e-6
    report(4, "normal-form map: one positive cusp, certified box at origin")


def test_criterion_5_oracle_algebra_agreement(two_cusp_run):
    problem = two_cusp_run.problem
    points = isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=10.0)
    cusps = [p for p in points if p.kind == "cusp"]
    assert len(points) == len(cusps) == 2
    located = sorted(cusps, key=lambda p: p.box[0].lo)
    assert located[0].box[0].contains(-4.0) and located[0].box[1].contains(2.0)
    assert located[1].box[0].contains(0.0) and located[1].box[1].contains(0.0)
    assert [p.degree_sign for p in located] == [-1, -1]
    flags = [region_membership(problem.u, p) for p in located]
    assert flags == [False, True]
    assert all(max(p.box[0].width, p.box[1].width) <= 1e-6 for p in cusps)
    report(5, "oracle certifies both cusps with matching signs and region flags")


def check_oracle_at_radius_16(run, signs, in_region) -> float:
    """Run the oracle on a paper map at radius 16 and check it against the
    census: no unresolved box, (positive, negative) cusp signs, and the
    split of the cusps flagged in the region, which must equal the census
    region counts.  Returns the wall time of the isolation."""
    problem = run.problem
    start = time.perf_counter()
    points = isolate_cusps(derive_system(problem.f1, problem.f2), box_radius=16.0)
    seconds = time.perf_counter() - start
    assert [p for p in points if p.kind == "unresolved"] == []
    degrees = [p.degree_sign for p in points]
    assert (degrees.count(1), degrees.count(-1)) == signs
    assert len(points) == sum(signs)
    flags = [region_membership(problem.u, p) for p in points]
    assert None not in flags
    inside = [d for d, flag in zip(degrees, flags) if flag]
    assert (inside.count(1), inside.count(-1)) == in_region
    assert in_region == (run.census.region.positive, run.census.region.negative)
    assert seconds < 30.0
    return seconds


def test_criterion_5_oracle_finishes_on_eight_cusp_map(eight_cusp_run):
    seconds = check_oracle_at_radius_16(eight_cusp_run, signs=(6, 2), in_region=(3, 2))
    report(5, f"oracle at radius 16 on the eight-cusp map: 8 cusps (6 positive, "
              f"2 negative), 3+2 in region, nothing unresolved, in {seconds:.1f}s")


def test_criterion_5_oracle_finishes_on_six_cusp_map(six_cusp_run):
    seconds = check_oracle_at_radius_16(six_cusp_run, signs=(5, 1), in_region=(0, 1))
    report(5, f"oracle at radius 16 on the six-cusp map: 6 cusps (5 positive, "
              f"1 negative), 0+1 in region, nothing unresolved, in {seconds:.1f}s")


# The six-cusp map with u = x: the cusp ideal vanishes at the origin, where
# u does, so the region forms Theta_3 and Theta_4 have rank 55 of 56.
SIX_CUSP_U_X_TEXT = """\
f1 = 10*x^2*y^3 + 4*x^2*y^2 - 2*x*y^3 - 6*x^2*y + 8*x*y^2 - 5*x*y
f2 = 5*x^4*y + 10*x^4 - y^4 + 5*x^2 - 3*x*y - 9*y
u = x
"""

# A dense map of bidegree (5, 5) with seeded coefficients in [-5, 5]:
# quotient dimension 72, beyond the paper's maps.
DENSE_QUINTIC_TEXT = """\
f1 = -2*x^5 - x^4*y - 5*x^3*y^2 + 2*x^2*y^3 - 2*x*y^4 + 3*y^5 + 2*x^4 + 4*x^3*y - 5*x^2*y^2 + x*y^3 - 4*y^4 + x^3 + 2*x^2*y + 5*x*y^2 - y^3 - 4*x^2 + 2*x*y - 4*y^2 + 2*x + 4*y - 3
f2 = -2*x^5 + x^4*y + 4*x^3*y^2 - 2*x^2*y^3 - 2*x*y^4 - 5*y^5 - 2*x^4 + 2*x^3*y + 3*x^2*y^2 + x*y^3 - 5*y^4 + 2*x^3 - 5*x^2*y - 5*x*y^2 - 5*y^3 + x^2 + 3*x*y + 5*x - 4*y + 4
"""

# The next dense map, of bidegree (6, 5), drawn the same way from one seeded
# generator (degree 6, then degree 5): quotient dimension 92.  Exact
# elimination on its two forms confirms Theta_1 = 6 and Theta_2 = -2 but
# takes minutes of CPU.
DENSE_SEXTIC_QUINTIC_TEXT = """\
f1 = 4*x^6 - 5*x^5*y - 5*x^4*y^2 + 5*x^3*y^3 - 5*x^2*y^4 + 3*x*y^5 + 3*y^6 - 5*x^5 - 2*x^3*y^2 + 4*x^2*y^3 - 4*x*y^4 + 2*y^5 - 4*x^4 - x^3*y + x^2*y^2 - 2*x*y^3 - 4*y^4 + 2*x^3 + x^2*y + x*y^2 - y^3 - 5*x^2 + 5*x*y - 4*y^2 + 2*x + 4*y - 3
f2 = -4*x^5 + 4*x^4*y - 5*x^3*y^2 - 2*x^2*y^3 + 4*x*y^4 - 5*y^5 + x^4 - x^3*y - 2*x^2*y^2 + 2*x*y^3 + y^4 + 2*x^3 + 2*x*y^2 - 2*y^3 - 2*x^2 - 2*x*y + 5*y^2 + 3*x + y - 5
"""

# The dense map of bidegree (6, 6), drawn the same way (degree 6, then
# degree 6; f1 is that of the (6, 5) map): quotient dimension 115.
DENSE_SEXTIC_TEXT = """\
f1 = 4*x^6 - 5*x^5*y - 5*x^4*y^2 + 5*x^3*y^3 - 5*x^2*y^4 + 3*x*y^5 + 3*y^6 - 5*x^5 - 2*x^3*y^2 + 4*x^2*y^3 - 4*x*y^4 + 2*y^5 - 4*x^4 - x^3*y + x^2*y^2 - 2*x*y^3 - 4*y^4 + 2*x^3 + x^2*y + x*y^2 - y^3 - 5*x^2 + 5*x*y - 4*y^2 + 2*x + 4*y - 3
f2 = 4*x^6 + x^5*y - x^4*y^2 - 4*x^3*y^3 - x^2*y^4 + x*y^5 + 4*y^6 - 4*x^5 + 5*x^4*y + 3*x^3*y^2 + 2*x^2*y^3 - 2*x*y^4 - 5*y^5 - 3*x^4 + x^3*y - 2*x^2*y^2 + 3*x*y^3 + y^4 - 5*x^3 + 5*x^2*y + 2*x*y^2 - 2*y^3 - 2*x^2 + 2*x*y + 5*y^2 - 2*x + y - 5
"""


def timed_json_report(tmp_path, capsys, text):
    """(exit code, JSON report, process CPU seconds) of one command-line run."""
    path = tmp_path / "problem.txt"
    path.write_text(text)
    start = time.process_time()
    code = cli.main([str(path), "--json"])
    seconds = time.process_time() - start
    return code, json.loads(capsys.readouterr().out), seconds


def test_criterion_3_singular_region_forms_deflate(tmp_path, capsys):
    # the ceiling only a modular kernel can meet: sympy's exact nullspace of
    # one of these forms alone takes about 65 s of CPU on a 2-vCPU machine
    code, result, seconds = timed_json_report(tmp_path, capsys, SIX_CUSP_U_X_TEXT)
    assert code == 4
    assert result["dim"] == 56
    assert [result["signatures"][k] for k in ("theta3", "theta4")] == [-1, -3]
    assert result["region"] is None
    assert seconds < 6.0
    report(3, f"six-cusp map with u = x: rank-55 region forms deflated, sig3 = -1, "
              f"sig4 = -3, region withheld, in {seconds:.1f}s CPU")


def test_criterion_3_dense_quintic_map(tmp_path, capsys):
    code, result, seconds = timed_json_report(tmp_path, capsys, DENSE_QUINTIC_TEXT)
    assert code == 0
    assert result["dim"] == 72
    assert [result["signatures"][k] for k in ("theta1", "theta2")] == [6, 4]
    assert result["cusps"] == {"total": 6, "positive": 5, "negative": 1}
    assert seconds < 8.0
    report(3, f"dense (5, 5) map: dim 72, signatures (6, 4), in {seconds:.1f}s CPU")


def test_criterion_5_oracle_cross_checks_the_dense_quintic_map():
    # the census of this map (test_criterion_3_dense_quintic_map) counts 6 cusps,
    # 5 positive and 1 negative; one lies near (-2.25, -0.22), outside radius 2
    problem = parse_problem(DENSE_QUINTIC_TEXT)
    derived = derive_system(problem.f1, problem.f2)
    start = time.process_time()
    points = isolate_cusps(derived, box_radius=4.0)
    seconds = time.process_time() - start
    assert [p.kind for p in points] == ["cusp"] * 6
    degrees = [p.degree_sign for p in points]
    assert (degrees.count(1), degrees.count(-1)) == (5, 1)
    assert seconds < 30.0
    report(5, f"oracle at radius 4 on the dense (5, 5) map: 6 cusps (5 positive, "
              f"1 negative) as the census counts, nothing unresolved, in {seconds:.1f}s CPU")


def test_criterion_3_dense_sextic_quintic_map(tmp_path, capsys):
    code, result, seconds = timed_json_report(tmp_path, capsys, DENSE_SEXTIC_QUINTIC_TEXT)
    assert code == 0
    assert result["dim"] == 92
    assert [result["signatures"][k] for k in ("theta1", "theta2")] == [6, -2]
    assert result["cusps"] == {"total": 6, "positive": 2, "negative": 4}
    assert seconds < 30.0
    report(3, f"dense (6, 5) map: dim 92, signatures (6, -2), in {seconds:.1f}s CPU")


def test_criterion_3_dense_sextic_map(tmp_path, capsys):
    # a ceiling that exact congruences on the forms' 4-kbit entries miss:
    # they run on the forms' top 128 bits
    code, result, seconds = timed_json_report(tmp_path, capsys, DENSE_SEXTIC_TEXT)
    assert code == 0
    assert result["dim"] == 115
    assert [result["signatures"][k] for k in ("theta1", "theta2")] == [5, 3]
    assert result["cusps"] == {"total": 5, "positive": 4, "negative": 1}
    assert seconds < 4.0
    report(3, f"dense (6, 6) map: dim 115, signatures (5, 3), in {seconds:.1f}s CPU")


class TestCriterion6PropertySuites:
    """Six randomized suites, fixed seeds, at least 500 cases each."""

    def test_groebner_spolynomials_reduce_to_zero(self):
        rng = random.Random(9001)
        for _ in range(500):
            gens = [random_polynomial(rng, rng.randint(1, 3), lo=-5, hi=5)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()] or [X + Y]
            gb = buchberger(gens)
            for i in range(len(gb.generators)):
                for j in range(i + 1, len(gb.generators)):
                    gi, gj = gb.generators[i], gb.generators[j]
                    li = leading_monomial(gi)
                    lj = leading_monomial(gj)
                    lcm = mono_lcm(li, lj)
                    spoly = (Polynomial.monomial(mono_quotient(lcm, li)) * gi
                             - Polynomial.monomial(mono_quotient(lcm, lj)) * gj)
                    assert normal_form(spoly, gb).is_zero()
        report(6, "groebner: all S-polynomials of 500 random bases reduce to 0")

    def test_normal_form_idempotent_and_linear(self):
        rng = random.Random(9002)
        for _ in range(500):
            gens = [random_polynomial(rng, rng.randint(1, 3), lo=-5, hi=5)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()] or [X - Y]
            gb = buchberger(gens)
            p = random_polynomial(rng, 3, lo=-6, hi=6)
            q = random_polynomial(rng, 3, lo=-6, hi=6)
            nf_p = normal_form(p, gb)
            nf_q = normal_form(q, gb)
            assert normal_form(nf_p, gb) == nf_p
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            assert normal_form(a * p + b * q, gb) == a * nf_p + b * nf_q
            for g in gens:
                assert normal_form(g, gb).is_zero()
        report(6, "groebner: normal form is idempotent and linear on 500 random bases")

    def test_sylvester_inertia_invariance(self):
        rng = random.Random(9003)
        for _ in range(500):
            n = rng.randint(1, 6)
            m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[j][i] = m[i][j]
            p = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                p[i][i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                for j in range(i):
                    p[i][j] = Fraction(rng.randint(-3, 3))
            congruent = [[sum(p[i][k] * m[k][l] * p[j][l]
                              for k in range(n) for l in range(n))
                          for j in range(n)] for i in range(n)]
            assert signature_of(congruent) == signature_of(m)
        report(6, "signature: Sylvester invariance holds on 500 random congruences")

    def test_signature_routes_agree(self):
        rng = random.Random(9004)
        for _ in range(500):
            n = rng.randint(0, 6)
            m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[j][i] = m[i][j]
            if n >= 2 and rng.random() < 0.4:
                for k in range(n):
                    m[n - 1][k] = m[0][k]
                for k in range(n):
                    m[k][n - 1] = m[k][0]
                m[n - 1][n - 1] = m[0][0]
            assert signature_of(m) == signature_by_elimination(m)
        report(6, "signature: congruence certificate agrees with elimination on 500 matrices")

    def test_polynomial_ring_axioms(self):
        rng = random.Random(9005)
        for _ in range(1000):
            p = random_polynomial(rng, 4)
            q = random_polynomial(rng, 4)
            r = random_polynomial(rng, 4)
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
        report(6, "polynomials: ring axioms hold on 1000 random triples")

    def test_parser_round_trip(self):
        rng = random.Random(9006)
        for _ in range(500):
            p = random_polynomial(rng, 6, lo=-99, hi=99)
            assert parse_polynomial(format_polynomial(p)) == p
        report(6, "parser: format/parse round trip holds on 500 random polynomials")


def test_criterion_7_degenerate_paths(tmp_path, capsys):
    identity = tmp_path / "identity.txt"
    identity.write_text(IDENTITY_TEXT)
    assert cli.main([str(identity)]) == 0
    out = capsys.readouterr().out
    assert "total=0" in out

    non_generic = tmp_path / "nongeneric.txt"
    non_generic.write_text(NON_GENERIC_TEXT)
    assert cli.main([str(non_generic)]) == 2
    capsys.readouterr()

    fold_only = tmp_path / "fold.txt"
    fold_only.write_text(FOLD_ONLY_TEXT)
    assert cli.main([str(fold_only)]) == 0
    out = capsys.readouterr().out
    assert "total=0" in out
    report(7, "identity exits 0 with empty census, squares map exits 2, "
              "fold-only map counts zero cusps")


def test_criterion_8_translation_invariance(two_cusp_run):
    base = two_cusp_run.census
    problem = two_cusp_run.problem
    rng = random.Random(9008)
    for trial in range(5):
        ax = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        ay = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        sx = X + Polynomial.constant(ax)
        sy = Y + Polynomial.constant(ay)
        moved = ProblemInput(
            f1=substitute(problem.f1, sx, sy),
            f2=substitute(problem.f2, sx, sy),
            u=substitute(problem.u, sx, sy),
        )
        c = census(moved)
        assert c.dim == base.dim
        assert (c.sig1, c.sig2) == (base.sig1, base.sig2)
        assert (c.total_cusps, c.positive_cusps, c.negative_cusps) == \
            (base.total_cusps, base.positive_cusps, base.negative_cusps)
        assert (c.region.positive, c.region.negative) == \
            (base.region.positive, base.region.negative)
    report(8, "census invariant under 5 random rational translations")
