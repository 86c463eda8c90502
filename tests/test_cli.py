"""Command-line behaviour: exit codes, JSON schema, determinism, goldens."""

import errno
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cuspcount import cli, pipeline
from cuspcount.exprio import parse_polynomial, parse_problem
from cuspcount.oracle import CertifiedPoint, Interval
from cuspcount.poly import Polynomial
from cuspcount.signature import SignatureResult
from conftest import (IDENTITY_TEXT, NON_GENERIC_TEXT, SIX_CUSP_TEXT, TWO_CUSP_TEXT,
                      WHITNEY_TEXT)

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(cli.__file__).resolve().parents[1]

TWO_CUSP_MAP = "f1 = x*y^2 - x^2 + y^2 + x - y\nf2 = x - y\n"
WITHHELD = ("cuspcount: the region trace form is degenerate (a cusp may lie on "
            "{u = 0}); region counts are withheld\n")
UNRESOLVED = "cuspcount: oracle left unresolved boxes (reported below)\n"


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, [write_problem(tmp_path, TWO_CUSP_TEXT)])
        assert code == 0
        assert "total=2" in out

    def test_genericity_failure(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, [write_problem(tmp_path, NON_GENERIC_TEXT)])
        assert code == 2
        assert "certificate" in err

    def test_cusp_ideal_not_zero_dimensional(self, tmp_path, capsys):
        # jac, vel1 and vel2 all vanish on {y = 0}: reported as not generic
        code, out, err = run_cli(capsys, [write_problem(tmp_path, "f1 = x\nf2 = y^3\n")])
        assert code == 2
        assert out == ""
        assert err == ("cuspcount: one-genericity certificate failed: the jacobian, "
                       "the two critical-curve velocity components and the two "
                       "transversality minors do not generate the unit ideal\n")

    def test_rank_deficient_minors(self, tmp_path, capsys):
        # zero-dimensional cusp ideal of dimension 2; the minors span rank 1
        text = "f1 = x\nf2 = y^4 + x*y\n"
        code, out, err = run_cli(capsys, [write_problem(tmp_path, text)])
        assert code == 2
        assert out == ""
        assert "one-genericity certificate failed" in err

    def test_certificate_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        signatures = iter([2, 1])  # odd sum: no integer count of positive cusps

        def inconsistent(matrix):
            value = next(signatures)
            return SignatureResult(value, len(matrix), 0, 0, True)

        monkeypatch.setattr("cuspcount.pipeline.signature_of", inconsistent)
        code, out, err = run_cli(capsys, [write_problem(tmp_path, TWO_CUSP_TEXT)])
        assert code == 1
        assert out == ""
        assert err == ("cuspcount: certificate failed: inconsistent signatures while "
                       "computing positive cusp count: 2 and 1 have odd sum\n")

    def test_inertia_certificate_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        # every prime proposes the whole space as the kernel of a nonsingular form
        monkeypatch.setattr("cuspcount.signature._residues",
                            lambda matrix, p: np.zeros((len(matrix),) * 2, dtype=np.int64))
        code, out, err = run_cli(capsys, [write_problem(tmp_path, TWO_CUSP_TEXT)])
        assert code == 1
        assert out == ""
        assert err == ("cuspcount: certificate failed: inertia: the kernel proposed modulo "
                       "primes does not lift past the Hadamard bound\n")

    def test_degenerate_region(self, tmp_path, capsys):
        # u = x vanishes at the cusp (0,0), u = 0 at both; the global counts stand
        for u, thetas in (("x", [-1, 1]), ("0", [0, 0])):
            path = write_problem(tmp_path, TWO_CUSP_MAP + f"u = {u}\n")
            code, out, err = run_cli(capsys, [path])
            assert (code, err) == (4, WITHHELD)
            assert "cusps in region: withheld (degenerate region form)" in out.splitlines()
            assert "total=2 positive=0 negative=2" in out
            code, out, err = run_cli(capsys, [path, "--json"])
            assert (code, err) == (4, WITHHELD)
            report = json.loads(out)
            assert report["region"] is None
            assert [report["signatures"][k] for k in ("theta3", "theta4")] == thetas
            assert report["cusps"] == {"total": 2, "positive": 0, "negative": 2}

    @pytest.mark.parametrize("u, status, err", [
        ("x", 4, WITHHELD), ("1 - x^2 - y^2", 6, UNRESOLVED),
    ], ids=["degenerate", "nondegenerate"])
    def test_degenerate_region_takes_precedence_over_unresolved_boxes(
            self, tmp_path, capsys, monkeypatch, u, status, err):
        box = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))
        monkeypatch.setattr(cli, "isolate_cusps",
                            lambda derived, box_radius: (CertifiedPoint(box, "unresolved"),))
        path = write_problem(tmp_path, TWO_CUSP_MAP + f"u = {u}\n")
        code, out, stderr = run_cli(capsys, [path, "--oracle"])
        assert (code, stderr) == (status, err)
        assert "oracle: 0 certified point(s), 1 unresolved" in out

    def test_parse_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, [write_problem(tmp_path, "f1 = x +\nf2 = y\n")])
        assert code == 5
        assert "parse error" in err

    def test_missing_key_is_parse_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, [write_problem(tmp_path, "f2 = y\n")])
        assert code == 5

    def test_degree_guard(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        code, _, err = run_cli(capsys, [path, "--degree-guard", "2"])
        assert code == 6
        assert "degree" in err

    def test_degree_guard_in_census(self, tmp_path, capsys):
        # every line parses under 5; the jacobian entering the basis has degree 8
        path = write_problem(tmp_path, SIX_CUSP_TEXT)
        code, out, err = run_cli(capsys, [path, "--degree-guard", "5"])
        assert code == 6
        assert out == ""
        assert err == ("cuspcount: degree guard: degree 8 exceeds guard 5 "
                       "during buchberger input\n")

    @pytest.mark.parametrize("guard", ["0", "-3", str(2 ** 15 + 1), str(10 ** 6)])
    def test_degree_guard_out_of_range(self, tmp_path, capsys, guard):
        # above 2**15, S-pair lcms could pass the 16-bit exponent field
        code, out, err = run_cli(capsys, [write_problem(tmp_path, TWO_CUSP_TEXT),
                                          f"--degree-guard={guard}"])
        assert code == 1
        assert out == ""
        assert err.startswith("cuspcount: --degree-guard must be ") and err.count("\n") == 1

    def test_largest_degree_guard_changes_nothing(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        reports = []
        for flags in ([], ["--degree-guard", str(2 ** 15)]):
            code, out, err = run_cli(capsys, [path, "--json", *flags])
            assert code == 0 and err == ""
            report = json.loads(out)
            report.pop("timings_ms")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_product_past_the_exponent_field(self, tmp_path, capsys):
        # every line parses under the largest guard, but the velocity's
        # functional determinant would have degree 119990
        text = "f1 = x^20000 + y^2\nf2 = y^20000 + x^2\n"
        code, out, err = run_cli(capsys, [write_problem(tmp_path, text),
                                          "--degree-guard", str(2 ** 15)])
        assert code == 6
        assert out == ""
        assert err == ("cuspcount: degree 119990 of a product exceeds the exponent "
                       "field limit 65535\n")

    def test_parsing_past_the_exponent_field(self, tmp_path, capsys):
        # a power the field cannot hold is a degree above the guard, as the
        # whole line's degree is
        text = "f1 = ((x^64)^64)^64*y + x\nf2 = y\n"
        code, out, err = run_cli(capsys, [write_problem(tmp_path, text)])
        assert (code, out) == (6, "")
        assert err == "cuspcount: degree guard: degree 262144 exceeds guard 64 during parsing\n"

    def test_oracle_overflow(self, tmp_path, capsys):
        huge = "1" + "0" * 320  # 10^320, beyond the largest double
        text = TWO_CUSP_TEXT.replace("x*y^2", f"{huge}*x*y^2", 1)
        code, _, err = run_cli(capsys, [write_problem(tmp_path, text), "--oracle"])
        assert code == 6
        assert err.startswith("cuspcount: oracle:") and err.count("\n") == 1

    def test_oracle_interval_overflow(self, tmp_path, capsys):
        # box ends near the largest double: the ranges over the wide boxes
        # pass the doubles, but the exclusion test reads them as integers
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        code, out, err = run_cli(capsys, [path, "--oracle", "--radius", "1e308"])
        assert (code, err) == (0, "")
        assert "oracle: 2 certified point(s), 0 unresolved" in out

    def test_oracle_at_a_huge_radius_ends_in_seconds(self, tmp_path, capsys):
        # far from the cusps the exact enclosures exclude huge boxes whole
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        start = time.process_time()
        code, out, err = run_cli(capsys, [path, "--oracle", "--radius", "1e200"])
        assert time.process_time() - start < 10
        assert (code, err) == (0, "")
        assert "oracle: 2 certified point(s), 0 unresolved" in out

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("f1", [
        "((10^64)^64)^2*x", "((((10^64)^64)^64)^64)*x", "(((((10^64)^64)^64)^64)^64)*x",
    ], ids=["two levels", "four levels", "five levels"])
    def test_coefficient_beyond_digit_limit(self, tmp_path, capsys, f1, mode):
        # each level of ^64 multiplies the digits by 64; the bound stops the
        # nest before the power is computed
        path = write_problem(tmp_path, f"f1 = {f1}\nf2 = y\n")
        start = time.process_time()
        code, out, err = run_cli(capsys, [path, *mode])
        assert time.process_time() - start < 1
        assert code == 5
        assert out == ""
        assert err.startswith("cuspcount: parse error:") and err.count("\n") == 1

    @pytest.mark.parametrize("f1", ["(10^64)^64*x", "1/" + "9" * 4300 + "*x"],
                             ids=["4097 digits", "4300-digit denominator"])
    def test_large_coefficient_echo_round_trips(self, tmp_path, capsys, f1):
        code, out, _ = run_cli(capsys, [write_problem(tmp_path, f"f1 = {f1}\nf2 = y\n"), "--json"])
        assert code == 0
        assert parse_polynomial(json.loads(out)["input_echo"]["f1"]) == parse_polynomial(f1)

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    def test_radius_must_be_positive_and_finite(self, tmp_path, capsys, radius):
        path = write_problem(tmp_path, WHITNEY_TEXT)
        code, out, err = run_cli(capsys, [path, "--oracle", f"--radius={radius}"])
        assert code == 1
        assert out == ""
        assert "positive finite number" in err

    def test_unreadable_input(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, [str(tmp_path / "absent.txt")])
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("flags", [["--radius", "abc"], ["--bogus"]])
    def test_usage_error_is_one_line_with_status_1(self, tmp_path, capsys, flags):
        # argparse's own status 2 would read as a failed genericity certificate
        path = write_problem(tmp_path, WHITNEY_TEXT)
        with pytest.raises(SystemExit) as stop:
            cli.main([path, *flags])
        captured = capsys.readouterr()
        assert stop.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("cuspcount: ") and captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["--help"])
        assert stop.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_non_utf8_file_is_unreadable_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"f1 = x\xff\nf2 = y\n")
        code, out, err = run_cli(capsys, [str(path)])
        assert code == 1
        assert out == ""
        assert "cannot read" in err and "utf-8" in err and err.count("\n") == 1

    def test_non_utf8_stdin_is_unreadable_input(self, capsys, monkeypatch):
        import io

        stdin = io.TextIOWrapper(io.BytesIO(b"f1 = x\xff\nf2 = y\n"),
                                 encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, ["-"])
        assert code == 1
        assert out == ""
        assert "cannot read '-'" in err and "utf-8" in err and err.count("\n") == 1

    def test_byte_order_mark_file_reads_as_without(self, tmp_path, capsys):
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + TWO_CUSP_TEXT.encode("utf-8"))
        plain = write_problem(tmp_path, TWO_CUSP_TEXT)
        result = masked_run(capsys, [str(marked), "--json"])
        assert result[0] == 0
        assert result == masked_run(capsys, [plain, "--json"])

    def test_byte_order_mark_stdin_reads_as_without(self, tmp_path, capsys, monkeypatch):
        import io

        marked = b"\xef\xbb\xbf" + TWO_CUSP_TEXT.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(marked), encoding="utf-8"))
        result = masked_run(capsys, ["-", "--json"])
        assert result[0] == 0
        assert result == masked_run(capsys, [write_problem(tmp_path, TWO_CUSP_TEXT), "--json"])

    def test_closed_stdin_is_unreadable_input(self, capsys, monkeypatch):
        # the interpreter sets sys.stdin to None when descriptor 0 is closed
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run_cli(capsys, ["-"])
        assert (code, out) == (1, "")
        assert err == "cuspcount: cannot read '-': standard input is closed\n"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(IDENTITY_TEXT))
        code, out, _ = run_cli(capsys, ["-"])
        assert code == 0
        assert "total=0" in out


class TestUnwritableReport:
    """A report that cannot be written ends in one line and status 1, in a child process."""

    @staticmethod
    def spawn(path, stdout, buffered):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen([sys.executable, "-m", "cuspcount.cli", path, "--json"],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    @staticmethod
    def expected(code):
        return f"cuspcount: cannot write report: {OSError(code, os.strerror(code))}\n".encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_device(self, tmp_path, buffered):
        with open("/dev/full", "wb") as full:
            proc = self.spawn(write_problem(tmp_path, TWO_CUSP_TEXT), full, buffered)
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, self.expected(errno.ENOSPC))

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_reader_closed_the_pipe(self, tmp_path, buffered):
        proc = self.spawn(write_problem(tmp_path, TWO_CUSP_TEXT), subprocess.PIPE, buffered)
        proc.stdout.close()  # long before the child has a report to write
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, self.expected(errno.EPIPE))

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="no POSIX shell")
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_closed_standard_output(self, tmp_path, fmt):
        # the interpreter sets sys.stdout to None when descriptor 1 is closed
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        command = [sys.executable, "-m", "cuspcount.cli",
                   write_problem(tmp_path, WHITNEY_TEXT), *fmt]
        proc = subprocess.run(["/bin/sh", "-c", 'exec "$@" >&-', "sh", *command],
                              stdin=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (
            1, b"cuspcount: cannot write report: standard output is closed\n")


class TestJsonOutput:
    def test_schema_and_values(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        code, out, _ = run_cli(capsys, [path, "--json", "--oracle", "--radius", "10"])
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["input_echo", "one_generic_certified", "dim",
                                "basis", "signatures", "cusps", "region",
                                "oracle", "timings_ms"]
        assert report["dim"] == 2
        assert report["basis"] == ["1", "y"]
        assert report["signatures"] == {"theta1": 2, "theta2": -2,
                                        "theta3": 0, "theta4": 0}
        assert report["cusps"] == {"total": 2, "positive": 0, "negative": 2}
        assert report["region"] == {"positive": 0, "negative": 1}
        kinds = [pt["kind"] for pt in report["oracle"]]
        assert kinds == ["cusp", "cusp"]
        assert [pt["degree_sign"] for pt in report["oracle"]] == [-1, -1]
        assert [pt["in_region"] for pt in report["oracle"]] == [False, True]

    def test_region_null_without_u(self, tmp_path, capsys):
        path = write_problem(tmp_path, IDENTITY_TEXT)
        code, out, _ = run_cli(capsys, [path, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["region"] is None
        assert report["oracle"] is None
        assert report["signatures"]["theta3"] is None

    def test_json_round_trips(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        _, out, _ = run_cli(capsys, [path, "--json"])
        assert json.dumps(json.loads(out), indent=2) == out.rstrip("\n")


def mask_timings(text: str) -> str:
    return re.sub(r'"timings_ms": \{[^}]*\}', '"timings_ms": {}', text)


def masked_run(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, mask_timings(out), err


class TestDeterminism:
    def test_byte_identical_modulo_timings(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        _, first, _ = run_cli(capsys, [path, "--json", "--oracle"])
        _, second, _ = run_cli(capsys, [path, "--json", "--oracle"])
        assert mask_timings(first) == mask_timings(second)


class TestGoldenReports:
    # reports rebuilt from cached censuses and compared with frozen files
    @pytest.mark.parametrize("golden_name, fixture_name", [
        ("two_cusps", "two_cusp_run"),
        ("eight_cusps", "eight_cusp_run"),
        ("six_cusps", "six_cusp_run"),
    ])
    def test_report_matches_golden(self, request, golden_name, fixture_name):
        run_data = request.getfixturevalue(fixture_name)
        report = cli._json_report(run_data.problem, run_data.census, None, {})
        report.pop("timings_ms")
        golden = json.loads((GOLDEN_DIR / f"{golden_name}.json").read_text())
        assert report == golden

    @pytest.mark.parametrize("golden_name, text", [
        ("two_cusps_oracle16", TWO_CUSP_TEXT),
        ("whitney_oracle16", WHITNEY_TEXT),
    ], ids=["two_cusps", "whitney"])
    def test_oracle_report_matches_golden(self, tmp_path, capsys, golden_name, text):
        # the oracle's certified boxes, bit for bit, at the benchmark's radius
        path = write_problem(tmp_path, text)
        code, out, err = run_cli(capsys, [path, "--json", "--oracle", "--radius", "16"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        report.pop("timings_ms")
        golden = json.loads((GOLDEN_DIR / f"{golden_name}.json").read_text())
        assert report == golden

    def test_human_report_carries_same_numbers(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        _, out, _ = run_cli(capsys, [path, "--basis"])
        for needle in ("quotient dimension: 2", "basis: 1, y",
                       "theta1=2 theta2=-2 theta3=0 theta4=0",
                       "total=2 positive=0 negative=2",
                       "positive=0 negative=1"):
            assert needle in out


class TestStageNames:
    def test_main_calls_each_stage_through_the_cli_module(self, tmp_path, capsys,
                                                          monkeypatch):
        # perfbench/spans.py wraps these attributes of the cli module by name
        names = ["parse_problem", "census", "derive_system", "isolate_cusps",
                 "region_membership"]
        calls = []
        for name in names:
            def record(*args, _name=name, _original=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(cli, name, record)
        path = write_problem(tmp_path, TWO_CUSP_TEXT)
        code, _, _ = run_cli(capsys, [path, "--oracle", "--radius", "10"])
        assert code == 0
        assert list(dict.fromkeys(calls)) == names

    def test_census_calls_each_stage_through_the_pipeline_module(self, tmp_path, capsys,
                                                                 monkeypatch):
        # perfbench/spans.py wraps these attributes of the pipeline module by name and
        # labels the forms theta1..theta4 by the order of their calls
        problem = parse_problem(TWO_CUSP_TEXT)
        derived = pipeline.derive_system(problem.f1, problem.f2)
        gb = pipeline.buchberger([derived.jac, derived.vel1, derived.vel2])
        weights = [pipeline.normal_form(w, gb) for w in (
            Polynomial.constant(1), derived.vel_jac, problem.u, problem.u * derived.vel_jac)]
        names = ["derive_system", "buchberger", "build_algebra", "certify_genericity",
                 "normal_form", "form_matrix", "signature_of"]
        calls = []
        for name in names:
            def record(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls.append((_name, args))
                return _original(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, record)
        code, _, _ = run_cli(capsys, [write_problem(tmp_path, TWO_CUSP_TEXT)])
        assert code == 0
        assert list(dict.fromkeys(name for name, _ in calls)) == names
        forms = [(name, args) for name, args in calls if name in ("form_matrix", "signature_of")]
        assert [name for name, _ in forms] == ["form_matrix", "signature_of"] * 4
        assert [args[1] for _, args in forms[::2]] == weights
