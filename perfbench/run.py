"""cuspcount benchmark: seeded workloads through the command-line entry point.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

One caller in one process runs the workload's maps back to back through
`cuspcount.cli.main([..., "--json"])` (a closed loop with one client, like a
scripted batch user).  It repeats the pass while another one is predicted to
end within `--seconds`; every pass runs the same inputs.  Pass times are
reported at a fixed reference speed of the machine, measured while they run
(see `speed.py`).  After the timed passes it checks the first pass against
the references and every later pass for identical output.  With `--trace 1`
it runs one untraced and one traced pass and reports per-layer self times
and counters instead.

Human-readable lines go to standard output first; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import spans
import speed
from workloads import WHITNEY_TEXT, WORKLOADS, Case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 8
SHORT_PASS_KERNELS = 20  # speed samples for a pass the timer never interrupted


@dataclass
class Outcome:
    """One map's run: exit code (None on an exception), stdout, seconds
    (without the time spent sampling the machine's speed)."""

    case: Case
    exit_code: int | None
    stdout: str
    seconds: float
    error: str | None = None

    def report(self) -> dict | None:
        """The JSON report without its timings; None when nothing was printed."""
        if not self.stdout.strip():
            return None
        report = json.loads(self.stdout)
        report.pop("timings_ms", None)
        return report

    def signature(self) -> tuple:
        """What must repeat exactly from pass to pass: exit code and report."""
        try:
            return (self.exit_code, self.error, self.report())
        except ValueError:
            return (self.exit_code, self.error, self.stdout)


def import_cli():
    """Import the command-line module from this checkout's sources."""
    if not (SRC / "cuspcount" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no cuspcount sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuspcount.cli

    if Path(cuspcount.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported cuspcount from {cuspcount.cli.__file__}, "
                         f"not from {SRC}")
    return cuspcount.cli


def run_case(cli, case: Case, tracer: spans.Tracer | None = None,
             probe: speed.Probe | None = None) -> Outcome:
    """Run one map through `cli.main` with the problem text on standard input."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(case.text)
    exit_code, error = None, None
    sampling = probe.spent if probe else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                exit_code = cli.main(["-", "--json", *case.flags])
            else:
                with tracer.span("cli"):
                    exit_code = cli.main(["-", "--json", *case.flags])
    except (Exception, SystemExit) as exc:  # a crash is a failed map, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin
    seconds = time.perf_counter() - start
    if probe:
        seconds -= probe.spent - sampling
    return Outcome(case, exit_code, out.getvalue(), seconds, error)


def run_pass(cli, cases: list[Case], tracer: spans.Tracer | None = None,
             probe: speed.Probe | None = None):
    """Outcomes of one pass and its seconds, without speed sampling."""
    start = time.perf_counter()
    sampling = probe.spent if probe else 0.0
    outcomes = []
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.op = index
        outcomes.append(run_case(cli, case, tracer, probe))
    wall = time.perf_counter() - start
    return outcomes, wall - (probe.spent - sampling if probe else 0.0)


def probed_pass(cli, cases: list[Case], tracer: spans.Tracer | None = None):
    """One pass while the machine's speed is sampled: its outcomes, its
    seconds as measured and its seconds at the reference speed."""
    with speed.Probe() as probe:
        outcomes, wall = run_pass(cli, cases, tracer, probe)
    # a pass too short for the timer to fire is judged by the speed just after it
    samples = probe.samples or speed.time_kernel(SHORT_PASS_KERNELS)
    return outcomes, wall, speed.normalise(wall, samples)


def timed_passes(cli, cases: list[Case], seconds: float):
    """Whole passes while the next one is predicted to end within `seconds`.

    Returns the passes' outcomes, their seconds as measured and their
    seconds at the reference speed.
    """
    passes, walls, ref_walls = [], [], []
    start = time.perf_counter()
    while True:
        outcomes, wall, ref_wall = probed_pass(cli, cases)
        passes.append(outcomes)
        walls.append(wall)
        ref_walls.append(ref_wall)
        if time.perf_counter() - start + wall > seconds:
            return passes, walls, ref_walls


def measure_setup(samples: int) -> tuple[list[float], list[float], int]:
    """Seconds from a fresh interpreter to a finished Whitney census, as
    measured and at the reference start-up speed, and failures.

    Each sample starts `python -m cuspcount.cli - --json`, which imports
    numpy and the package, and waits for it to exit.  A bare interpreter
    that imports numpy starts before the first sample and after each one;
    each sample is scaled by the mean of the two starts beside it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(args: list[str], text: str | None = None):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], input=text, capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=60)
        return time.perf_counter() - start, proc

    times, ref_times, failures = [], [], 0
    before, _ = timed(speed.START_BASELINE)
    for _ in range(samples):
        seconds, proc = timed(["-m", "cuspcount.cli", "-", "--json"], WHITNEY_TEXT)
        after, _ = timed(speed.START_BASELINE)
        times.append(seconds)
        ref_times.append(speed.normalise_start(seconds, (before + after) / 2))
        before = after
        try:
            cusps = json.loads(proc.stdout)["cusps"]
        except (ValueError, KeyError):
            cusps = None
        if proc.returncode != 0 or cusps != {"total": 1, "positive": 1, "negative": 0}:
            failures += 1
    return times, ref_times, failures


def check_passes(passes: list[list[Outcome]]) -> list[str]:
    """One failure reason per wrong run: the first pass is checked against
    the references, each later pass against the first."""
    failures = []
    wrong = set()
    for index, outcome in enumerate(passes[0]):
        try:
            reason = outcome.error or reference.check(outcome.case, outcome.exit_code,
                                                      outcome.stdout)
        except Exception as exc:  # a malformed report is a wrong answer
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            wrong.add(index)
            failures.append(f"{outcome.case.name}: {reason}")
    for later in passes[1:]:
        for index, (first, again) in enumerate(zip(passes[0], later)):
            if index in wrong:
                failures.append(f"{again.case.name}: repeats a wrong answer")
            elif again.signature() != first.signature():
                failures.append(f"{again.case.name}: output changed between passes")
    return failures


def nearest_rank(values: list[float], share: float) -> float:
    """The smallest sample at or above `share` of all samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def end_to_end(cli, args, cases) -> tuple[dict, list[str], int, list[str]]:
    # half the set-up samples before the passes and half after, so that a
    # slow spell of the machine at either end moves the median less; the
    # very first start only warms the file cache
    measure_setup(1)
    setup, ref_setup, setup_failures = measure_setup(SETUP_SAMPLES // 2)
    run_case(cli, Case("warm-up", "warm-up", WHITNEY_TEXT))
    passes, walls, ref_walls = timed_passes(cli, cases, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    later, ref_later, later_failures = measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup += later
    ref_setup += ref_later
    failures = check_passes(passes)
    failures += ["setup: Whitney census failed"] * (setup_failures + later_failures)
    metrics = {
        "setup_s": (statistics.median(ref_setup), "s"),
        "ref_wall_s": (statistics.median(ref_walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    latencies = [o.seconds * 1000.0 for outcomes in passes for o in outcomes]
    attempted = len(latencies) + len(setup)
    p90 = nearest_rank(latencies, 0.9)
    notes = [f"{len(passes)} pass(es) of {len(cases)} maps, measured: "
             + ", ".join(f"{wall:.4g} s" for wall in walls)
             + "; at the reference speed: "
             + ", ".join(f"{wall:.4g} s" for wall in ref_walls),
             f"set-up, measured: median {statistics.median(setup):.4g} s",
             f"op_p50_ms {statistics.median(latencies):.6g} ms",
             f"op_p90_ms {p90:.6g} ms ({len(latencies)} samples, "
             f"{sum(v > p90 for v in latencies)} beyond it)"]
    by_name = {}
    for outcomes in passes:
        for o in outcomes:
            by_name.setdefault(o.case.name, []).append(o.seconds)
    if args.workload == "paper":
        notes += [f"census_s.{name} {statistics.median(by_name[name]):.6g} s"
                  for name in ("six_cusp", "eight_cusp") if name in by_name]
    unresolved = 0
    for outcome in passes[0]:
        with contextlib.suppress(ValueError, KeyError, TypeError):
            unresolved += reference.oracle_counts(outcome.report())[3]
    notes.append(f"oracle_unresolved {unresolved} count")
    notes.append(f"fail_ratio {len(failures) / attempted:.6g} (failed/attempted)")
    return metrics, failures, attempted, notes


def traced(cli, args, cases) -> tuple[dict, list[str], int, list[str]]:
    run_case(cli, Case("warm-up", "warm-up", WHITNEY_TEXT))
    # both passes at the reference speed, so that the overhead ratio does
    # not follow the machine's drift between them; the sampling handler's
    # time lands in whichever span is open, about 3 % of each
    plain, _, plain_wall = probed_pass(cli, cases)
    tracer = spans.Tracer()
    tracer.install()
    try:
        spanned, _, traced_wall = probed_pass(cli, cases, tracer)
    finally:
        tracer.uninstall()
    failures = check_passes([plain, spanned])
    metrics = {k: (v, "ms") for k, v in spans.layer_times(tracer).items()}
    metrics.update({k: (v, "bits" if k.endswith("_bits.max") else "count")
                    for k, v in spans.layer_counts(tracer).items()})
    codes = [o.exit_code for o in spanned]
    certified = 0
    for outcome in spanned:
        with contextlib.suppress(ValueError, KeyError, TypeError):
            certified += outcome.report()["one_generic_certified"] is True
    metrics["ops.certified"] = (certified, "count")
    metrics["ops.not_certified"] = (codes.count(2), "count")
    metrics["ops.degenerate_region"] = (codes.count(4), "count")
    metrics["trace.coverage"] = (spans.coverage(tracer), "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(path)
    notes = [f"spans written to {path}"]
    notes += [f"missing layer: {name}" for name in tracer.missing]
    for index, case in enumerate(cases):
        if case.name == "six_cusp" and case.kind == "paper":
            notes.append(spans.stage_table(tracer, index, "six-cusp map, dim 56"))
    return metrics, failures, 2 * len(cases), notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    cases = WORKLOADS[args.workload](args.seed)
    measure = traced if args.trace else end_to_end
    metrics, failures, attempted, notes = measure(cli, args, cases)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for reason in failures:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
