"""Self-tests of the benchmark: seeded inputs, failure counting and spans."""

from __future__ import annotations

import copy
import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402

TWO_CUSP = Case("two_cusp", "paper", workloads.TWO_CUSP_TEXT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_random_batch_keeps_its_mix_across_seeds():
    for seed in (1, 2):
        kinds = [case.kind for case in workloads.random_batch(seed)]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            kind: count for kind, count, _ in workloads.RANDOM_BATCH_MIX}


def test_symmetric_variant_is_exact():
    terms = {(2, 1): 3, (0, 1): -1, (1, 0): 5}
    assert workloads.symmetric_variant(terms, True, True, False) == {
        (1, 2): 3, (1, 0): -1, (0, 1): -5}


def test_inertia_matches_known_forms():
    half = [[reference.Fraction(v) for v in row]
            for row in ((0, 1, 0), (1, 0, 0), (0, 0, -2))]
    assert reference.inertia(half) == (1, 2)
    assert reference.inertia([[reference.Fraction(0)] * 2] * 2) == (0, 0)


def _outcome(case, exit_code, report) -> run.Outcome:
    return run.Outcome(case, exit_code, json.dumps(report) if report else "", 0.01)


def test_flipped_signature_is_counted_as_a_failure():
    good = reference.golden("two_cusps")
    bad = copy.deepcopy(good)
    bad["signatures"]["theta2"] = -bad["signatures"]["theta2"]
    assert run.check_passes([[_outcome(TWO_CUSP, 0, good)]]) == []
    assert len(run.check_passes([[_outcome(TWO_CUSP, 0, bad)]])) == 1
    assert len(run.check_passes([[_outcome(TWO_CUSP, 0, good)],
                                 [_outcome(TWO_CUSP, 0, bad)]])) == 1


def test_sympy_reference_catches_a_corrupted_census():
    cli = run.import_cli()
    case = next(c for c in workloads.random_batch(1) if c.kind == "dense22")
    outcome = run.run_case(cli, case)
    assert run.check_passes([[outcome]]) == []
    report = json.loads(outcome.stdout)
    report["signatures"]["theta1"] += 2
    report["cusps"]["total"] += 2
    assert len(run.check_passes([[_outcome(case, outcome.exit_code, report)]])) == 1
    assert len(run.check_passes([[_outcome(case, 3, None)]])) == 1


def test_span_self_times_are_nonnegative_and_children_nest():
    cli = run.import_cli()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cases = [TWO_CUSP, Case("whitney", "oracle_paper", workloads.WHITNEY_TEXT,
                                ("--oracle", "--radius", "16"))]
        outcomes, _ = run.run_pass(cli, cases, tracer)
    finally:
        tracer.uninstall()
    assert [o.exit_code for o in outcomes] == [0, 0]
    assert tracer.missing == []
    assert all(t >= 0 for t in tracer.self_times())
    for index, span in enumerate(tracer.spans):
        children = [s for s in tracer.spans if s.parent == index]
        assert sum(c.duration for c in children) <= span.duration
        assert all(span.start <= c.start and c.end <= span.end for c in children)
    names = {s.name for s in tracer.spans}
    assert {"cli", "pipeline.census", "groebner.certify_genericity",
            "quotient.form_matrix", "oracle.isolate_cusps"} <= names
    assert 0.0 < spans.coverage(tracer) <= 1.0
    import cuspcount.groebner
    import cuspcount.pipeline
    assert cuspcount.pipeline.buchberger is cuspcount.groebner.buchberger


def test_missing_layer_is_reported_not_fatal():
    tracer = spans.Tracer()
    tracer.wrap("cuspcount.pipeline.no_such_stage", lambda a, k: ("x", {}))
    tracer.wrap("cuspcount.no_such_module.census", lambda a, k: ("x", {}))
    assert tracer.missing == ["cuspcount.pipeline.no_such_stage",
                              "cuspcount.no_such_module.census"]
    assert spans.layer_counts(tracer)["trace.missing_layers"] == 2
    assert set(spans.layer_times(tracer).values()) == {0.0}


def test_nearest_rank():
    assert run.nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0
    assert run.nearest_rank([float(v) for v in range(1, 101)], 0.9) == 90.0


def test_normalise_scales_by_the_kernel_speed():
    ref = speed.REFERENCE_KERNEL_S
    assert speed.normalise(2.0, [ref, ref]) == pytest.approx(2.0)
    assert speed.normalise(2.0, [2 * ref, 2 * ref]) == pytest.approx(1.0)
    start = speed.REFERENCE_START_S
    assert speed.normalise_start(0.3, 2 * start) == pytest.approx(0.15)


def test_probe_samples_and_its_time_is_taken_off_the_pass():
    previous = signal.getsignal(signal.SIGALRM)
    cli = run.import_cli()
    with speed.Probe(interval=0.005) as probe:
        outcomes, wall = run.run_pass(cli, [TWO_CUSP, TWO_CUSP], probe=probe)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples and probe.spent >= sum(probe.samples)
    assert [o.exit_code for o in outcomes] == [0, 0]
    assert 0 < sum(o.seconds for o in outcomes) <= wall


def test_runs_print_exactly_the_declared_metrics(monkeypatch, tmp_path):
    declared = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCHMARK.json").read_text())
    cli = run.import_cli()
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    args = run.argparse.Namespace(workload="paper", seed=1, seconds=0.0)
    cases = [TWO_CUSP]
    for measure, key in ((run.end_to_end, "end_to_end"), (run.traced, "per_layer")):
        metrics, failures, attempted, _ = measure(cli, args, cases)
        assert failures == [] and attempted >= 1
        assert {k: u for k, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in declared[key]}
