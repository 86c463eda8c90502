"""Spans around the calls into each cuspcount layer, recorded from outside.

`Tracer.install()` replaces a module attribute (the name a caller looks up,
such as `cuspcount.pipeline.buchberger`) with a wrapper that records a span
around the call and keeps its result for the counters.  Spans stay in
memory and are written out when the benchmark ends.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SMALL_DIMENSION = 12  # signatures up to this dimension take the small-matrix route
THETAS = ("theta1", "theta2", "theta3", "theta4")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    result: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `op` is the index of the map the caller is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = Span(name, 0.0, self._open[-1] if self._open else None, self.op,
                      attrs=attrs)
        self.spans.append(record)
        self._open.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def children_named(self, name: str) -> int:
        """How many spans called `name` the innermost open span has so far."""
        if not self._open:
            return 0
        top = self._open[-1]
        return sum(1 for s in self.spans[top + 1:] if s.parent == top and s.name == name)

    def wrap(self, path: str, namer) -> None:
        """Wrap `module.attr` (given as one dotted path); `namer(args, kwargs)`
        returns the span name and attributes, or None to record no span."""
        module_name, _, attr = path.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return

        def wrapper(*args, **kwargs):
            named = namer(args, kwargs)
            if named is None:
                return original(*args, **kwargs)
            name, attrs = named
            with self.span(name, **attrs) as record:
                record.result = original(*args, **kwargs)
            return record.result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the calls into every cuspcount layer at their call sites."""
        fixed = lambda name: (lambda a, k: (name, {}))
        self.wrap("cuspcount.cli.parse_problem", fixed("exprio.parse_problem"))
        self.wrap("cuspcount.cli.census", fixed("pipeline.census"))
        self.wrap("cuspcount.cli.derive_system", fixed("pipeline.derive_system"))
        self.wrap("cuspcount.cli.isolate_cusps", fixed("oracle.isolate_cusps"))
        self.wrap("cuspcount.cli.region_membership", fixed("oracle.region_membership"))
        self.wrap("cuspcount.pipeline.derive_system", fixed("pipeline.derive_system"))
        self.wrap("cuspcount.pipeline.certify_genericity",
                  fixed("groebner.certify_genericity"))
        # the genericity certificate's own Buchberger run stays in its self time
        self.wrap("cuspcount.pipeline.buchberger",
                  lambda a, k: None if self.parent_name() == "groebner.certify_genericity"
                  else ("groebner.cusp_basis", {}))
        self.wrap("cuspcount.pipeline.normal_form", fixed("groebner.normal_form"))
        self.wrap("cuspcount.pipeline.build_algebra", fixed("quotient.build_algebra"))
        # the census builds and signs the four forms in the order theta1..theta4
        self.wrap("cuspcount.pipeline.form_matrix", lambda a, k: (
            "quotient.form_matrix", {"theta": self._theta("quotient.form_matrix")}))
        self.wrap("cuspcount.pipeline.signature_of", lambda a, k: (
            "signature.signature_of",
            {"theta": self._theta("signature.signature_of"),
             "dim": len(a[0] if a else k["matrix"])}))

    def _theta(self, name: str) -> str:
        count = self.children_named(name)
        return THETAS[count] if count < len(THETAS) else "other"

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the union of the children's intervals, per span."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def dump(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, **{k: v for k, v in s.attrs.items()}} for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing_layers": self.missing, "spans": rows}, handle)


TIME_METRICS = (
    "cli.self_ms",
    "exprio.parse_problem.ms",
    "pipeline.derive_system.ms",
    "pipeline.census.self_ms",
    "groebner.certify_genericity.ms",
    "groebner.cusp_basis.ms",
    "groebner.normal_form.ms",
    "quotient.build_algebra.ms",
    *(f"quotient.form_matrix.{t}.ms" for t in THETAS),
    *(f"signature.signature_of.{t}.ms" for t in THETAS),
    "signature.signature_of.small_dim.ms",
    "signature.signature_of.large_dim.ms",
    "oracle.isolate_cusps.ms",
    "oracle.region_membership.ms",
)


def _time_keys(span: Span) -> list[str]:
    """The per-layer time metrics a span's self time adds to."""
    if span.name in ("cli", "pipeline.census"):
        return [f"{span.name}.self_ms"]
    if span.name == "quotient.form_matrix":
        return [f"quotient.form_matrix.{span.attrs['theta']}.ms"]
    if span.name == "signature.signature_of":
        size = "small_dim" if span.attrs["dim"] <= SMALL_DIMENSION else "large_dim"
        return [f"signature.signature_of.{span.attrs['theta']}.ms",
                f"signature.signature_of.{size}.ms"]
    return [f"{span.name}.ms"]


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Self time in ms per layer metric, summed over all recorded spans."""
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        for key in _time_keys(span):
            if key in totals:
                totals[key] += own * 1000.0
    return totals


def _entry_bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def layer_counts(tracer: Tracer) -> dict[str, float]:
    """Deterministic counters read off the results the wrapped calls returned."""
    dims = [s.result.dim for s in tracer.spans
            if s.name == "quotient.build_algebra" and s.result is not None]
    bases = [len(s.result) for s in tracer.spans
             if s.name == "groebner.cusp_basis" and s.result is not None]
    bits = [_entry_bits(v) for s in tracer.spans
            if s.name == "quotient.form_matrix" and s.result is not None
            for row in s.result.matrix for v in row]
    points = [p for s in tracer.spans
              if s.name == "oracle.isolate_cusps" and s.result is not None
              for p in s.result]
    return {
        "groebner.basis_len.max": max(bases, default=0),
        "quotient.dim.max": max(dims, default=0),
        "quotient.dim.sum": sum(dims),
        "quotient.form_entry_bits.max": max(bits, default=0),
        "oracle.certified_points": sum(p.kind == "cusp" for p in points),
        "oracle.unresolved": sum(p.kind == "unresolved" for p in points),
        "trace.missing_layers": len(tracer.missing),
    }


def coverage(tracer: Tracer) -> float:
    """Share of the census spans' time that their child spans cover (1 if none)."""
    own = tracer.self_times()
    total = covered = 0.0
    for span, self_time in zip(tracer.spans, own):
        if span.name == "pipeline.census":
            total += span.duration
            covered += span.duration - self_time
    return covered / total if total else 1.0


STAGE_ROWS = (
    ("genericity certificate (5-generator Buchberger)", ("groebner.certify_genericity",)),
    ("cusp-ideal Groebner basis (with S-pair verify)", ("groebner.cusp_basis",)),
    ("`build_algebra`", ("quotient.build_algebra",)),
    ("normal forms of the weights", ("groebner.normal_form",)),
    ("trace forms: 1 / orientation / u / u·orientation",
     tuple(f"quotient.form_matrix.{t}" for t in THETAS)),
    ("signatures: 1 / orientation / u / u·orientation",
     tuple(f"signature.signature_of.{t}" for t in THETAS)),
    ("whole census", ("pipeline.census.total",)),
)


def stage_table(tracer: Tracer, op: int, title: str) -> str:
    """Markdown table of one map's stage times, in seconds."""
    own = dict.fromkeys((k for _, keys in STAGE_ROWS for k in keys), 0.0)
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        if span.op != op:
            continue
        key = span.name
        if "theta" in span.attrs:
            key = f"{span.name}.{span.attrs['theta']}"
        if key in own:
            own[key] += self_time
        if span.name == "pipeline.census":
            own["pipeline.census.total"] += span.duration
    lines = [f"| stage ({title}) | seconds |", "|---|---|"]
    for label, keys in STAGE_ROWS:
        lines.append(f"| {label} | {' / '.join(f'{own[k]:.3g}' for k in keys)} |")
    return "\n".join(lines)
