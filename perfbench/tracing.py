"""Spans around the public calls into each ``repro`` layer.

The benchmark records spans from its own files only: :func:`instrument`
swaps each listed function or method for a wrapper that opens a span
(and, for some, bumps a counter) and restores the original on exit, so
nothing under ``src/`` knows it is being traced. The recorder is the
benchmark's own rather than :mod:`repro.obs.trace`, so the benchmark
keeps measuring the same thing while the program's tracing changes.

Layers are named after the ``repro`` modules the calls land in:
``workload``, ``sched``, ``faults``, ``logs``, ``parallel``, ``core``
and ``stream``. Each benchmark op runs under one root ``op`` span, and
every span of that op carries the op's run id.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float = float("nan")


class Recorder:
    """Spans and counters kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.run = -1
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._open[-1] if self._open else None,
            run=self.run,
            name=name,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.run][name] += n

    @contextmanager
    def op(self) -> Iterator[Span]:
        """One benchmark op: a fresh run id under a root ``op`` span."""
        self.run += 1
        span = self.begin("op")
        try:
            yield span
        finally:
            self.finish(span)

    def write(self, path: Path) -> None:
        """Dump spans and counters as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"type": "span", **asdict(span)}) + "\n")
            for run, counts in sorted(self.counts.items()):
                fh.write(
                    json.dumps({"type": "counts", "run": run, **counts})
                    + "\n"
                )


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals*, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a child that
    overlaps a sibling (threads) or outlives its parent is never
    subtracted twice or beyond the parent's own duration.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[parent.id].append((start, end))
    return {
        span.id: (span.end - span.start) - union_length(children[span.id])
        for span in spans
    }


# ----------------------------------------------------------------------
# what gets wrapped

def _count_read(rec: Recorder, args, kwargs, log) -> None:
    from repro.logs.job import JobLog

    rows = log.num_jobs if isinstance(log, JobLog) else len(log)
    rec.count("logs.records", rows)
    if getattr(log, "cache_status", None) != "hit":
        path = args[0] if args else kwargs["path"]
        rec.count("logs.parsed_bytes", Path(path).stat().st_size)


def _count_store(rec: Recorder, args, kwargs, _result) -> None:
    cache, key = args[0], args[1]
    rec.count(
        "parallel.cache_bytes",
        sum(p.stat().st_size for p in cache.directory.glob(f"{key}.*")),
    )


def _count_load(rec: Recorder, _args, _kwargs, result) -> None:
    rec.count("parallel.cache_lookups")
    rec.count("parallel.cache_hits", result is not None)


def _count_filter(rec: Recorder, args, _kwargs, result) -> None:
    rec.count("core.filter_in", len(args[1]))
    rec.count("core.filter_out", len(result))


def _counter(name: str, size: Callable | None = None):
    def hook(rec: Recorder, _args, _kwargs, result) -> None:
        rec.count(name, 1 if size is None else size(result))

    return hook


_STUDIES = {
    "interarrival_study": "interarrivals",
    "midplane_profile": "midplane_profile",
    "burst_study": "bursts",
    "propagation_study": "propagation",
    "vulnerability_study": "vulnerability",
    "interruption_rate_study": "rates",
    "midplane_skew": "skew",
}

#: (module, attribute path, span name or None for count-only, hook)
WRAPS: list[tuple[str, str, str | None, Callable | None]] = [
    ("repro.workload.population", "Population.generate",
     "workload.population", None),
    ("repro.workload.sampler", "WorkloadSampler.generate",
     "workload.sampler", _counter("workload.submissions", len)),
    ("repro.sched.cobalt", "CobaltSimulator.run", "sched.run", None),
    ("repro.sched.policy", "IntrepidPolicy.choose", "sched.choose",
     _counter("sched.choose_hits", lambda p: p is not None)),
    ("repro.machine.partition", "PartitionPool.candidates", None,
     _counter("sched.candidates_scanned", len)),
    ("repro.sched.events", "EventQueue.pop", None,
     _counter("sched.events")),
    ("repro.faults.storms", "StormEmitter.emit", "faults.emit",
     _counter("faults.records", len)),
    ("repro.logs.textio", "read_ras_log", "logs.read", _count_read),
    ("repro.logs.textio", "read_job_log", "logs.read", _count_read),
    ("repro.parallel.cache", "ParseCache.key_for", "parallel.cache_key",
     None),
    ("repro.parallel.cache", "ParseCache.load", "parallel.cache_load",
     _count_load),
    ("repro.parallel.cache", "ParseCache.store", "parallel.cache_store",
     _count_store),
    ("repro.core.pipeline", "CoAnalysis.run", "core.run", None),
    ("repro.core.pipeline", "CoAnalysis.complete", "core.complete", None),
    ("repro.core.pipeline", "fatal_event_table", "core.extract",
     _counter("core.extract_calls")),
    ("repro.stream.runner", "fatal_event_table", "core.extract",
     _counter("core.extract_calls")),
    ("repro.core.filtering.chain", "FilterChain.apply", "core.filter",
     _count_filter),
    ("repro.core.filtering.temporal", "TemporalFilter.apply",
     "core.filter.temporal", None),
    ("repro.core.filtering.spatial", "SpatialFilter.apply",
     "core.filter.spatial", None),
    ("repro.core.filtering.causal", "CausalityFilter.apply",
     "core.filter.causal", None),
    ("repro.core.matching", "InterruptionMatcher.match", "core.match",
     _counter("core.match_pairs", lambda m: m.pairs.num_rows)),
    ("repro.core.identify", "EventTypeIdentifier.identify", "core.identify",
     None),
    ("repro.core.classify", "FailureClassifier.classify", "core.classify",
     None),
    ("repro.core.filtering.job_related", "JobRelatedFilter.redundant_ids",
     "core.job_filter", None),
    *[
        ("repro.core.pipeline", fn, f"core.studies.{study}", None)
        for fn, study in _STUDIES.items()
    ],
    ("repro.core.pipeline", "compute_observations", "core.observations",
     None),
    ("repro.stream.windows", "split_trace", "stream.split", None),
    ("repro.stream.runner", "StreamingCoAnalysis.ingest", "stream.ingest",
     None),
    ("repro.stream.runner", "StreamingCoAnalysis.result", "stream.result",
     None),
]


def _wrap(rec: Recorder, fn, name: str | None, hook):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(rec, args, kwargs, result)
            return result

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(span)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every entry of :data:`WRAPS` for the body's duration."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module, path, name, hook in WRAPS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(rec, raw.__func__, name, hook))
            else:
                wrapped = _wrap(rec, raw, name, hook)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# per-layer metrics

#: name → unit, in report order
LAYER_UNITS: dict[str, str] = {
    "workload.generate_s": "s",
    "workload.submissions": "count",
    "sched.run_s": "s",
    "sched.choose_calls": "count",
    "sched.choose_s": "s",
    "sched.choose_hit_ratio": "ratio",
    "sched.candidates_scanned": "count",
    "sched.events": "count",
    "faults.emit_s": "s",
    "faults.records": "count",
    "logs.parse_s": "s",
    "logs.parse_mb_per_s": "MB/s",
    "logs.records": "count",
    "parallel.cache_key_s": "s",
    "parallel.cache_store_s": "s",
    "parallel.cache_bytes": "bytes",
    "parallel.cache_load_s": "s",
    "parallel.cache_hit_ratio": "ratio",
    "core.extract_s": "s",
    "core.extract_calls": "count",
    "core.filter_s": "s",
    "core.filter.temporal_s": "s",
    "core.filter.spatial_s": "s",
    "core.filter.causal_s": "s",
    "core.filter_kept_ratio": "ratio",
    "core.match_s": "s",
    "core.match_pairs": "count",
    "core.identify_s": "s",
    "core.classify_s": "s",
    "core.job_filter_s": "s",
    "core.studies.vulnerability_s": "s",
    "core.studies.midplane_profile_s": "s",
    "core.studies_s": "s",
    "core.observations_s": "s",
    "stream.split_s": "s",
    "stream.ingest_s": "s",
    "stream.ingest_p50_s": "s",
    "stream.increments": "count",
    "stream.result_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_metrics(spans: list[Span], counts: dict[str, float]) -> dict:
    own = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        dur[span.name] += span.end - span.start
        self_s[span.name] += own[span.id]
        calls[span.name].append(span.end - span.start)
    studies = sum(v for k, v in dur.items() if k.startswith("core.studies."))
    ingest = calls["stream.ingest"]
    parse_s = self_s["logs.read"]
    return {
        "workload.generate_s": dur["workload.population"]
        + dur["workload.sampler"],
        "workload.submissions": counts["workload.submissions"],
        "sched.run_s": self_s["sched.run"],
        "sched.choose_calls": len(calls["sched.choose"]),
        "sched.choose_s": dur["sched.choose"],
        "sched.choose_hit_ratio": _ratio(
            counts["sched.choose_hits"], len(calls["sched.choose"])
        ),
        "sched.candidates_scanned": counts["sched.candidates_scanned"],
        "sched.events": counts["sched.events"],
        "faults.emit_s": dur["faults.emit"],
        "faults.records": counts["faults.records"],
        "logs.parse_s": parse_s,
        "logs.parse_mb_per_s": _ratio(
            counts["logs.parsed_bytes"] / 1e6, parse_s
        ),
        "logs.records": counts["logs.records"],
        "parallel.cache_key_s": dur["parallel.cache_key"],
        "parallel.cache_store_s": dur["parallel.cache_store"],
        "parallel.cache_bytes": counts["parallel.cache_bytes"],
        "parallel.cache_load_s": dur["parallel.cache_load"],
        "parallel.cache_hit_ratio": _ratio(
            counts["parallel.cache_hits"], counts["parallel.cache_lookups"]
        ),
        "core.extract_s": dur["core.extract"],
        "core.extract_calls": counts["core.extract_calls"],
        "core.filter_s": dur["core.filter"],
        "core.filter.temporal_s": dur["core.filter.temporal"],
        "core.filter.spatial_s": dur["core.filter.spatial"],
        "core.filter.causal_s": dur["core.filter.causal"],
        "core.filter_kept_ratio": _ratio(
            counts["core.filter_out"], counts["core.filter_in"]
        ),
        "core.match_s": dur["core.match"],
        "core.match_pairs": counts["core.match_pairs"],
        "core.identify_s": dur["core.identify"],
        "core.classify_s": dur["core.classify"],
        "core.job_filter_s": dur["core.job_filter"],
        "core.studies.vulnerability_s": dur["core.studies.vulnerability"],
        "core.studies.midplane_profile_s": dur[
            "core.studies.midplane_profile"
        ],
        "core.studies_s": studies,
        "core.observations_s": dur["core.observations"],
        "stream.split_s": dur["stream.split"],
        "stream.ingest_s": sum(ingest),
        "stream.ingest_p50_s": statistics.median(ingest) if ingest else 0.0,
        "stream.increments": len(ingest),
        "stream.result_s": dur["stream.result"],
        "trace.unattributed_s": self_s["op"],
    }


def layer_metrics(
    rec: Recorder, traced_walls: list[float], untraced_walls: list[float]
) -> dict[str, float]:
    """Per-layer metrics: each op's figures, medians across the ops."""
    by_run: dict[int, list[Span]] = defaultdict(list)
    for span in rec.spans:
        by_run[span.run].append(span)
    per_op = [
        _op_metrics(spans, rec.counts[run])
        for run, spans in sorted(by_run.items())
    ]
    out = {
        name: float(statistics.median(op[name] for op in per_op))
        for name in per_op[0]
    }
    out["trace.overhead_ratio"] = statistics.median(
        traced_walls
    ) / statistics.median(untraced_walls)
    return {name: out[name] for name in LAYER_UNITS}
