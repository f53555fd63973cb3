"""The benchmark's own tests: tiny-scale smoke, failure counting, self time.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import numpy as np
import pytest

from perfbench.run import measure, peak_rss_kib, reset_peak_rss, set_up
from perfbench.speed import (
    MIN_SAMPLES,
    REFERENCE_S,
    Speedometer,
    cpu_seconds,
)
from perfbench.tracing import (
    LAYER_UNITS,
    Recorder,
    Span,
    layer_metrics,
    self_times,
    union_length,
)
from perfbench.workloads import WORKLOADS, to_microseconds

SEED = 2011
#: small enough for a unit test; golden.json holds simulate's digest
TINY = {
    "simulate": 0.01,
    "analyze_cold": 0.005,
    "analyze_warm": 0.005,
    "stream_replay": 0.005,
}


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request, tmp_path):
    wl = WORKLOADS[request.param](
        SEED, tmp_path / request.param, scale=TINY[request.param]
    )
    wl.setup()
    wl.prepare()
    return wl


def test_tiny_workloads_pass_their_checks(workload):
    m = measure(workload, seconds=0)
    assert m.attempted >= 1
    assert m.failed == 0, m.problems
    assert m.records > 0
    if workload.name == "simulate":
        assert workload.golden is not None  # the digest was compared


def test_traced_run_reports_layers_and_changes_no_output(workload):
    rec = Recorder()
    m = measure(workload, seconds=0, rec=rec)
    assert m.walls and m.traced_walls
    assert m.failed == 0, m.problems
    assert len(set(m.digests)) == 1  # traced ops == untraced ops
    metrics = layer_metrics(rec, m.traced_walls, m.walls)
    assert list(metrics) == list(LAYER_UNITS)
    assert metrics["trace.overhead_ratio"] > 0
    reached = {
        "simulate": ["sched.choose_calls", "sched.events", "faults.records",
                     "workload.submissions", "sched.candidates_scanned"],
        "analyze_cold": ["logs.records", "parallel.cache_bytes",
                         "core.extract_calls", "core.studies_s"],
        "analyze_warm": ["logs.records", "parallel.cache_hit_ratio",
                         "core.filter_s", "core.observations_s"],
        "stream_replay": ["stream.increments", "stream.ingest_p50_s",
                          "core.extract_calls", "stream.result_s"],
    }[workload.name]
    for name in reached:
        assert metrics[name] > 0, name
    if workload.name == "analyze_cold":
        assert metrics["parallel.cache_hit_ratio"] == 0
    if workload.name == "stream_replay":
        assert metrics["stream.increments"] == workload.increments
        assert metrics["core.extract_calls"] == workload.increments
    if workload.name != "simulate":
        assert metrics["sched.choose_calls"] == 0


def _perturb(out):
    """Corrupt one value of an op's output in place."""
    if hasattr(out, "ras_log"):  # a simulated trace
        frame = out.ras_log.frame
        out.ras_log.frame = frame.head(frame.num_rows - 1)
        return out
    result = out[-1]
    result.filter_stats = dataclasses.replace(
        result.filter_stats, raw=result.filter_stats.raw + 1
    )
    return out


def test_perturbed_output_counts_as_failed(workload, monkeypatch):
    op = workload.op
    monkeypatch.setattr(workload, "op", lambda: _perturb(op()))
    m = measure(workload, seconds=0)
    assert m.attempted >= 1
    assert m.failed == m.attempted
    assert m.problems


def test_raising_op_counts_as_failed(workload, monkeypatch):
    def boom():
        raise RuntimeError("injected")

    monkeypatch.setattr(workload, "op", boom)
    m = measure(workload, seconds=0)
    assert m.failed == m.attempted == 4
    assert not m.walls


def test_stage_failure_counts_as_failed(tmp_path, monkeypatch):
    import repro.core.pipeline as pipeline

    wl = WORKLOADS["analyze_warm"](SEED, tmp_path, scale=TINY["analyze_warm"])
    wl.setup()
    wl.prepare()

    def broken(*args, **kwargs):
        raise ValueError("injected study failure")

    monkeypatch.setattr(pipeline, "burst_study", broken)
    m = measure(wl, seconds=0)
    assert m.failed == m.attempted
    assert any("studies.bursts" in p for p in m.problems)


class _Allocating:
    """A stand-in workload whose op touches *op_mib* of fresh memory."""

    name = "allocating"

    def __init__(self, seed, workdir, op_mib=0):
        self.op_mib = op_mib

    def setup(self):
        pass

    def prepare(self):
        pass

    def op(self):
        buf = np.ones(self.op_mib << 17)  # 8-byte floats, all touched
        return float(buf[-1])

    def check(self, out):
        return [], str(out)

    def records(self, out):
        return 1

    def describe(self, out):
        return {}

    def cleanup(self, out):
        pass


@pytest.mark.skipif(not reset_peak_rss(), reason="VmHWM cannot be reset")
def test_peak_rss_is_the_ops_not_an_earlier_high_water_mark():
    before = peak_rss_kib()
    spike = np.ones(64 << 17)  # 64 MiB, freed before the ops run
    spike_peak = peak_rss_kib()
    del spike
    small = measure(_Allocating(SEED, None, op_mib=1), seconds=0)
    assert small.peak_per_op
    assert small.peak_kib < spike_peak - 32 * 1024
    big = measure(_Allocating(SEED, None, op_mib=48), seconds=0)
    assert big.peak_kib > before + 32 * 1024


def test_cheap_set_up_repeats_until_its_budget(tmp_path):
    wl, times = set_up(_Allocating, SEED, tmp_path, 3, budget_s=0.0)
    assert len(times) == 3
    wl, times = set_up(_Allocating, SEED, tmp_path, 3, budget_s=60.0,
                       max_repeats=7)
    assert len(times) == 7
    assert isinstance(wl, _Allocating)


def test_speed_scales_cpu_time_by_the_kernel_runs_during_the_op():
    speed = Speedometer()
    speed.samples = [2 * REFERENCE_S] * 10  # a slow phase before the op
    mark = speed.mark()
    # during the op, the host ran at 1 and 2 times the reference speed
    speed.samples += [REFERENCE_S, REFERENCE_S / 2] * 3
    assert speed.scale(2.0, mark) == pytest.approx(3.0)
    # an op too short for a kernel run of its own takes the last few
    last = speed.samples[-MIN_SAMPLES:]
    assert speed.factor(speed.mark()) == pytest.approx(
        statistics.fmean(REFERENCE_S / k for k in last)
    )


def test_speedometer_runs_beside_the_ops_on_one_cpu():
    cpus = os.sched_getaffinity(0)
    with Speedometer() as speed:
        assert len(os.sched_getaffinity(0)) == 1
        # an idle op: the kernel runs meanwhile are not counted in it
        c0, p0, k0 = cpu_seconds(speed), time.process_time(), speed.mark()
        time.sleep(0.3)
        assert speed.mark() - k0 >= 5
        assert time.process_time() - p0 > cpu_seconds(speed) - c0
        assert cpu_seconds(speed) - c0 < 0.01
        m = measure(_Allocating(SEED, None, op_mib=8), seconds=0.3,
                    speed=speed)
    assert os.sched_getaffinity(0) == cpus
    assert len(speed.samples) > 5
    assert m.failed == 0
    assert len(m.times) == len(m.cpus) > 1
    assert all(t > 0 for t in m.times)
    assert m.times != m.cpus  # scaled, not copied


def _span(i, parent, start, end, name="s"):
    return Span(id=i, parent=parent, run=0, name=name, start=start, end=end)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps its sibling
        _span(3, 0, 2.0, 5.0),  # inside the union of the two above
        _span(4, 0, 8.0, 12.0),  # outlives the parent: clipped to 10
        _span(5, 1, 1.5, 2.5),  # a grandchild: only its parent subtracts it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)


def test_union_length_merges_touching_and_nested_intervals():
    assert union_length([]) == 0
    assert union_length([(0, 1), (1, 2), (0.5, 0.7), (3, 4)]) == 3


def test_recorder_nests_spans_and_shares_run_ids(tmp_path):
    rec = Recorder()
    for _ in range(2):
        with rec.op():
            inner = rec.begin("inner")
            rec.finish(inner)
            rec.count("things", 3)
    assert [(s.name, s.run, s.parent) for s in rec.spans] == [
        ("op", 0, None), ("inner", 0, 0), ("op", 1, None), ("inner", 1, 2),
    ]
    path = tmp_path / "spans.jsonl"
    rec.write(path)
    assert len(path.read_text().splitlines()) == 6


def test_to_microseconds_matches_the_log_round_trip():
    from repro.logs.textio import format_bgp_time, parse_bgp_time

    rng = np.random.default_rng(7)
    times = 1231113600.0 + rng.uniform(0, 237 * 86400, 2000)
    # exact half-microsecond fractions exercise the tie rounding
    times = np.concatenate([times, np.floor(times * 1e6) / 1e6 + 0.5e-6])
    want = np.array([parse_bgp_time(format_bgp_time(t)) for t in times])
    got = to_microseconds(times)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
