"""The benchmark's seeded workloads: inputs, one op, and its check.

Every workload builds its inputs from ``--seed`` alone in :meth:`setup`
(the timed set-up), builds the references its check compares against in
:meth:`prepare` (untimed), and then runs :meth:`op` repeatedly. The
program only ever sees the generated frames or log files. Ops run at
the CLI defaults: one worker, so ingest and the studies run serially.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.core.pipeline import CoAnalysis
from repro.logs import textio
from repro.logs.ras import RasLog
from repro.parallel import ParseCache
from repro.simulate.calibration import CalibrationProfile
from repro.simulate.intrepid import IntrepidSimulation
from repro.stream import replay_trace
from repro.stream.equivalence import diff_results, frames_equal

from perfbench.checks import (
    frame_bytes,
    result_digest,
    trace_digest,
    trace_problems,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def simulate(seed: int, scale: float):
    return IntrepidSimulation(CalibrationProfile(seed=seed, scale=scale)).run()


def to_microseconds(times: np.ndarray) -> np.ndarray:
    """Epoch seconds as a written-then-read RAS log holds them.

    The log stores BG/P timestamps with microsecond precision. Like
    ``datetime.fromtimestamp``, the fraction rounds half-to-even to whole
    microseconds; like ``datetime.timestamp``, the microsecond count is
    divided back exactly once, so the result is bit-identical to
    ``parse_bgp_time(format_bgp_time(t))``.
    """
    frac, whole = np.modf(times)
    return (whole * 1e6 + np.round(frac * 1e6)) / 1e6


def _analysis() -> CoAnalysis:
    return CoAnalysis(study_workers=1)


def _result_problems(result, reference, label: str) -> list[str]:
    problems = [f"stage failed: {f.describe()}" for f in result.stage_failures]
    problems += [f"{label}: {d}" for d in diff_results(result, reference)]
    return problems


class Workload:
    """One seeded workload; subclasses fill in the class attributes."""

    name: str
    why: str
    op_doc: str
    default_scale: float
    increments: int | None = None

    def __init__(self, seed: int, workdir: Path, scale: float | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = self.default_scale if scale is None else scale

    def setup(self) -> None:
        """Build the op's inputs (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build what :meth:`check` compares against (untimed)."""

    def op(self):
        raise NotImplementedError

    def check(self, out) -> tuple[list[str], str]:
        """The output's problems (empty when correct) and its digest."""
        raise NotImplementedError

    def records(self, out) -> int:
        """RAS plus job records the op produced or consumed."""
        raise NotImplementedError

    def input_bytes(self, out) -> int:
        raise NotImplementedError

    def cleanup(self, out) -> None:
        """Drop per-op leftovers after the op is checked (untimed)."""

    def describe(self, out) -> dict:
        return {
            "workload": self.name,
            "why": self.why,
            "op": self.op_doc,
            "seed": self.seed,
            "scale": self.scale,
            "increments": self.increments,
            "input_records": self.records(out),
            "input_bytes": self.input_bytes(out),
        }


class Simulate(Workload):
    name = "simulate"
    why = (
        "almost all sched (the partition choice); reaches no "
        "logs/parallel/core; first target of ROADMAP item 1"
    )
    op_doc = "IntrepidSimulation(CalibrationProfile(seed, scale)).run()"
    default_scale = 0.2
    #: scale of the run that pays first-call costs before timing
    warmup_scale = 0.01

    def setup(self) -> None:
        self.profile = CalibrationProfile(seed=self.seed, scale=self.scale)
        simulate(self.seed, min(self.scale, self.warmup_scale))

    def prepare(self) -> None:
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.golden = golden["simulate"].get(f"{self.scale}:{self.seed}")

    def op(self):
        return IntrepidSimulation(self.profile).run()

    def check(self, trace) -> tuple[list[str], str]:
        problems = trace_problems(trace)
        digest = trace_digest(trace.ras_log, trace.job_log)
        if self.golden is not None and digest != self.golden:
            problems.append(f"trace digest {digest} != golden {self.golden}")
        return problems, digest

    def records(self, trace) -> int:
        return len(trace.ras_log) + trace.job_log.num_jobs

    def input_bytes(self, trace) -> int:
        return frame_bytes(trace.ras_log.frame) + frame_bytes(
            trace.job_log.frame
        )


class _Analyze(Workload):
    """Shared inputs of the two ``repro analyze`` workloads."""

    default_scale = 0.05
    #: how both parse-cache lookups of every op must resolve
    expect_status: str

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ras_path = self.workdir / "ras.log"
        self.job_path = self.workdir / "job.log"
        self.trace = simulate(self.seed, self.scale)
        textio.write_ras_log(self.trace.ras_log, self.ras_path)
        textio.write_job_log(self.trace.job_log, self.job_path)

    def prepare(self) -> None:
        ras = self.trace.ras_log.frame
        self.ras_ref = RasLog(
            ras.with_column("event_time", to_microseconds(ras["event_time"]))
        )
        self.reference = _analysis().run(self.ras_ref, self.trace.job_log)

    def analyze(self, cache: ParseCache):
        ras = textio.read_ras_log(self.ras_path, cache=cache)
        job = textio.read_job_log(self.job_path, cache=cache)
        return ras, job, _analysis().run(ras, job)

    def check(self, out) -> tuple[list[str], str]:
        ras, job, result = out
        problems = []
        status = (ras.cache_status, job.cache_status)
        if status != (self.expect_status, self.expect_status):
            problems.append(f"parse cache status {status}")
        if not frames_equal(ras.frame, self.ras_ref.frame):
            problems.append("parsed RAS frame != in-memory trace")
        if not frames_equal(job.frame, self.trace.job_log.frame):
            problems.append("parsed job frame != in-memory trace")
        problems += _result_problems(result, self.reference, "vs in-memory")
        return problems, result_digest(result)

    def records(self, out) -> int:
        return len(self.trace.ras_log) + self.trace.job_log.num_jobs

    def input_bytes(self, out) -> int:
        return self.ras_path.stat().st_size + self.job_path.stat().st_size


class AnalyzeCold(_Analyze):
    name = "analyze_cold"
    why = (
        "almost all logs parse plus the parallel cache write; "
        "bypasses sched"
    )
    op_doc = (
        "read_ras_log + read_job_log through a fresh ParseCache (miss), "
        "then CoAnalysis(study_workers=1).run"
    )
    expect_status = "miss"

    def setup(self) -> None:
        super().setup()
        self._caches = 0

    def op(self):
        self._caches += 1
        return self.analyze(ParseCache(self.workdir / f"cache{self._caches}"))

    def cleanup(self, out) -> None:
        shutil.rmtree(self.workdir / f"cache{self._caches}")


class AnalyzeWarm(_Analyze):
    name = "analyze_warm"
    why = (
        "almost all the parallel cache read plus core kernels and "
        "studies; reads the cache analyze_cold writes"
    )
    op_doc = (
        "read_ras_log + read_job_log from a ParseCache filled in setup "
        "(hit), then CoAnalysis(study_workers=1).run"
    )
    expect_status = "hit"

    def setup(self) -> None:
        super().setup()
        self.cache = ParseCache(self.workdir / "cache")
        self.fill = self.analyze(self.cache)

    def op(self):
        return self.analyze(self.cache)

    def check(self, out) -> tuple[list[str], str]:
        problems, digest = super().check(out)
        problems += _result_problems(out[2], self.fill[2], "vs cold fill")
        return problems, digest


class StreamReplay(Workload):
    name = "stream_replay"
    why = (
        "the core kernels as many small frontier batches; the only "
        "workload that reaches repro.stream"
    )
    op_doc = (
        "replay_trace(ras, job, increments=K, "
        "pipeline=CoAnalysis(study_workers=1)) including result()"
    )
    default_scale = 0.2
    increments = 64

    def setup(self) -> None:
        self.trace = simulate(self.seed, self.scale)

    def prepare(self) -> None:
        self.batch = _analysis().run(self.trace.ras_log, self.trace.job_log)

    def op(self):
        return replay_trace(
            self.trace.ras_log,
            self.trace.job_log,
            increments=self.increments,
            pipeline=_analysis(),
        )

    def check(self, out) -> tuple[list[str], str]:
        updates, result = out
        problems = _result_problems(result, self.batch, "stream vs batch")
        if len(updates) != self.increments:
            problems.append(f"{len(updates)} updates, want {self.increments}")
        return problems, result_digest(result)

    def records(self, out) -> int:
        return len(self.trace.ras_log) + self.trace.job_log.num_jobs

    def input_bytes(self, out) -> int:
        return frame_bytes(self.trace.ras_log.frame) + frame_bytes(
            self.trace.job_log.frame
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Simulate, AnalyzeCold, AnalyzeWarm, StreamReplay)
}
