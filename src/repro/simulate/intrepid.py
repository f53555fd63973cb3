"""One-call generation of the full (RAS log, job log) trace pair."""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import GroundTruth
from repro.logs.job import JobLog
from repro.logs.ras import RasLog
from repro.machine.partition import Partition
from repro.obs.trace import maybe_span
from repro.sched.cobalt import SimulationOutput
from repro.simulate.calibration import CalibrationProfile
from repro.workload.population import Population


@dataclass
class IntrepidTrace:
    """A simulated 237-day Intrepid trace.

    ``ras_log`` and ``job_log`` are what the co-analysis sees;
    ``ground_truth`` and the bookkeeping fields are the hidden answers
    used by tests and EXPERIMENTS.md to score the pipeline.
    """

    ras_log: RasLog
    job_log: JobLog
    ground_truth: GroundTruth
    population: Population
    job_partitions: dict[int, Partition]
    interrupted_by: dict[int, str]
    retry_same_location: tuple[int, int]
    unscheduled: int

    @property
    def num_fatal_records(self) -> int:
        return len(self.ras_log.fatal())


class IntrepidSimulation:
    """Generates :class:`IntrepidTrace` instances from a profile."""

    def __init__(self, profile: CalibrationProfile | None = None):
        self.profile = profile or CalibrationProfile()

    def run(self) -> IntrepidTrace:
        """Simulate workload, scheduling, faults, and RAS emission.

        Deterministic for a fixed profile (single seeded generator runs
        every stage in a fixed order). Under an active tracer the stages
        are the spans ``simulate.workload``, ``simulate.sched`` and
        ``simulate.faults``.
        """
        p = self.profile
        rng = p.rng()
        with maybe_span("simulate.workload"):
            population = p.make_population(rng)
            submissions = p.make_sampler().generate(population, rng)
        with maybe_span("simulate.sched"):
            output: SimulationOutput = p.make_simulator(population).run(
                submissions, rng
            )
        with maybe_span("simulate.faults"):
            ras_log = p.make_emitter().emit(
                output.ground_truth.incidents, output.job_partitions, rng
            )
        return IntrepidTrace(
            ras_log=ras_log,
            job_log=output.job_log,
            ground_truth=output.ground_truth,
            population=population,
            job_partitions=output.job_partitions,
            interrupted_by=output.interrupted_by,
            retry_same_location=output.retry_same_location,
            unscheduled=output.unscheduled,
        )
