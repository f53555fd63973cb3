"""The event-driven Cobalt scheduler simulation.

Replays a submission stream against the 80-midplane Intrepid machine
model with fault injection, producing the pair of logs the co-analysis
consumes — a job log of what ran where, and the ground-truth incident
list the RAS emitter turns into a raw RAS log.

Event kinds: ``submit`` (a job enters the queue), ``end`` (a running
job finishes or is killed; the fate is pre-resolved at start time),
``ambient`` (a background hardware fault fires), ``detect`` (a latent
breakage ages out and is sent to repair), ``repair_done`` (a drained
midplane returns to service).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.faults.apperrors import ApplicationErrorModel
from repro.faults.catalog import FaultClass, FaultType
from repro.faults.injector import GroundTruth, Incident, IncidentCause
from repro.faults.processes import SystemFaultProcess
from repro.logs.job import JobLog, JobRecord
from repro.machine.partition import Partition
from repro.machine.topology import NUM_MIDPLANES
from repro.sched.events import EventQueue
from repro.sched.policy import IntrepidPolicy
from repro.sched.repair import Breakage, BreakageTable
from repro.workload.sampler import JobSubmission


@dataclass
class _RunningJob:
    job_id: int
    submission: JobSubmission
    partition: Partition
    start: float
    end_token: object


@dataclass
class _EndPayload:
    job_id: int
    interrupted: bool
    cause: str = ""  # 'app' | 'system' | 'refire'
    fault_type: FaultType | None = None
    breakage: Breakage | None = None


@dataclass
class SimulationOutput:
    """Everything the simulation produced."""

    job_log: JobLog
    ground_truth: GroundTruth
    #: partition of every job, for RAS storm fan-out
    job_partitions: dict[int, Partition]
    #: jobs that never obtained a partition before the trace ended
    unscheduled: int
    #: ground-truth per-job interruption errcode ("" = completed)
    interrupted_by: dict[int, str]
    #: same-partition retry placements / total retry placements
    retry_same_location: tuple[int, int]


@dataclass
class CobaltSimulator:
    """Wires the policy, fault processes, and repair model together.

    Parameters
    ----------
    process:
        System-fault process (ambient schedule + per-run strikes).
    app_errors:
        Application-error model shared with the population.
    policy:
        Partition allocation policy.
    breakages:
        Sticky-breakage table (hardness mixture, detection thresholds).
    t_start, duration:
        Trace window.
    retry_probability_system:
        Chance a user resubmits after a system-failure interruption.
    retry_delay_log_mean / retry_delay_log_sigma:
        Lognormal resubmission delay (median ~8 minutes).
    propagation_probability / propagation_victims_mean:
        Shared-file-system error spread (§VI-C).
    breakage_detect_timeout:
        Mean seconds until an undetected breakage ages into repair.
    repair_duration_log_mean / repair_duration_log_sigma:
        Lognormal midplane repair time (median ~4 h).
    """

    process: SystemFaultProcess
    app_errors: ApplicationErrorModel
    policy: IntrepidPolicy = field(default_factory=IntrepidPolicy)
    breakages: BreakageTable = field(default_factory=BreakageTable)
    t_start: float = 0.0
    duration: float = 237 * 86400.0
    retry_probability_system: float = 0.85
    retry_delay_log_mean: float = 5.6
    retry_delay_log_sigma: float = 1.0
    propagation_probability: float = 0.6
    propagation_victims_mean: float = 2.0
    breakage_detect_timeout: float = 86400.0
    repair_duration_log_mean: float = 9.6
    repair_duration_log_sigma: float = 0.6
    #: ambient faults only land on midplanes idle at least this long —
    #: keeps the §IV-A "no job ran at the location" types clean of
    #: coincidental matches against a job that ended seconds earlier
    ambient_idle_dwell: float = 300.0
    max_queue_scan: int = 256

    def run(
        self, submissions: list[JobSubmission], rng: np.random.Generator
    ) -> SimulationOutput:
        """Simulate the full trace for a time-sorted submission stream."""
        self._rng = rng
        self._queue = EventQueue()
        self._free = np.ones(NUM_MIDPLANES, dtype=bool)
        self._last_release = np.full(NUM_MIDPLANES, -np.inf)
        #: queued jobs with their partition fit size, in arrival order
        self._waiting: list[tuple[int, JobSubmission]] = []
        self._running: dict[int, _RunningJob] = {}
        self._truth = GroundTruth()
        self._job_rows: list[JobRecord] = []
        self._job_partitions: dict[int, Partition] = {}
        self._interrupted_by: dict[int, str] = {}
        self._job_ids = itertools.count(1)
        self._chain_ids = itertools.count(1)
        #: consecutive interruption count per executable path
        self._consecutive: dict[str, int] = {}
        #: partition of the previous run per executable (affinity)
        self._last_partition: dict[str, Partition] = {}
        self._retry_same = 0
        self._retry_total = 0
        self._unscheduled = 0

        for sub in submissions:
            self._queue.push(sub.submit_time, "submit", sub)
        for t, ftype, _loc in self.process.ambient_schedule(rng):
            self._queue.push(self.t_start + t, "ambient", ftype)

        t_end = self.t_start + self.duration
        handlers = {
            "submit": self._on_submit,
            "end": self._on_end,
            "ambient": self._on_ambient,
            "detect": self._on_detect,
            "repair_done": self._on_repair_done,
        }
        while self._queue:
            entry = self._queue.pop()
            if entry is None:
                break
            if entry.kind == "submit" and entry.time >= t_end:
                self._unscheduled += 1
                continue
            handlers[entry.kind](entry.time, entry.payload)

        self._unscheduled += len(self._waiting)
        self._truth.sort()
        return SimulationOutput(
            job_log=JobLog.from_records(self._job_rows),
            ground_truth=self._truth,
            job_partitions=self._job_partitions,
            unscheduled=self._unscheduled,
            interrupted_by=self._interrupted_by,
            retry_same_location=(self._retry_same, self._retry_total),
        )

    # ------------------------------------------------------------------
    # event handlers

    def _on_submit(self, now: float, sub: JobSubmission) -> None:
        fit = self.policy.pool.fit_size(sub.size_midplanes)
        self._waiting.append((fit, sub))
        self._try_schedule(now)

    def _try_schedule(self, now: float) -> None:
        """FIFO-with-skip allocation over the waiting queue.

        A fit size that found no partition is not asked again in the
        same scan: ``_free`` only shrinks while the scan runs, and a
        failed ``choose`` draws no random numbers, so the skipped calls
        would have failed too without touching the generator.
        """
        scheduled: list[int] = []
        failed: set[int] = set()
        for i, (fit, sub) in enumerate(self._waiting[: self.max_queue_scan]):
            if fit in failed:
                continue
            preferred = None
            if sub.kind == "retry":
                preferred = self._last_partition.get(sub.executable)
            partition = self.policy.choose(
                sub.size_midplanes,
                self._free,
                self._rng,
                preferred=preferred,
                now=now,
            )
            if partition is None:
                failed.add(fit)
                continue
            if sub.kind == "retry":
                self._retry_total += 1
                if preferred is not None and partition == preferred:
                    self._retry_same += 1
            self._start_job(now, sub, partition)
            scheduled.append(i)
        for i in reversed(scheduled):
            del self._waiting[i]

    def _start_job(self, now: float, sub: JobSubmission, partition: Partition) -> None:
        self._free[partition.start : partition.start + partition.size] = False
        job_id = next(self._job_ids)
        self._job_partitions[job_id] = partition
        self._last_partition[sub.executable] = partition

        fate = self._resolve_fate(now, sub, partition)
        if fate is None:
            end_time = now + sub.planned_runtime
            payload = _EndPayload(job_id=job_id, interrupted=False)
        else:
            offset, cause, ftype, breakage = fate
            end_time = now + offset
            payload = _EndPayload(
                job_id=job_id,
                interrupted=True,
                cause=cause,
                fault_type=ftype,
                breakage=breakage,
            )
        token = self._queue.push(end_time, "end", payload)
        self._running[job_id] = _RunningJob(
            job_id=job_id,
            submission=sub,
            partition=partition,
            start=now,
            end_token=token,
        )

    def _resolve_fate(
        self, now: float, sub: JobSubmission, partition: Partition
    ) -> tuple[float, str, FaultType, Breakage | None] | None:
        """Earliest of: breakage refire, application failure, fresh
        system strike — or None for natural completion."""
        rng = self._rng
        candidates: list[tuple[float, str, FaultType, Breakage | None]] = []

        for mp in partition.midplane_indices:
            breakage = self.breakages.get(mp)
            if breakage is None:
                continue
            if breakage.roll_reboot_fix(rng):
                self.breakages.close(breakage)  # reboot cleared it
                continue
            offset = self.process.refire_delay(rng)
            if offset < sub.planned_runtime:
                candidates.append(
                    (offset, "refire", breakage.fault_type, breakage)
                )

        app = self.app_errors.sample_run_failure(
            sub.executable, sub.planned_runtime, sub.size_midplanes, rng
        )
        if app is not None:
            candidates.append((app[0], "app", app[1], None))

        system = self.process.sample_job_system_failure(
            sub.size_midplanes, sub.planned_runtime, rng
        )
        if system is not None:
            offset, ftype, sticky = system
            candidates.append((offset, "system-sticky" if sticky else "system", ftype, None))

        if not candidates:
            return None
        return min(candidates, key=lambda c: c[0])

    # ------------------------------------------------------------------

    def _on_end(self, now: float, payload: _EndPayload) -> None:
        job = self._running.pop(payload.job_id, None)
        if job is None:
            return  # already force-ended by propagation
        self._release(job.partition, now)

        if not payload.interrupted:
            self._finish_job(job, now, interrupted_by="")
            self._consecutive[job.submission.executable] = 0
            self._try_schedule(now)
            return

        ftype = payload.fault_type
        assert ftype is not None
        incident_jobs = [job.job_id]

        if payload.cause == "refire":
            breakage = payload.breakage
            assert breakage is not None
            location = self.process.location_in_midplane(
                breakage.midplane, ftype, self._rng
            )
            cause = IncidentCause.STICKY_REFIRE
            chain = breakage.chain_id
            if breakage.alive and breakage.record_kill():
                self._send_to_repair(now, breakage)
        elif payload.cause == "system-sticky":
            location, chain = self._open_breakage(now, job, ftype)
            cause = IncidentCause.STICKY_PRIMARY
        elif payload.cause == "system":
            location = self.process.incident_location(job.partition, ftype, self._rng)
            cause = IncidentCause.TRANSIENT
            chain = -1
        else:  # application
            location = self.process.incident_location(job.partition, ftype, self._rng)
            k_before = self._consecutive.get(job.submission.executable, 0)
            cause = (
                IncidentCause.APPLICATION_RESUBMIT
                if k_before > 0 and job.submission.kind == "retry"
                else IncidentCause.APPLICATION
            )
            chain = -1
            if ftype.propagates:
                incident_jobs += self._propagate(now, ftype)

        self._finish_job(job, now, interrupted_by=ftype.errcode)
        observe = getattr(self.policy, "observe_interruption", None)
        if observe is not None:
            observe(now, job.partition)
        self._truth.add(
            Incident(
                time=now,
                fault_type=ftype,
                location=location,
                cause=cause,
                interrupted_job_ids=tuple(incident_jobs),
                chain_id=chain,
            )
        )
        self._register_interruption_and_retry(now, job, is_app=payload.cause == "app")
        self._try_schedule(now)

    def _open_breakage(
        self, now: float, job: _RunningJob, ftype: FaultType
    ) -> tuple[str, int]:
        """Open a breakage on one midplane of the dead job's partition.

        The incident is reported *from the broken midplane*, so refires
        later report from the same place — the same-type-same-location
        signature the job-related filter keys on.
        """
        mp = int(self._rng.choice(list(job.partition.midplane_indices)))
        chain = next(self._chain_ids)
        self.breakages.open(mp, ftype, now, chain, self._rng)
        self._queue.push(
            now + self._rng.exponential(self.breakage_detect_timeout),
            "detect",
            mp,
        )
        return self.process.location_in_midplane(mp, ftype, self._rng), chain

    def _propagate(self, now: float, ftype: FaultType) -> list[int]:
        """Shared-file-system spread to other running jobs (§VI-C)."""
        if self._rng.random() >= self.propagation_probability:
            return []
        victims = []
        candidates = list(self._running.values())
        n = min(len(candidates), 1 + int(self._rng.poisson(self.propagation_victims_mean - 1)))
        if n <= 0:
            return []
        for idx in self._rng.choice(len(candidates), size=n, replace=False):
            victim = candidates[int(idx)]
            self._queue.cancel(victim.end_token)
            del self._running[victim.job_id]
            self._release(victim.partition, now)
            self._finish_job(victim, now, interrupted_by=ftype.errcode)
            self._register_interruption_and_retry(now, victim, is_app=True)
            victims.append(victim.job_id)
        return victims

    def _register_interruption_and_retry(
        self, now: float, job: _RunningJob, is_app: bool
    ) -> None:
        exe = job.submission.executable
        k = self._consecutive.get(exe, 0) + 1
        self._consecutive[exe] = k
        if is_app and self.app_errors.is_buggy(exe):
            p_retry = self.app_errors.resubmit_probability(k)
        else:
            p_retry = self.retry_probability_system
        if self._rng.random() >= p_retry:
            return
        delay = float(
            self._rng.lognormal(self.retry_delay_log_mean, self.retry_delay_log_sigma)
        )
        retry = JobSubmission(
            submit_time=now + delay,
            executable=exe,
            user=job.submission.user,
            project=job.submission.project,
            size_midplanes=job.submission.size_midplanes,
            planned_runtime=job.submission.planned_runtime,
            kind="retry",
        )
        self._queue.push(retry.submit_time, "submit", retry)

    def _finish_job(self, job: _RunningJob, end: float, interrupted_by: str) -> None:
        sub = job.submission
        self._interrupted_by[job.job_id] = interrupted_by
        self._job_rows.append(
            JobRecord(
                job_id=job.job_id,
                job_name=f"N.A.",
                executable=sub.executable,
                queued_time=sub.submit_time,
                start_time=job.start,
                end_time=max(end, job.start),
                location=job.partition.name,
                user=sub.user,
                project=sub.project,
                size_midplanes=sub.size_midplanes,
            )
        )

    def _release(self, partition: Partition, now: float | None = None) -> None:
        sl = slice(partition.start, partition.start + partition.size)
        self._free[sl] = True
        if now is not None:
            self._last_release[sl] = now

    # ------------------------------------------------------------------

    def _on_ambient(self, now: float, ftype: FaultType) -> None:
        if ftype.fclass is FaultClass.NONFATAL_FATAL:
            # FATAL-labelled alarm: lands anywhere, interrupts nothing.
            mp = int(self._rng.integers(0, NUM_MIDPLANES))
            location = self._nonfatal_location(mp, ftype)
            self._truth.add(
                Incident(
                    time=now,
                    fault_type=ftype,
                    location=location,
                    cause=IncidentCause.NONFATAL_ALARM,
                )
            )
            return
        settled = self._free & (now - self._last_release >= self.ambient_idle_dwell)
        idle = np.flatnonzero(settled)
        if len(idle) == 0:
            self._queue.push(now + 900.0, "ambient", ftype)
            return
        lo, hi = self.process.wide_region
        weights = np.where((idle >= lo) & (idle < hi), self.process.wide_tilt, 1.0)
        mp = int(self._rng.choice(idle, p=weights / weights.sum()))
        location = self.process.location_in_midplane(mp, ftype, self._rng)
        if ftype.component == "CARD":
            # service/link card faults name the card, not a node
            location = self.process._ambient_location(ftype, self._rng)
            # keep the chosen idle midplane: rebuild with its prefix
            from repro.machine.location import Location

            mp_loc = Location.from_midplane_index(mp)
            suffix = location.split("-", 2)[-1] if location.count("-") >= 2 else "S"
            location = f"{mp_loc}-{suffix}"
        self._truth.add(
            Incident(
                time=now,
                fault_type=ftype,
                location=location,
                cause=IncidentCause.AMBIENT,
            )
        )

    def _nonfatal_location(self, mp: int, ftype: FaultType) -> str:
        from repro.machine.location import Location

        mp_loc = Location.from_midplane_index(mp)
        if ftype.errcode == "BULK_POWER_FATAL":
            return str(mp_loc.to_rack())
        nc = int(self._rng.integers(0, 16))
        return f"{mp_loc}-N{nc:02d}-J{int(self._rng.integers(4, 36)):02d}"

    def _on_detect(self, now: float, midplane: int) -> None:
        breakage = self.breakages.get(midplane)
        if breakage is None:
            return
        if not self._free[midplane]:
            self._queue.push(now + 3600.0, "detect", midplane)
            return
        self._send_to_repair(now, breakage)

    def _send_to_repair(self, now: float, breakage: Breakage) -> None:
        self.breakages.close(breakage)
        mp = breakage.midplane
        if self._free[mp]:
            self._free[mp] = False
            duration = float(
                self._rng.lognormal(
                    self.repair_duration_log_mean, self.repair_duration_log_sigma
                )
            )
            self._queue.push(now + duration, "repair_done", mp)
        # If the midplane is busy (a job is running over the breakage's
        # midplane after escaping its refire), repair waits for the
        # detect timeout path.

    def _on_repair_done(self, now: float, midplane: int) -> None:
        self._free[midplane] = True
        self._try_schedule(now)
