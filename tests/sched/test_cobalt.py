"""Integration-style tests for the Cobalt DES on small workloads."""

import numpy as np
import pytest

from repro.faults.apperrors import ApplicationErrorModel
from repro.faults.catalog import catalog_by_errcode
from repro.faults.injector import IncidentCause
from repro.faults.processes import SystemFaultProcess
from repro.sched import CobaltSimulator, IntrepidPolicy
from repro.workload.sampler import JobSubmission

DAY = 86400.0


def submission(t, exe="/bin/a", size=1, runtime=1000.0, kind="fresh",
               user="u1", project="p1"):
    return JobSubmission(
        submit_time=t,
        executable=exe,
        user=user,
        project=project,
        size_midplanes=size,
        planned_runtime=runtime,
        kind=kind,
    )


def quiet_process(**kw):
    defaults = dict(
        duration=30 * DAY,
        ambient_count_mean=0.0,
        nonfatal_count_mean=0.0,
        hazard_coeff=0.0,
    )
    defaults.update(kw)
    return SystemFaultProcess(**defaults)


def make_sim(process=None, app=None, **kw):
    return CobaltSimulator(
        process=process or quiet_process(),
        app_errors=app or ApplicationErrorModel(buggy_fraction=0.0),
        t_start=0.0,
        duration=30 * DAY,
        **kw,
    )


class TestHappyPath:
    def test_all_jobs_complete(self):
        rng = np.random.default_rng(1)
        subs = [submission(i * 2000.0, exe=f"/bin/{i}") for i in range(20)]
        out = make_sim().run(subs, rng)
        assert out.job_log.num_jobs == 20
        assert out.unscheduled == 0
        assert len(out.ground_truth.incidents) == 0
        assert all(v == "" for v in out.interrupted_by.values())

    def test_runtimes_match_plan(self):
        rng = np.random.default_rng(2)
        subs = [submission(0.0, runtime=1234.0)]
        out = make_sim().run(subs, rng)
        rt = out.job_log.runtimes()
        assert rt[0] == pytest.approx(1234.0)

    def test_job_ids_sequential_in_start_order(self):
        rng = np.random.default_rng(3)
        subs = [submission(i * 100.0, exe=f"/bin/{i}", runtime=50.0)
                for i in range(10)]
        out = make_sim().run(subs, rng)
        assert list(out.job_log.frame["job_id"]) == list(range(1, 11))

    def test_queueing_when_machine_full(self):
        rng = np.random.default_rng(4)
        # two whole-machine jobs back to back
        subs = [
            submission(0.0, exe="/a", size=80, runtime=5000.0),
            submission(10.0, exe="/b", size=80, runtime=5000.0),
        ]
        out = make_sim().run(subs, rng)
        rows = list(out.job_log.frame.to_rows())
        assert rows[1]["start_time"] >= rows[0]["end_time"]

    def test_submissions_beyond_window_dropped(self):
        rng = np.random.default_rng(5)
        subs = [submission(31 * DAY, exe="/late")]
        out = make_sim().run(subs, rng)
        assert out.job_log.num_jobs == 0
        assert out.unscheduled == 1


class TestAmbientEvents:
    def test_ambient_never_interrupts(self):
        rng = np.random.default_rng(6)
        process = quiet_process(ambient_count_mean=40.0)
        subs = [submission(i * 1000.0, exe=f"/bin/{i}", runtime=500.0)
                for i in range(20)]
        out = make_sim(process=process).run(subs, rng)
        assert all(v == "" for v in out.interrupted_by.values())
        ambient = out.ground_truth.by_class(
            catalog_by_errcode("CARD_0411_CLOCK").fclass
        )
        assert all(not i.interrupts for i in ambient)

    def test_nonfatal_alarms_recorded(self):
        rng = np.random.default_rng(7)
        process = quiet_process(nonfatal_count_mean=30.0)
        out = make_sim(process=process).run([], rng)
        assert out.ground_truth.count(IncidentCause.NONFATAL_ALARM) > 5


class TestSystemFailures:
    def test_hazard_interrupts_jobs(self):
        rng = np.random.default_rng(8)
        process = quiet_process(hazard_coeff=0.5)  # huge hazard
        subs = [submission(i * 3000.0, exe=f"/bin/{i}", runtime=2000.0)
                for i in range(30)]
        out = make_sim(process=process,
                       retry_probability_system=0.0).run(subs, rng)
        interrupted = [j for j, e in out.interrupted_by.items() if e]
        assert len(interrupted) > 10
        # interrupted jobs end before their planned runtime
        frame = out.job_log.frame
        for r in frame.to_rows():
            if out.interrupted_by[r["job_id"]]:
                assert r["end_time"] - r["start_time"] < 2000.0

    def test_sticky_breakage_produces_refires(self):
        rng = np.random.default_rng(9)
        process = quiet_process(hazard_coeff=0.08, sticky_fraction=1.0)
        subs = [submission(i * 4000.0, exe=f"/bin/{i}", runtime=3000.0)
                for i in range(60)]
        sim = make_sim(process=process)
        sim.policy.affinity = 1.0
        out = sim.run(subs, rng)
        assert out.ground_truth.count(IncidentCause.STICKY_REFIRE) > 0

    def test_retry_after_interruption(self):
        rng = np.random.default_rng(10)
        process = quiet_process(hazard_coeff=0.5)
        subs = [submission(0.0, exe="/victim", runtime=2000.0)]
        out = make_sim(process=process,
                       retry_probability_system=1.0).run(subs, rng)
        # the retry chain produces more than one job record
        assert out.job_log.num_jobs > 1
        assert out.retry_same_location[1] >= 1


class TestApplicationErrors:
    def _buggy_model(self, theta=1.0):
        model = ApplicationErrorModel(buggy_fraction=1.0)
        rng = np.random.default_rng(0)
        model.assign_bugs({"/buggy": 1}, rng)
        model._bugs["/buggy"].theta = theta
        return model

    def test_buggy_job_interrupted_and_counted(self):
        rng = np.random.default_rng(11)
        out = make_sim(app=self._buggy_model()).run(
            [submission(0.0, exe="/buggy", runtime=1e5)], rng
        )
        causes = {i.cause for i in out.ground_truth.incidents}
        assert IncidentCause.APPLICATION in causes

    def test_resubmission_chain(self):
        rng = np.random.default_rng(12)
        out = make_sim(app=self._buggy_model(theta=1.0)).run(
            [submission(0.0, exe="/buggy", runtime=1e5)], rng
        )
        resub = out.ground_truth.count(IncidentCause.APPLICATION_RESUBMIT)
        assert resub >= 1
        assert out.job_log.num_jobs >= 2

    def test_propagating_type_can_kill_other_jobs(self):
        rng = np.random.default_rng(13)
        model = ApplicationErrorModel(buggy_fraction=1.0)
        model.assign_bugs({"/buggy": 1}, np.random.default_rng(0))
        bug = model._bugs["/buggy"]
        bug.theta = 1.0
        model._bugs["/buggy"] = type(bug)(
            fault_type=catalog_by_errcode("CiodHungProxy"), theta=1.0
        )
        subs = [
            submission(0.0, exe="/bystander", runtime=5e4, size=2),
            submission(10.0, exe="/buggy", runtime=1e5),
        ]
        sim = make_sim(app=model, propagation_probability=1.0,
                       propagation_victims_mean=3.0)
        out = sim.run(subs, rng)
        multi = [i for i in out.ground_truth.incidents
                 if len(i.interrupted_job_ids) > 1]
        assert multi, "propagating failure should claim a victim"


class TestInvariants:
    def test_no_overlapping_partitions(self):
        """At no instant may two running jobs share a midplane."""
        rng = np.random.default_rng(14)
        process = quiet_process(hazard_coeff=0.01)
        subs = [
            submission(
                float(rng.uniform(0, 10 * DAY)),
                exe=f"/bin/{i}",
                size=int(rng.choice([1, 2, 4, 16, 32])),
                runtime=float(rng.uniform(100, 20000)),
            )
            for i in range(300)
        ]
        out = make_sim(process=process).run(sorted(subs, key=lambda s: s.submit_time), rng)
        from repro.machine.partition import parse_partition

        intervals = []
        for r in out.job_log.frame.to_rows():
            p = parse_partition(r["location"])
            intervals.append((r["start_time"], r["end_time"], p))
        events = []
        for s, e, p in intervals:
            events.append((s, 1, p))
            events.append((e, 0, p))
        events.sort(key=lambda x: (x[0], x[1]))
        occupied = np.zeros(80, dtype=int)
        for _t, kind, p in events:
            sl = slice(p.start, p.start + p.size)
            if kind == 1:
                occupied[sl] += 1
                assert occupied[sl].max() <= 1, "double-booked midplane"
            else:
                occupied[sl] -= 1

    def test_deterministic_given_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            process = quiet_process(hazard_coeff=0.02,
                                    ambient_count_mean=10.0)
            subs = [submission(i * 777.0, exe=f"/bin/{i % 7}", runtime=600.0)
                    for i in range(50)]
            return make_sim(process=process).run(subs, rng)

        a, b = run(42), run(42)
        assert list(a.job_log.frame["end_time"]) == list(b.job_log.frame["end_time"])
        assert len(a.ground_truth.incidents) == len(b.ground_truth.incidents)


class CountingPolicy(IntrepidPolicy):
    """Records the fit size of every ``choose`` call, by scan time."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = []

    def choose(self, size_midplanes, free, rng, preferred=None, now=0.0):
        self.calls.append((now, self.pool.fit_size(size_midplanes)))
        return super().choose(size_midplanes, free, rng, preferred, now)


class TestFailedFitMemo:
    def test_one_choose_per_failed_fit_size_per_scan(self):
        policy = CountingPolicy()
        subs = [
            submission(0.0, exe="/whole", size=80, runtime=5000.0),
            submission(10.0, exe="/a", size=32),
            submission(20.0, exe="/b", size=24),  # also fits 32
            submission(30.0, exe="/c", size=32),
            submission(40.0, exe="/d", size=1),
        ]
        out = make_sim(policy=policy).run(subs, np.random.default_rng(1))
        scans = {}
        for now, fit in policy.calls:
            scans.setdefault(now, []).append(fit)
        assert scans[10.0] == [32]
        assert scans[20.0] == [32]
        assert scans[30.0] == [32]
        assert scans[40.0] == [32, 1]
        # once the machine drains, every queued job gets its own call
        assert scans[5000.0] == [32, 32, 32, 1]
        assert out.job_log.num_jobs == 5
