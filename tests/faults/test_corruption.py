"""Unit tests for the seeded log corruptor."""

import numpy as np
import pytest

from repro.faults.corruption import (
    JOB_DEFECT_CLASSES,
    RAS_DEFECT_CLASSES,
    LogCorruptor,
)
from repro.logs import JobLog, RasLog, write_job_log, write_ras_log
from repro.logs.quarantine import DefectClass

from tests.logs.test_job import make_job
from tests.logs.test_ras import make_record


@pytest.fixture
def ras_path(tmp_path):
    records = [
        make_record(recid=i, t=1000.0 + 10.0 * i) for i in range(1, 201)
    ]
    path = tmp_path / "ras.log"
    write_ras_log(RasLog.from_records(records), path)
    return path


@pytest.fixture
def job_path(tmp_path):
    jobs = [
        make_job(job_id=i, start=1000.0 + 50.0 * i, end=1500.0 + 50.0 * i)
        for i in range(1, 101)
    ]
    path = tmp_path / "job.log"
    write_job_log(JobLog.from_records(jobs), path)
    return path


class TestConstruction:
    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            LogCorruptor(rate=1.5)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            LogCorruptor(kind="syslog")

    def test_ras_only_classes_rejected_for_job(self):
        with pytest.raises(ValueError, match="not injectable"):
            LogCorruptor(kind="job", classes=(DefectClass.DUPLICATE_RECID,))

    def test_default_classes_follow_kind(self):
        assert LogCorruptor(kind="ras").classes == RAS_DEFECT_CLASSES
        assert LogCorruptor(kind="job").classes == JOB_DEFECT_CLASSES


class TestDeterminism:
    def test_same_seed_same_output(self, ras_path):
        text = ras_path.read_text()
        a = LogCorruptor(seed=7, rate=0.1).corrupt_text(text)
        b = LogCorruptor(seed=7, rate=0.1).corrupt_text(text)
        assert a.to_bytes() == b.to_bytes()
        assert a.injected == b.injected

    def test_different_seed_different_output(self, ras_path):
        text = ras_path.read_text()
        a = LogCorruptor(seed=7, rate=0.1).corrupt_text(text)
        b = LogCorruptor(seed=8, rate=0.1).corrupt_text(text)
        assert a.to_bytes() != b.to_bytes()


class TestGroundTruth:
    def test_rate_zero_injects_nothing(self, ras_path):
        result = LogCorruptor(seed=1, rate=0.0).corrupt_text(
            ras_path.read_text()
        )
        assert result.num_injected == 0
        assert result.to_bytes() == ras_path.read_bytes()

    def test_tiny_rate_injects_at_least_one(self, ras_path):
        result = LogCorruptor(seed=1, rate=1e-6).corrupt_text(
            ras_path.read_text()
        )
        assert result.num_injected == 1

    def test_all_classes_covered_at_sufficient_rate(self, ras_path):
        result = LogCorruptor(seed=3, rate=0.2).corrupt_text(
            ras_path.read_text()
        )
        assert set(result.ground_truth) == set(RAS_DEFECT_CLASSES)

    def test_ground_truth_totals(self, ras_path):
        result = LogCorruptor(seed=3, rate=0.1).corrupt_text(
            ras_path.read_text()
        )
        assert sum(result.ground_truth.values()) == result.num_injected
        assert result.num_injected == 20  # round(0.1 * 200)

    def test_line_numbers_point_at_damage(self, ras_path):
        result = LogCorruptor(seed=5, rate=0.1).corrupt_text(
            ras_path.read_text()
        )
        clean = {
            line.encode("utf-8")
            for i, line in enumerate(
                ras_path.read_text().split("\n")[1:]
            )
            if line and i not in result.damaged_source_rows()
        }
        for inj in result.injected:
            damaged = result.lines[inj.line_no - 2]  # header is line 1
            if inj.defect is DefectClass.DUPLICATE_RECID:
                assert damaged in clean  # byte-exact copy of a clean row
            else:
                assert damaged not in clean

    def test_clean_row_mask_complements_damage(self, ras_path):
        result = LogCorruptor(seed=5, rate=0.1).corrupt_text(
            ras_path.read_text()
        )
        mask = result.clean_row_mask()
        assert len(mask) == result.num_source_rows == 200
        assert (~mask).sum() == len(result.damaged_source_rows())

    def test_summary_lists_classes(self, ras_path):
        result = LogCorruptor(seed=3, rate=0.2).corrupt_text(
            ras_path.read_text()
        )
        text = result.summary()
        for cls in RAS_DEFECT_CLASSES:
            assert cls.value in text


class TestFileRoundTrip:
    def test_corrupt_file_writes_bytes(self, ras_path, tmp_path):
        out = tmp_path / "ras_bad.log"
        result = LogCorruptor(seed=2, rate=0.1).corrupt_file(ras_path, out)
        assert out.read_bytes() == result.to_bytes()

    def test_header_survives(self, ras_path, tmp_path):
        out = tmp_path / "ras_bad.log"
        LogCorruptor(seed=2, rate=0.1).corrupt_file(ras_path, out)
        original_header = ras_path.read_text().split("\n")[0]
        assert out.read_bytes().split(b"\n")[0].decode() == original_header


class TestJobKind:
    def test_job_corruption_covers_its_taxonomy(self, job_path):
        result = LogCorruptor(seed=3, rate=0.2, kind="job").corrupt_text(
            job_path.read_text()
        )
        assert set(result.ground_truth) == set(JOB_DEFECT_CLASSES)

    def test_single_class_restriction(self, job_path):
        result = LogCorruptor(
            seed=3, rate=0.1, kind="job",
            classes=(DefectClass.BLANK_LINE,),
        ).corrupt_text(job_path.read_text())
        assert set(result.ground_truth) == {DefectClass.BLANK_LINE}
        assert result.num_injected == 10


def _plan_reference(assign, n, rng):
    """The quadratic planner ``LogCorruptor._plan`` replaced.

    Every pick rescans the shuffled rows from the start; kept here as
    the oracle for the resuming scans.
    """
    available = list(range(n))
    rng.shuffle(available)
    available_set = set(available)
    damage = {}
    inserts = []
    for cls in (c for c in assign if c is DefectClass.OUT_OF_ORDER_TIME):
        target = next(
            (
                i for i in available
                if i in available_set and i >= 1 and (i - 1) not in damage
            ),
            None,
        )
        if target is None:
            continue
        available_set.discard(target)
        damage[target] = cls
        available_set.discard(target - 1)
    for cls in (c for c in assign if c is DefectClass.DUPLICATE_RECID):
        source = next((i for i in available if i in available_set), None)
        if source is None:
            continue
        available_set.discard(source)
        inserts.append(source)
    for cls in assign:
        if cls in (DefectClass.OUT_OF_ORDER_TIME, DefectClass.DUPLICATE_RECID):
            continue
        target = next((i for i in available if i in available_set), None)
        if target is None:
            continue
        available_set.discard(target)
        damage[target] = cls
    return damage, inserts


class TestPlanner:
    @pytest.mark.parametrize("seed", range(40))
    def test_plan_matches_reference(self, seed):
        """Resuming scans pick exactly what full rescans picked."""
        draw = np.random.default_rng(seed)
        n = int(draw.integers(0, 60))
        classes = list(RAS_DEFECT_CLASSES)
        # up to twice as many defects as rows, so tiny logs run dry
        assign = [
            classes[int(k)]
            for k in draw.integers(0, len(classes), int(draw.integers(0, 2 * n + 2)))
        ]
        corruptor = LogCorruptor(seed=seed)
        got = corruptor._plan(assign, n, np.random.default_rng(seed))
        want = _plan_reference(assign, n, np.random.default_rng(seed))
        assert got == want
