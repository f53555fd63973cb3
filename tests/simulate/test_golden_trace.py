"""The simulated trace is pinned bit for bit by the benchmark's goldens.

``perfbench/golden.json`` holds the digest of the (RAS log, job log)
frames for each ``scale:seed`` the benchmark runs. A scheduler or
workload change that moves a single placement, timestamp or record
changes the digest.
"""

import json
from pathlib import Path

import pytest

from perfbench.checks import trace_digest
from repro.simulate.calibration import CalibrationProfile
from repro.simulate.intrepid import IntrepidSimulation

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[2] / "perfbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)["simulate"]


@pytest.mark.parametrize("key", ["0.01:2011", "0.2:2011"])
def test_trace_digest_matches_golden(key):
    scale, seed = key.split(":")
    trace = IntrepidSimulation(
        CalibrationProfile(seed=int(seed), scale=float(scale))
    ).run()
    assert trace_digest(trace.ras_log, trace.job_log) == GOLDEN[key]
