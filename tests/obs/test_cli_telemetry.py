"""End-to-end: ``--telemetry-out`` manifests and the ``trace`` command."""

import json

import pytest

from repro.cli import main
from repro.obs import read_manifest, validate_manifest


@pytest.fixture(scope="module")
def demo_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "run.jsonl"
    rc = main([
        "demo", "--scale", "0.02", "--telemetry-out", str(path),
    ])
    assert rc == 0
    return path


class TestTelemetryOut:
    def test_manifest_written_and_valid(self, demo_manifest):
        assert demo_manifest.exists()
        assert validate_manifest(demo_manifest) == []

    def test_manifest_contents(self, demo_manifest):
        manifest = read_manifest(demo_manifest)
        names = {s["name"] for s in manifest["spans"]}
        assert {"run", "simulate", "filter", "match", "studies"} <= names
        assert manifest["metrics"], "metrics section empty"
        assert len(manifest["observations"]) == 12
        config = manifest["run"]["config"]
        assert config["scale"] == 0.02
        assert config["command"] == "demo"

    def test_simulate_stages_are_child_spans(self, demo_manifest):
        spans = read_manifest(demo_manifest)["spans"]
        (simulate,) = [s for s in spans if s["name"] == "simulate"]
        children = {s["name"] for s in spans if s["parent"] == simulate["id"]}
        assert children == {
            "simulate.workload", "simulate.sched", "simulate.faults"
        }

    def test_path_announced(self, demo_manifest, capsys, tmp_path):
        out = tmp_path / "r.jsonl"
        assert main(["demo", "--scale", "0.02",
                     "--telemetry-out", str(out)]) == 0
        assert f"telemetry manifest: {out}" in capsys.readouterr().out

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "tele"))
        assert main(["demo", "--scale", "0.02"]) == 0
        files = list((tmp_path / "tele").glob("run-*.jsonl"))
        assert len(files) == 1
        assert validate_manifest(files[0]) == []

    def test_no_manifest_without_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["demo", "--scale", "0.02"]) == 0
        assert not list(tmp_path.glob("*.jsonl"))


class TestTelemetryOutAllCommands:
    """Every long-running command honors --telemetry-out (S2): the
    manifest is written, valid, and names the command in its config."""

    def test_fleet_manifest(self, tmp_path, capsys):
        path = tmp_path / "fleet.jsonl"
        rc = main([
            "fleet", "--machines", "2", "--scale", "0.02",
            "--windows", "2", "--telemetry-out", str(path),
        ])
        assert rc == 0
        assert validate_manifest(path) == []
        manifest = read_manifest(path)
        assert manifest["run"]["config"]["command"] == "fleet"
        assert f"telemetry manifest: {path}" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def trace_files(self, tmp_path_factory):
        from repro.logs import write_job_log, write_ras_log
        from tests.stream.conftest import make_jobs, make_ras

        root = tmp_path_factory.mktemp("trace")
        ras = make_ras(200, seed=41)
        job = make_jobs(ras, 30, seed=42)
        write_ras_log(ras, root / "ras.psv")
        write_job_log(job, root / "job.psv")
        return root / "ras.psv", root / "job.psv"

    def test_stream_manifest(self, trace_files, tmp_path, capsys):
        ras, job = trace_files
        path = tmp_path / "stream.jsonl"
        rc = main([
            "stream", "--ras", str(ras), "--job", str(job),
            "--increments", "2", "--telemetry-out", str(path),
        ])
        assert rc == 0
        assert validate_manifest(path) == []
        manifest = read_manifest(path)
        assert manifest["run"]["config"]["command"] == "stream"
        assert f"telemetry manifest: {path}" in capsys.readouterr().out

    def test_daemon_manifest(self, trace_files, tmp_path, capsys):
        ras, job = trace_files
        path = tmp_path / "daemon.jsonl"
        rc = main([
            "daemon", "--ras", str(ras), "--job", str(job),
            "--checkpoint-root", str(tmp_path / "ckpt"),
            "--poll-interval", "0", "--idle-exit", "2",
            "--telemetry-out", str(path),
        ])
        assert rc == 0
        assert validate_manifest(path) == []
        manifest = read_manifest(path)
        assert manifest["run"]["config"]["command"] == "daemon"
        assert f"telemetry manifest: {path}" in capsys.readouterr().out


#: every span an ``analyze`` run of a clean scale-0.01 trace records
#: (no matched pairs, so the conditional ``match.raw_credit`` is absent)
ANALYZE_SPANS = {
    "run",
    "ingest.ras", "ingest.job", "ingest.parse.chunk",
    "extract",
    "filter", "filter.temporal", "filter.spatial", "filter.causal",
    "match", "match.index", "match.join", "match.cases", "match.assemble",
    "identify", "classify", "job_filter",
    "studies", "studies.categorize", "studies.interarrivals",
    "studies.rates", "studies.midplane_profile", "studies.skew",
    "studies.bursts", "studies.propagation", "studies.vulnerability",
    "observations",
}


def _timings_labels(out: str) -> set[str]:
    """Span names printed in the ``--timings`` tree."""
    tree = out[out.index("-- stage timings"):].splitlines()[2:]
    labels = set()
    for line in tree:
        if line.startswith("telemetry manifest:"):
            break
        labels.add(line.split()[0].split("[")[0])
    return labels


class TestOneSpanTree:
    """``--timings`` and ``--telemetry-out`` render one span tree."""

    def test_timings_tree_equals_manifest(self, tmp_path, capsys):
        path = tmp_path / "demo.jsonl"
        # --timings is global; --telemetry-out belongs to the subcommand
        rc = main([
            "--timings", "demo", "--scale", "0.01", "--seed", "5",
            "--telemetry-out", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert validate_manifest(path) == []
        spans = read_manifest(path)["spans"]
        roots = [s for s in spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["run"]
        assert _timings_labels(out) == {s["name"] for s in spans}

    def test_analyze_keeps_every_span(self, tmp_path, capsys):
        assert main([
            "simulate", "--out-dir", str(tmp_path), "--scale", "0.01",
            "--seed", "5",
        ]) == 0
        path = tmp_path / "analyze.jsonl"
        assert main([
            "analyze", "--ras", str(tmp_path / "ras.log"),
            "--job", str(tmp_path / "job.log"),
            "--telemetry-out", str(path),
        ]) == 0
        names = {s["name"] for s in read_manifest(path)["spans"]}
        assert names == ANALYZE_SPANS


class TestTraceCommand:
    def test_render(self, demo_manifest, capsys):
        assert main(["trace", str(demo_manifest)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "hot stages" in out
        assert "studies.vulnerability" in out

    def test_top_limits_hot_stages(self, demo_manifest, capsys):
        assert main(["trace", str(demo_manifest), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert " 2. " in out and " 3. " not in out

    def test_validate_ok(self, demo_manifest, capsys):
        assert main(["trace", str(demo_manifest), "--validate"]) == 0
        assert "manifest OK" in capsys.readouterr().out

    def test_validate_rejects_damage(self, demo_manifest, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = demo_manifest.read_text().strip().splitlines()
        run = json.loads(lines[0])
        run["schema_version"] = 99
        bad.write_text("\n".join([json.dumps(run), *lines[1:]]) + "\n")
        assert main(["trace", str(bad), "--validate"]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
