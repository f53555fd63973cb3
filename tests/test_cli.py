"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--out-dir", "/tmp/x", "--scale", "0.1", "--seed", "3"]
        )
        assert args.command == "simulate"
        assert args.scale == 0.1

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "--ras", "a.log", "--job", "b.log"]
        )
        assert args.command == "analyze"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tolerance_default_is_papers(self):
        from repro.core.matching import DEFAULT_TOLERANCE

        args = build_parser().parse_args(
            ["analyze", "--ras", "a.log", "--job", "b.log"]
        )
        assert args.tolerance == DEFAULT_TOLERANCE == 60.0

    def test_tolerance_override(self):
        args = build_parser().parse_args(
            ["demo", "--tolerance", "15"]
        )
        assert args.tolerance == 15.0

    def test_negative_tolerance_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--tolerance=-5"])
        assert "non-negative" in capsys.readouterr().err

    def test_timings_flag(self):
        args = build_parser().parse_args(["--timings", "demo"])
        assert args.timings is True
        args = build_parser().parse_args(["demo"])
        assert args.timings is False

    def test_filter_threshold_defaults_match_constructors(self):
        from repro.core.filtering import CausalityFilter, TemporalFilter

        args = build_parser().parse_args(
            ["analyze", "--ras", "a.log", "--job", "b.log"]
        )
        assert args.temporal_threshold == TemporalFilter.threshold == 300.0
        assert args.spatial_threshold == 300.0
        assert args.causal_window == CausalityFilter.window == 120.0

    def test_filter_threshold_overrides(self):
        args = build_parser().parse_args(
            ["demo", "--temporal-threshold", "60",
             "--spatial-threshold", "45", "--causal-window", "240"]
        )
        assert args.temporal_threshold == 60.0
        assert args.spatial_threshold == 45.0
        assert args.causal_window == 240.0

    @pytest.mark.parametrize("flag", [
        "--temporal-threshold", "--spatial-threshold", "--causal-window",
    ])
    def test_negative_filter_thresholds_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", f"{flag}=-10"])
        assert "non-negative" in capsys.readouterr().err

    def test_ingest_defaults_strict(self):
        args = build_parser().parse_args(
            ["analyze", "--ras", "a.log", "--job", "b.log"]
        )
        assert args.on_bad_record == "strict"
        assert args.max_bad_records is None
        assert args.max_bad_fraction is None

    def test_ingest_overrides(self):
        args = build_parser().parse_args(
            ["analyze", "--ras", "a.log", "--job", "b.log",
             "--on-bad-record", "quarantine", "--max-bad-records", "100",
             "--max-bad-fraction", "0.25"]
        )
        assert args.on_bad_record == "quarantine"
        assert args.max_bad_records == 100
        assert args.max_bad_fraction == 0.25

    def test_bad_ingest_mode_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--ras", "a", "--job", "b",
                 "--on-bad-record", "lenient"]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_negative_max_bad_records_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--ras", "a", "--job", "b",
                 "--max-bad-records=-1"]
            )
        assert "non-negative" in capsys.readouterr().err

    def test_bad_fraction_out_of_range_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--ras", "a", "--job", "b",
                 "--max-bad-fraction", "1.5"]
            )
        assert "[0, 1]" in capsys.readouterr().err

    def test_workers_default_and_auto(self):
        args = build_parser().parse_args(
            ["analyze", "--ras", "a.log", "--job", "b.log"]
        )
        assert args.workers == 1
        args = build_parser().parse_args(["demo", "--workers", "0"])
        assert args.workers == 0
        args = build_parser().parse_args(
            ["analyze", "--ras", "a", "--job", "b", "--workers", "4"]
        )
        assert args.workers == 4

    def test_negative_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["demo", "--workers=-2"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_cache_args(self):
        args = build_parser().parse_args(
            ["analyze", "--ras", "a", "--job", "b",
             "--cache-dir", "/tmp/pc", "--no-cache"]
        )
        assert args.cache_dir == "/tmp/pc"
        assert args.no_cache is True

    def test_cache_dir_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/envcache")
        args = build_parser().parse_args(
            ["analyze", "--ras", "a", "--job", "b"]
        )
        assert args.cache_dir == "/tmp/envcache"

    def test_corrupt_args(self):
        args = build_parser().parse_args(
            ["corrupt", "--src", "a.log", "--out", "b.log"]
        )
        assert args.command == "corrupt"
        assert args.rate == 0.05
        assert args.kind == "ras"

    def test_corrupt_bad_rate_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["corrupt", "--src", "a", "--out", "b", "--rate", "2"]
            )
        assert "[0, 1]" in capsys.readouterr().err


class TestEndToEnd:
    def test_simulate_then_analyze(self, tmp_path, capsys):
        rc = main(
            ["simulate", "--out-dir", str(tmp_path), "--scale", "0.01",
             "--seed", "5"]
        )
        assert rc == 0
        assert (tmp_path / "ras.log").exists()
        assert (tmp_path / "job.log").exists()
        rc = main(
            ["analyze", "--ras", str(tmp_path / "ras.log"),
             "--job", str(tmp_path / "job.log")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CO-ANALYSIS" in out
        assert "Obs." in out

    def test_analyze_cache_rerun_hits(self, tmp_path, capsys):
        assert main(
            ["simulate", "--out-dir", str(tmp_path), "--scale", "0.01",
             "--seed", "5"]
        ) == 0
        argv = [
            "analyze", "--ras", str(tmp_path / "ras.log"),
            "--job", str(tmp_path / "job.log"),
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "parse cache: ras=miss job=miss" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "parse cache: ras=hit job=hit" in warm
        # the cached analysis prints the same report, to the last byte
        def body(out):
            return out[out.index("CO-ANALYSIS"):]

        assert body(cold) == body(warm)

    def test_demo(self, capsys):
        rc = main(["demo", "--scale", "0.01", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        # wall-clock timings only print on request (--timings)
        assert "timings" not in out
        assert "Table IV" in out

    def test_demo_with_timings(self, capsys):
        rc = main(["--timings", "demo", "--scale", "0.01", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        # --timings adds the span tree under one run root, with the
        # simulate stage and the filter.* chain and match.* kernel
        # breakdowns
        assert "stage timings" in out
        tree = out[out.index("stage timings"):].splitlines()[2:]
        assert tree[0].split()[0] == "run"
        assert all(line.startswith("  ") for line in tree[1:])
        labels = [line.split()[0] for line in tree]
        assert "simulate" in labels
        assert "match.join" in labels
        assert "filter.temporal" in labels
        assert "filter.spatial" in labels
        assert "filter.causal" in labels

    def test_simulate_with_timings_shows_write_cost(self, tmp_path, capsys):
        rc = main(["--timings", "simulate", "--out-dir", str(tmp_path),
                   "--scale", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        labels = {
            line.split()[0]
            for line in out[out.index("stage timings"):].splitlines()[2:]
        }
        assert {"simulate", "simulate.sched", "write.ras",
                "write.job"} <= labels

    def test_demo_with_filter_thresholds(self, capsys):
        rc = main(
            ["demo", "--scale", "0.01", "--seed", "5",
             "--temporal-threshold", "60", "--spatial-threshold", "60",
             "--causal-window", "30"]
        )
        assert rc == 0
        assert "CO-ANALYSIS" in capsys.readouterr().out

    def test_demo_with_tolerance(self, capsys):
        rc = main(
            ["demo", "--scale", "0.01", "--seed", "5", "--tolerance", "15"]
        )
        assert rc == 0
        assert "CO-ANALYSIS" in capsys.readouterr().out


class TestResilienceEndToEnd:
    @pytest.fixture(scope="class")
    def corrupted(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli_fuzz")
        assert main(
            ["simulate", "--out-dir", str(tmp), "--scale", "0.01",
             "--seed", "5"]
        ) == 0
        assert main(
            ["corrupt", "--src", str(tmp / "ras.log"),
             "--out", str(tmp / "ras_bad.log"), "--rate", "0.05",
             "--seed", "1"]
        ) == 0
        return tmp

    def test_corrupt_prints_ground_truth(self, corrupted, capsys):
        rc = main(
            ["corrupt", "--src", str(corrupted / "ras.log"),
             "--out", str(corrupted / "ras_bad2.log"), "--rate", "0.02",
             "--seed", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "defects injected" in out
        assert "blank_line" in out

    def test_strict_analyze_exits_2_with_hint(self, corrupted, capsys):
        rc = main(
            ["analyze", "--ras", str(corrupted / "ras_bad.log"),
             "--job", str(corrupted / "job.log")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "rejected a bad record" in err
        assert "--on-bad-record quarantine" in err

    def test_quarantine_analyze_completes_with_report(
        self, corrupted, capsys
    ):
        rc = main(
            ["analyze", "--ras", str(corrupted / "ras_bad.log"),
             "--job", str(corrupted / "job.log"),
             "--on-bad-record", "quarantine"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CO-ANALYSIS" in out
        assert "quarantine report [RAS]" in out
        assert "quarantine report [job]" in out

    def test_abort_threshold_exits_2(self, corrupted, capsys):
        rc = main(
            ["analyze", "--ras", str(corrupted / "ras_bad.log"),
             "--job", str(corrupted / "job.log"),
             "--on-bad-record", "quarantine", "--max-bad-records", "3"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "ingestion aborted" in err
        assert "max_bad_records" in err


def _exit_code(argv) -> int:
    """main's exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestInputErrors:
    """Bad input exits 2 with a one-line error, never a traceback."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("bad_input")
        assert main(
            ["simulate", "--out-dir", str(tmp), "--scale", "0.01",
             "--seed", "5"]
        ) == 0
        return tmp

    @pytest.mark.parametrize("argv, error", [
        pytest.param(
            ["analyze", "--ras", "{missing}", "--job", "{job}"],
            "cannot read {missing}: No such file or directory",
            id="analyze-missing-ras",
        ),
        pytest.param(
            ["analyze", "--ras", "{ras}", "--job", "{missing}"],
            "cannot read {missing}: No such file or directory",
            id="analyze-missing-job",
        ),
        pytest.param(
            ["analyze", "--ras", "{missing}", "--job", "{job}",
             "--cache-dir", "{tmp}/cache"],
            "cannot read {missing}: No such file or directory",
            id="analyze-missing-ras-cached",
        ),
        pytest.param(
            ["stream", "--ras", "{ras}", "--job", "{missing}"],
            "cannot read {missing}: No such file or directory",
            id="stream-missing-job",
        ),
        pytest.param(
            ["analyze", "--ras", "{ras}", "--job", "{job}",
             "--telemetry-out", "{tmp}"],
            "--telemetry-out {tmp} is a directory",
            id="analyze-telemetry-dir",
        ),
        pytest.param(
            ["simulate", "--out-dir", "{tmp}", "--scale", "0"],
            "scale must be in (0, 1], got 0",
            id="simulate-scale-0",
        ),
        pytest.param(
            ["demo", "--scale=-0.1"],
            "scale must be in (0, 1], got -0.1",
            id="demo-scale-negative",
        ),
        pytest.param(
            ["fleet", "--scale", "1.5"],
            "scale must be in (0, 1], got 1.5",
            id="fleet-scale-above-1",
        ),
        pytest.param(
            ["stream", "--scale", "nan"],
            "scale must be in (0, 1], got nan",
            id="stream-scale-nan",
        ),
    ])
    def test_exit_2_with_one_line(
        self, trace, tmp_path, capsys, argv, error
    ):
        names = {
            "ras": trace / "ras.log",
            "job": trace / "job.log",
            "missing": trace / "missing.log",
            "tmp": tmp_path,
        }
        argv = [arg.format(**names) for arg in argv]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        if "--scale" in " ".join(argv):
            # argparse's own format: usage, then the one error line
            assert lines[-1].endswith(error.format(**names))
        else:
            assert lines == [error.format(**names)]

    def test_telemetry_dir_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "telemetry"
        out.mkdir()
        assert main(
            ["demo", "--scale", "0.01", "--telemetry-out", str(out)]
        ) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "telemetry.tmp").exists()
        assert list(out.iterdir()) == []


class TestDaemonParser:
    def test_daemon_args(self):
        args = build_parser().parse_args(
            ["daemon", "--ras", "r.psv", "--job", "j.psv",
             "--checkpoint-root", "ckpt", "--idle-exit", "4",
             "--inject-faults", "7"]
        )
        assert args.command == "daemon"
        assert args.allowed_lateness == 300.0  # bounded by default
        assert args.idle_exit == 4
        assert args.inject_faults == 7
        assert args.on_bad_record == "quarantine"

    def test_daemon_requires_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["daemon", "--ras", "r.psv"])

    def test_feed_args(self):
        args = build_parser().parse_args(
            ["feed", "--copy", "a:b", "--copy", "c:d", "--steps", "3"]
        )
        assert args.command == "feed"
        assert args.copy == ["a:b", "c:d"]
        assert args.steps == 3

    def test_stream_lateness_flags(self):
        args = build_parser().parse_args(
            ["stream", "--allowed-lateness", "120", "--late-sink", "q"]
        )
        assert args.allowed_lateness == 120.0
        assert args.late_sink == "q"


class TestValidateCheckpointCLI:
    """`repro stream --validate-checkpoint`: the offline integrity audit."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        import numpy as np

        from repro.stream import StreamingCoAnalysis, save_checkpoint
        from tests.stream.conftest import make_jobs, make_ras

        ras = make_ras(120)
        job = make_jobs(ras, 20)
        runner = StreamingCoAnalysis()
        horizon = np.nextafter(
            max(ras.frame["event_time"].max(),
                job.frame["start_time"].max()),
            np.inf,
        )
        runner.ingest(ras, job, watermark=float(horizon))
        directory = tmp_path / "ckpt"
        save_checkpoint(runner, directory)
        return directory

    def test_healthy_checkpoint_ok_exit_0(self, ckpt, capsys):
        rc = main(["stream", "--validate-checkpoint", str(ckpt)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_bit_flipped_checkpoint_corrupt_exit_1(self, ckpt, capsys):
        victim = sorted((ckpt / "survivors").glob("*.npy"))[0]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        rc = main(["stream", "--validate-checkpoint", str(ckpt)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "hash-mismatch" in out

    def test_missing_checkpoint_corrupt_exit_1(self, tmp_path, capsys):
        rc = main(["stream", "--validate-checkpoint", str(tmp_path / "no")])
        assert rc == 1
        assert "unreadable-index" in capsys.readouterr().out
