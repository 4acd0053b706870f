"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    """One tiny experiment run directory that the read-out commands share."""
    out = tmp_path_factory.mktemp("run") / "run"
    assert main(
        ["experiment", "--out", str(out), "--moves", "3",
         "--iterations", "40", "--seed", "3"]
    ) == 0
    return out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{graph,analyze,table1,detect,experiment,stream}" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("command", ["analyze", "table1", "detect"])
    @pytest.mark.parametrize("flag", ["--dataset", "--model", "--seed", "--test-fraction"])
    def test_read_outs_take_only_the_run(self, command, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--run", "x", flag, "1"])

    def test_experiment_defaults_are_the_config_defaults(self, monkeypatch, capsys):
        import repro.pipeline.experiment as experiment

        configs = []

        def fake_run(config, out, **_kwargs):
            configs.append(config)
            return experiment.ExperimentResult(directory=out, config=config)

        monkeypatch.setattr(experiment, "run_experiment", fake_run)
        assert main(["experiment", "--out", "x"]) == 0
        assert configs == [experiment.ExperimentConfig()]


class TestGraphCommand:
    def test_prints_summary(self, capsys):
        assert main(["graph"]) == 0
        out = capsys.readouterr().out
        assert "13 nodes" in out
        assert "F1:" in out

    def test_dot_flag(self, capsys):
        assert main(["graph", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestPipelineCommands:
    def test_record_train_analyze_table1(self, rundir, capsys):
        # The run directory's experiment recorded and trained.
        assert main(["analyze", "--run", str(rundir), "--g-size", "60"]) == 0
        assert "VERDICT" in capsys.readouterr().out

        assert main(["table1", "--run", str(rundir), "--g-size", "60"]) == 0
        assert "h=0.2 Cor" in capsys.readouterr().out


class TestDetectCommand:
    def test_detect_reports_roc(self, rundir, capsys):
        assert main(
            ["detect", "--run", str(rundir), "--g-size", "60",
             "--top-features", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "AUC" in out
        assert "FPR budget" in out


class TestExperimentCommand:
    def test_experiment_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(
            ["experiment", "--out", str(out), "--moves", "6",
             "--iterations", "80", "--seed", "4"]
        ) == 0
        text = capsys.readouterr().out
        assert "attack_accuracy" in text
        assert (out / "summary.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "manifest.json").exists()

    def test_missing_out_is_an_error(self, capsys):
        assert main(["experiment"]) == 2
        assert "--out is required" in capsys.readouterr().err

    def test_resume_and_fresh_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "--out", "x", "--resume", "--fresh"]
            )

    def test_resume_defaults_on(self):
        args = build_parser().parse_args(["experiment", "--out", "x"])
        assert args.resume is True
        args = build_parser().parse_args(["experiment", "--out", "x", "--fresh"])
        assert args.resume is False


class TestExperimentStatusAndInvalidate:
    @pytest.fixture(scope="class")
    def rundir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("exp-status") / "run"
        assert main(
            ["experiment", "--out", str(out), "--moves", "6",
             "--iterations", "60", "--seed", "4"]
        ) == 0
        return out

    def test_status_lists_stages(self, rundir, capsys):
        assert main(["experiment", "status", str(rundir)]) == 0
        out = capsys.readouterr().out
        for stage in ("record", "graph", "train[F18|F1]",
                      "analyze[F18|F1]", "report"):
            assert stage in out
        assert "STALE" not in out
        assert out.count("errors=0") == 5

    def test_status_empty_dir(self, tmp_path, capsys):
        assert main(["experiment", "status", str(tmp_path)]) == 0
        assert "no completed stages" in capsys.readouterr().out

    def test_status_missing_dir_fails(self, tmp_path, capsys):
        assert main(["experiment", "status", str(tmp_path / "nope")]) == 1
        assert "no such run directory" in capsys.readouterr().err

    def test_status_corrupt_manifest_fails(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"schema": "gansec-run-')
        assert main(["experiment", "status", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "manifest.json is unreadable" in err
        assert "re-executes every stage" in err

    def test_invalidate_then_resume_reruns_stage(self, rundir, capsys):
        assert main(["experiment", "invalidate", str(rundir), "report"]) == 0
        assert "invalidated" in capsys.readouterr().out
        assert main(["experiment", "status", str(rundir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("report ") for line in lines)

        assert main(
            ["experiment", "--out", str(rundir), "--moves", "6",
             "--iterations", "60", "--seed", "4"]
        ) == 0
        capsys.readouterr()
        assert main(["experiment", "status", str(rundir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("report ") for line in lines)

    def test_invalidate_unknown_stage_fails(self, rundir, capsys):
        assert main(["experiment", "invalidate", str(rundir), "bogus"]) == 1
        assert "bogus" in capsys.readouterr().err


class TestHandlerErrors:
    """A crashing event subscriber makes the command fail, not vanish."""

    @pytest.fixture()
    def crashing_progress(self, monkeypatch):
        from repro.runtime.reporters import ConsoleProgressReporter

        def crash(self, event):
            raise RuntimeError("progress reporter crashed")

        monkeypatch.setattr(ConsoleProgressReporter, "handle", crash)

    def test_experiment_reports_handler_errors(
        self, tmp_path, capsys, crashing_progress
    ):
        rc = main(
            ["experiment", "--out", str(tmp_path / "exp"), "--moves", "4",
             "--iterations", "40", "--seed", "7", "--progress"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "event handler error(s)" in err
        assert "RuntimeError: progress reporter crashed" in err

    def test_stream_reports_handler_errors(self, capsys, crashing_progress):
        rc = main(
            [*TestStreamCommand.COMMON, "--attack-spans", "0", "--progress"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "event handler error(s)" in err
        assert "RuntimeError: progress reporter crashed" in err


class TestRecordCommand:
    """The record stage's sample rate comes from the run's config, which
    rejects a bad rate before the run directory is made."""

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_rejects_bad_sample_rate(self, tmp_path, rate):
        import json

        from repro.errors import ConfigurationError

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_moves_per_axis": 2, "sample_rate": float(rate)}))
        with pytest.raises(ConfigurationError, match="sample_rate must be"):
            main(["experiment", "--out", str(tmp_path / "run"), "--config", str(path)])
        assert not (tmp_path / "run").exists()


class TestFeatureCacheFlag:
    def test_record_populates_and_reuses_cache(self, tmp_path, capsys):
        import numpy as np

        from repro.dsp.cache import FeatureCache

        cache_dir = tmp_path / "fc"
        for name in ("a", "b"):
            assert main(
                ["experiment", "--out", str(tmp_path / name), "--moves", "3",
                 "--iterations", "40", "--seed", "5",
                 "--feature-cache", str(cache_dir)]
            ) == 0
        # Identical seed/config => the second record stage hits the cache
        # entry the first one wrote.
        assert len(FeatureCache(cache_dir)) == 1

        with np.load(tmp_path / "a" / "dataset.npz") as a, \
                np.load(tmp_path / "b" / "dataset.npz") as b:
            np.testing.assert_array_equal(a["features"], b["features"])


class TestProfileFlag:
    def test_experiment_profile_dump(self, tmp_path, capsys):
        import pstats

        out = tmp_path / "exp"
        assert main(
            ["experiment", "--out", str(out), "--moves", "6",
             "--iterations", "60", "--seed", "4", "--profile"]
        ) == 0
        text = capsys.readouterr().out
        assert "profile (pstats) written" in text
        stats = pstats.Stats(str(out / "profile.pstats"))
        assert stats.total_calls > 0

    def test_analyze_profile_dump(self, rundir, capsys):
        import pstats

        assert main(
            ["analyze", "--run", str(rundir), "--g-size", "60", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "VERDICT" in out
        stats = pstats.Stats(str(rundir / "analyze_profile.pstats"))
        assert stats.total_calls > 0
        assert not (rundir / "model" / "analyze_profile.pstats").exists()


class TestStageCommandsShareTheExperimentPath:
    """The read-out commands run on the experiment's pair, train/test
    split and analysis, all read from its run directory."""

    def test_analyze_prints_the_experiment_report(self, rundir, capsys):
        capsys.readouterr()
        assert main(["analyze", "--run", str(rundir)]) == 0
        assert capsys.readouterr().out == (rundir / "report.txt").read_text()

    def test_table1_column_is_the_analyze_table(self, rundir, capsys):
        import re

        from repro.flows.io import load_dataset
        from repro.manufacturing import GCODE_FLOW
        from repro.pipeline.experiment import ExperimentConfig, hydrate_pair_model
        from repro.pipeline.gansec import analyze_pairs
        from repro.pipeline.pairs import FlowPairKey

        capsys.readouterr()
        assert main(["table1", "--run", str(rundir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        ft = int(re.fullmatch(r"Table I \(feature #(\d+)\)", lines[0]).group(1))
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in lines
            if line.startswith("| Cond")
        ]

        config = ExperimentConfig.from_json(rundir / "config.json")
        key = FlowPairKey(config.emission_flow, GCODE_FLOW)
        model = hydrate_pair_model(
            config, rundir / "model", key, load_dataset(rundir / "dataset.npz")
        )
        likelihood = analyze_pairs({key: model}, config)[key].likelihood
        assert [row[1:3] for row in rows] == [
            [f"{cor:.4f}", f"{inc:.4f}"]
            for cor, inc in zip(
                likelihood.avg_correct[:, ft], likelihood.avg_incorrect[:, ft]
            )
        ]

    def test_analyze_profile_leaves_every_stage_ok(self, rundir, capsys):
        assert main(["analyze", "--run", str(rundir), "--profile"]) == 0
        capsys.readouterr()
        assert main(["experiment", "status", str(rundir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(line.split()[1] == "ok" for line in lines)
        assert (rundir / "analyze_profile.pstats").exists()

    def test_table1_refuses_a_model_trained_on_another_split(
        self, rundir, tmp_path, monkeypatch
    ):
        # A re-run under seed 4 writes its config.json first; interrupted
        # in record, it leaves that config beside the seed-3 model, whose
        # held-out rows under seed 4 are rows it trained on.
        import shutil

        import repro.pipeline.experiment as experiment
        from repro.errors import ConfigurationError

        run = tmp_path / "run"
        shutil.copytree(rundir, run)

        def interrupted(**_kwargs):
            raise RuntimeError("interrupted in record")

        monkeypatch.setattr(experiment, "record_case_study_dataset", interrupted)
        with pytest.raises(RuntimeError, match="interrupted in record"):
            main(["experiment", "--out", str(run), "--moves", "3",
                  "--iterations", "40", "--seed", "4"])
        monkeypatch.undo()

        with pytest.raises(ConfigurationError, match="'root_entropy': 3") as info:
            main(["table1", "--run", str(run)])
        assert "'root_entropy': 4" in str(info.value)
        assert "config.json" in str(info.value)


class TestStreamCommand:
    COMMON = [
        "stream", "--synthetic", "--moves", "2", "--seed", "20190325",
        "--g-size", "32", "--rate", "max",
    ]

    def test_requires_exactly_one_source(self, capsys):
        assert main(["stream"]) == 2
        assert "exactly one of --wav or --synthetic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--wav", "t.wav"], "--wav requires --claims"),
            (["--wav", "t.wav", "--claims", "c.json",
              "--calibration-claims", "k.json"],
             "--calibration-claims requires --calibration-wav"),
            (["--synthetic", "--calibration-claims", "k.json"],
             "--calibration-claims requires --calibration-wav"),
            (["--synthetic", "--claims", "c.json"],
             "--claims and --calibration-wav apply to --wav only"),
            (["--synthetic", "--calibration-wav", "k.wav"],
             "--claims and --calibration-wav apply to --wav only"),
        ],
        ids=["wav-no-claims", "wav-cal-claims-no-cal-wav",
             "synthetic-cal-claims", "synthetic-claims", "synthetic-cal-wav"],
    )
    def test_refuses_flags_it_would_ignore(self, capsys, flags, message):
        # Checked before any file is read: none of these paths exist.
        assert main(["stream", *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_synthetic_attack_run_detects(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            [*self.COMMON, "--attack-spans", "2", "--expect-detection",
             "--max-dropped", "0", "--metrics-out", str(metrics_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "windows scored" in out
        assert "alarm windows" in out

        import json

        summary = json.loads(metrics_path.read_text())
        assert summary["n_alarms"] >= 1
        assert summary["windows_dropped"] == 0
        assert summary["attacked_spans"]
        assert summary["windows_per_second"] > 0
        assert "p95_ms" in summary["scoring_latency"]

    def test_clean_run_is_quiet(self, capsys):
        rc = main([*self.COMMON, "--attack-spans", "0"])
        assert rc == 0
        assert "0 alarm(s)" in capsys.readouterr().out

    def test_expect_detection_fails_on_clean_run(self, capsys):
        rc = main([*self.COMMON, "--attack-spans", "0", "--expect-detection"])
        assert rc == 1
        assert "no alarm fired" in capsys.readouterr().err

    def test_wav_roundtrip(self, tmp_path, capsys):
        import json

        import numpy as np

        from repro.flows.energy import EnergyFlowData
        from repro.manufacturing.wav import write_wav
        from repro.streaming import synthetic_printer_stream

        scenario = synthetic_printer_stream(n_moves_per_axis=2, seed=20190325)
        wav_path = tmp_path / "trace.wav"
        write_wav(
            EnergyFlowData(scenario.samples, scenario.sample_rate),
            wav_path,
        )
        claims_path = tmp_path / "claims.json"
        claims_path.write_text(json.dumps({
            "boundaries": [int(b) for b in scenario.claims.boundaries],
            "span_conditions": [int(s) for s in scenario.claims.span_conditions],
            "conditions": np.asarray(scenario.claims.conditions).tolist(),
        }))
        rc = main(
            ["stream", "--wav", str(wav_path), "--claims", str(claims_path),
             "--g-size", "32", "--seed", "20190325", "--max-dropped", "0"]
        )
        assert rc == 0
        assert "windows scored" in capsys.readouterr().out

    def test_calibration_wav_rate_mismatch_is_loud(self, tmp_path):
        import json

        import numpy as np

        from repro.errors import DataError
        from repro.flows.energy import EnergyFlowData
        from repro.manufacturing.wav import write_wav

        samples = np.random.default_rng(0).normal(size=4800)
        write_wav(EnergyFlowData(samples, 12000.0), tmp_path / "trace.wav")
        write_wav(EnergyFlowData(samples, 8000.0), tmp_path / "cal.wav")
        claims_path = tmp_path / "claims.json"
        claims_path.write_text(json.dumps({
            "boundaries": [0, 2400],
            "span_conditions": [0, 1],
            "conditions": [[1.0, 0.0], [0.0, 1.0]],
        }))
        with pytest.raises(DataError, match="8000 Hz"):
            main(
                ["stream", "--wav", str(tmp_path / "trace.wav"),
                 "--calibration-wav", str(tmp_path / "cal.wav"),
                 "--claims", str(claims_path), "--g-size", "16"]
            )

    def test_wav_claims_missing_key_is_loud(self, tmp_path):
        import json

        wav_path = tmp_path / "missing.wav"
        wav_path.write_bytes(b"")
        claims_path = tmp_path / "claims.json"
        claims_path.write_text(json.dumps({"boundaries": [0]}))
        with pytest.raises(SystemExit):
            from repro.cli import _load_claim_track

            _load_claim_track(claims_path)
