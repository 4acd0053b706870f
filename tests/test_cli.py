"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_record_args(self):
        args = build_parser().parse_args(
            ["record", "--out", "x.npz", "--moves", "10", "--seed", "3"]
        )
        assert args.moves == 10
        assert args.seed == 3

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


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
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli")

    def test_record_train_analyze_table1(self, workdir, capsys):
        ds = workdir / "ds.npz"
        model = workdir / "model"
        assert main(
            ["record", "--out", str(ds), "--moves", "8", "--seed", "1",
             "--bins", "40"]
        ) == 0
        assert ds.exists()

        assert main(
            ["train", "--dataset", str(ds), "--out", str(model),
             "--iterations", "120", "--seed", "1"]
        ) == 0
        assert (model / "cgan.json").exists()
        out = capsys.readouterr().out
        assert "final losses" in out

        assert main(
            ["analyze", "--dataset", str(ds), "--model", str(model),
             "--g-size", "60", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "VERDICT" in out

        assert main(
            ["table1", "--dataset", str(ds), "--model", str(model),
             "--g-size", "60", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "h=0.2 Cor" in out


class TestDetectCommand:
    def test_detect_reports_roc(self, tmp_path, capsys):
        ds = tmp_path / "ds.npz"
        model = tmp_path / "model"
        assert main(
            ["record", "--out", str(ds), "--moves", "8", "--seed", "2",
             "--bins", "40"]
        ) == 0
        assert main(
            ["train", "--dataset", str(ds), "--out", str(model),
             "--iterations", "150", "--seed", "2"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["detect", "--dataset", str(ds), "--model", str(model),
             "--g-size", "60", "--seed", "2", "--top-features", "10"]
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
    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_rejects_bad_sample_rate(self, tmp_path, rate):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="sample_rate must be"):
            main(["record", "--out", str(tmp_path / "ds.npz"), "--moves", "2",
                  "--sample-rate", rate])
        assert not (tmp_path / "ds.npz").exists()


class TestFeatureCacheFlag:
    def test_record_populates_and_reuses_cache(self, tmp_path, capsys):
        from repro.dsp.cache import FeatureCache

        cache_dir = tmp_path / "fc"
        for name in ("a.npz", "b.npz"):
            assert main(
                ["record", "--out", str(tmp_path / name), "--moves", "6",
                 "--seed", "5", "--bins", "30",
                 "--feature-cache", str(cache_dir)]
            ) == 0
        # Identical seed/config => second run hits the cache entry the
        # first run wrote.
        assert len(FeatureCache(cache_dir)) == 1

        import numpy as np

        a = np.load(tmp_path / "a.npz")
        b = np.load(tmp_path / "b.npz")
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

    def test_analyze_profile_dump(self, tmp_path, capsys):
        import pstats

        ds = tmp_path / "ds.npz"
        model = tmp_path / "model"
        assert main(
            ["record", "--out", str(ds), "--moves", "8", "--seed", "1",
             "--bins", "40"]
        ) == 0
        assert main(
            ["train", "--dataset", str(ds), "--out", str(model),
             "--iterations", "100", "--seed", "1"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["analyze", "--dataset", str(ds), "--model", str(model),
             "--g-size", "60", "--seed", "1", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "VERDICT" in out
        stats = pstats.Stats(str(tmp_path / "analyze_profile.pstats"))
        assert stats.total_calls > 0
        assert not (model / "analyze_profile.pstats").exists()


class TestStageCommandsShareTheExperimentPath:
    """The stage commands run on an experiment directory reproduce its
    artifacts: same pair, same train/test split, same trainer."""

    SEED = "3"

    @pytest.fixture(scope="class")
    def rundir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("stage-cmds") / "run"
        assert main(
            ["experiment", "--out", str(out), "--moves", "3",
             "--iterations", "40", "--seed", self.SEED]
        ) == 0
        return out

    def test_analyze_prints_the_experiment_report(self, rundir, capsys):
        capsys.readouterr()
        assert main(
            ["analyze", "--dataset", str(rundir / "dataset.npz"),
             "--model", str(rundir / "model"), "--seed", self.SEED]
        ) == 0
        assert capsys.readouterr().out == (rundir / "report.txt").read_text()

    def test_train_reproduces_the_experiment_model(self, rundir, tmp_path, capsys):
        import json

        import numpy as np

        out = tmp_path / "model"
        assert main(
            ["train", "--dataset", str(rundir / "dataset.npz"), "--out", str(out),
             "--iterations", "40", "--seed", self.SEED]
        ) == 0
        assert (out / "history.csv").read_bytes() == (rundir / "history.csv").read_bytes()
        assert json.loads((out / "cgan.json").read_text()) == json.loads(
            (rundir / "model" / "cgan.json").read_text()
        )
        for net in ("generator.npz", "discriminator.npz"):
            with np.load(out / net) as got, np.load(rundir / "model" / net) as want:
                assert sorted(got.files) == sorted(want.files)
                for name in want.files:
                    np.testing.assert_array_equal(got[name], want[name])

    def test_analyze_profile_leaves_every_stage_ok(self, rundir, capsys):
        assert main(
            ["analyze", "--dataset", str(rundir / "dataset.npz"),
             "--model", str(rundir / "model"), "--seed", self.SEED, "--profile"]
        ) == 0
        capsys.readouterr()
        assert main(["experiment", "status", str(rundir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(line.split()[1] == "ok" for line in lines)
        assert (rundir / "analyze_profile.pstats").exists()

    def test_table1_refuses_a_model_trained_on_another_split(
        self, rundir, tmp_path, capsys
    ):
        # Under seed 4 the held-out rows of the seed-3 model are rows
        # it trained on; the model directory records its split.
        from repro.errors import ConfigurationError

        dataset, model = str(rundir / "dataset.npz"), str(tmp_path / "model")
        assert main(
            ["train", "--dataset", dataset, "--out", model,
             "--iterations", "40", "--seed", self.SEED]
        ) == 0
        for where in (model, str(rundir / "model")):
            with pytest.raises(ConfigurationError, match="'root_entropy': 3") as info:
                main(["table1", "--dataset", dataset, "--model", where, "--seed", "4"])
            assert "'root_entropy': 4" in str(info.value)


class TestStreamCommand:
    COMMON = [
        "stream", "--synthetic", "--moves", "2", "--seed", "20190325",
        "--g-size", "32", "--rate", "max",
    ]

    def test_requires_exactly_one_source(self, capsys):
        assert main(["stream"]) == 2
        assert "exactly one of --wav or --synthetic" in capsys.readouterr().err

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
