"""Tests for GANSec pipeline save/load."""

import numpy as np
import pytest

from repro.errors import NotFittedError, SerializationError
from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig
from repro.pipeline.gansec import PairModel


@pytest.fixture(scope="module")
def trained_pipeline(case_dataset):
    pipe = GANSec(
        printer_architecture(),
        GANSecConfig(cgan=CGANConfig(iterations=100), seed=1),
    )
    pipe.run({FlowPairKey("F18", GCODE_FLOW): case_dataset})
    return pipe


class TestSaveLoad:
    def test_roundtrip_generator_outputs(self, trained_pipeline, tmp_path):
        trained_pipeline.save(tmp_path / "models")

        fresh = GANSec(printer_architecture(), GANSecConfig(seed=2))
        loaded = fresh.load(tmp_path / "models")
        assert FlowPairKey("F18", GCODE_FLOW) in loaded

        original = trained_pipeline.models[FlowPairKey("F18", GCODE_FLOW)]
        restored = fresh.models[FlowPairKey("F18", GCODE_FLOW)]
        cond = original.test_set.unique_conditions()[0]
        np.testing.assert_allclose(
            original.cgan.generate_for_condition(cond, 4, seed=9),
            restored.cgan.generate_for_condition(cond, 4, seed=9),
        )
        np.testing.assert_array_equal(
            original.test_set.features, restored.test_set.features
        )

    def test_loaded_pipeline_can_analyze(self, trained_pipeline, tmp_path):
        trained_pipeline.save(tmp_path / "m2")
        fresh = GANSec(printer_architecture(), GANSecConfig(seed=3))
        fresh.load(tmp_path / "m2")
        reports = fresh.analyze()
        assert FlowPairKey("F18", GCODE_FLOW) in reports

    def test_save_without_models_raises(self, tmp_path):
        pipe = GANSec(printer_architecture(), GANSecConfig(seed=0))
        with pytest.raises(NotFittedError):
            pipe.save(tmp_path / "empty")

    def test_load_missing_directory(self, tmp_path):
        pipe = GANSec(printer_architecture(), GANSecConfig(seed=0))
        with pytest.raises(SerializationError):
            pipe.load(tmp_path / "absent")

    def test_load_empty_directory(self, tmp_path):
        (tmp_path / "hollow").mkdir()
        pipe = GANSec(printer_architecture(), GANSecConfig(seed=0))
        with pytest.raises(SerializationError, match="no pair models"):
            pipe.load(tmp_path / "hollow")


def _tiny_pair_model(key) -> PairModel:
    rng = np.random.default_rng(0)
    dataset = FlowPairDataset(
        rng.uniform(size=(24, 3)), np.tile(np.eye(2), (12, 1)), name=str(key)
    )
    train, test = dataset.split(0.25, seed=0)
    cgan = ConditionalGAN(3, 2, noise_dim=4, seed=0)
    cgan.train(train, iterations=10, batch_size=8)
    return PairModel(pair_names=key, cgan=cgan, train_set=train, test_set=test)


class TestHostilePairNames:
    """Pair identity must survive names the directory layout can't encode.

    The legacy layout encoded names as ``<first>__<second>`` and split
    on the first ``__`` at load time — any flow name containing ``__``
    (or path metacharacters) came back corrupted.  Identity now lives
    in a per-pair manifest.json.
    """

    HOSTILE_KEYS = [
        FlowPairKey("A__B", "C"),          # legacy separator inside a name
        FlowPairKey("left__", "__right"),  # separator at the edges
        FlowPairKey("with/slash", "dot..dot"),
        FlowPairKey("F18", "F1"),          # plain names keep working too
    ]

    def _pipeline_with_models(self):
        pipe = GANSec(printer_architecture(), GANSecConfig(seed=0))
        for key in self.HOSTILE_KEYS:
            pipe.models[key] = _tiny_pair_model(key)
        return pipe

    def test_roundtrip_preserves_exact_names(self, tmp_path):
        pipe = self._pipeline_with_models()
        pipe.save(tmp_path / "models")

        fresh = GANSec(printer_architecture(), GANSecConfig(seed=1))
        loaded = fresh.load(tmp_path / "models")
        assert set(loaded) == set(self.HOSTILE_KEYS)
        for key in self.HOSTILE_KEYS:
            original = pipe.models[key]
            restored = fresh.models[key]
            assert restored.pair_names == key
            cond = original.test_set.unique_conditions()[0]
            np.testing.assert_allclose(
                original.cgan.generate_for_condition(cond, 3, seed=5),
                restored.cgan.generate_for_condition(cond, 3, seed=5),
            )

    def test_manifest_written_per_pair(self, tmp_path):
        pipe = self._pipeline_with_models()
        pipe.save(tmp_path / "models")
        pair_dirs = [p for p in (tmp_path / "models").iterdir() if p.is_dir()]
        assert len(pair_dirs) == len(self.HOSTILE_KEYS)
        for pair_dir in pair_dirs:
            assert (pair_dir / "manifest.json").exists()

    def test_hostile_names_never_leak_into_paths(self, tmp_path):
        pipe = self._pipeline_with_models()
        pipe.save(tmp_path / "models")
        for pair_dir in (tmp_path / "models").iterdir():
            assert "/" not in pair_dir.name
            assert ".." not in pair_dir.name

    def test_legacy_layout_still_loads(self, tmp_path):
        """Directories written before manifests (name-encoded) load fine."""
        model = _tiny_pair_model(FlowPairKey("F18", "F1"))
        legacy_dir = tmp_path / "models" / "F18__F1"

        from repro.flows.io import save_dataset
        from repro.gan.serialization import save_cgan

        save_cgan(model.cgan, legacy_dir / "cgan")
        save_dataset(model.train_set, legacy_dir / "train.npz")
        save_dataset(model.test_set, legacy_dir / "test.npz")

        pipe = GANSec(printer_architecture(), GANSecConfig(seed=0))
        loaded = pipe.load(tmp_path / "models")
        assert FlowPairKey("F18", "F1") in loaded

    def test_corrupt_manifest_rejected(self, tmp_path):
        pipe = self._pipeline_with_models()
        pipe.save(tmp_path / "models")
        victim = next(
            p for p in (tmp_path / "models").iterdir() if p.is_dir()
        )
        (victim / "manifest.json").write_text("{not json")
        fresh = GANSec(printer_architecture(), GANSecConfig(seed=0))
        with pytest.raises(SerializationError, match="manifest"):
            fresh.load(tmp_path / "models")
