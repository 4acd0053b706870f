"""Tests for reloading a trained pair model.

The one on-disk model layout is a :func:`~repro.gan.serialization.save_cgan`
directory; :func:`~repro.pipeline.experiment.save_pair_model` adds the
identity of the pair's train/test split to it.
:func:`~repro.pipeline.experiment.hydrate_pair_model` loads either and
re-derives the split from the config's seed.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.gan.serialization import save_cgan
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import ExperimentConfig, FlowPairKey, analyze_pairs, train_pairs
from repro.pipeline.experiment import SPLIT_NAME, hydrate_pair_model, save_pair_model

KEY = FlowPairKey("F18", GCODE_FLOW)


def _config(seed=1, **kwargs):
    return ExperimentConfig(iterations=100, seed=seed, **kwargs)


@pytest.fixture(scope="module")
def trained_model(case_dataset):
    return train_pairs(printer_architecture(), {KEY: case_dataset}, _config())[KEY]


class TestSaveLoad:
    def test_roundtrip_generator_outputs(self, trained_model, case_dataset, tmp_path):
        save_cgan(trained_model.cgan, tmp_path / "model")

        restored = hydrate_pair_model(_config(), tmp_path / "model", KEY, case_dataset)
        assert restored.key == KEY

        original = trained_model
        cond = original.test_set.unique_conditions()[0]
        np.testing.assert_array_equal(
            original.cgan.generate_for_condition(cond, 4, seed=9),
            restored.cgan.generate_for_condition(cond, 4, seed=9),
        )
        for split in ("train_set", "test_set"):
            for field in ("features", "conditions"):
                np.testing.assert_array_equal(
                    getattr(getattr(original, split), field),
                    getattr(getattr(restored, split), field),
                )

    def test_loaded_pipeline_can_analyze(self, trained_model, case_dataset, tmp_path):
        save_cgan(trained_model.cgan, tmp_path / "m2")
        restored = hydrate_pair_model(_config(), tmp_path / "m2", KEY, case_dataset)
        reports = analyze_pairs({KEY: restored}, _config())
        assert set(reports) == {KEY}
        original = analyze_pairs({KEY: trained_model}, _config())[KEY]
        assert reports[KEY].to_text() == original.to_text()

    def test_load_missing_directory(self, case_dataset, tmp_path):
        with pytest.raises(SerializationError, match="no CGAN metadata"):
            hydrate_pair_model(_config(), tmp_path / "absent", KEY, case_dataset)

    def test_load_empty_directory(self, case_dataset, tmp_path):
        (tmp_path / "hollow").mkdir()
        with pytest.raises(SerializationError, match="no CGAN metadata"):
            hydrate_pair_model(_config(), tmp_path / "hollow", KEY, case_dataset)


class TestSplitRecord:
    """A pair-model directory records the split its model trained on."""

    def test_saved_split_reloads(self, trained_model, case_dataset, tmp_path):
        save_pair_model(_config(), trained_model, tmp_path / "model")
        restored = hydrate_pair_model(_config(), tmp_path / "model", KEY, case_dataset)
        np.testing.assert_array_equal(
            restored.test_set.features, trained_model.test_set.features
        )

    def test_other_seed_is_refused(self, trained_model, case_dataset, tmp_path):
        save_pair_model(_config(), trained_model, tmp_path / "model")
        with pytest.raises(ConfigurationError, match="'root_entropy': 1.*'root_entropy': 2"):
            hydrate_pair_model(_config(seed=2), tmp_path / "model", KEY, case_dataset)

    def test_other_test_fraction_is_refused(
        self, trained_model, case_dataset, tmp_path
    ):
        save_pair_model(_config(), trained_model, tmp_path / "model")
        with pytest.raises(ConfigurationError, match="test_fraction"):
            hydrate_pair_model(
                _config(test_fraction=0.5), tmp_path / "model", KEY, case_dataset
            )

    @pytest.mark.parametrize("text", ["{broken", "[1, 2]"])
    def test_corrupt_split_record(
        self, trained_model, case_dataset, tmp_path, text
    ):
        directory = save_pair_model(_config(), trained_model, tmp_path / "model")
        (directory / SPLIT_NAME).write_text(text)
        with pytest.raises(SerializationError, match="split record"):
            hydrate_pair_model(_config(), directory, KEY, case_dataset)
