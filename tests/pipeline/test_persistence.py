"""Tests for reloading a trained pair model.

The one on-disk model layout is a :func:`~repro.gan.serialization.save_cgan`
directory; :func:`~repro.pipeline.experiment.save_pair_model` adds the
identity of the pair's train/test split to it.
:func:`~repro.pipeline.experiment.hydrate_pair_model` loads either and
re-derives the split from the pipeline seed.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SerializationError
from repro.gan.serialization import save_cgan
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import (
    AnalysisConfig,
    CGANConfig,
    FlowPairKey,
    GANSec,
    GANSecConfig,
)
from repro.pipeline.experiment import SPLIT_NAME, hydrate_pair_model, save_pair_model

KEY = FlowPairKey("F18", GCODE_FLOW)


def _pipeline(seed=1):
    return GANSec(
        printer_architecture(),
        GANSecConfig(cgan=CGANConfig(iterations=100), seed=seed),
    )


@pytest.fixture(scope="module")
def trained_pipeline(case_dataset):
    pipe = _pipeline()
    pipe.run({KEY: case_dataset})
    return pipe


class TestSaveLoad:
    def test_roundtrip_generator_outputs(self, trained_pipeline, case_dataset, tmp_path):
        save_cgan(trained_pipeline.models[KEY].cgan, tmp_path / "model")

        fresh = _pipeline()
        restored = hydrate_pair_model(fresh, tmp_path / "model", KEY, case_dataset)
        assert fresh.models[KEY] is restored

        original = trained_pipeline.models[KEY]
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

    def test_loaded_pipeline_can_analyze(self, trained_pipeline, case_dataset, tmp_path):
        save_cgan(trained_pipeline.models[KEY].cgan, tmp_path / "m2")
        fresh = _pipeline()
        hydrate_pair_model(fresh, tmp_path / "m2", KEY, case_dataset)
        reports = fresh.analyze()
        assert set(reports) == {KEY}
        original = trained_pipeline.models[KEY].report
        assert reports[KEY].to_text() == original.to_text()

    def test_load_missing_directory(self, case_dataset, tmp_path):
        with pytest.raises(SerializationError, match="no CGAN metadata"):
            hydrate_pair_model(_pipeline(), tmp_path / "absent", KEY, case_dataset)

    def test_load_empty_directory(self, case_dataset, tmp_path):
        (tmp_path / "hollow").mkdir()
        pipe = _pipeline()
        with pytest.raises(SerializationError, match="no CGAN metadata"):
            hydrate_pair_model(pipe, tmp_path / "hollow", KEY, case_dataset)
        assert pipe.models == {}


class TestSplitRecord:
    """A pair-model directory records the split its model trained on."""

    def test_saved_split_reloads(self, trained_pipeline, case_dataset, tmp_path):
        save_pair_model(trained_pipeline, KEY, tmp_path / "model")
        restored = hydrate_pair_model(_pipeline(), tmp_path / "model", KEY, case_dataset)
        np.testing.assert_array_equal(
            restored.test_set.features, trained_pipeline.models[KEY].test_set.features
        )

    def test_other_seed_is_refused(self, trained_pipeline, case_dataset, tmp_path):
        save_pair_model(trained_pipeline, KEY, tmp_path / "model")
        pipe = _pipeline(seed=2)
        with pytest.raises(ConfigurationError, match="'root_entropy': 1.*'root_entropy': 2"):
            hydrate_pair_model(pipe, tmp_path / "model", KEY, case_dataset)
        assert pipe.models == {}

    def test_other_test_fraction_is_refused(
        self, trained_pipeline, case_dataset, tmp_path
    ):
        save_pair_model(trained_pipeline, KEY, tmp_path / "model")
        pipe = GANSec(
            printer_architecture(),
            GANSecConfig(
                cgan=CGANConfig(iterations=100),
                analysis=AnalysisConfig(test_fraction=0.5),
                seed=1,
            ),
        )
        with pytest.raises(ConfigurationError, match="test_fraction"):
            hydrate_pair_model(pipe, tmp_path / "model", KEY, case_dataset)

    @pytest.mark.parametrize("text", ["{broken", "[1, 2]"])
    def test_corrupt_split_record(
        self, trained_pipeline, case_dataset, tmp_path, text
    ):
        directory = save_pair_model(trained_pipeline, KEY, tmp_path / "model")
        (directory / SPLIT_NAME).write_text(text)
        with pytest.raises(SerializationError, match="split record"):
            hydrate_pair_model(_pipeline(), directory, KEY, case_dataset)
