"""Tests for reloading a trained pair model.

The one on-disk model layout is a :func:`~repro.gan.serialization.save_cgan`
directory; :func:`~repro.pipeline.experiment.hydrate_pair_model` loads it
and re-derives the pair's train/test split from the pipeline seed.
"""

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.gan.serialization import save_cgan
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig
from repro.pipeline.experiment import hydrate_pair_model

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
