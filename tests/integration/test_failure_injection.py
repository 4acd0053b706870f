"""Failure injection: the pipeline must fail loudly on degenerate input."""

import numpy as np
import pytest

from repro.errors import (
    ArchitectureError,
    DataError,
    GCodeError,
)
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.dataset import FlowPairDataset
from repro.flows.encoding import SingleMotorEncoder
from repro.gan import ConditionalGAN
from repro.graph import CPPSArchitecture, SubSystem, cyber, generate
from repro.manufacturing import GCodeProgram, Printer3D, build_dataset
from repro.manufacturing.traces import RecordedSegment
from repro.security import security_analysis


class TestCorruptedPrograms:
    def test_corrupted_gcode_rejected_at_parse(self):
        with pytest.raises(GCodeError):
            GCodeProgram.from_text("G1 X10\nG1 <garbage>")

    def test_empty_program_produces_no_audio(self):
        printer = Printer3D(sample_rate=12000.0, seed=0)
        prog = GCodeProgram.from_text("G21\nG90")
        with pytest.raises(DataError):
            # No motion -> empty trace -> EnergyFlowData refuses it.
            printer.run(prog, seed=0)


class TestDegenerateDatasets:
    def test_single_condition_dataset_unsplittable_if_tiny(self):
        ds = FlowPairDataset(np.random.rand(1, 4), np.array([[1.0, 0.0]]))
        with pytest.raises(DataError):
            ds.split(0.5)

    def test_unencodable_segments_rejected(self):
        seg = RecordedSegment(
            samples=np.random.default_rng(0).normal(size=1200),
            active_axes=frozenset({"X", "Y"}),  # Not single-motor.
            program_name="p",
            segment_index=0,
        )
        ex = FrequencyFeatureExtractor(12000.0, n_bins=10)
        with pytest.raises(DataError, match="representable"):
            build_dataset([seg], ex, SingleMotorEncoder())

    def test_nan_features_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            FlowPairDataset(
                np.array([[np.nan, 1.0]]), np.array([[1.0, 0.0]])
            )


class TestDegenerateArchitectures:
    def test_empty_architecture(self):
        with pytest.raises(ArchitectureError):
            generate(CPPSArchitecture("empty"), set())

    def test_flowless_architecture(self):
        arch = CPPSArchitecture("x")
        arch.add_subsystem(SubSystem("s", [cyber("C1"), cyber("C2")]))
        with pytest.raises(ArchitectureError):
            generate(arch, set())


class TestModelMisuse:
    def test_untrained_generator_in_algorithm3(self, toy_dataset):
        cgan = ConditionalGAN(4, 2, noise_dim=4, seed=0)
        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            security_analysis(cgan, toy_dataset, h=0.2)

    def test_training_on_empty_features_impossible(self):
        with pytest.raises(DataError):
            FlowPairDataset(np.zeros((0, 4)), np.zeros((0, 2)))
