"""Integration tests: the whole GAN-Sec story on the simulated printer.

These tests exercise the exact flow a user of the library follows:
simulate → featureize → Algorithm 1 → Algorithm 2 → Algorithm 3 →
attack/detection analyses — asserting the *qualitative* results the
paper reports (leakage above chance, Cor > Inc, detectable attacks).
The accuracy claims are asserted on their mean over the recording seeds
of ``case_study_sweep``: each one scores 12 rows, so one seed can be
lucky or unlucky by two rows.
"""

import numpy as np

from repro.graph import generate
from repro.manufacturing import (
    Printer3D,
    build_dataset,
    collect_segments,
    monitored_flow_names,
    printer_architecture,
    random_single_motor_sequence,
)
from repro.security import (
    EmissionModel,
    axis_swap_attack,
    security_analysis,
)


class TestPaperStory:
    def test_algorithm1_selects_case_study_pairs(self):
        res = generate(printer_architecture(), monitored_flow_names())
        cross = res.cross_domain_pairs()
        assert len(cross) == 5
        assert all(fp.second.name in monitored_flow_names() for fp in cross)

    def test_confidentiality_leakage_above_chance(self, case_study_sweep):
        accuracies = []
        for _study, (_train, test), cgan in case_study_sweep:
            attacker = EmissionModel(
                cgan, test.unique_conditions(), h=0.2, root_entropy=0
            )
            accuracies.append(attacker.leakage(test).accuracy)
        assert np.mean(accuracies) > 0.5, accuracies  # Chance is 1/3.

    def test_algorithm3_margin_positive_on_average(self, trained_cgan, case_split):
        _train, test = case_split
        res = security_analysis(
            trained_cgan, test, h=0.2, g_size=100, root_entropy=0
        )
        # Averaged over all features and conditions, correct likelihood
        # exceeds incorrect likelihood: the generator learned the
        # conditional structure (Table I's qualitative claim).
        assert res.margin().mean() > 0.0

    def test_integrity_attack_detected(self, trained_cgan, case_split):
        train, test = case_split
        detector = EmissionModel(
            trained_cgan, train.unique_conditions(), h=0.2, root_entropy=0
        )
        threshold = detector.calibrate(train, false_positive_rate=0.1)
        attack_features, attack_claims = axis_swap_attack(test, seed=1)
        report = detector.detection(
            test, attack_features, attack_claims, threshold=threshold
        )
        assert report.auc > 0.5


class TestSecretObjectAttack:
    """Attacker reconstructs the motor sequence of an unseen program."""

    def test_reconstruction_beats_chance(self, case_study_sweep):
        printer = Printer3D(sample_rate=12000.0, seed=321)
        secret = random_single_motor_sequence(12, seed=77)
        segments = collect_segments([printer.run(secret, seed=78)])
        accuracies, chances = [], []
        for (_ds, extractor, encoder, _runs), _split, cgan in case_study_sweep:
            secret_ds = build_dataset(
                segments, extractor, encoder, fit_extractor=False
            )
            attacker = EmissionModel(
                cgan, secret_ds.unique_conditions(), h=0.2, root_entropy=0
            )
            report = attacker.leakage(secret_ds)
            accuracies.append(report.accuracy)
            chances.append(report.chance_accuracy)
        assert np.mean(accuracies) > np.mean(chances), accuracies


class TestFullPipelineConsistency:
    def test_feature_dims_consistent_everywhere(self, case_study):
        ds, extractor, _encoder, _runs = case_study
        assert ds.feature_dim == extractor.n_bins
        assert extractor.frequencies[0] >= 50.0
        assert extractor.frequencies[-1] <= 5000.0

    def test_generated_samples_in_feature_range(self, trained_cgan, case_split):
        _train, test = case_split
        for cond in test.unique_conditions():
            samples = trained_cgan.generate_for_condition(cond, 50, seed=0)
            assert samples.min() >= 0.0
            assert samples.max() <= 1.0
