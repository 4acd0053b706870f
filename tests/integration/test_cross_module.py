"""Gap-filling integration tests across module boundaries."""

from collections import Counter

import numpy as np
import pytest

from repro.flows.encoding import SingleMotorEncoder, condition_label
from repro.manufacturing import (
    MotionPlanner,
    Printer3D,
    circle_program,
    collect_segments,
    rectangle_program,
)
from repro.security import EmissionModel, roc_curve
from repro.security.mutual_information import condition_entropy_bits


class TestSignalFlowFromPlans:
    """The cyber-side signal flow (the G-code conditions) of planned programs."""

    def test_rectangle_condition_statistics(self):
        segs = MotionPlanner().plan(rectangle_program(20, 10, n_loops=3))
        actives = [s.active_axes for s in segs if s.active_axes]
        counts = Counter(condition_label(a) for a in actives)
        # A rectangle alternates X and Y equally.
        assert counts["X"] / len(actives) == pytest.approx(0.5, abs=0.1)
        assert counts["Y"] / len(actives) == pytest.approx(0.5, abs=0.1)
        conditions = SingleMotorEncoder().encode_many(actives)
        assert condition_entropy_bits(conditions) > 0.9


class TestArcsThroughFullStack:
    def test_circle_produces_xy_emissions(self):
        printer = Printer3D(sample_rate=12000.0, seed=0)
        run = printer.run(circle_program(12.0, feed=1500.0), seed=1)
        segs = collect_segments([run], min_duration=0.0)
        # Arc chords activate both X and Y most of the time.
        xy = [s for s in segs if s.active_axes == frozenset({"X", "Y"})]
        assert len(xy) > len(segs) / 2


class TestDetectorRocIntegration:
    def test_detector_scores_feed_roc_curve(self, toy_dataset):
        conds = toy_dataset.unique_conditions()

        def oracle(cond, n, rng):
            center = 0.2 if cond[0] == 1.0 else 0.8
            return np.clip(rng.normal(center, 0.05, size=(n, 4)), 0, 1)

        detector = EmissionModel(oracle, conds, h=0.1, root_entropy=0)
        clean = detector.score(toy_dataset.features, toy_dataset.conditions)
        attacked = detector.score(
            toy_dataset.features, toy_dataset.conditions[:, ::-1]
        )
        curve = roc_curve(clean, attacked)
        assert curve.auc > 0.95
        thr = curve.threshold_for_fpr(0.05)
        fpr, tpr = curve.operating_point(thr)
        assert fpr <= 0.05
        assert tpr > 0.8
