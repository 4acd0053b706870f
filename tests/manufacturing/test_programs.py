"""Tests for repro.manufacturing.programs."""

import pytest

from repro.errors import ConfigurationError
from repro.manufacturing.kinematics import MotionPlanner
from repro.manufacturing.programs import (
    calibration_suite,
    layered_object_program,
    random_single_motor_sequence,
    rectangle_program,
    single_motor_program,
)


def active_sets(program):
    return [seg.active_axes for seg in MotionPlanner().plan(program)]


class TestSingleMotor:
    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_only_one_motor_moves(self, axis):
        prog = single_motor_program(axis, 10, seed=0)
        for active in active_sets(prog):
            assert active <= {axis}, f"unexpected axes {active}"

    def test_move_count(self):
        prog = single_motor_program("X", 12, seed=1)
        motion = [s for s in active_sets(prog) if s]
        assert len(motion) == 12

    def test_deterministic(self):
        a = single_motor_program("Y", 5, seed=3).to_text()
        b = single_motor_program("Y", 5, seed=3).to_text()
        assert a == b

    def test_varied_feeds(self):
        prog = single_motor_program("X", 20, seed=0)
        feeds = {c.params.get("F") for c in prog.motion_commands()}
        assert len(feeds) > 5

    def test_rejects_bad_axis(self):
        with pytest.raises(ConfigurationError):
            single_motor_program("Q", 5)

    def test_rejects_zero_moves(self):
        with pytest.raises(ConfigurationError):
            single_motor_program("X", 0)


class TestCalibrationSuite:
    def test_one_program_per_axis(self):
        progs = calibration_suite(5, seed=0)
        assert len(progs) == 3
        assert {p.name for p in progs} == {"calib-x", "calib-y", "calib-z"}

    def test_reproducible(self):
        a = [p.to_text() for p in calibration_suite(5, seed=9)]
        b = [p.to_text() for p in calibration_suite(5, seed=9)]
        assert a == b


class TestShapes:
    def test_rectangle_single_axis_property(self):
        prog = rectangle_program(20, 10, n_loops=2)
        for active in active_sets(prog):
            assert len(active) <= 1

    def test_rectangle_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            rectangle_program(0, 10)

    def test_layered_object_has_multi_axis_moves(self):
        prog = layered_object_program(2)
        sets = active_sets(prog)
        assert any(a == {"X", "Y"} for a in sets)
        assert any(a == {"Z"} for a in sets)

    def test_layered_object_with_extrusion(self):
        prog = layered_object_program(1, with_extrusion=True)
        sets = active_sets(prog)
        assert any("E" in a for a in sets)


class TestRandomSequence:
    def test_single_axis_per_move(self):
        prog = random_single_motor_sequence(15, seed=0)
        for active in active_sets(prog):
            assert len(active) <= 1

    def test_covers_multiple_axes(self):
        prog = random_single_motor_sequence(30, seed=1)
        axes = set().union(*active_sets(prog))
        assert len(axes) >= 2

    def test_deterministic(self):
        a = random_single_motor_sequence(8, seed=5).to_text()
        b = random_single_motor_sequence(8, seed=5).to_text()
        assert a == b


class TestCircleProgram:
    def test_closes_loop(self):
        from repro.manufacturing.programs import circle_program

        prog = circle_program(10.0)
        segs = MotionPlanner().plan(prog)
        end = segs[-1].end
        assert abs(end["X"] - 20.0) < 1e-6
        assert abs(end["Y"]) < 1e-6

    def test_arc_length(self):
        import numpy as np

        from repro.manufacturing.programs import circle_program

        segs = MotionPlanner().plan(circle_program(10.0))
        arc_segs = [s for s in segs if s.command.code == "G2"]
        # Summed XYZ chord length of the arc segments (no dwells here).
        length = sum(
            float(np.linalg.norm([s.end[a] - s.start[a] for a in "XYZ"]))
            for s in arc_segs
        )
        assert abs(length - 2 * np.pi * 10.0) / (2 * np.pi * 10.0) < 0.01

    def test_rejects_bad_params(self):
        from repro.manufacturing.programs import circle_program

        with pytest.raises(ConfigurationError):
            circle_program(0.0)
        with pytest.raises(ConfigurationError):
            circle_program(5.0, n_loops=0)
