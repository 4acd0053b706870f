"""Tests for G2/G3 arc planning."""

import numpy as np
import pytest

from repro.errors import GCodeError
from repro.manufacturing.gcode import GCodeProgram
from repro.manufacturing.kinematics import MotionPlanner


def plan(text):
    return MotionPlanner().plan(GCodeProgram.from_text(text))


def chord_length(segments):
    """Summed XYZ chord length of a motion plan, dwells skipped."""
    return sum(
        float(np.linalg.norm([s.end[a] - s.start[a] for a in "XYZ"]))
        for s in segments
        if not s.is_dwell
    )


class TestArcGeometry:
    def test_quarter_circle_endpoint(self):
        # Start (10,0), center (0,0), CCW to (0,10).
        segs = plan("G90\nG1 F1200 X10 Y0\nG3 X0 Y10 I-10 J0")
        end = segs[-1].end
        assert end["X"] == pytest.approx(0.0, abs=1e-6)
        assert end["Y"] == pytest.approx(10.0, abs=1e-6)

    def test_points_stay_on_circle(self):
        segs = plan("G90\nG1 F1200 X10 Y0\nG3 X0 Y10 I-10 J0")
        arc_segs = [s for s in segs if s.command.code == "G3"]
        for seg in arc_segs:
            r = np.hypot(seg.end["X"], seg.end["Y"])
            assert r == pytest.approx(10.0, abs=1e-6)

    def test_chord_length_approximates_arc(self):
        segs = plan("G90\nG1 F1200 X10 Y0\nG3 X0 Y10 I-10 J0")
        arc_segs = [s for s in segs if s.command.code == "G3"]
        quarter = np.pi * 10.0 / 2.0
        assert chord_length(arc_segs) == pytest.approx(quarter, rel=0.01)
        # Tolerance-driven tessellation: a 10 mm quarter arc needs many chords.
        assert len(arc_segs) >= 5

    def test_clockwise_direction(self):
        # G2 from (10,0) about (0,0) to (0,-10) is a quarter turn CW.
        segs = plan("G90\nG1 F1200 X10 Y0\nG2 X0 Y-10 I-10 J0")
        arc_segs = [s for s in segs if s.command.code == "G2"]
        assert chord_length(arc_segs) == pytest.approx(np.pi * 5.0, rel=0.01)
        # Midpoint should be in the fourth quadrant (x>0, y<0).
        mid = arc_segs[len(arc_segs) // 2].end
        assert mid["X"] > 0 and mid["Y"] < 0

    def test_full_circle(self):
        # Same start and end: a G3 full circle.
        segs = plan("G90\nG1 F1200 X10 Y0\nG3 X10 Y0 I-10 J0")
        arc_segs = [s for s in segs if s.command.code == "G3"]
        assert chord_length(arc_segs) == pytest.approx(2 * np.pi * 10.0, rel=0.01)

    def test_both_axes_active(self):
        segs = plan("G90\nG1 F1200 X10 Y0\nG3 X0 Y10 I-10 J0")
        arc_segs = [s for s in segs if s.command.code == "G3"]
        # Mid-arc chords move X and Y together.
        assert any(s.active_axes == {"X", "Y"} for s in arc_segs)


class TestArcErrors:
    def test_missing_center(self):
        with pytest.raises(GCodeError, match="without I/J"):
            plan("G90\nG1 F1200 X10\nG3 X0 Y10")

    def test_r_form_unsupported(self):
        with pytest.raises(GCodeError, match="R-form"):
            plan("G90\nG1 F1200 X10\nG3 X0 Y10 R10")

    def test_zero_radius(self):
        with pytest.raises(GCodeError, match="zero-radius"):
            plan("G90\nG1 F1200 X10\nG3 X0 Y10 I0 J0")

    def test_endpoint_off_circle(self):
        with pytest.raises(GCodeError, match="off the circle"):
            plan("G90\nG1 F1200 X10 Y0\nG3 X0 Y20 I-10 J0")


class TestArcAcoustics:
    def test_arc_renders_audio(self):
        from repro.manufacturing import Printer3D

        printer = Printer3D(sample_rate=12000.0, seed=0)
        prog = GCodeProgram.from_text(
            "G90\nG1 F1200 X10 Y0\nG3 X0 Y10 I-10 J0"
        )
        run = printer.run(prog, seed=1)
        assert run.audio.duration > 0.5  # Quarter arc at 20 mm/s.
