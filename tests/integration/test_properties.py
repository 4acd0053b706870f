"""Cross-module property-based tests on physical and statistical
invariants of the simulation and analysis stack.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dsp.filterbank import MorletFilterBank
from repro.manufacturing.gcode import GCodeCommand, GCodeProgram
from repro.manufacturing.kinematics import MachineConfig, MotionPlanner
from repro.security.parzen import ConditionalParzen

feeds = st.floats(min_value=60.0, max_value=6000.0)
coords = st.floats(min_value=-50.0, max_value=50.0)


def single_axis_program(axis, positions, feed):
    commands = [GCodeCommand("G90")]
    for pos in positions:
        commands.append(
            GCodeCommand("G1", {axis: round(pos, 4), "F": round(feed, 2)})
        )
    return GCodeProgram(commands)


def chord_length(segments):
    """Summed XYZ chord length of a motion plan, dwells skipped."""
    return sum(
        float(np.linalg.norm([s.end[a] - s.start[a] for a in "XYZ"]))
        for s in segments
        if not s.is_dwell
    )


class TestKinematicInvariants:
    @given(
        positions=st.lists(coords, min_size=1, max_size=8),
        feed=feeds,
        axis=st.sampled_from(["X", "Y"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_durations_and_speeds_consistent(self, positions, feed, axis):
        """Every planned segment satisfies distance = speed * duration and
        never exceeds its motor's speed limit."""
        program = single_axis_program(axis, positions, feed)
        config = MachineConfig()
        segments = MotionPlanner(config).plan(program)
        for seg in segments:
            assert seg.duration > 0
            for a in seg.active_axes:
                speed = seg.axis_speeds[a]
                travel = abs(seg.end[a] - seg.start[a])
                assert travel == pytest.approx(speed * seg.duration, rel=1e-9)
                assert speed <= config.motor(a).max_speed + 1e-9

    @given(
        positions=st.lists(coords, min_size=1, max_size=8),
        feed=feeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_positions_chain(self, positions, feed):
        """Segment end positions chain: each start equals the previous end."""
        program = single_axis_program("X", positions, feed)
        segments = MotionPlanner().plan(program)
        for prev, nxt in zip(segments, segments[1:]):
            assert prev.end == nxt.start

    @given(
        positions=st.lists(coords, min_size=2, max_size=6),
        feed=feeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_toolpath_length_vs_travel(self, positions, feed):
        """Polyline length equals the summed per-segment travel."""
        program = single_axis_program("X", positions, feed)
        segments = MotionPlanner().plan(program)
        assume(segments)
        total_travel = sum(
            abs(seg.end["X"] - seg.start["X"]) for seg in segments
        )
        assert chord_length(segments) == pytest.approx(total_travel, rel=1e-9)


class TestSpectralInvariants:
    @given(
        freq=st.floats(min_value=100.0, max_value=2000.0),
        gain=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_cwt_scales_linearly(self, freq, gain):
        sr = 8000.0
        t = np.arange(1024) / sr
        x = np.sin(2 * np.pi * freq * t)
        bank = MorletFilterBank(len(x), sr, np.array([freq]))
        base = bank.band_energy(x[None, :])[0, 0]
        scaled = bank.band_energy(gain * x[None, :])[0, 0]
        assert scaled == pytest.approx(gain * base, rel=1e-9)


def _density(h, centers, x):
    """Density at the 1-D points *x* of a Parzen window on *centers*."""
    model = ConditionalParzen(h, [centers[:, None]])
    return np.exp(model.log_density(x[:, None], np.zeros(len(x), dtype=int))[:, 0])


class TestParzenInvariants:
    @given(
        centers=st.lists(
            st.floats(min_value=-3, max_value=3), min_size=1, max_size=6
        ),
        h=st.floats(min_value=0.05, max_value=1.0),
        shift=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, centers, h, shift):
        """KDE density is translation-equivariant."""
        centers = np.array(centers)
        x = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(
            _density(h, centers, x),
            _density(h, centers + shift, x + shift),
            rtol=1e-9,
            atol=1e-300,
        )

    @given(
        centers=st.lists(
            st.floats(min_value=0, max_value=1), min_size=2, max_size=8
        ),
        h_small=st.floats(min_value=0.01, max_value=0.1),
    )
    @settings(max_examples=30, deadline=None)
    def test_peak_density_decreases_with_h(self, centers, h_small):
        """Wider windows never sharpen the density at a kernel center."""
        h_large = h_small * 10
        x = np.array([centers[0]])
        small = _density(h_small, np.array(centers), x)[0]
        large = _density(h_large, np.array(centers), x)[0]
        assert large <= small + 1e-12
