"""G-code program generators for the case study's workloads.

Section IV-B: "for simplicity, we extract G/M-codes from 3D objects that
only move one stepper motor at a time" — :func:`single_motor_program`
and :func:`calibration_suite` generate exactly those.  The richer
generators (:func:`rectangle_program`, :func:`layered_object_program`)
exercise multi-motor moves for the ``2^3`` combination-encoding
extension and the attack scenarios.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.manufacturing.gcode import GCodeCommand, GCodeProgram
from repro.utils.rng import as_rng


def _preamble() -> list:
    """Standard program header: millimeters, absolute mode, home."""
    return [
        GCodeCommand("G21"),
        GCodeCommand("G90"),
        GCodeCommand("G28"),
    ]


def single_motor_program(
    axis: str,
    n_moves: int = 20,
    *,
    feed_range=(600.0, 2400.0),
    travel_range=(2.0, 20.0),
    seed=None,
    name: str | None = None,
) -> GCodeProgram:
    """Program whose every move drives exactly one stepper motor.

    Moves alternate direction along *axis* with randomized travel and
    feed so the resulting acoustic dataset covers the motor's operating
    envelope (as varied test objects would on the real printer).
    """
    if axis not in ("X", "Y", "Z", "E"):
        raise ConfigurationError(f"unsupported axis {axis!r}")
    if n_moves < 1:
        raise ConfigurationError(f"n_moves must be >= 1, got {n_moves}")
    lo_f, hi_f = feed_range
    lo_t, hi_t = travel_range
    if not 0 < lo_f <= hi_f or not 0 < lo_t <= hi_t:
        raise ConfigurationError("feed_range/travel_range must be positive and ordered")
    rng = as_rng(seed)
    # Z moves at lead-screw speeds: scale feeds down so the planner's
    # per-motor clamp is not the only thing shaping them.
    feed_scale = 0.12 if axis == "Z" else 1.0
    commands = _preamble()
    position = 0.0
    direction = 1.0
    for _ in range(n_moves):
        travel = float(rng.uniform(lo_t, hi_t))
        feed = float(rng.uniform(lo_f, hi_f)) * feed_scale
        position += direction * travel
        if position < 0:
            position = abs(position)
            direction = 1.0
        commands.append(
            GCodeCommand("G1", {axis: round(position, 4), "F": round(feed, 2)})
        )
        direction *= -1.0
    return GCodeProgram(
        commands, name=name or f"single-{axis.lower()}-{n_moves}"
    )


def calibration_suite(
    n_moves_per_axis: int = 20,
    *,
    axes=("X", "Y", "Z"),
    seed=None,
) -> list:
    """One single-motor program per axis (the paper's training workload)."""
    rng = as_rng(seed)
    programs = []
    for axis in axes:
        programs.append(
            single_motor_program(
                axis,
                n_moves_per_axis,
                seed=rng,
                name=f"calib-{axis.lower()}",
            )
        )
    return programs


def rectangle_program(
    width: float = 30.0,
    height: float = 20.0,
    *,
    feed: float = 1200.0,
    n_loops: int = 3,
    name: str = "rectangle",
) -> GCodeProgram:
    """Trace a rectangle perimeter *n_loops* times (single-axis moves only).

    A realistic part outline that nonetheless keeps the one-motor-at-a-
    time property — useful as held-out "secret object" for the attacker
    experiments.
    """
    if width <= 0 or height <= 0:
        raise ConfigurationError("width/height must be > 0")
    if n_loops < 1:
        raise ConfigurationError("n_loops must be >= 1")
    commands = _preamble()
    commands.append(GCodeCommand("G1", {"X": 0.0, "Y": 0.0, "F": feed}))
    for _ in range(n_loops):
        commands.append(GCodeCommand("G1", {"X": width, "F": feed}))
        commands.append(GCodeCommand("G1", {"Y": height, "F": feed}))
        commands.append(GCodeCommand("G1", {"X": 0.0, "F": feed}))
        commands.append(GCodeCommand("G1", {"Y": 0.0, "F": feed}))
    return GCodeProgram(commands, name=name)


def layered_object_program(
    n_layers: int = 3,
    *,
    side: float = 25.0,
    layer_height: float = 0.3,
    feed: float = 1500.0,
    z_feed: float = 120.0,
    with_extrusion: bool = False,
    name: str = "layered-object",
) -> GCodeProgram:
    """A small printed "box": diagonal infill moves (X+Y simultaneously),
    perimeters, and layer changes — the multi-motor workload for the
    ``2^3`` combination-encoding extension."""
    if n_layers < 1:
        raise ConfigurationError("n_layers must be >= 1")
    commands = _preamble()
    z = 0.0
    e = 0.0
    for _layer in range(n_layers):
        # Perimeter (single-motor moves).
        for target in (
            {"X": side},
            {"Y": side},
            {"X": 0.0},
            {"Y": 0.0},
        ):
            params = dict(target)
            params["F"] = feed
            if with_extrusion:
                e += 0.5
                params["E"] = round(e, 3)
            commands.append(GCodeCommand("G1", params))
        # Diagonal infill (X and Y simultaneously).
        for frac in (0.25, 0.5, 0.75, 1.0):
            params = {"X": round(side * frac, 3), "Y": round(side * frac, 3), "F": feed}
            if with_extrusion:
                e += 0.7
                params["E"] = round(e, 3)
            commands.append(GCodeCommand("G1", params))
        commands.append(GCodeCommand("G1", {"X": 0.0, "Y": 0.0, "F": feed}))
        # Layer change (Z only).
        z += layer_height
        commands.append(GCodeCommand("G1", {"Z": round(z, 3), "F": z_feed}))
    return GCodeProgram(commands, name=name)


def circle_program(
    radius: float = 15.0,
    *,
    feed: float = 1200.0,
    n_loops: int = 1,
    name: str = "circle",
) -> GCodeProgram:
    """Trace a circle with G2 arcs (a realistic slicer-style perimeter).

    The circle is drawn as two half-turn clockwise arcs per loop,
    starting from ``(2r, 0)`` about the center ``(r, 0)``.
    """
    if radius <= 0:
        raise ConfigurationError("radius must be > 0")
    if n_loops < 1:
        raise ConfigurationError("n_loops must be >= 1")
    commands = _preamble()
    commands.append(
        GCodeCommand("G1", {"X": 2 * radius, "Y": 0.0, "F": feed})
    )
    for _ in range(n_loops):
        commands.append(
            GCodeCommand("G2", {"X": 0.0, "Y": 0.0, "I": -radius, "J": 0.0})
        )
        commands.append(
            GCodeCommand(
                "G2", {"X": 2 * radius, "Y": 0.0, "I": radius, "J": 0.0}
            )
        )
    return GCodeProgram(commands, name=name)


def random_single_motor_sequence(
    n_moves: int,
    *,
    axes=("X", "Y", "Z"),
    seed=None,
    feed_range=(600.0, 2400.0),
    travel_range=(2.0, 20.0),
    name: str = "random-sequence",
) -> GCodeProgram:
    """Random axis per move — the "secret G-code" an attacker wants to
    reconstruct in the confidentiality experiment."""
    if n_moves < 1:
        raise ConfigurationError(f"n_moves must be >= 1, got {n_moves}")
    rng = as_rng(seed)
    commands = _preamble()
    positions = {a: 0.0 for a in axes}
    directions = {a: 1.0 for a in axes}
    lo_f, hi_f = feed_range
    lo_t, hi_t = travel_range
    for _ in range(n_moves):
        axis = str(rng.choice(list(axes)))
        feed_scale = 0.12 if axis == "Z" else 1.0
        travel = float(rng.uniform(lo_t, hi_t))
        feed = float(rng.uniform(lo_f, hi_f)) * feed_scale
        positions[axis] += directions[axis] * travel
        if positions[axis] < 0:
            positions[axis] = abs(positions[axis])
            directions[axis] = 1.0
        directions[axis] *= -1.0
        commands.append(
            GCodeCommand(
                "G1", {axis: round(positions[axis], 4), "F": round(feed, 2)}
            )
        )
    return GCodeProgram(commands, name=name)
