"""Per-emission virtual microphones: one dataset per monitored flow.

Figure 6 monitors five acoustic emissions — one per physical component
(P2=X, P3=Y, P4=Z, P5=extruder) plus the frame (P8), which couples all
motors.  The single-microphone recording of
:func:`~repro.manufacturing.traces.record_case_study_dataset` models
only the frame flow F18; this module simulates a sensor *per emission*
by re-rendering each run with placement-specific coupling gains:

* the microphone on motor M hears M at full gain and the other motors
  attenuated by a crosstalk factor (structure-borne leakage);
* the frame microphone hears every motor (the original mix).

The result is one aligned :class:`FlowPairDataset` per emission flow
name — exactly the ``{FlowPairKey(F_emission, F_signal): dataset}``
mapping the :class:`~repro.pipeline.gansec.GANSec` pipeline consumes
for a true multi-pair run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.dataset import FlowPairDataset
from repro.flows.encoding import ConditionEncoder, SingleMotorEncoder
from repro.manufacturing.architecture import GCODE_FLOW, MONITORED_EMISSIONS
from repro.manufacturing.printer import Printer3D
from repro.manufacturing.programs import calibration_suite
from repro.manufacturing.traces import (
    MAX_SEGMENT_DURATION,
    MIN_SEGMENT_DURATION,
    _center_crop,
)
from repro.utils.rng import spawn_rngs

#: Component -> axis whose motor the emission belongs to (Figure 6).
EMISSION_AXES = {"P2": "X", "P3": "Y", "P4": "Z", "P5": "E"}


def microphone_gains(crosstalk: float = 0.15) -> dict:
    """Coupling gains per monitored emission flow.

    ``crosstalk`` is how strongly a motor's sound bleeds into another
    component's sensor through the shared structure.
    """
    if not 0.0 <= crosstalk < 1.0:
        raise ConfigurationError(
            f"crosstalk must be in [0, 1), got {crosstalk}"
        )
    gains = {}
    axes = ("X", "Y", "Z", "E")
    for component, flow_name in MONITORED_EMISSIONS.items():
        if component == "P8":
            # The frame couples everything at full strength.
            gains[flow_name] = {a: 1.0 for a in axes}
        else:
            own = EMISSION_AXES[component]
            gains[flow_name] = {
                a: (1.0 if a == own else crosstalk) for a in axes
            }
    return gains


def record_per_emission_datasets(
    *,
    n_moves_per_axis: int = 25,
    sample_rate: float = 12000.0,
    n_bins: int = 100,
    crosstalk: float = 0.15,
    seed=None,
    encoder: ConditionEncoder | None = None,
):
    """Record the case-study workload through every monitored emission.

    Returns ``(data, extractors)`` where ``data`` maps
    ``FlowPairKey(emission_flow, GCODE_FLOW)`` to row-aligned
    :class:`FlowPairDataset` objects (ready for
    :meth:`GANSec.train_models`), and ``extractors`` maps emission flow
    names to their fitted feature extractors.
    """
    # Imported here: repro.manufacturing stays importable without
    # loading repro.pipeline (the CLI's start-up path).
    from repro.pipeline.pairs import FlowPairKey

    program_rng, render_rng = spawn_rngs(seed, 2)
    printer = Printer3D(sample_rate=sample_rate, seed=0)
    encoder = encoder or SingleMotorEncoder()
    programs = calibration_suite(n_moves_per_axis, seed=program_rng)
    gains = microphone_gains(crosstalk)

    # Render each program once per microphone with a *shared* seed per
    # program so every sensor hears the same physical event, only with
    # different coupling.
    per_flow_segments = {flow: [] for flow in gains}
    conditions = []
    for program in programs:
        segments = printer.plan(program)
        program_seed = int(render_rng.integers(0, 2**31 - 1))
        flow_audio = {}
        flow_bounds = {}
        for flow_name, axis_gains in gains.items():
            audio, bounds = printer.synthesizer.render(
                segments,
                seed=np.random.default_rng(program_seed),
                axis_gains=axis_gains,
            )
            flow_audio[flow_name] = audio
            flow_bounds[flow_name] = bounds
        for i, segment in enumerate(segments):
            if segment.duration < MIN_SEGMENT_DURATION:
                continue
            active = frozenset(a for a in segment.active_axes if a in "XYZ")
            try:
                cond = encoder.encode(active)
            except DataError:
                continue
            for flow_name in gains:
                bounds = flow_bounds[flow_name]
                s0 = int(round(bounds[i] * sample_rate))
                s1 = int(round(bounds[i + 1] * sample_rate))
                chunk = flow_audio[flow_name][s0:s1]
                per_flow_segments[flow_name].append(
                    _center_crop(chunk, sample_rate, MAX_SEGMENT_DURATION)
                )
            conditions.append(cond)
    if not conditions:
        raise DataError("no usable segments recorded")
    cond_matrix = np.vstack(conditions)

    data = {}
    extractors = {}
    for flow_name, segs in per_flow_segments.items():
        extractor = FrequencyFeatureExtractor(sample_rate, n_bins=n_bins)
        features = extractor.fit_transform(segs)
        data[FlowPairKey(flow_name, GCODE_FLOW)] = FlowPairDataset(
            features, cond_matrix, name=f"{flow_name}|{GCODE_FLOW}"
        )
        extractors[flow_name] = extractor
    return data, extractors
