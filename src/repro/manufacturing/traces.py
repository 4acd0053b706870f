"""Aligned trace recording: print runs → CGAN-ready datasets.

This is the experimental-data-collection step of Section IV-B: run
programs on the (simulated) printer, slice the microphone trace at
motion-segment boundaries, extract the scaled 100-bin frequency features
per segment, and pair each feature vector with the one-hot condition of
the motors that were running — producing a
:class:`~repro.flows.dataset.FlowPairDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.dataset import FlowPairDataset
from repro.flows.encoding import ConditionEncoder, SingleMotorEncoder
from repro.manufacturing.printer import Printer3D
from repro.manufacturing.programs import calibration_suite
from repro.utils.rng import as_rng

#: Segments shorter than this (seconds) are skipped: the CWT cannot
#: resolve 50 Hz content in a shorter window.
MIN_SEGMENT_DURATION = 0.06

#: Longer segments are center-cropped to this analysis window (seconds).
#: A fixed window keeps the CWT cost bounded and, like the paper's fixed
#: feature construction, makes features comparable across segments.
MAX_SEGMENT_DURATION = 0.4


def _center_crop(samples: np.ndarray, sample_rate: float, max_duration: float) -> np.ndarray:
    """Middle *max_duration* seconds of a segment (skips spin-up/stop edges)."""
    max_n = int(round(max_duration * sample_rate))
    if len(samples) <= max_n:
        return samples
    start = (len(samples) - max_n) // 2
    return samples[start : start + max_n]


@dataclass
class RecordedSegment:
    """One usable (audio, condition) observation prior to featureization."""

    samples: np.ndarray
    active_axes: frozenset
    program_name: str
    segment_index: int


def collect_segments(
    runs,
    *,
    motion_axes=("X", "Y", "Z"),
    include_idle: bool = False,
    min_duration: float = MIN_SEGMENT_DURATION,
    max_duration: float = MAX_SEGMENT_DURATION,
) -> list:
    """Harvest labeled audio segments from print runs.

    Parameters
    ----------
    runs:
        Iterable of :class:`PrintRun`.
    motion_axes:
        Axes considered for the condition label; activity on other axes
        (e.g. the extruder E) is ignored for labeling purposes.
    include_idle:
        Keep dwell segments (empty active set) — needed only for the
        combination encoder, which has an "idle" slot.
    min_duration:
        Skip segments shorter than this many seconds.
    max_duration:
        Center-crop longer segments to this analysis window.
    """
    out = []
    for run in runs:
        for i, segment in enumerate(run.segments):
            if segment.duration < min_duration:
                continue
            active = frozenset(a for a in segment.active_axes if a in motion_axes)
            if not active and not include_idle:
                continue
            audio = run.segment_audio(i)
            samples = _center_crop(audio.samples, audio.sample_rate, max_duration)
            out.append(
                RecordedSegment(
                    samples=samples,
                    active_axes=active,
                    program_name=run.program.name,
                    segment_index=i,
                )
            )
    if not out:
        raise DataError("no usable segments collected from the given runs")
    return out


def build_dataset(
    segments,
    extractor: FrequencyFeatureExtractor,
    encoder: ConditionEncoder | None = None,
    *,
    fit_extractor: bool = True,
    name: str = "acoustic|gcode",
) -> FlowPairDataset:
    """Featureize recorded segments into an aligned dataset.

    Segments whose active set the encoder cannot represent (e.g. an X+Y
    diagonal under the single-motor encoder) are dropped, mirroring the
    paper's restriction to one-motor-at-a-time objects.
    """
    encoder = encoder or SingleMotorEncoder()
    encodable = []
    conditions = []
    for seg in segments:
        try:
            cond = encoder.encode(seg.active_axes)
        except DataError:
            continue
        encodable.append(seg)
        conditions.append(cond)
    if not encodable:
        raise DataError("no segments representable under the given encoder")
    waves = [seg.samples for seg in encodable]
    if fit_extractor:
        features = extractor.fit_transform(waves)
    else:
        features = extractor.transform(waves)
    return FlowPairDataset(features, np.vstack(conditions), name=name)


def record_case_study_dataset(
    *,
    n_moves_per_axis: int = 40,
    sample_rate: float = 12000.0,
    n_bins: int = 100,
    seed=None,
    printer: Printer3D | None = None,
    encoder: ConditionEncoder | None = None,
    feature_cache=None,
):
    """One-call reproduction of the paper's data collection.

    Generates single-motor calibration programs for X/Y/Z, "prints" them
    on the simulated machine, extracts scaled CWT features, and returns
    ``(dataset, extractor, encoder, runs)``.

    The returned extractor has its scaler fitted on this dataset, so it
    can consistently featureize held-out traces (attacker test data).

    *feature_cache* (a directory path or
    :class:`~repro.dsp.cache.FeatureCache`) enables the on-disk raw
    feature cache, so repeated recordings of identical audio skip CWT
    extraction entirely.
    """
    rng = as_rng(seed)
    printer = printer or Printer3D(sample_rate=sample_rate, seed=rng)
    encoder = encoder or SingleMotorEncoder()
    programs = calibration_suite(n_moves_per_axis, seed=rng)
    runs = [printer.run(p, seed=rng) for p in programs]
    segments = collect_segments(runs)
    extractor = FrequencyFeatureExtractor(
        printer.sample_rate,
        n_bins=n_bins,
        feature_cache=feature_cache,
    )
    dataset = build_dataset(segments, extractor, encoder)
    return dataset, extractor, encoder, runs
