"""Trace replay sources and claimed-condition tracks for streaming runs.

A streaming monitor sees two inputs: the acoustic samples (from a
microphone, a WAV file, or the simulated printer) and the *claimed*
condition schedule — which motors the controller believes the G-code is
driving at every moment.  :class:`ClaimTrack` represents the schedule;
:class:`TraceReplay` turns a recorded trace into a chunk iterator at
real-time or maximum rate; :func:`synthetic_printer_stream` builds a
fully labeled scenario from the simulated printer, and
:func:`inject_claim_attack` forges the claims of chosen spans — the
G-code-stream integrity attack the detector must catch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.flows.encoding import SingleMotorEncoder
from repro.manufacturing.printer import Printer3D
from repro.manufacturing.programs import calibration_suite
from repro.manufacturing.traces import build_dataset, collect_segments
from repro.dsp.features import FrequencyFeatureExtractor
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClaimTrack:
    """Piecewise-constant claimed-condition schedule over the stream.

    ``boundaries[i]`` is the first sample of span *i* (``boundaries[0]``
    must be 0) and ``span_conditions[i]`` the index into *conditions*
    claimed for that span.  The claim of an analysis window is the claim
    in effect at its *start* sample — a fixed, chunking-independent rule
    shared by the offline oracle and the streaming path.
    """

    boundaries: np.ndarray  # (n_spans,) int64 start sample of each span
    span_conditions: np.ndarray  # (n_spans,) int64 indices into `conditions`
    conditions: np.ndarray  # (n_conditions, condition_dim) float

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.int64)
        s = np.asarray(self.span_conditions, dtype=np.int64)
        c = np.atleast_2d(np.asarray(self.conditions, dtype=float))
        if b.ndim != 1 or s.ndim != 1 or b.shape != s.shape or b.size == 0:
            raise DataError("boundaries and span_conditions must be equal-length 1-D")
        if b[0] != 0:
            raise DataError(f"first span must start at sample 0, got {b[0]}")
        if np.any(np.diff(b) <= 0):
            raise DataError("span boundaries must be strictly increasing")
        if s.size and (s.min() < 0 or s.max() >= c.shape[0]):
            raise DataError(
                f"span condition indices must be in [0, {c.shape[0]})"
            )
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "span_conditions", s)
        object.__setattr__(self, "conditions", c)

    @property
    def n_spans(self) -> int:
        return len(self.boundaries)

    def window_claims(self, window_starts) -> np.ndarray:
        """Condition index claimed at each window start sample."""
        starts = np.asarray(window_starts, dtype=np.int64)
        if starts.size and starts.min() < 0:
            raise DataError("window starts must be >= 0")
        span = np.searchsorted(self.boundaries, starts, side="right") - 1
        return self.span_conditions[span]

    def with_span_conditions(self, span_conditions) -> "ClaimTrack":
        """A copy claiming different conditions for the same spans."""
        return ClaimTrack(self.boundaries.copy(), span_conditions, self.conditions)


class TraceReplay:
    """Iterate a recorded trace as fixed-size chunks.

    Parameters
    ----------
    samples / sample_rate:
        The full trace.
    chunk_size:
        Samples per chunk (the trailing chunk may be shorter).
    rate:
        ``"max"`` yields chunks as fast as the consumer takes them;
        ``"realtime"`` sleeps so the stream advances at *sample_rate*
        (scaled by *speedup*), emulating a live microphone.
    speedup:
        Real-time pacing multiplier (2.0 = twice real time).
    """

    def __init__(
        self,
        samples,
        sample_rate: float,
        *,
        chunk_size: int = 1024,
        rate: str = "max",
        speedup: float = 1.0,
    ):
        self.samples = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise DataError(f"samples must be 1-D, got shape {self.samples.shape}")
        check_positive(sample_rate, "sample_rate")
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if rate not in ("max", "realtime"):
            raise ConfigurationError(f"rate must be 'max' or 'realtime', got {rate!r}")
        if speedup <= 0:
            raise ConfigurationError(f"speedup must be > 0, got {speedup}")
        self.sample_rate = float(sample_rate)
        self.chunk_size = int(chunk_size)
        self.rate = rate
        self.speedup = float(speedup)

    def __iter__(self):
        paced = self.rate == "realtime"
        t0 = time.perf_counter() if paced else 0.0
        for start in range(0, len(self.samples), self.chunk_size):
            chunk = self.samples[start : start + self.chunk_size]
            if paced:
                due = t0 + (start + len(chunk)) / (self.sample_rate * self.speedup)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            yield chunk


@dataclass
class StreamScenario:
    """A fully labeled streaming workload built from the simulated printer.

    Attributes
    ----------
    samples / sample_rate:
        The continuous acoustic trace (back-to-back labeled motion
        segments, exactly the audio the calibration dataset was
        featureized from).
    claims:
        Ground-truth claimed-condition schedule for the trace.
    calibration:
        The labeled :class:`~repro.flows.dataset.FlowPairDataset`
        recorded from the same printer — fit material for scorer and
        decision-layer calibration.
    extractor:
        The :class:`~repro.dsp.features.FrequencyFeatureExtractor`
        whose scaler was fitted on *calibration*.
    encoder:
        Condition encoder mapping axis sets to one-hot conditions.
    attacked_spans:
        Span indices whose claims were forged (empty until
        :func:`inject_claim_attack` runs).
    """

    samples: np.ndarray
    sample_rate: float
    claims: ClaimTrack
    calibration: FlowPairDataset
    extractor: FrequencyFeatureExtractor
    encoder: object
    attacked_spans: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def replay(self, *, chunk_size: int = 1024, rate: str = "max", speedup: float = 1.0):
        return TraceReplay(
            self.samples,
            self.sample_rate,
            chunk_size=chunk_size,
            rate=rate,
            speedup=speedup,
        )


def synthetic_printer_stream(
    *,
    n_moves_per_axis: int = 4,
    sample_rate: float = 12000.0,
    n_bins: int = 100,
    seed=None,
    printer: Printer3D | None = None,
) -> StreamScenario:
    """Simulate the printer and package its audio as a streaming scenario.

    Runs the single-motor calibration suite, featureizes the usable
    segments into the calibration dataset (fitting the extractor's
    scaler, exactly like :func:`record_case_study_dataset`), and
    concatenates those same segments into one continuous trace with a
    per-segment :class:`ClaimTrack` — so every streamed window has a
    known true condition and the calibration features live in the same
    scaled space the stream will be scored in.
    """
    rng = as_rng(seed)
    printer = printer or Printer3D(sample_rate=sample_rate, seed=rng)
    encoder = SingleMotorEncoder()
    programs = calibration_suite(n_moves_per_axis, seed=rng)
    runs = [printer.run(p, seed=rng) for p in programs]
    segments = collect_segments(runs)
    extractor = FrequencyFeatureExtractor(printer.sample_rate, n_bins=n_bins)

    usable = []
    span_conditions = []
    for seg in segments:
        try:
            cond = encoder.encode(seg.active_axes)
        except DataError:
            continue
        usable.append(seg)
        span_conditions.append(cond)
    if not usable:
        raise DataError("printer produced no encodable segments")
    calibration = build_dataset(segments, extractor, encoder, name="stream|gcode")

    conditions = calibration.unique_conditions()
    cond_index = {tuple(c): i for i, c in enumerate(conditions)}
    boundaries = np.zeros(len(usable), dtype=np.int64)
    indices = np.empty(len(usable), dtype=np.int64)
    cursor = 0
    for i, (seg, cond) in enumerate(zip(usable, span_conditions)):
        boundaries[i] = cursor
        indices[i] = cond_index[tuple(cond)]
        cursor += len(seg.samples)
    samples = np.concatenate([seg.samples for seg in usable])

    return StreamScenario(
        samples=samples,
        sample_rate=printer.sample_rate,
        claims=ClaimTrack(boundaries, indices, conditions),
        calibration=calibration,
        extractor=extractor,
        encoder=encoder,
    )


def inject_claim_attack(
    scenario: StreamScenario,
    *,
    n_spans: int = 2,
    seed=None,
) -> StreamScenario:
    """Forge the claimed condition of *n_spans* spans (integrity attack).

    Models an attacker modifying the G-code stream: the physical motion
    (and therefore the audio) is unchanged, but the controller's claim
    for the chosen spans is rotated to a different condition.  Returns a
    new scenario sharing the samples, with :attr:`StreamScenario.claims`
    forged and :attr:`StreamScenario.attacked_spans` recording where.
    """
    if n_spans < 1:
        raise ConfigurationError(f"n_spans must be >= 1, got {n_spans}")
    track = scenario.claims
    if track.conditions.shape[0] < 2:
        raise DataError("need >= 2 conditions to forge a claim")
    rng = as_rng(seed)
    n_spans = min(n_spans, track.n_spans)
    chosen = np.sort(rng.choice(track.n_spans, size=n_spans, replace=False))
    forged = track.span_conditions.copy()
    n_conds = track.conditions.shape[0]
    for idx in chosen:
        forged[idx] = (forged[idx] + 1 + rng.integers(0, n_conds - 1)) % n_conds
    return StreamScenario(
        samples=scenario.samples,
        sample_rate=scenario.sample_rate,
        claims=track.with_span_conditions(forged),
        calibration=scenario.calibration,
        extractor=scenario.extractor,
        encoder=scenario.encoder,
        attacked_spans=[int(i) for i in chosen],
    )
