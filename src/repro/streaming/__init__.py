"""Online attack detection over streaming acoustic emissions.

The offline security analysis (:mod:`repro.security`) scores
pre-recorded traces in batch.  This package is the same detector run as
a long-lived service over incrementally arriving samples:

* :mod:`~repro.streaming.windowing` — hop-based windowing, offline
  and over a carried tail (any chunking, identical windows);
* :mod:`~repro.streaming.calibration` — fitting extractor, scorer (the
  offline :class:`~repro.security.emission.EmissionModel`'s detector
  read-out, scoring batches of windows under their claimed
  conditions), and decision layer from a clean labeled trace (CGAN or
  empirical);
* :mod:`~repro.streaming.session` — the driver: bounded queue with
  backpressure, graceful drain, metrics, typed events;
* :mod:`~repro.streaming.replay` — WAV/synthetic trace sources and
  claimed-condition schedules.

The load-bearing guarantee, enforced by the streaming test harness:
streaming scoring over any chunking of a trace is bitwise identical to
offline batch scoring of the same windows
(:func:`~repro.streaming.calibration.offline_stream_scores`), so every
offline golden fixture doubles as a streaming oracle.
"""

from repro.streaming.calibration import (
    StreamCalibration,
    calibrate_stream_monitor,
    offline_stream_scores,
)
from repro.streaming.replay import (
    ClaimTrack,
    StreamScenario,
    TraceReplay,
    inject_claim_attack,
    synthetic_printer_stream,
)
from repro.streaming.session import (
    BACKPRESSURE_POLICIES,
    StreamMetrics,
    StreamSession,
)
from repro.streaming.windowing import StreamWindower, frame_signal

__all__ = [
    "BACKPRESSURE_POLICIES",
    "ClaimTrack",
    "StreamCalibration",
    "StreamMetrics",
    "StreamScenario",
    "StreamSession",
    "StreamWindower",
    "TraceReplay",
    "calibrate_stream_monitor",
    "frame_signal",
    "inject_claim_attack",
    "offline_stream_scores",
    "synthetic_printer_stream",
]
