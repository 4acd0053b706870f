"""Monitor calibration: from a labeled clean trace to a ready scorer.

An online monitor needs three fitted artifacts before it can watch a
live stream: a feature extractor whose scaler matches the deployment
window geometry, per-condition Parzen densities to score claims
against, and a decision layer normalized to clean-window score
statistics.  :func:`calibrate_stream_monitor` builds all three from a
clean reference recording with known claims — either around a trained
CGAN sampler (the paper's detection dual: the *model* predicts what
each condition should sound like) or, when no model is given, around
an empirical per-condition resampler of the calibration windows
themselves (:class:`~repro.security.baselines.EmpiricalConditionalSampler`,
the "directly estimate from data" baseline).  The returned
:class:`StreamCalibration` holds the extractor and scorer every session
shares, and :meth:`StreamCalibration.make_detector` gives each session
its own copy of the calibrated decision layer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.errors import ConfigurationError, DataError
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.dataset import FlowPairDataset
from repro.security.baselines import EmpiricalConditionalSampler
from repro.security.emission import EmissionModel
from repro.security.sequence import CusumDetector, EwmaDetector
from repro.streaming.replay import ClaimTrack
from repro.streaming.windowing import frame_signal


@dataclass
class StreamCalibration:
    """Fitted monitor components: extractor, scorer and decision layer."""

    extractor: FrequencyFeatureExtractor
    scorer: EmissionModel
    #: The calibrated decision layer, never fed; :meth:`make_detector`
    #: hands out copies of it.
    _detector: object

    def make_detector(self) -> object:
        """A fresh decision layer with the calibrated normalization.

        Detectors are stateful; sessions must not share one.
        """
        return copy.deepcopy(self._detector)


def calibrate_stream_monitor(
    samples,
    sample_rate: float,
    claims: ClaimTrack,
    *,
    window_size: int,
    hop_size: int,
    n_bins: int = 100,
    sampler=None,
    h: float = 0.2,
    g_size: int = 200,
    root_entropy: int = 0,
    pair: str = "stream",
    detector: str = "cusum",
    drift: float = 0.5,
    threshold: float = 10.0,
) -> StreamCalibration:
    """Fit extractor, scorer, and decision layer on a clean labeled trace.

    The trace is windowed exactly as the live stream will be
    (:func:`~repro.streaming.windowing.frame_signal` with the same
    geometry), features are extracted through the cached filter bank,
    and the scaler is fitted on those windows — so calibration and
    deployment features live in the same space.  *sampler* (e.g. a
    trained CGAN) provides ``G(Z | c)``; when ``None`` the per-condition
    calibration windows themselves are resampled.

    Everything downstream of *root_entropy* is deterministic, so two
    monitors calibrated from the same trace score identically.
    """
    if detector not in ("cusum", "ewma"):
        raise ConfigurationError(
            f"detector must be 'cusum' or 'ewma', got {detector!r}"
        )
    windows, starts = frame_signal(samples, window_size, hop_size)
    if windows.shape[0] < 2:
        raise DataError(
            f"calibration trace yields {windows.shape[0]} windows; need >= 2"
        )
    claim_idx = claims.window_claims(starts)
    extractor = FrequencyFeatureExtractor(sample_rate, n_bins=n_bins)
    features = extractor.fit_transform(windows)
    window_set = FlowPairDataset(
        features, claims.conditions[claim_idx], name=f"{pair}|windows"
    )
    if sampler is None:
        sampler = EmpiricalConditionalSampler(window_set)
    scorer = EmissionModel(
        sampler,
        claims.conditions,
        h=h,
        g_size=g_size,
        root_entropy=root_entropy,
        pair=pair,
    )
    clean_scores = scorer.score_windows(features, claim_idx)
    if detector == "cusum":
        decision = CusumDetector.from_calibration(
            clean_scores, drift=drift, threshold=threshold
        )
    else:
        decision = EwmaDetector.from_calibration(clean_scores, threshold=threshold)
    return StreamCalibration(extractor, scorer, decision)


def offline_stream_scores(
    samples,
    claims: ClaimTrack,
    calibration: StreamCalibration,
    *,
    window_size: int,
    hop_size: int,
) -> tuple:
    """The offline oracle: batch-score a whole trace in one shot.

    Returns ``(scores, starts, alarm_indices)`` computed with the exact
    code path the streaming session uses — full-trace windowing, one
    feature-extraction batch, one scoring batch, and a fresh decision
    layer fed in order.  Streaming the same trace in any chunking must
    reproduce these numbers bitwise; the property tests and golden
    fixtures enforce it.
    """
    windows, starts = frame_signal(samples, window_size, hop_size)
    features = calibration.extractor.transform(windows)
    claim_idx = claims.window_claims(starts)
    scores = calibration.scorer.score_windows(features, claim_idx)
    detector = calibration.make_detector()
    detector.update_many(scores)
    return scores, starts, list(detector.alarms)
