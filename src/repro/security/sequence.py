"""Sequential decision layer of the streaming attack detector.

:class:`CusumDetector` and :class:`EwmaDetector` (used by
:mod:`repro.streaming`) accumulate per-window log-likelihood evidence
over time, so a sustained drop in likelihood (integrity/availability
attack) raises an alarm even when no single window is damning.  Both
are strictly sequential and deterministic: feeding scores one at a
time or in batches of any size yields identical alarm times, which is
what lets every offline golden fixture double as a streaming oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.validation import check_array


class _SequentialDetector:
    """Shared plumbing for the sequential change detectors.

    Scores follow the detection convention (higher = more normal), and
    *reference* / *scale* normalize them into z-like deviations:
    ``z = (reference - score) / scale`` is positive when the emission
    looks less likely than calibration predicted.  The statistic
    restarts at 0 after each alarm, so a session reports distinct
    attack episodes instead of one saturated alarm; the value that
    crossed the threshold stays readable as :attr:`alarm_statistic`.
    """

    def __init__(self, *, reference: float, scale: float, threshold: float):
        if scale <= 0:
            raise ConfigurationError(f"scale must be > 0, got {scale}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        self.reference = float(reference)
        self.scale = float(scale)
        self.threshold = float(threshold)
        self.statistic = 0.0
        #: Statistic at the latest alarm, before the restart (None before any).
        self.alarm_statistic = None
        self.windows_seen = 0
        self.alarms: list = []

    @classmethod
    def from_calibration(cls, clean_scores, **params):
        """Build a detector normalized to clean-window score statistics.

        *params* are the class's other keyword arguments (``threshold``
        and ``drift`` or ``alpha``), with the class's defaults.
        """
        # A -inf score makes the reference -inf, and then no alarm can fire.
        scores = check_array(np.ravel(clean_scores), "calibration scores")
        if scores.size < 2:
            raise DataError("need >= 2 calibration scores")
        std = float(scores.std())
        return cls(
            reference=float(scores.mean()),
            scale=std if std > 0 else 1e-12,
            **params,
        )

    def _deviation(self, score: float) -> float:
        return (self.reference - float(score)) / self.scale

    def update(self, score: float) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def update_many(self, scores) -> np.ndarray:
        """Feed scores in order; boolean alarm flag per score.

        Strictly equivalent to calling :meth:`update` one score at a
        time — batching never changes alarm times.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        return np.array([self.update(s) for s in scores], dtype=bool)


class CusumDetector(_SequentialDetector):
    """One-sided CUSUM over per-window log-likelihood scores.

    The statistic ``S`` accumulates normalized likelihood deficits:
    ``S = max(0, S + z - drift)`` with ``z = (reference - score)/scale``;
    an alarm fires when ``S > threshold``.  *drift* is the allowance
    (in z units) subtracted every step so calibration-level noise never
    accumulates; *threshold* trades detection delay for false alarms.

    Parameters
    ----------
    reference / scale:
        Mean and standard deviation of clean-window scores (use
        :meth:`from_calibration`).
    drift:
        Per-step allowance in z units (default 0.5).
    threshold:
        Alarm level on the accumulated statistic (default 5.0).
    """

    def __init__(
        self,
        *,
        reference: float = 0.0,
        scale: float = 1.0,
        drift: float = 0.5,
        threshold: float = 5.0,
    ):
        super().__init__(reference=reference, scale=scale, threshold=threshold)
        if drift < 0:
            raise ConfigurationError(f"drift must be >= 0, got {drift}")
        self.drift = float(drift)

    def update(self, score: float) -> bool:
        """Consume one window score; True when the alarm fires."""
        self.statistic = max(0.0, self.statistic + self._deviation(score) - self.drift)
        alarm = self.statistic > self.threshold
        if alarm:
            self.alarms.append(self.windows_seen)
            self.alarm_statistic = self.statistic
            self.statistic = 0.0
        self.windows_seen += 1
        return alarm

    def __repr__(self):
        return (
            f"CusumDetector(drift={self.drift}, threshold={self.threshold}, "
            f"S={self.statistic:.3f}, alarms={len(self.alarms)})"
        )


class EwmaDetector(_SequentialDetector):
    """Exponentially-weighted moving average alternative to CUSUM.

    Tracks ``E = (1 - alpha) * E + alpha * z`` and alarms when ``E``
    exceeds *threshold* (in z units).  Responds faster than CUSUM to
    large shifts; CUSUM accumulates small sustained ones better.
    """

    def __init__(
        self,
        *,
        reference: float = 0.0,
        scale: float = 1.0,
        alpha: float = 0.2,
        threshold: float = 2.5,
    ):
        super().__init__(reference=reference, scale=scale, threshold=threshold)
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)

    def update(self, score: float) -> bool:
        self.statistic = (1.0 - self.alpha) * self.statistic + self.alpha * self._deviation(score)
        alarm = self.statistic > self.threshold
        if alarm:
            self.alarms.append(self.windows_seen)
            self.alarm_statistic = self.statistic
            self.statistic = 0.0
        self.windows_seen += 1
        return alarm

    def __repr__(self):
        return (
            f"EwmaDetector(alpha={self.alpha}, threshold={self.threshold}, "
            f"E={self.statistic:.3f}, alarms={len(self.alarms)})"
        )
