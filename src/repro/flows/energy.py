"""Continuous energy flows (paper Section I-B, "Energy Flow").

An energy flow is a continuous time-dependent variable ``F_E``.  Given a
feature-construction function ``f_X`` we build feature vectors
``X = f_X(F_E)``, and a feature extraction/selection function ``f_Y``
reduces them to the relevant set ``Y = f_Y(X)``.  In the case study,
``f_X`` is the CWT + 100-bin reduction and ``f_Y`` is min-max scaling +
optional index selection (:mod:`repro.dsp.features`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.validation import check_array, check_positive


class EnergyFlowData:
    """A recorded continuous trace for one energy flow.

    Parameters
    ----------
    samples:
        1-D time series (e.g. microphone voltage).
    sample_rate:
        Samples per second.
    name:
        Flow name this trace belongs to.
    """

    def __init__(self, samples, sample_rate: float, *, name: str = "energy"):
        self.samples = check_array(samples, "samples", ndim=1)
        check_positive(sample_rate, "sample_rate")
        self.sample_rate = float(sample_rate)
        self.name = name

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return len(self.samples) / self.sample_rate

    def slice_time(self, t_start: float, t_end: float) -> "EnergyFlowData":
        """Sub-trace between two times (seconds), clamped to bounds."""
        if t_end <= t_start:
            raise ConfigurationError(f"need t_end > t_start, got [{t_start}, {t_end}]")
        i0 = max(0, int(round(t_start * self.sample_rate)))
        i1 = min(len(self.samples), int(round(t_end * self.sample_rate)))
        if i1 <= i0:
            raise DataError(
                f"time slice [{t_start}, {t_end}]s is outside the trace "
                f"(duration {self.duration:.3f}s)"
            )
        return EnergyFlowData(
            self.samples[i0:i1], self.sample_rate, name=self.name
        )

    def segments(self, boundaries) -> list:
        """Split the trace at the given time *boundaries* (seconds).

        ``boundaries`` is an increasing sequence ``[t0, t1, ..., tk]``;
        returns ``k`` sub-traces ``[t0,t1), [t1,t2), ...``.
        """
        boundaries = list(boundaries)
        if len(boundaries) < 2:
            raise ConfigurationError("need at least two boundaries")
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ConfigurationError("boundaries must be strictly increasing")
        return [
            self.slice_time(t0, t1) for t0, t1 in zip(boundaries, boundaries[1:])
        ]

    def rms(self) -> float:
        """Root-mean-square amplitude of the trace."""
        return float(np.sqrt(np.mean(self.samples**2)))

    def energy(self) -> float:
        """Total signal energy (sum of squares / sample rate)."""
        return float(np.sum(self.samples**2) / self.sample_rate)

    def features(self, f_x, f_y=None) -> np.ndarray:
        """Apply the paper's ``f_X`` (and optional ``f_Y``) to this trace.

        *f_x* maps a 1-D sample array to a feature vector; *f_y* maps a
        feature vector to a reduced feature vector.
        """
        x = np.asarray(f_x(self.samples))
        return x if f_y is None else np.asarray(f_y(x))

    def __repr__(self):
        return (
            f"EnergyFlowData(name={self.name!r}, n={len(self)}, "
            f"sr={self.sample_rate:g}Hz, {self.duration:.3f}s)"
        )
