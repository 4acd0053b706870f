"""Hop-based windowing for offline and streaming traces.

The offline pipeline slices a complete recording into analysis windows
in one shot (:func:`frame_signal`).  The streaming engine receives the
same samples in arbitrary chunks — one sample at a time, one network
packet at a time, or the whole trace at once — and must emit *exactly*
the same windows.  :class:`StreamWindower` guarantees that by running
:func:`frame_signal` itself over the samples it carried from the last
chunk followed by the new one: for any partition of a trace into
chunks, the windows and starts returned by successive
:meth:`StreamWindower.push` calls, concatenated, are bitwise identical
to ``frame_signal(trace, window_size, hop_size)``.

Memory stays bounded regardless of stream length: between pushes only
the samples that can still start an unemitted window are carried
(fewer than ``window_size``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError


def frame_signal(samples, window_size: int, hop_size: int):
    """Offline reference windowing: complete windows of a full trace.

    Returns ``(windows, starts)`` where *windows* is the stacked
    ``(n_windows, window_size)`` float64 matrix of every complete
    window ``samples[k*hop : k*hop + window]`` and *starts* the
    corresponding start sample indices.  A trailing partial window is
    never emitted (there is no padding), matching the streaming path.
    """
    samples = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
    if samples.ndim != 1:
        raise DataError(f"samples must be 1-D, got shape {samples.shape}")
    _check_geometry(window_size, hop_size)
    n = len(samples)
    if n < window_size:
        return (
            np.empty((0, window_size), dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    n_windows = (n - window_size) // hop_size + 1
    starts = np.arange(n_windows, dtype=np.int64) * hop_size
    windows = np.empty((n_windows, window_size), dtype=np.float64)
    for i, s in enumerate(starts):
        windows[i] = samples[s : s + window_size]
    return windows, starts


def _check_geometry(window_size: int, hop_size: int) -> None:
    if window_size < 1:
        raise ConfigurationError(f"window_size must be >= 1, got {window_size}")
    if hop_size < 1:
        raise ConfigurationError(f"hop_size must be >= 1, got {hop_size}")
    if hop_size > window_size:
        raise ConfigurationError(
            f"hop_size {hop_size} > window_size {window_size} would skip "
            "samples; overlapping or abutting windows only"
        )


class StreamWindower:
    """Incremental hop-based windowing: :func:`frame_signal` over a carried tail.

    Each :meth:`push` frames the carried samples followed by the new
    chunk and carries what follows the last emitted window's hop — fewer
    than ``window_size`` samples — to the next push.  For any chunking
    of a trace the emitted windows and starts are bitwise identical to
    :func:`frame_signal` of the whole trace, the load-bearing guarantee
    the streaming test harness enforces.
    """

    def __init__(self, window_size: int, hop_size: int):
        _check_geometry(window_size, hop_size)
        self.window_size = int(window_size)
        self.hop_size = int(hop_size)
        self._tail = np.empty(0, dtype=np.float64)  # from the next window's start
        self._emitted = 0
        self._consumed = 0  # absolute samples pushed (incl. gaps)

    @property
    def windows_emitted(self) -> int:
        return self._emitted

    @property
    def samples_consumed(self) -> int:
        return self._consumed

    @property
    def pending_samples(self) -> int:
        """Carried samples not yet part of an emitted window's hop."""
        return len(self._tail)

    def push(self, chunk) -> tuple:
        """Feed one chunk; return ``(windows, starts)`` of the windows it
        completed, as :func:`frame_signal` does, with absolute starts.

        A chunk that is not 1-D or holds NaN or ±inf raises
        :class:`~repro.errors.DataError` before any of it is carried.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise DataError(f"chunk must be 1-D, got shape {chunk.shape}")
        if not np.isfinite(chunk).all():
            raise DataError(
                f"chunk holds {int(np.count_nonzero(~np.isfinite(chunk)))} "
                "non-finite sample(s)"
            )
        origin = self._consumed - len(self._tail)
        samples = np.concatenate((self._tail, chunk))
        windows, starts = frame_signal(samples, self.window_size, self.hop_size)
        # A copy, so the carry does not keep the whole chunk alive.
        self._tail = samples[len(starts) * self.hop_size :].copy()
        self._consumed += len(chunk)
        self._emitted += len(starts)
        return windows, starts + origin

    def skip_gap(self, n_samples: int) -> int:
        """Account for *n_samples* lost from the stream (dropped chunks).

        The carry and the gap cannot form valid windows, so windowing
        realigns at the first sample after the gap.  Returns a lower
        bound on the number of complete windows lost — the caller
        reports it; nothing is lost silently.
        """
        if n_samples < 0:
            raise ConfigurationError(f"n_samples must be >= 0, got {n_samples}")
        if n_samples == 0:
            return 0
        unusable = len(self._tail) + n_samples
        lost = max(0, (unusable - self.window_size) // self.hop_size + 1)
        self._consumed += n_samples
        self._tail = self._tail[:0]
        self._emitted += lost
        return int(lost)

    def __repr__(self):
        return (
            f"StreamWindower(window={self.window_size}, hop={self.hop_size}, "
            f"emitted={self._emitted}, pending={self.pending_samples})"
        )
