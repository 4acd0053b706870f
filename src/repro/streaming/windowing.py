"""Bounded ring buffer and hop-based windowing for streaming traces.

The offline pipeline slices a complete recording into analysis windows
in one shot (:func:`frame_signal`).  The streaming engine receives the
same samples in arbitrary chunks — one sample at a time, one network
packet at a time, or the whole trace at once — and must emit *exactly*
the same windows.  :class:`StreamWindower` guarantees that: for any
partition of a trace into chunks, the concatenation of the windows
returned by successive :meth:`StreamWindower.push` calls is bitwise
identical to ``frame_signal(trace, window_size, hop_size)``.

Memory stays bounded by the ring buffer regardless of stream length:
only the samples that can still contribute to an unemitted window are
retained (at most ``window_size + hop_size`` at any time).
"""

from __future__ import annotations

from dataclasses import dataclass

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


class RingBuffer:
    """Fixed-capacity float64 ring buffer with absolute sample indexing.

    Samples keep their absolute position in the stream: ``read(i, n)``
    returns stream samples ``[i, i+n)`` as long as they are still
    buffered.  ``discard_before(i)`` releases everything older than
    *i* so the capacity bound is maintained by the caller's protocol,
    not by silent overwrites — :meth:`append` raises if the buffer
    would overflow, which turns protocol bugs into loud errors.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data = np.empty(self.capacity, dtype=np.float64)
        self._start = 0  # absolute index of the oldest retained sample
        self._length = 0

    def __len__(self):
        return self._length

    @property
    def start_index(self) -> int:
        return self._start

    @property
    def end_index(self) -> int:
        """Absolute index one past the newest retained sample."""
        return self._start + self._length

    @property
    def free(self) -> int:
        return self.capacity - self._length

    def append(self, samples: np.ndarray) -> None:
        """Append *samples* (1-D float64); raises on overflow."""
        n = len(samples)
        if n > self.free:
            raise DataError(
                f"ring buffer overflow: {n} samples offered, {self.free} free "
                f"(capacity {self.capacity})"
            )
        pos = (self._start + self._length) % self.capacity
        first = min(n, self.capacity - pos)
        self._data[pos : pos + first] = samples[:first]
        if first < n:
            self._data[: n - first] = samples[first:]
        self._length += n

    def read(self, abs_start: int, n: int) -> np.ndarray:
        """Copy stream samples ``[abs_start, abs_start + n)`` out."""
        if abs_start < self._start or abs_start + n > self.end_index:
            raise DataError(
                f"read [{abs_start}, {abs_start + n}) outside buffered "
                f"range [{self._start}, {self.end_index})"
            )
        pos = (self._start + (abs_start - self._start)) % self.capacity
        out = np.empty(n, dtype=np.float64)
        first = min(n, self.capacity - pos)
        out[:first] = self._data[pos : pos + first]
        if first < n:
            out[first:] = self._data[: n - first]
        return out

    def discard_before(self, abs_index: int) -> None:
        """Release every sample older than *abs_index*."""
        if abs_index <= self._start:
            return
        drop = min(abs_index - self._start, self._length)
        self._start += drop
        self._length -= drop

    def clear_to(self, abs_index: int) -> None:
        """Empty the buffer and continue the stream at *abs_index*."""
        if abs_index < self.end_index:
            raise DataError(
                f"cannot rewind ring buffer to {abs_index} "
                f"(stream is at {self.end_index})"
            )
        self._start = abs_index
        self._length = 0

    def __repr__(self):
        return (
            f"RingBuffer(capacity={self.capacity}, "
            f"range=[{self._start}, {self.end_index}))"
        )


@dataclass(frozen=True)
class Window:
    """One complete analysis window cut from the stream."""

    index: int  # 0-based window counter (offline row number)
    start: int  # absolute start sample in the stream
    samples: np.ndarray  # (window_size,) float64 copy


class StreamWindower:
    """Incremental hop-based windowing over a bounded ring buffer.

    Push chunks of any size; complete windows come back as
    :class:`Window` objects in stream order.  For any chunking of a
    trace the emitted windows are bitwise identical to
    :func:`frame_signal` of the whole trace — the load-bearing
    guarantee the streaming test harness enforces.
    """

    def __init__(self, window_size: int, hop_size: int):
        _check_geometry(window_size, hop_size)
        self.window_size = int(window_size)
        self.hop_size = int(hop_size)
        # One window plus one hop is the most that must be retained
        # between pushes; +hop also gives append/emit slack within a push.
        self._ring = RingBuffer(self.window_size + 2 * self.hop_size)
        self._next_start = 0  # absolute start of the next window to emit
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
        """Buffered samples not yet part of an emitted window's hop."""
        return self._consumed - self._next_start

    def push(self, chunk) -> list:
        """Feed one chunk; return the windows it completed (maybe []).

        A chunk that is not 1-D or holds NaN or ±inf raises
        :class:`~repro.errors.DataError` before any of it is buffered.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise DataError(f"chunk must be 1-D, got shape {chunk.shape}")
        if not np.isfinite(chunk).all():
            raise DataError(
                f"chunk holds {int(np.count_nonzero(~np.isfinite(chunk)))} "
                "non-finite sample(s)"
            )
        out = []
        offset = 0
        n = len(chunk)
        while offset < n:
            take = min(n - offset, self._ring.free)
            if take > 0:
                self._ring.append(chunk[offset : offset + take])
                self._consumed += take
                offset += take
            self._drain_ready(out)
            if take == 0 and self._ring.free == 0:  # pragma: no cover
                raise DataError("windower wedged: full ring, no window ready")
        return out

    def _drain_ready(self, out: list) -> None:
        while self._ring.end_index - self._next_start >= self.window_size:
            samples = self._ring.read(self._next_start, self.window_size)
            out.append(
                Window(index=self._emitted, start=self._next_start, samples=samples)
            )
            self._emitted += 1
            self._next_start += self.hop_size
            self._ring.discard_before(self._next_start)

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
        unusable = (self._consumed - self._next_start) + n_samples
        lost = max(0, (unusable - self.window_size) // self.hop_size + 1)
        self._consumed += n_samples
        self._next_start = self._consumed
        self._ring.clear_to(self._consumed)
        self._emitted += lost
        return int(lost)

    def __repr__(self):
        return (
            f"StreamWindower(window={self.window_size}, hop={self.hop_size}, "
            f"emitted={self._emitted}, pending={self.pending_samples})"
        )
