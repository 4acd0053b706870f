"""Precomputed Morlet filter banks: the Morlet CWT of Section IV-B.

The continuous wavelet transform follows Torrence & Compo (1998): an
analytic Morlet mother wavelet, applied by FFT convolution at the scales
whose pseudo-frequencies are the analysis frequencies.  The seed
implementation rebuilt the frequency-domain kernel ``psi_hat`` for every
scale on every call — 100 ``exp`` evaluations over full-length spectra
per audio segment.  A :class:`MorletFilterBank` computes those kernels
once per ``(n, sample_rate, frequencies)`` and applies them to whole
``(n_segments, n_samples)`` batches in blocked form, which is where the
extraction speedup in ``BENCH_hotpath.json`` comes from.
:meth:`MorletFilterBank.band_energy` splits a batch into (rows,
frequency-band) chunks and drains them with the caller plus one helper
thread per further CPU this process may run on; the FFTs release the
interpreter lock, so the chunks run in parallel.

Numerical contract
------------------
* A batch and each of its rows run alone go through the exact same
  kernel/FFT code, so their outputs are **bitwise identical**
  (``tests/dsp/test_filterbank.py`` asserts this).
* Every (row, frequency) inverse FFT and time mean is independent of
  the others, so :meth:`MorletFilterBank.band_energy` is bitwise the
  same for every chunk size and every number of worker threads,
  including a process pinned to one CPU.
* Versus the seed per-scale loop the only change is computing the
  forward transform with ``rfft`` (real input) instead of a full complex
  ``fft``; results agree to a few ULPs (relative error ``~1e-15``).
* Both transforms run on ``numpy.fft``; the goldens' bits need NumPy
  2.x's C++ pocketfft (``numpy>=2.0``), older NumPy FFTs differ.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_array, check_positive

#: Morlet admissibility normalization ``pi ** -0.25`` of every
#: frequency-domain kernel.
MORLET_NORM = np.pi ** (-0.25)

#: Default Morlet center frequency (dimensionless omega0).
DEFAULT_OMEGA0 = 6.0

#: Largest complex spectrum of one :meth:`MorletFilterBank.band_energy`
#: chunk.  Each worker also holds the chunk's coefficients and
#: magnitudes, 2.5x this in all.  On a shared 2-vCPU host, 32 windows of
#: 600 samples took 21.5 ms on one worker and 21.9 ms on two at 4 MiB,
#: against 18.8 and 10.9 ms at 1 MiB.  One 600-sample window (0.96 MB)
#: fits in one chunk and so runs on the caller alone.
_BLOCK_BYTES = 1024 * 1024

#: Module-level bank cache (LRU): banks are pure functions of their key
#: and ~``n_freqs * n/2`` floats each, so a handful of entries covers a
#: whole experiment (one per distinct segment length).
_BANK_CACHE_SIZE = 32
_bank_cache: OrderedDict = OrderedDict()
_bank_lock = threading.Lock()


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def validate_frequencies(frequencies, sample_rate: float, *, name: str = "frequencies") -> np.ndarray:
    """Validate a CWT analysis-frequency grid.

    Requires strictly positive, strictly ascending (sorted, no
    duplicates) frequencies not exceeding Nyquist.  Raises
    :class:`~repro.errors.ConfigurationError` (a :class:`ValueError`)
    naming the offending property instead of silently misbehaving.
    """
    freqs = check_array(frequencies, name, ndim=1)
    check_positive(sample_rate, "sample_rate")
    if np.any(freqs <= 0):
        raise ConfigurationError(
            f"{name} must be strictly positive, got min={freqs.min()}"
        )
    diffs = np.diff(freqs)
    if np.any(diffs < 0):
        raise ConfigurationError(f"{name} must be sorted in ascending order")
    if np.any(diffs == 0):
        raise ConfigurationError(f"{name} must not contain duplicates")
    nyquist = sample_rate / 2.0
    if freqs[-1] > nyquist:
        raise ConfigurationError(
            f"{name} exceed Nyquist ({nyquist} Hz): max={freqs[-1]}"
        )
    return freqs


def morlet_kernel_ft(scaled_w: np.ndarray) -> np.ndarray:
    """Frequency-domain analytic Morlet kernel at scaled angular frequencies.

    ``MORLET_NORM * exp(-(s*w - omega0)^2 / 2)`` with ``omega0 =
    DEFAULT_OMEGA0`` (the support restriction to positive frequencies is
    applied by the caller, which knows the grid).
    """
    scaled_w = np.asarray(scaled_w, dtype=np.float64)
    return MORLET_NORM * np.exp(-0.5 * (scaled_w - DEFAULT_OMEGA0) ** 2)


class MorletFilterBank:
    """Precomputed frequency-domain Morlet kernels for fixed-length input.

    Parameters
    ----------
    n:
        Segment length in samples; the bank only applies to inputs of
        exactly this length.
    sample_rate:
        Sampling rate in Hz.
    frequencies:
        Analysis frequencies (validated: positive, sorted, unique,
        <= Nyquist).

    The kernels are stored for the non-negative (``rfft``) half-spectrum
    only; the analytic wavelet has no support on negative frequencies,
    and DC / Nyquist bins are zero exactly as in the seed per-scale loop
    (``fftfreq`` treats the even-``n`` Nyquist bin as negative).
    """

    def __init__(self, n: int, sample_rate: float, frequencies):
        if n <= 0:
            raise ConfigurationError(f"segment length must be > 0, got {n}")
        freqs = validate_frequencies(frequencies, sample_rate)
        self.n = int(n)
        self.sample_rate = float(sample_rate)
        self.frequencies = freqs.copy()
        self.frequencies.setflags(write=False)

        # Scale whose Morlet pseudo-frequency is each analysis frequency.
        omega0 = DEFAULT_OMEGA0
        center = (omega0 + np.sqrt(2.0 + omega0**2)) / (4.0 * np.pi)
        self.scales = center * self.sample_rate / freqs
        self.scales.setflags(write=False)

        n_rfft = self.n // 2 + 1
        w_pos = 2.0 * np.pi * np.fft.rfftfreq(self.n)
        # Strictly-positive, non-Nyquist bins: the seed masks on
        # ``fftfreq(n) > 0``, which excludes DC always and the Nyquist
        # bin when n is even (fftfreq labels it negative).
        if self.n % 2 == 0:
            support = slice(1, n_rfft - 1)
        else:
            support = slice(1, n_rfft)
        kernels = np.zeros((len(freqs), n_rfft), dtype=np.float64)
        kernels[:, support] = morlet_kernel_ft(
            self.scales[:, None] * w_pos[None, support]
        )
        # Torrence & Compo Eq. 6 amplitude normalization per scale.
        kernels *= np.sqrt(2.0 * np.pi * self.scales)[:, None]
        self.kernels = kernels
        self.kernels.setflags(write=False)

    @property
    def n_freqs(self) -> int:
        return len(self.frequencies)

    def _check_batch(self, x) -> np.ndarray:
        x = check_array(x, "x", ndim=2)
        if x.shape[1] != self.n:
            raise ConfigurationError(
                f"bank built for segments of length {self.n}, got {x.shape[1]}"
            )
        return x

    def _chunk_shape(self, batch: int) -> tuple:
        """``(rows, frequencies)`` of one :meth:`band_energy` chunk.

        Whole rows while at least one fits in ``_BLOCK_BYTES``, else one
        row times a band of frequencies, so a long segment still splits.
        """
        spectra = max(1, _BLOCK_BYTES // (self.n * 16))
        if spectra >= self.n_freqs:
            return min(batch, spectra // self.n_freqs), self.n_freqs
        return 1, spectra

    def transform(self, x) -> np.ndarray:
        """Batched complex CWT: ``(batch, n) -> (batch, n_freqs, n)``.

        Materializes the full coefficient cube — prefer
        :meth:`band_energy` when only time-averaged magnitudes are
        needed.
        """
        x = self._check_batch(x)
        xf = np.fft.rfft(x, axis=-1)
        n_rfft = self.kernels.shape[1]
        spec = np.zeros((x.shape[0], self.n_freqs, self.n), dtype=np.complex128)
        np.multiply(xf[:, None, :], self.kernels[None, :, :], out=spec[:, :, :n_rfft])
        # Row-wise inverse transform: each (freq, segment) row is an
        # independent length-n ifft, so blocked and single-segment calls
        # agree bitwise.
        return np.fft.ifft(spec, axis=-1)

    def band_energy(self, x) -> np.ndarray:
        """Time-averaged CWT magnitude per band: ``(batch, n_freqs)``.

        Numerically identical (bitwise) to reducing :meth:`transform`
        output, without materializing it.  The batch is cut into
        (rows, frequency-band) chunks whose spectra fit in
        ``_BLOCK_BYTES``; the caller and ``min(CPUs, chunks) - 1``
        helper threads take chunks from one shared iterator, each in a
        workspace the caller allocated.  Helpers start and are joined
        within the call, and an exception in any worker is raised here.
        """
        x = self._check_batch(x)
        batch = x.shape[0]
        n_rfft = self.kernels.shape[1]
        xf = np.fft.rfft(x, axis=-1)
        out = np.empty((batch, self.n_freqs), dtype=np.float64)
        rows, band = self._chunk_shape(batch)
        chunks = [
            (r, f)
            for r in range(0, batch, rows)
            for f in range(0, self.n_freqs, band)
        ]
        workspaces = [
            (
                np.zeros((rows, band, self.n), dtype=np.complex128),
                np.empty((rows, band, self.n), dtype=np.complex128),
                np.empty((rows, band, self.n), dtype=np.float64),
            )
            for _ in range(min(_available_cpus(), len(chunks)))
        ]
        todo = iter(chunks)
        lock = threading.Lock()
        failures: list = []

        def drain(spec, coeff, mag):
            try:
                while not failures:
                    with lock:
                        chunk = next(todo, None)
                    if chunk is None:
                        return
                    r, f = chunk
                    b, k = min(rows, batch - r), min(band, self.n_freqs - f)
                    # Bins past n_rfft stay zero from allocation.
                    np.multiply(
                        xf[r : r + b, None, :],
                        self.kernels[None, f : f + k, :],
                        out=spec[:b, :k, :n_rfft],
                    )
                    np.fft.ifft(spec[:b, :k], axis=-1, out=coeff[:b, :k])
                    np.abs(coeff[:b, :k], out=mag[:b, :k])
                    np.mean(mag[:b, :k], axis=-1, out=out[r : r + b, f : f + k])
            except BaseException as exc:  # re-raised by the caller below
                failures.append(exc)

        helpers = []
        try:
            for ws in workspaces[1:]:
                helper = threading.Thread(target=drain, args=ws)
                helper.start()
                helpers.append(helper)
            drain(*workspaces[0])
        finally:
            for helper in helpers:
                helper.join()
        if failures:
            raise failures[0]
        return out

    def __repr__(self):
        return (
            f"MorletFilterBank(n={self.n}, sample_rate={self.sample_rate}, "
            f"n_freqs={self.n_freqs})"
        )


def get_filter_bank(n: int, sample_rate: float, frequencies) -> MorletFilterBank:
    """Shared LRU-cached :class:`MorletFilterBank` lookup.

    Keyed on ``(n, sample_rate, frequency bytes)`` so repeated
    transforms — every segment of an experiment — reuse one precomputed
    bank per distinct segment length.  Thread-safe.
    """
    freqs = check_array(frequencies, "frequencies", ndim=1)
    key = (int(n), float(sample_rate), freqs.tobytes())
    with _bank_lock:
        bank = _bank_cache.get(key)
        if bank is not None:
            _bank_cache.move_to_end(key)
            return bank
    # Build outside the lock (construction is the expensive part).
    bank = MorletFilterBank(n, sample_rate, freqs)
    with _bank_lock:
        _bank_cache[key] = bank
        _bank_cache.move_to_end(key)
        while len(_bank_cache) > _BANK_CACHE_SIZE:
            _bank_cache.popitem(last=False)
    return bank


def clear_filter_bank_cache() -> None:
    """Drop all cached banks (mainly for tests and memory control)."""
    with _bank_lock:
        _bank_cache.clear()

