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

Numerical contract
------------------
* A batch and each of its rows run alone go through the exact same
  kernel/FFT code, so their outputs are **bitwise identical**
  (``tests/dsp/test_filterbank.py`` asserts this).
* Versus the seed per-scale loop the only change is computing the
  forward transform with ``rfft`` (real input) instead of a full complex
  ``fft``; results agree to a few ULPs (relative error ``~1e-15``).
* Both transforms run on ``numpy.fft``; the goldens' bits need NumPy
  2.x's C++ pocketfft (``numpy>=2.0``), older NumPy FFTs differ.
"""

from __future__ import annotations

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

#: Target size of the complex spectrum workspace per block, chosen to
#: stay cache-resident: larger blocks measurably *lose* throughput on the
#: blocked inverse FFT (memory-bound once the workspace spills to RAM).
_BLOCK_BYTES = 4 * 1024 * 1024

#: Module-level bank cache (LRU): banks are pure functions of their key
#: and ~``n_freqs * n/2`` floats each, so a handful of entries covers a
#: whole experiment (one per distinct segment length).
_BANK_CACHE_SIZE = 32
_bank_cache: OrderedDict = OrderedDict()
_bank_lock = threading.Lock()


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

    def _block_rows(self, batch: int) -> int:
        rows = _BLOCK_BYTES // (self.n_freqs * self.n * 16)
        return int(max(1, min(batch, rows)))

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

        Blocked so the complex workspace stays cache-sized regardless of
        batch size; numerically identical (bitwise) to reducing
        :meth:`transform` output, without materializing it.
        """
        x = self._check_batch(x)
        batch = x.shape[0]
        n_rfft = self.kernels.shape[1]
        xf = np.fft.rfft(x, axis=-1)
        out = np.empty((batch, self.n_freqs), dtype=np.float64)
        blk = self._block_rows(batch)
        spec = np.zeros((blk, self.n_freqs, self.n), dtype=np.complex128)
        mag = np.empty((blk, self.n_freqs, self.n), dtype=np.float64)
        for start in range(0, batch, blk):
            b = min(blk, batch - start)
            np.multiply(
                xf[start : start + b, None, :],
                self.kernels[None, :, :],
                out=spec[:b, :, :n_rfft],
            )
            coeff = np.fft.ifft(spec[:b], axis=-1)
            np.abs(coeff, out=mag[:b])
            np.mean(mag[:b], axis=-1, out=out[start : start + b])
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

