"""Continuous wavelet transform with a Morlet mother wavelet.

Section IV-B of the paper converts the time-domain acoustic energy flow
into frequency-domain features with a continuous wavelet transform
("which preserves the high-frequency resolution in time-domain as well")
before binning into 100 non-uniform frequency bins between 50 and
5000 Hz.  This module implements that transform from scratch:

* an analytic (complex) Morlet mother wavelet,
* FFT-based convolution across a precomputed bank of scales
  (:mod:`repro.dsp.filterbank`), batched over segments,
* helpers to map target frequencies to scales.

The implementation follows the standard Torrence & Compo (1998)
formulation.  Single-segment (:func:`cwt_morlet`) and batched
(:func:`cwt_morlet_batch`) entry points share one kernel/FFT code path,
so their outputs are bitwise identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_array
from repro.dsp.filterbank import (
    DEFAULT_OMEGA0,
    MORLET_NORM,
    get_filter_bank,
    validate_frequencies,
)

__all__ = [
    "DEFAULT_OMEGA0",
    "average_band_energy",
    "average_band_energy_batch",
    "cwt_morlet",
    "cwt_morlet_batch",
    "frequency_to_scale",
    "morlet_center_frequency",
    "morlet_wavelet",
    "scalogram",
    "validate_frequencies",
]


def morlet_center_frequency(omega0: float = DEFAULT_OMEGA0) -> float:
    """Pseudo-frequency (cycles per unit scale) of the Morlet wavelet.

    For scale ``s`` and sampling period ``dt``, the equivalent Fourier
    frequency is ``f = center / (s * dt)``.
    """
    return (omega0 + np.sqrt(2.0 + omega0**2)) / (4.0 * np.pi)


def frequency_to_scale(freq_hz, sample_rate: float, omega0: float = DEFAULT_OMEGA0):
    """Scale(s) whose Morlet pseudo-frequency equals *freq_hz*."""
    freq = np.asarray(freq_hz, dtype=np.float64)
    if np.any(freq <= 0):
        raise ConfigurationError("frequencies must be > 0")
    if sample_rate <= 0:
        raise ConfigurationError(f"sample_rate must be > 0, got {sample_rate}")
    center = morlet_center_frequency(omega0)
    return center * sample_rate / freq


def morlet_wavelet(t: np.ndarray, omega0: float = DEFAULT_OMEGA0) -> np.ndarray:
    """Complex Morlet mother wavelet sampled at times *t* (unit scale)."""
    t = np.asarray(t, dtype=np.float64)
    return MORLET_NORM * np.exp(1j * omega0 * t) * np.exp(-0.5 * t * t)


def cwt_morlet_batch(
    x: np.ndarray,
    sample_rate: float,
    frequencies: np.ndarray,
    *,
    omega0: float = DEFAULT_OMEGA0,
) -> np.ndarray:
    """Morlet CWT of a batch of equal-length segments.

    Implemented in the Fourier domain with a precomputed, cached
    :class:`~repro.dsp.filterbank.MorletFilterBank`: one ``rfft`` per
    segment, one kernel multiply and inverse FFT per (segment, scale).
    This is O(n log n) per scale and exact up to FFT roundoff for
    periodic extension.

    Parameters
    ----------
    x:
        ``(n_segments, n_samples)`` stacked real segments.
    sample_rate, frequencies, omega0:
        Analysis grid; *frequencies* must be strictly positive, sorted,
        duplicate-free, and <= Nyquist.

    Returns
    -------
    ndarray of shape ``(n_segments, len(frequencies), n_samples)`` with
    complex coefficients; take ``np.abs`` for scalograms.
    """
    x = check_array(x, "x", ndim=2)
    bank = get_filter_bank(x.shape[1], sample_rate, frequencies, omega0=omega0)
    return bank.transform(x)


def cwt_morlet(
    x: np.ndarray,
    sample_rate: float,
    frequencies: np.ndarray,
    *,
    omega0: float = DEFAULT_OMEGA0,
) -> np.ndarray:
    """Morlet CWT of one segment at the given *frequencies*.

    Single-segment entry point over the same cached filter bank as
    :func:`cwt_morlet_batch` (batched and looped calls are bitwise
    identical).

    Returns
    -------
    ndarray of shape ``(len(frequencies), len(x))`` with complex
    coefficients; take ``np.abs`` for the scalogram.
    """
    x = check_array(x, "x", ndim=1)
    return cwt_morlet_batch(x[None, :], sample_rate, frequencies, omega0=omega0)[0]


def scalogram(
    x: np.ndarray,
    sample_rate: float,
    frequencies: np.ndarray,
    *,
    omega0: float = DEFAULT_OMEGA0,
) -> np.ndarray:
    """Magnitude of the Morlet CWT: shape ``(n_freqs, n_samples)``."""
    return np.abs(cwt_morlet(x, sample_rate, frequencies, omega0=omega0))


def average_band_energy(
    x: np.ndarray,
    sample_rate: float,
    frequencies: np.ndarray,
    *,
    omega0: float = DEFAULT_OMEGA0,
) -> np.ndarray:
    """Time-averaged CWT magnitude per analysis frequency.

    This is the per-segment feature the case study feeds to the CGAN: one
    magnitude per frequency bin for a window of audio.
    """
    x = check_array(x, "x", ndim=1)
    return average_band_energy_batch(
        x[None, :], sample_rate, frequencies, omega0=omega0
    )[0]


def average_band_energy_batch(
    x: np.ndarray,
    sample_rate: float,
    frequencies: np.ndarray,
    *,
    omega0: float = DEFAULT_OMEGA0,
) -> np.ndarray:
    """Time-averaged CWT magnitudes for a batch of equal-length segments.

    Equivalent to stacking :func:`average_band_energy` over rows (bitwise
    — both run through the same bank), but blocked so the complex
    coefficient cube never materializes.

    Returns
    -------
    ndarray of shape ``(n_segments, len(frequencies))``.
    """
    x = check_array(x, "x", ndim=2)
    bank = get_filter_bank(x.shape[1], sample_rate, frequencies, omega0=omega0)
    return bank.band_energy(x)
