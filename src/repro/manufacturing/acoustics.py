"""Acoustic-emission synthesis: motion segments → microphone waveforms.

This is the substitute for the paper's physical measurement chain
(3D printer + C411L contact microphone + makeshift anechoic chamber).
The synthesis is physics-inspired rather than a full mechanical model:

* each running stepper contributes a tonal stack at its step frequency
  (fundamental + decaying harmonics) — the dominant, information-bearing
  component of real stepper noise;
* motor/mount resonances add band-limited noise humps at
  motor-specific center frequencies;
* running motors also add broadband hiss;
* the chamber contributes a small ambient noise floor and the contact
  microphone a white measurement-noise floor and a gentle band-pass
  response.

The resonance humps and the microphone response are zero-phase filters
applied in the Fourier domain.  Each filters linearly: the signal is
zero-padded to the smallest 5-smooth length that holds it
(:func:`_fft_filter`), where pocketfft runs fast whatever the recording
length, and the output is cropped back to the input length.

Every stochastic element draws from an injected RNG, so traces are
reproducible given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.manufacturing.kinematics import MotionSegment
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class AnechoicChamber:
    """Environmental model: how much outside noise reaches the sensor.

    The paper's setup is "enclosed in a makeshift anechoic chamber to
    isolate the noise from the environment", i.e. small but nonzero
    ambient leakage.
    """

    ambient_noise_level: float = 0.002

    def __post_init__(self):
        if self.ambient_noise_level < 0:
            raise ConfigurationError("ambient_noise_level must be >= 0")


@dataclass(frozen=True)
class ContactMicrophone:
    """Sensor model: gain, noise floor, and band-pass response.

    Attributes
    ----------
    gain:
        Overall sensitivity multiplier.
    noise_level:
        White measurement-noise RMS.
    low_cut_hz / high_cut_hz:
        Gaussian-edge band-pass corner frequencies applied in the
        Fourier domain (a contact mic rolls off at both extremes).  The
        filter is linear: the trace is zero-padded to a 5-smooth FFT
        length and the output cropped back to the trace's length.
    """

    gain: float = 1.0
    noise_level: float = 0.003
    low_cut_hz: float = 30.0
    high_cut_hz: float = 5500.0

    def __post_init__(self):
        if self.gain <= 0:
            raise ConfigurationError("gain must be > 0")
        if self.noise_level < 0:
            raise ConfigurationError("noise_level must be >= 0")
        if not 0 < self.low_cut_hz < self.high_cut_hz:
            raise ConfigurationError("need 0 < low_cut_hz < high_cut_hz")

    def apply(self, x: np.ndarray, sample_rate: float, rng) -> np.ndarray:
        """Filter *x* through the microphone response and add sensor noise."""
        n = len(x)
        if n == 0:
            return x
        out = _fft_filter(x, sample_rate, self._response) * self.gain
        if self.noise_level > 0:
            out = out + rng.normal(0.0, self.noise_level, size=n)
        return out

    def _response(self, freqs: np.ndarray) -> np.ndarray:
        """Soft high-pass below low_cut and low-pass above high_cut."""
        response = np.ones_like(freqs)
        below = freqs < self.low_cut_hz
        response[below] = np.exp(
            -0.5 * ((freqs[below] - self.low_cut_hz) / (self.low_cut_hz / 2.0)) ** 2
        )
        above = freqs > self.high_cut_hz
        response[above] = np.exp(
            -0.5 * ((freqs[above] - self.high_cut_hz) / (self.high_cut_hz / 4.0)) ** 2
        )
        return response


def _fft_length(n: int) -> int:
    """The smallest 5-smooth length ``2**a * 3**b * 5**c >= n``."""
    best = 1 << max(n - 1, 0).bit_length()  # A power of two is 5-smooth.
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The least power-of-two multiple of p35 that reaches n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_filter(x: np.ndarray, sample_rate: float, response) -> np.ndarray:
    """*x* filtered linearly by a zero-phase *response* (a function of
    frequency in Hz): zero-padded to the :func:`_fft_length` of its
    length, weighted in the Fourier domain and cropped back."""
    n = len(x)
    m = _fft_length(n)
    freqs = np.fft.rfftfreq(m, d=1.0 / sample_rate)
    return np.fft.irfft(np.fft.rfft(x, n=m) * response(freqs), n=m)[:n]


def _band_noise(
    n: int, sample_rate: float, center_hz: float, bw_hz: float, rng
) -> np.ndarray:
    """Gaussian-band-filtered white noise, unit RMS."""
    white = rng.normal(0.0, 1.0, size=n)
    band = _fft_filter(
        white,
        sample_rate,
        lambda freqs: np.exp(-0.5 * ((freqs - center_hz) / (bw_hz / 2.0)) ** 2),
    )
    rms = np.sqrt(np.mean(band**2))
    return band / rms if rms > 0 else band


def _raised_cosine_ramp(n: int, ramp: int) -> np.ndarray:
    """Envelope with raised-cosine fade-in/out to avoid segment clicks."""
    env = np.ones(n)
    ramp = min(ramp, n // 2)
    if ramp > 0:
        t = np.linspace(0, np.pi / 2, ramp)
        env[:ramp] = np.sin(t) ** 2
        env[-ramp:] = np.sin(t[::-1]) ** 2
    return env


class AcousticSynthesizer:
    """Render motion segments to contact-microphone waveforms.

    Parameters
    ----------
    motors:
        Axis -> :class:`StepperMotor` (provides acoustic signatures).
    sample_rate:
        Output sample rate in Hz (default 12 kHz: cheap, and Nyquist
        6 kHz comfortably covers the paper's 50–5000 Hz analysis band).
    microphone, chamber:
        Sensor and environment models.
    jitter:
        Relative std-dev of per-segment random detuning of motor tones
        (manufacturing variation / firmware timing noise).
    """

    def __init__(
        self,
        motors: dict,
        *,
        sample_rate: float = 12000.0,
        microphone: ContactMicrophone | None = None,
        chamber: AnechoicChamber | None = None,
        jitter: float = 0.01,
    ):
        check_positive(sample_rate, "sample_rate")
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        self.motors = dict(motors)
        self.sample_rate = float(sample_rate)
        self.microphone = microphone or ContactMicrophone()
        self.chamber = chamber or AnechoicChamber()
        self.jitter = float(jitter)

    def segment_samples(self, segment: MotionSegment) -> int:
        """Number of audio samples a segment spans (at least 1)."""
        return max(1, int(round(segment.duration * self.sample_rate)))

    def synthesize_segment(self, segment: MotionSegment, *, seed=None) -> np.ndarray:
        """Waveform for one motion segment (before environment/sensor)."""
        rng = as_rng(seed)
        n = self.segment_samples(segment)
        t = np.arange(n) / self.sample_rate
        out = np.zeros(n)
        nyquist = self.sample_rate / 2.0
        for axis in sorted(segment.active_axes):
            motor = self.motors.get(axis)
            if motor is None:
                continue  # Axis without a motor model contributes nothing.
            sig = motor.signature
            base = segment.step_frequencies[axis]
            if base <= 0:
                continue
            detune = 1.0 + rng.normal(0.0, self.jitter)
            # Tonal stack.
            for k, gain in enumerate(sig.harmonic_gains, start=1):
                f = base * k * detune
                if f >= nyquist or gain <= 0:
                    continue
                phase = rng.uniform(0.0, 2.0 * np.pi)
                # Slow random amplitude modulation (mechanical load wobble).
                am = 1.0 + 0.1 * np.sin(
                    2.0 * np.pi * rng.uniform(0.5, 3.0) * t + rng.uniform(0, 2 * np.pi)
                )
                out += sig.amplitude * gain * am * np.sin(2.0 * np.pi * f * t + phase)
            # Resonance hump + broadband hiss.
            if sig.resonance_gain > 0:
                out += (
                    sig.amplitude
                    * sig.resonance_gain
                    * _band_noise(n, self.sample_rate, sig.resonance_hz,
                                  sig.resonance_bw_hz, rng)
                )
            if sig.broadband_gain > 0:
                out += sig.amplitude * sig.broadband_gain * rng.normal(0.0, 1.0, n)
        # Fade edges (5 ms) so concatenated segments do not click.
        out *= _raised_cosine_ramp(n, int(0.005 * self.sample_rate))
        return out

    def render(self, segments, *, seed=None):
        """Render a whole plan.

        Returns
        -------
        audio:
            Concatenated waveform including chamber ambient noise and
            microphone response/noise.
        boundaries:
            Segment boundary times (seconds), ``len(segments) + 1``
            entries, aligned with *audio*.
        """
        rng = as_rng(seed)
        chunks = []
        boundaries = [0.0]
        for segment in segments:
            chunk = self.synthesize_segment(segment, seed=rng)
            chunks.append(chunk)
            boundaries.append(boundaries[-1] + len(chunk) / self.sample_rate)
        if chunks:
            audio = np.concatenate(chunks)
        else:
            audio = np.zeros(0)
        if self.chamber.ambient_noise_level > 0 and len(audio):
            audio = audio + rng.normal(0.0, self.chamber.ambient_noise_level, len(audio))
        if len(audio):
            audio = self.microphone.apply(audio, self.sample_rate, rng)
        return audio, boundaries
