"""Side-channel defenses and their evaluation.

The GAN-Sec methodology is symmetric: the same CGAN that *measures*
leakage can score *defenses* — re-run the attacker against the defended
system and report how much accuracy/mutual information the defense
removes.  Two classic acoustic-side-channel defenses from the authors'
follow-on work (information-leakage-aware CAM, Chhetri et al. 2018) are
implemented against the simulated testbed:

* :class:`AcousticMasking` — an active masking emitter adds band-limited
  noise to what the microphone hears, lowering the emission SNR;
* :class:`FeedRateDithering` — the controller randomizes feed rates per
  move, so the motor step frequencies (and hence the tonal signatures)
  wander run-to-run, blurring ``Pr(emission | motor)``.

Both implement the :class:`Defense` interface (transform the G-code
program and/or the recorded audio), so new defenses drop in without
touching the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.dataset import FlowPairDataset
from repro.flows.encoding import ConditionEncoder, SingleMotorEncoder
from repro.gan.cgan import ConditionalGAN
from repro.manufacturing.gcode import GCodeProgram
from repro.manufacturing.printer import Printer3D
from repro.manufacturing.programs import calibration_suite
from repro.manufacturing.traces import build_dataset, collect_segments
from repro.security.confidentiality import SideChannelAttacker
from repro.security.mutual_information import feature_leakage_profile
from repro.utils.rng import as_rng


class Defense:
    """Base interface: transform the program and/or the recorded audio."""

    name = "identity"

    def apply_program(self, program: GCodeProgram, rng) -> GCodeProgram:
        """Transform the G-code before execution (controller-side)."""
        return program

    def apply_audio(self, samples: np.ndarray, sample_rate: float, rng) -> np.ndarray:
        """Transform the microphone signal (environment-side)."""
        return samples

    def __repr__(self):
        return f"{type(self).__name__}()"


class AcousticMasking(Defense):
    """Active masking: add band-limited noise over the analysis band.

    Parameters
    ----------
    level:
        Masking-noise RMS relative to a nominal emission level of 1.0.
    f_low, f_high:
        Band covered by the masking emitter (defaults to the paper's
        50–5000 Hz analysis band).
    """

    name = "acoustic-masking"

    def __init__(self, level: float = 0.5, f_low: float = 50.0, f_high: float = 5000.0):
        if level <= 0:
            raise ConfigurationError(f"masking level must be > 0, got {level}")
        if not 0 < f_low < f_high:
            raise ConfigurationError("need 0 < f_low < f_high")
        self.level = float(level)
        self.f_low = float(f_low)
        self.f_high = float(f_high)

    def apply_audio(self, samples, sample_rate, rng):
        n = len(samples)
        if n == 0:
            return samples
        white = rng.normal(0.0, 1.0, size=n)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        band = (freqs >= self.f_low) & (freqs <= self.f_high)
        spectrum[~band] = 0.0
        noise = np.fft.irfft(spectrum, n=n)
        rms = np.sqrt(np.mean(noise**2))
        if rms > 0:
            noise = noise / rms * self.level
        return samples + noise

    def __repr__(self):
        return (
            f"AcousticMasking(level={self.level}, "
            f"band=[{self.f_low}, {self.f_high}]Hz)"
        )


class FeedRateDithering(Defense):
    """Randomize feed rates per move by up to ±``fraction``.

    The part geometry is unchanged (same coordinates), but every move's
    speed — and therefore every motor's step frequency — is jittered, so
    the tonal signature of a condition spreads over a band instead of a
    line.  Print time changes by at most ±fraction.
    """

    name = "feed-dithering"

    def __init__(self, fraction: float = 0.3):
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(
                f"dithering fraction must be in (0,1), got {fraction}"
            )
        self.fraction = float(fraction)

    def apply_program(self, program, rng):
        commands = []
        for cmd in program:
            if cmd.is_motion and "F" in cmd.params:
                scale = 1.0 + rng.uniform(-self.fraction, self.fraction)
                commands.append(cmd.replace_params(F=cmd.params["F"] * scale))
            else:
                commands.append(cmd)
        return GCodeProgram(commands, name=f"{program.name}+dither")

    def __repr__(self):
        return f"FeedRateDithering(fraction={self.fraction})"


class CombinedDefense(Defense):
    """Apply several defenses in sequence."""

    name = "combined"

    def __init__(self, defenses):
        self.defenses = list(defenses)
        if not self.defenses:
            raise ConfigurationError("CombinedDefense needs at least one defense")

    def apply_program(self, program, rng):
        for defense in self.defenses:
            program = defense.apply_program(program, rng)
        return program

    def apply_audio(self, samples, sample_rate, rng):
        for defense in self.defenses:
            samples = defense.apply_audio(samples, sample_rate, rng)
        return samples

    def __repr__(self):
        inner = ", ".join(repr(d) for d in self.defenses)
        return f"CombinedDefense([{inner}])"


def record_defended_dataset(
    printer: Printer3D,
    programs,
    extractor: FrequencyFeatureExtractor,
    encoder: ConditionEncoder,
    defense: Defense,
    *,
    seed=None,
    fit_extractor: bool = True,
) -> FlowPairDataset:
    """Run *programs* under *defense* and featureize the results.

    The defense's program transform runs before planning (controller-
    side); its audio transform runs on each recorded segment
    (environment-side).  The extractor is refitted by default — a real
    attacker would calibrate on what they can actually hear.
    """
    rng = as_rng(seed)
    runs = []
    for program in programs:
        defended = defense.apply_program(program, rng)
        runs.append(printer.run(defended, seed=rng))
    segments = collect_segments(runs)
    for seg in segments:
        seg.samples = defense.apply_audio(
            seg.samples, printer.sample_rate, rng
        )
    return build_dataset(
        segments, extractor, encoder, fit_extractor=fit_extractor
    )


@dataclass
class DefenseReport:
    """Before/after comparison of one defense.

    Attributes
    ----------
    defense_name:
        Human-readable defense description.
    baseline_accuracy / defended_accuracy:
        Side-channel attacker accuracy without / with the defense.
    baseline_mi / defended_mi:
        Mean per-feature mutual information (bits) with the condition.
    """

    defense_name: str
    baseline_accuracy: float
    defended_accuracy: float
    baseline_mi: float
    defended_mi: float

    @property
    def accuracy_reduction(self) -> float:
        return self.baseline_accuracy - self.defended_accuracy

    @property
    def mi_reduction_bits(self) -> float:
        return self.baseline_mi - self.defended_mi

    def summary(self) -> str:
        return (
            f"{self.defense_name}: attack accuracy "
            f"{self.baseline_accuracy:.3f} -> {self.defended_accuracy:.3f} "
            f"(-{self.accuracy_reduction:.3f}); mean feature MI "
            f"{self.baseline_mi:.3f} -> {self.defended_mi:.3f} bits"
        )


def evaluate_defense(
    defense: Defense,
    *,
    n_moves_per_axis: int = 30,
    iterations: int = 1500,
    h: float = 0.2,
    g_size: int = 200,
    sample_rate: float = 12000.0,
    seed=None,
) -> DefenseReport:
    """Full leakage evaluation of one defense on the case-study workload.

    Records matched baseline and defended datasets (same programs, same
    printer seed stream), trains one CGAN attacker on each, and compares
    attack accuracy and MI leakage.
    """
    rng = as_rng(seed)
    base_seed = int(rng.integers(0, 2**31 - 1))

    def _leakage(active_defense: Defense) -> tuple:
        local_rng = np.random.default_rng(base_seed)
        printer = Printer3D(sample_rate=sample_rate, seed=local_rng)
        programs = calibration_suite(n_moves_per_axis, seed=local_rng)
        extractor = FrequencyFeatureExtractor(sample_rate)
        encoder = SingleMotorEncoder()
        dataset = record_defended_dataset(
            printer, programs, extractor, encoder, active_defense,
            seed=local_rng,
        )
        train, test = dataset.split(0.25, seed=base_seed)
        cgan = ConditionalGAN(
            dataset.feature_dim, dataset.condition_dim, seed=base_seed
        )
        cgan.train(train, iterations=iterations, batch_size=32)
        attacker = SideChannelAttacker(
            cgan, test.unique_conditions(), h=h, g_size=g_size, root_entropy=base_seed
        ).fit()
        accuracy = attacker.evaluate(test).accuracy
        mi = float(feature_leakage_profile(dataset).mean())
        return accuracy, mi

    base_acc, base_mi = _leakage(Defense())
    def_acc, def_mi = _leakage(defense)
    return DefenseReport(
        defense_name=repr(defense),
        baseline_accuracy=base_acc,
        defended_accuracy=def_acc,
        baseline_mi=base_mi,
        defended_mi=def_mi,
    )
