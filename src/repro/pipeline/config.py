"""Configuration dataclasses for the end-to-end GAN-Sec pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive, check_positive_int


@dataclass
class CGANConfig:
    """Hyperparameters for each flow pair's CGAN (Algorithm 2)."""

    noise_dim: int = 16
    generator_hidden: tuple = (64, 64)
    discriminator_hidden: tuple = (64, 32)
    learning_rate: float = 2e-3
    iterations: int = 2000
    batch_size: int = 32
    k_disc: int = 1
    label_smoothing: float = 0.0
    generator_loss: str = "non_saturating"

    def __post_init__(self):
        for name in ("noise_dim", "iterations", "batch_size", "k_disc"):
            check_positive_int(getattr(self, name), name)
        check_positive(self.learning_rate, "learning_rate")


@dataclass
class AnalysisConfig:
    """Parameters for the Algorithm 3 security analysis."""

    h: float = 0.2
    g_size: int = 200
    test_fraction: float = 0.25
    feature_indices: tuple | None = None

    def __post_init__(self):
        check_positive(self.h, "h")
        check_positive_int(self.g_size, "g_size")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("test_fraction must be in (0, 1)")


@dataclass
class GANSecConfig:
    """Top-level pipeline configuration.

    ``workers`` sets the pair-training fan-out (see
    :func:`repro.runtime.executors.fan_out`): one worker trains the
    pairs in the calling thread, more train them on that many processes
    (at most one per pair).  ``analysis_workers`` does the same for the
    Algorithm 3 security-analysis fan-out (per-(pair, condition) jobs);
    both stages produce results that are bitwise-independent of the
    worker count.
    """

    cgan: CGANConfig = field(default_factory=CGANConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    seed: int | None = None
    workers: int = 1
    analysis_workers: int = 1

    def __post_init__(self):
        check_positive_int(self.workers, "workers")
        check_positive_int(self.analysis_workers, "analysis_workers")
