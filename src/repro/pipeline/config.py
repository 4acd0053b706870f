"""Configuration dataclasses for the end-to-end GAN-Sec pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive_int


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
        if self.noise_dim <= 0:
            raise ConfigurationError("noise_dim must be > 0")
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be > 0")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be > 0")
        if self.k_disc <= 0:
            raise ConfigurationError("k_disc must be > 0")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be > 0")


@dataclass
class AnalysisConfig:
    """Parameters for the Algorithm 3 security analysis."""

    h: float = 0.2
    g_size: int = 200
    test_fraction: float = 0.25
    feature_indices: tuple | None = None

    def __post_init__(self):
        if self.h <= 0:
            raise ConfigurationError("h must be > 0")
        if self.g_size <= 0:
            raise ConfigurationError("g_size must be > 0")
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
    worker count.  ``progress_every``
    sets the cadence (in Algorithm 2 iterations) of
    :class:`~repro.runtime.events.EpochProgress` events; 0 disables
    them.  ``sample_cache_entries`` bounds the LRU cache of generated
    condition samples shared across repeated ``analyze()`` calls (e.g.
    h sweeps); eviction never changes the numbers because every entry
    is re-derivable from the pipeline seed and the (pair, condition)
    identity alone.
    """

    cgan: CGANConfig = field(default_factory=CGANConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    seed: int | None = None
    workers: int = 1
    analysis_workers: int = 1
    progress_every: int = 0
    sample_cache_entries: int = 64

    def __post_init__(self):
        check_positive_int(self.workers, "workers")
        check_positive_int(self.analysis_workers, "analysis_workers")
        if self.sample_cache_entries < 1:
            raise ConfigurationError(
                "sample_cache_entries must be >= 1, got "
                f"{self.sample_cache_entries}"
            )
        if self.progress_every < 0:
            raise ConfigurationError(
                f"progress_every must be >= 0, got {self.progress_every}"
            )
