"""The one configuration of a GAN-Sec case-study experiment."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from repro.errors import ConfigurationError
from repro.manufacturing.architecture import MONITORED_EMISSIONS
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one case-study experiment.

    Algorithms 1–3 read their settings from here: the recording, the
    Algorithm 2 training schedule (``iterations``, ``batch_size``,
    ``k_disc``; the networks are :class:`~repro.gan.cgan.ConditionalGAN`'s
    defaults) and the Algorithm 3 analysis (``h``, ``g_size``,
    ``test_fraction``).  ``seed`` is the root of every derived RNG
    stream, so it fixes the recording, the split, training and the
    analysis draws.
    """

    name: str = "case-study"
    seed: int = 0
    n_moves_per_axis: int = 30
    sample_rate: float = 12000.0
    n_bins: int = 100
    emission_flow: str = "F18"
    iterations: int = 2000
    batch_size: int = 32
    k_disc: int = 1
    h: float = 0.2
    g_size: int = 200
    test_fraction: float = 0.25
    analysis_workers: int = 1
    trace: bool = False
    #: Optional directory for the on-disk raw-feature cache; repeated
    #: experiments over identical recorded audio skip CWT extraction.
    feature_cache: str | None = None
    #: Cadence (in Algorithm 2 iterations) of crash-recovery training
    #: checkpoints; 0 disables them.  Like the other scheduling knobs,
    #: this never affects results — only how much work an interrupted
    #: run can skip when resumed.
    checkpoint_every: int = 500

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        check_positive_int(self.seed, "seed", minimum=0)
        for name in (
            "n_moves_per_axis", "n_bins", "iterations", "batch_size",
            "k_disc", "g_size", "analysis_workers",
        ):
            check_positive_int(getattr(self, name), name)
        check_positive_int(self.checkpoint_every, "checkpoint_every", minimum=0)
        check_positive(self.h, "h")
        check_positive(self.sample_rate, "sample_rate")
        check_in_range(self.test_fraction, "test_fraction", 0.0, 1.0, inclusive=False)
        emissions = sorted(MONITORED_EMISSIONS.values())
        if self.emission_flow not in emissions:
            raise ConfigurationError(
                f"emission_flow must be one of {emissions}, "
                f"got {self.emission_flow!r}"
            )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load a config written as JSON (e.g. a run's ``config.json``).

        Unknown keys are rejected by name instead of exploding inside
        the dataclass constructor, so a typo'd or newer-format config
        fails with an actionable message.
        """
        path = Path(path)
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"experiment config {path} must hold a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown experiment config key(s) in {path}: "
                + ", ".join(unknown)
            )
        return cls(**data)
