"""The noise prior ``Pr(Z)`` of the generator (Algorithm 2, Line 5)."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int


class GaussianNoise:
    """Standard normal prior over ``R^dim`` — the usual GAN choice."""

    def __init__(self, dim: int):
        self.dim = check_positive_int(dim, "noise_dim")

    def sample(self, n: int, rng) -> np.ndarray:
        return rng.normal(0.0, 1.0, size=(n, self.dim))

    def sample_into(self, out: np.ndarray, rng) -> np.ndarray:
        """Fill the preallocated ``(n, dim)`` buffer *out* with samples.

        ``Generator.standard_normal(out=...)`` draws the same stream and
        the same doubles as the ``Generator.normal(0, 1, size)`` call of
        :meth:`sample`; the training loop uses this to avoid allocating
        a fresh noise array every step.
        """
        rng.standard_normal(out=out)
        return out

    def __call__(self, n: int, seed=None) -> np.ndarray:
        if n <= 0:
            raise ConfigurationError(f"sample count must be > 0, got {n}")
        return self.sample(n, as_rng(seed))

    def __repr__(self):
        return f"GaussianNoise(dim={self.dim})"
