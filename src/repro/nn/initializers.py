"""Weight initializers for :mod:`repro.nn` layers.

Each initializer is a small callable object so that layer configs remain
serializable (the initializer is identified by name).  The library default
is Glorot/Xavier uniform, which keeps the minimax game of Algorithm 2
numerically tame for the small conditional MLPs used by GAN-Sec.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import as_rng


class Initializer:
    """Base class.  Subclasses implement :meth:`sample`."""

    name = "base"

    def __call__(self, shape, rng) -> np.ndarray:
        rng = as_rng(rng)
        return self.sample(tuple(int(s) for s in shape), rng)

    def sample(self, shape, rng) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


def _fans(shape):
    """Return (fan_in, fan_out) for a weight shape.

    For a dense ``(in, out)`` matrix this is simply the two dimensions; for
    a 1-D bias the fan is the length on both sides.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


class Zeros(Initializer):
    """All-zero initialization."""

    name = "zeros"

    def sample(self, shape, rng):
        return np.zeros(shape, dtype=np.float64)


class GlorotUniform(Initializer):
    """Xavier/Glorot uniform: ``U(-a, a)`` with ``a = sqrt(6/(fan_in+fan_out))``.

    Keeps activation variance roughly constant across tanh/sigmoid layers —
    appropriate for the sigmoid-output generator used in the case study.
    """

    name = "glorot_uniform"

    def sample(self, shape, rng):
        fan_in, fan_out = _fans(shape)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)


class HeUniform(Initializer):
    """He/Kaiming uniform: ``U(-a, a)`` with ``a = sqrt(6/fan_in)``.

    The right scaling for ReLU/LeakyReLU hidden layers (the discriminator).
    """

    name = "he_uniform"

    def sample(self, shape, rng):
        fan_in, _ = _fans(shape)
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape)


_REGISTRY = {cls.name: cls for cls in (Zeros, GlorotUniform, HeUniform)}


def get_initializer(spec) -> Initializer:
    """Resolve *spec* (name or instance) to an initializer instance."""
    if isinstance(spec, Initializer):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise ConfigurationError(
                f"unknown initializer {spec!r}; choose from {sorted(_REGISTRY)}"
            ) from None
    raise ConfigurationError(f"cannot interpret initializer spec: {spec!r}")
