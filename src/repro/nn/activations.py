"""Elementwise activation functions with analytic derivatives.

Each activation is a stateless object exposing ``forward(x)`` and
``backward(x, y)`` where *y* is the cached forward output — the
sigmoid derivative is cheapest in terms of the output, so both are
provided.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class Activation:
    """Base class for elementwise activations.

    ``forward`` and ``backward`` take an optional preallocated *out*
    buffer; the training hot path passes layer workspaces so no
    per-iteration arrays are allocated.  Writing through *out* changes
    where the result lives, never its bits — every in-place override
    performs the exact same elementwise operations in the same order as
    the allocating expression it replaces.
    """

    name = "base"

    def forward(self, x: np.ndarray, out=None) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
        """Return dy/dx evaluated elementwise, given input *x* and output *y*."""
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self):
        return f"{type(self).__name__}()"


class ReLU(Activation):
    name = "relu"

    def forward(self, x, out=None):
        return np.maximum(x, 0.0, out=out)

    def backward(self, x, y, out=None):
        if out is None:
            return (x > 0.0).astype(x.dtype)
        np.greater(x, 0.0, out=out)
        return out


class LeakyReLU(Activation):
    """Leaky ReLU — the paper-standard discriminator activation for GANs."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.2):
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)

    def forward(self, x, out=None):
        if out is None:
            return np.where(x > 0.0, x, self.alpha * x)
        np.multiply(x, self.alpha, out=out)
        np.copyto(out, x, where=x > 0.0)
        return out

    def backward(self, x, y, out=None):
        if out is None:
            return np.where(x > 0.0, 1.0, self.alpha).astype(x.dtype)
        out.fill(self.alpha)
        out[x > 0.0] = 1.0
        return out

    def __repr__(self):
        return f"LeakyReLU(alpha={self.alpha})"


class Sigmoid(Activation):
    name = "sigmoid"

    def forward(self, x, out=None):
        # Numerically stable whole-array evaluation: with e = exp(-|x|),
        # the classic sign-split sigmoid is 1/(1+e) for x >= 0 and
        # e/(1+e) for x < 0 — the same e in both branches, so this is
        # bitwise identical to the masked formulation while avoiding its
        # gather/scatter fancy indexing (several times faster on
        # training-sized batches).
        if out is None:
            out = np.empty_like(x)
        np.abs(x, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)  # e = exp(-|x|)
        denom = 1.0 + out
        numer = np.where(x >= 0, 1.0, out)
        np.divide(numer, denom, out=out)
        return out

    def backward(self, x, y, out=None):
        if out is None:
            return y * (1.0 - y)
        np.subtract(1.0, y, out=out)
        out *= y
        return out


_REGISTRY = {cls.name: cls for cls in (ReLU, LeakyReLU, Sigmoid)}


def get_activation(spec) -> Activation:
    """Resolve *spec* (name or instance) to an activation instance."""
    if isinstance(spec, Activation):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise ConfigurationError(
                f"unknown activation {spec!r}; choose from {sorted(_REGISTRY)}"
            ) from None
    raise ConfigurationError(f"cannot interpret activation spec: {spec!r}")
