"""Sequential network container.

:class:`Sequential` chains layers, runs forward/backward, and exposes the
hooks the GAN trainer needs: gradients w.r.t. the *input* (so generator
gradients can flow through a frozen discriminator) and in-place parameter
access for optimizers and serialization.

A built network keeps its parameters in one vector, ``flat_params``, and
their gradients in another, ``flat_grads``; every layer's parameter and
gradient arrays are views into them.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.layers import Layer
from repro.utils.rng import as_rng


class Sequential:
    """An ordered stack of layers forming a feed-forward network.

    Parameters
    ----------
    layers:
        Iterable of :class:`~repro.nn.layers.Layer` instances.
    input_dim:
        Width of the input; triggers building (parameter allocation)
        immediately when given together with *seed*.
    seed:
        RNG seed for weight initialization.
    """

    def __init__(self, layers, *, input_dim: int | None = None, seed=None):
        self.layers = list(layers)
        if not self.layers:
            raise ConfigurationError("Sequential requires at least one layer")
        for layer in self.layers:
            if not isinstance(layer, Layer):
                raise ConfigurationError(f"not a Layer: {layer!r}")
        self.input_dim = None
        self.output_dim = None
        self.flat_params = None
        self.flat_grads = None
        if input_dim is not None:
            self.build(input_dim, seed)

    # -- lifecycle ----------------------------------------------------------
    def build(self, input_dim: int, seed=None) -> "Sequential":
        """Allocate all layer parameters for a given input width, then move
        them into the flat buffers."""
        rng = as_rng(seed)
        dim = int(input_dim)
        self.input_dim = dim
        for layer in self.layers:
            dim = layer.build(dim, rng)
        self.output_dim = dim
        self._flatten()
        return self

    def split(self, flat) -> list:
        """``(layer_index, name, view)`` per parameter tensor, cut from a
        vector *flat* laid out like :attr:`flat_params`."""
        out, offset = [], 0
        for li, name, arr in self.parameters():
            out.append((li, name, flat[offset : offset + arr.size].reshape(arr.shape)))
            offset += arr.size
        return out

    def _flatten(self) -> None:
        """Copy the layers' parameters into one new flat buffer, zero the
        gradient buffer, and make the layers' arrays views into both."""
        self.flat_params = np.concatenate([a.ravel() for *_, a in self.parameters()])
        self.flat_grads = np.zeros_like(self.flat_params)
        params, grads = self.split(self.flat_params), self.split(self.flat_grads)
        for (li, name, param), (_, _, grad) in zip(params, grads):
            self.layers[li].bind(name, param, grad)

    # pickle and deepcopy turn views into arrays of their own, so a copy
    # rebuilds its flat buffers from its layers' weights (else steps would
    # update a buffer the weights no longer view); gradients restart at 0.
    def __getstate__(self):
        return {**self.__dict__, "flat_params": None, "flat_grads": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.built:
            self._flatten()

    @property
    def built(self) -> bool:
        return self.input_dim is not None

    def _require_built(self):
        if not self.built:
            raise NotFittedError("network has not been built; call build(input_dim)")

    # -- computation --------------------------------------------------------
    def forward(self, x, training: bool = False) -> np.ndarray:
        """Run the full forward pass; caches activations for backward."""
        self._require_built()
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    # Alias so networks can be called like functions.
    __call__ = forward

    def predict(self, x) -> np.ndarray:
        """Inference-mode forward pass: fresh output arrays that never
        alias the layers' reused training workspaces."""
        return self.forward(x, training=False)

    def backward(self, grad_out) -> np.ndarray:
        """Backpropagate *grad_out* (d loss / d output) through all layers.

        Writes the parameter gradients into :attr:`flat_grads` and
        returns the gradient w.r.t. the network input.
        """
        return self._backward(grad_out, input_grad=True)

    def _backward(self, grad_out, *, input_grad=False, param_grads=True):
        """The training backward: the input gradient only when asked for
        (else ``None``), and the parameter gradients unless *param_grads*
        is false (the GAN trainer's G step through a frozen D)."""
        grad = np.asarray(grad_out, dtype=np.float64)
        for li in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[li]._backward(
                grad, input_grad=input_grad or li > 0, param_grads=param_grads
            )
        return grad

    # -- parameters ---------------------------------------------------------
    def parameters(self) -> list:
        """Flat list of (layer_index, name, array) for all parameters."""
        out = []
        for li, layer in enumerate(self.layers):
            for name, arr in layer.parameters().items():
                out.append((li, name, arr))
        return out

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(arr.size for _, _, arr in self.parameters()))

    def get_weights(self) -> dict:
        """Copy of all parameters keyed ``"{layer}.{name}"``."""
        return {f"{li}.{name}": arr.copy() for li, name, arr in self.parameters()}

    def set_weights(self, weights: dict) -> None:
        """Load parameters previously produced by :meth:`get_weights`."""
        self._require_built()
        own = {f"{li}.{name}": arr for li, name, arr in self.parameters()}
        missing = set(own) - set(weights)
        if missing:
            raise ConfigurationError(f"weights missing keys: {sorted(missing)}")
        for key, arr in own.items():
            new = np.asarray(weights[key], dtype=np.float64)
            if new.shape != arr.shape:
                raise ConfigurationError(
                    f"weight {key!r} has shape {new.shape}, expected {arr.shape}"
                )
            arr[...] = new

    def clone(self) -> "Sequential":
        """Structural copy with independent parameters (same values)."""
        return copy.deepcopy(self)

    def __repr__(self):
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}], input_dim={self.input_dim})"
