"""Trainable layers with explicit forward/backward passes.

The framework is deliberately small: GAN-Sec's generator and discriminator
are conditional MLPs, so dense layers with activations cover the whole
paper.  Each layer owns its parameters and the gradients computed during
the last backward pass; optimizers iterate ``layer.parameters()`` /
``layer.gradients()`` pairs.

Conventions
-----------
* Batches are row-major: inputs have shape ``(batch, features)``.
* ``forward(x, training=...)`` caches whatever ``backward`` needs;
  ``training=True`` writes through reused workspaces, ``training=False``
  returns freshly allocated arrays.
* ``backward(grad_out)`` returns the gradient w.r.t. the layer input and
  stores parameter gradients internally.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int


class Layer:
    """Base class for all layers."""

    def __init__(self):
        self.built = False

    # -- parameter plumbing -------------------------------------------------
    def parameters(self) -> dict:
        """Mapping of parameter name -> ndarray (shared, not copied)."""
        return {}

    def gradients(self) -> dict:
        """Mapping of parameter name -> gradient ndarray from last backward."""
        return {}

    # -- computation --------------------------------------------------------
    def build(self, input_dim: int, rng) -> int:
        """Allocate parameters for a given input width; return output width."""
        self.built = True
        return input_dim

    def forward(self, x, training: bool = False):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with optional activation.

    Parameters
    ----------
    units:
        Output width.
    activation:
        Activation spec (name / instance / ``None`` for linear).
    kernel_init:
        Initializer spec for ``W``; default Glorot uniform.  The bias
        ``b`` always starts at zero.
    """

    def __init__(self, units: int, activation=None, *, kernel_init="glorot_uniform"):
        super().__init__()
        self.units = check_positive_int(units, "units")
        self.activation = get_activation(activation) if activation else None
        self.kernel_init = get_initializer(kernel_init)
        self.W = None
        self.b = None
        self.dW = None
        self.db = None
        self._x = None
        self._pre = None
        self._out = None
        # Training workspaces keyed by batch-row count: forward/backward
        # at a fixed batch size reuse the same buffers every iteration
        # instead of allocating fresh arrays (the GAN inner loop runs the
        # same shapes thousands of times).  Inference (``training=False``)
        # keeps the allocating path: predictions may be retained
        # long-term by callers (e.g. the condition sample cache), so they
        # must never alias reused buffers.
        self._workspaces: dict = {}
        self._ws = None

    def build(self, input_dim, rng):
        rng = as_rng(rng)
        self.W = self.kernel_init((input_dim, self.units), rng)
        self.b = np.zeros(self.units, dtype=np.float64)
        self.built = True
        self._workspaces.clear()
        self._ws = None
        return self.units

    def _workspace(self, n: int) -> dict:
        ws = self._workspaces.get(n)
        if ws is None:
            in_dim = self.W.shape[0]
            ws = {
                "pre": np.empty((n, self.units), dtype=np.float64),
                "out": np.empty((n, self.units), dtype=np.float64),
                "deriv": np.empty((n, self.units), dtype=np.float64),
                "grad_in": np.empty((n, in_dim), dtype=np.float64),
                "dW": np.empty((in_dim, self.units), dtype=np.float64),
                "db": np.empty(self.units, dtype=np.float64),
            }
            self._workspaces[n] = ws
        return ws

    def parameters(self):
        return {"W": self.W, "b": self.b}

    def gradients(self):
        return {"W": self.dW, "b": self.db}

    def forward(self, x, training=False):
        if not self.built:
            raise ConfigurationError("Dense layer used before build()")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise ShapeError(
                f"Dense expected input (batch, {self.W.shape[0]}), got {x.shape}"
            )
        self._x = x
        if training:
            # Hot path: same elementwise/BLAS operations as the
            # allocating branch below, written through reused buffers —
            # bitwise-identical results (tests/nn/test_hotpath_identity).
            ws = self._workspace(x.shape[0])
            self._ws = ws
            pre = np.matmul(x, self.W, out=ws["pre"])
            pre += self.b
            self._pre = pre
            self._out = (
                self.activation.forward(pre, out=ws["out"])
                if self.activation
                else pre
            )
            return self._out
        self._ws = None
        pre = x @ self.W + self.b
        self._pre = pre
        self._out = self.activation.forward(pre) if self.activation else pre
        return self._out

    def backward(self, grad_out):
        grad_out = np.asarray(grad_out, dtype=np.float64)
        ws = self._ws if self._ws is not None and grad_out.shape == self._pre.shape else None
        if ws is not None:
            if self.activation:
                deriv = self.activation.backward(self._pre, self._out, out=ws["deriv"])
                grad_pre = np.multiply(grad_out, deriv, out=ws["deriv"])
            else:
                grad_pre = grad_out
            self.dW = np.matmul(self._x.T, grad_pre, out=ws["dW"])
            self.db = grad_pre.sum(axis=0, out=ws["db"])
            return np.matmul(grad_pre, self.W.T, out=ws["grad_in"])
        if self.activation:
            grad_pre = grad_out * self.activation.backward(self._pre, self._out)
        else:
            grad_pre = grad_out
        self.dW = self._x.T @ grad_pre
        self.db = grad_pre.sum(axis=0)
        return grad_pre @ self.W.T

    def __repr__(self):
        act = self.activation.name if self.activation else "linear"
        return f"Dense(units={self.units}, activation={act!r})"
