"""Trainable layers with explicit forward/backward passes.

The framework is deliberately small: GAN-Sec's generator and discriminator
are conditional MLPs, so dense layers with activations cover the whole
paper.  Each layer holds its parameters and the gradients computed during
the last backward pass; inside a :class:`~repro.nn.network.Sequential`
both are views into the network's flat buffers (see :meth:`Dense.bind`).

Conventions
-----------
* Batches are row-major: inputs have shape ``(batch, features)``.
* ``forward(x, training=...)`` caches whatever ``backward`` needs;
  ``training=True`` writes through reused workspaces, ``training=False``
  returns freshly allocated arrays.
* ``backward(grad_out)`` returns the gradient w.r.t. the layer input and
  writes the parameter gradients in place.
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

    # -- computation --------------------------------------------------------
    def build(self, input_dim: int, rng) -> int:
        """Allocate parameters for a given input width; return output width."""
        self.built = True
        return input_dim

    def forward(self, x, training: bool = False):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out):  # pragma: no cover - abstract
        raise NotImplementedError

    def _backward(self, grad_out, *, input_grad, param_grads):  # pragma: no cover - abstract
        """Backward computing only what the caller reads: the input
        gradient (else ``None`` may be returned) and the parameter
        gradients."""
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
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.built = True
        self._workspaces.clear()
        self._ws = None
        return self.units

    # pickle and deepcopy leave the training scratch behind: the cached
    # activations and workspaces are rebuilt by the next forward, and the
    # gradients restart at 0 (a Sequential rebinds them into its flat
    # buffer), so a copy costs about its weights.
    def __getstate__(self):
        transient = ("dW", "db", "_x", "_pre", "_out", "_ws")
        return {**self.__dict__, **dict.fromkeys(transient), "_workspaces": {}}

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.built:
            self.dW = np.zeros_like(self.W)
            self.db = np.zeros_like(self.b)

    def _workspace(self, n: int) -> dict:
        ws = self._workspaces.get(n)
        if ws is None:
            in_dim = self.W.shape[0]
            ws = {
                "pre": np.empty((n, self.units), dtype=np.float64),
                "out": np.empty((n, self.units), dtype=np.float64),
                "deriv": np.empty((n, self.units), dtype=np.float64),
                "grad_in": np.empty((n, in_dim), dtype=np.float64),
            }
            self._workspaces[n] = ws
        return ws

    def parameters(self):
        return {"W": self.W, "b": self.b}

    def bind(self, name, param, grad):
        """Adopt flat-buffer views as parameter *name* and its gradient."""
        setattr(self, name, param)
        setattr(self, "d" + name, grad)

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
        return self._backward(grad_out, input_grad=True, param_grads=True)

    def _backward(self, grad_out, *, input_grad, param_grads):
        grad_out = np.asarray(grad_out, dtype=np.float64)
        # A training forward leaves a workspace for this batch shape;
        # without one, out=None allocates arrays holding the same values.
        ws = self._ws if self._ws is not None and grad_out.shape == self._pre.shape else None
        grad_pre = grad_out
        if self.activation:
            buf = None if ws is None else ws["deriv"]
            deriv = self.activation.backward(self._pre, self._out, out=buf)
            grad_pre = np.multiply(grad_out, deriv, out=buf)
        if param_grads:
            np.matmul(self._x.T, grad_pre, out=self.dW)
            grad_pre.sum(axis=0, out=self.db)
        if not input_grad:
            return None
        return np.matmul(grad_pre, self.W.T, out=None if ws is None else ws["grad_in"])

    def __repr__(self):
        act = self.activation.name if self.activation else "linear"
        return f"Dense(units={self.units}, activation={act!r})"
