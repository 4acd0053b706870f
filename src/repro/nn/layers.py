"""Trainable layers with explicit forward/backward passes.

The framework is deliberately small: GAN-Sec's generator and discriminator
are conditional MLPs, so dense layers, activations, dropout, and batch
normalization cover the whole paper.  Each layer owns its parameters and
the gradients computed during the last backward pass; optimizers iterate
``layer.parameters()`` / ``layer.gradients()`` pairs.

Conventions
-----------
* Batches are row-major: inputs have shape ``(batch, features)``.
* ``forward(x, training=...)`` caches whatever ``backward`` needs.
* ``backward(grad_out)`` returns the gradient w.r.t. the layer input and
  stores parameter gradients internally.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.utils.rng import as_rng


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
    kernel_init, bias_init:
        Initializer specs; default Glorot uniform / zeros.
    use_bias:
        Disable the additive bias if false.
    """

    def __init__(
        self,
        units: int,
        activation=None,
        *,
        kernel_init="glorot_uniform",
        bias_init="zeros",
        use_bias: bool = True,
    ):
        super().__init__()
        if units <= 0:
            raise ConfigurationError(f"units must be > 0, got {units}")
        self.units = int(units)
        self.activation = get_activation(activation) if activation else None
        self.kernel_init = get_initializer(kernel_init)
        self.bias_init = get_initializer(bias_init)
        self.use_bias = bool(use_bias)
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
        self.b = self.bias_init((self.units,), rng) if self.use_bias else None
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
        params = {"W": self.W}
        if self.use_bias:
            params["b"] = self.b
        return params

    def gradients(self):
        grads = {"W": self.dW}
        if self.use_bias:
            grads["b"] = self.db
        return grads

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
            if self.use_bias:
                pre += self.b
            self._pre = pre
            self._out = (
                self.activation.forward(pre, out=ws["out"])
                if self.activation
                else pre
            )
            return self._out
        self._ws = None
        pre = x @ self.W
        if self.use_bias:
            pre = pre + self.b
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
            if self.use_bias:
                self.db = grad_pre.sum(axis=0, out=ws["db"])
            return np.matmul(grad_pre, self.W.T, out=ws["grad_in"])
        if self.activation:
            grad_pre = grad_out * self.activation.backward(self._pre, self._out)
        else:
            grad_pre = grad_out
        self.dW = self._x.T @ grad_pre
        if self.use_bias:
            self.db = grad_pre.sum(axis=0)
        return grad_pre @ self.W.T

    def __repr__(self):
        act = self.activation.name if self.activation else "linear"
        return f"Dense(units={self.units}, activation={act!r})"


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    During GAN training, dropout in the discriminator acts as the paper's
    knob for modeling a weaker attacker/detector (fewer effective
    parameters per step).
    """

    def __init__(self, rate: float, *, seed=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_rng(seed)
        self._mask = None

    def build(self, input_dim, rng):
        self.built = True
        return input_dim

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def __repr__(self):
        return f"Dropout(rate={self.rate})"


class BatchNorm(Layer):
    """Batch normalization over the batch axis with learned scale/shift.

    Uses batch statistics when ``training=True`` and exponential running
    statistics at inference, the standard Ioffe–Szegedy recipe.
    """

    def __init__(self, *, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        if not 0.0 < momentum < 1.0:
            raise ConfigurationError(f"momentum must be in (0,1), got {momentum}")
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = None
        self.beta = None
        self.dgamma = None
        self.dbeta = None
        self.running_mean = None
        self.running_var = None
        self._cache = None
        # Training workspaces keyed by batch-row count (see Dense): the
        # same statistics/normalization buffers are reused across
        # iterations at a fixed batch size.
        self._workspaces: dict = {}

    def build(self, input_dim, rng):
        self.gamma = np.ones(input_dim, dtype=np.float64)
        self.beta = np.zeros(input_dim, dtype=np.float64)
        self.running_mean = np.zeros(input_dim, dtype=np.float64)
        self.running_var = np.ones(input_dim, dtype=np.float64)
        self.built = True
        self._workspaces.clear()
        return input_dim

    def _workspace(self, n: int) -> dict:
        ws = self._workspaces.get(n)
        if ws is None:
            d = self.gamma.shape[0]
            ws = {
                "mean": np.empty(d, dtype=np.float64),
                "var": np.empty(d, dtype=np.float64),
                "inv_std": np.empty(d, dtype=np.float64),
                "vec": np.empty(d, dtype=np.float64),
                "dgamma": np.empty(d, dtype=np.float64),
                "dbeta": np.empty(d, dtype=np.float64),
                "x_hat": np.empty((n, d), dtype=np.float64),
                "out": np.empty((n, d), dtype=np.float64),
                "tmp": np.empty((n, d), dtype=np.float64),
                "dxhat": np.empty((n, d), dtype=np.float64),
            }
            self._workspaces[n] = ws
        return ws

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def gradients(self):
        return {"gamma": self.dgamma, "beta": self.dbeta}

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=np.float64)
        if training:
            # Hot path: identical operation sequence to the allocating
            # formulation (``m*rm + (1-m)*mean``, ``(x-mean)*inv_std``,
            # ``gamma*x_hat + beta``) through reused buffers — results
            # are bitwise equal; running stats keep their array identity.
            ws = self._ws = self._workspace(x.shape[0])
            mean = x.mean(axis=0, out=ws["mean"])
            var = x.var(axis=0, out=ws["var"])
            m = self.momentum
            self.running_mean *= m
            np.multiply(mean, 1 - m, out=ws["vec"])
            self.running_mean += ws["vec"]
            self.running_var *= m
            np.multiply(var, 1 - m, out=ws["vec"])
            self.running_var += ws["vec"]
            inv_std = ws["inv_std"]
            np.add(var, self.eps, out=inv_std)
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            x_hat = np.subtract(x, mean, out=ws["x_hat"])
            x_hat *= inv_std
            self._cache = (x_hat, inv_std)
            out = np.multiply(self.gamma, x_hat, out=ws["out"])
            out += self.beta
            return out
        mean = self.running_mean
        var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = None
        return self.gamma * x_hat + self.beta

    def backward(self, grad_out):
        if self._cache is None:
            # Inference-mode backward: statistics are constants.
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            return grad_out * self.gamma * inv_std
        x_hat, inv_std = self._cache
        n = grad_out.shape[0]
        ws = self._workspaces.get(n)
        if ws is not None and x_hat is ws["x_hat"]:
            # In-place mirror of the vectorized batchnorm backward below;
            # every ufunc call matches the allocating expression's
            # operand order, so gradients are bitwise identical.
            tmp = np.multiply(grad_out, x_hat, out=ws["tmp"])
            self.dgamma = tmp.sum(axis=0, out=ws["dgamma"])
            self.dbeta = grad_out.sum(axis=0, out=ws["dbeta"])
            dxhat = np.multiply(grad_out, self.gamma, out=ws["dxhat"])
            out = np.multiply(n, dxhat, out=ws["tmp"])
            out -= dxhat.sum(axis=0, out=ws["vec"])
            np.multiply(dxhat, x_hat, out=ws["dxhat"])
            np.sum(ws["dxhat"], axis=0, out=ws["vec"])
            np.multiply(x_hat, ws["vec"], out=ws["dxhat"])
            out -= ws["dxhat"]
            np.divide(inv_std, n, out=ws["vec"])
            out *= ws["vec"]
            return out
        self.dgamma = (grad_out * x_hat).sum(axis=0)
        self.dbeta = grad_out.sum(axis=0)
        dxhat = grad_out * self.gamma
        # Standard batchnorm backward (vectorized).
        return (
            inv_std
            / n
            * (n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0))
        )

    def __repr__(self):
        return f"BatchNorm(momentum={self.momentum}, eps={self.eps})"
