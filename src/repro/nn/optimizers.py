"""Adam, the first-order optimizer that trains both Algorithm 2 networks.

An optimizer holds per-parameter state keyed by ``(layer_index, name)``.
The network calls :meth:`Optimizer.step` with the list of layers after a
backward pass; updates are applied in place so layer parameter arrays keep
their identity (which the serialization code relies on).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive


class Optimizer:
    """Base class: :meth:`step` walks the layers, subclasses implement
    :meth:`update` for one tensor."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(check_positive(learning_rate, "learning_rate"))
        self._state: dict = {}
        self._scratch: dict = {}
        self.iterations = 0

    def reset(self):
        """Drop accumulated state (moment estimates, step counters)."""
        self._state.clear()
        self._scratch.clear()
        self.iterations = 0

    def _scratch_for(self, param):
        """Two reusable work arrays shaped like *param*.

        Updates run sequentially, so one scratch pair per shape serves
        every parameter; :meth:`update` writes its intermediate products
        here instead of allocating per step.  The in-place update
        sequence replicates the allocating formula operation-for-
        operation, so parameter trajectories are bitwise unchanged.
        """
        pair = self._scratch.get(param.shape)
        if pair is None:
            pair = (
                np.empty_like(param, dtype=np.float64),
                np.empty_like(param, dtype=np.float64),
            )
            self._scratch[param.shape] = pair
        return pair

    def step(self, layers) -> None:
        """Apply one update to every trainable parameter of *layers*."""
        self.iterations += 1
        for li, layer in enumerate(layers):
            params = layer.parameters()
            grads = layer.gradients()
            for name, param in params.items():
                grad = grads.get(name)
                if grad is None:
                    continue
                self.update((li, name), param, np.asarray(grad, dtype=np.float64))

    def update(self, key, param, grad):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(lr={self.learning_rate})"


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias-corrected first/second moments.

    The de-facto GAN optimizer; ``beta1=0.5`` is the common GAN setting
    (following DCGAN) and the library default for Algorithm 2.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.5,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ConfigurationError(f"beta1 must be in [0,1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(f"beta2 must be in [0,1), got {beta2}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def update(self, key, param, grad):
        s1, s2 = self._scratch_for(param)
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = [
                np.zeros_like(param),
                np.zeros_like(param),
                0,
            ]
        m, v, t = state
        t += 1
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad  # (1 - beta2) * grad * grad
        v += s1
        self._state[key][2] = t
        np.divide(m, 1.0 - self.beta1**t, out=s1)  # m_hat
        s1 *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**t, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2  # lr * m_hat / (sqrt(v_hat) + eps)
        param -= s1
