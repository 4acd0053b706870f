"""Adam, the first-order optimizer that trains both Algorithm 2 networks.

An optimizer serves one network.  After a backward pass the trainer
calls :meth:`Optimizer.step` with the network, and the optimizer updates
the network's ``flat_params`` in place from its ``flat_grads`` in one
pass.  The layers' parameter arrays are views into that buffer, so they
keep their identity (which the serialization code relies on).  Adam is
elementwise, so one update of the flat vector gives the same bits as one
update per tensor.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class Optimizer:
    """Base class: :meth:`step` hands a network's flat parameter and
    gradient buffers to :meth:`update`, which subclasses implement."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(check_positive(learning_rate, "learning_rate"))
        self._state = None
        self._scratch = None
        self.iterations = 0

    def reset(self):
        """Drop accumulated state (moment estimates, step counter)."""
        self._state = None
        self._scratch = None
        self.iterations = 0

    def step(self, network) -> None:
        """Apply one update to every parameter of *network*."""
        self.iterations += 1
        self.update(network.flat_params, network.flat_grads)

    def update(self, param, grad):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(lr={self.learning_rate})"


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias-corrected first/second moments.

    The de-facto GAN optimizer; ``beta1=0.5`` is the common GAN setting
    (following DCGAN).  The state is ``[m, v, t]``: flat moment vectors
    laid out like the network's parameters and one step count.
    """

    beta1 = 0.5
    beta2 = 0.999
    eps = 1e-8

    def update(self, param, grad):
        if self._state is None:
            self._state = [np.zeros_like(param), np.zeros_like(param), 0]
        if self._scratch is None:
            # Two reusable work arrays: the in-place sequence below
            # replicates the allocating formula operation for operation.
            self._scratch = (np.empty_like(param), np.empty_like(param))
        s1, s2 = self._scratch
        m, v, t = self._state
        t += 1
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad  # (1 - beta2) * grad * grad
        v += s1
        self._state[2] = t
        np.divide(m, 1.0 - self.beta1**t, out=s1)  # m_hat
        s1 *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**t, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2  # lr * m_hat / (sqrt(v_hat) + eps)
        param -= s1
