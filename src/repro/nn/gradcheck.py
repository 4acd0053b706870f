"""Finite-difference gradient checking.

Used by the test suite to verify that every layer's analytic backward
pass matches a central-difference numerical gradient — the property-based
tests run this over random layer configurations.  Both checks score the
network's output with binary cross-entropy, the discriminator loss of
Algorithm 2, so the checked network must end in a sigmoid.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import BinaryCrossEntropy
from repro.nn.network import Sequential


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar function *f* at *x*."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f(x)
        x[idx] = orig - eps
        f_minus = f(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def check_input_gradient(
    net: Sequential, x: np.ndarray, *, target=None, eps: float = 1e-6
) -> float:
    """Max abs difference between analytic and numeric input gradients."""
    loss_fn = BinaryCrossEntropy()
    x = np.asarray(x, dtype=np.float64)
    if target is None:
        pred0 = net.forward(x, training=False)
        target = np.zeros_like(pred0)

    def objective(xv):
        return loss_fn.value(net.forward(xv, training=False), target)

    pred = net.forward(x, training=False)
    analytic = net.backward(loss_fn.gradient(pred, target))
    numeric = numerical_gradient(objective, x.copy(), eps=eps)
    return float(np.max(np.abs(analytic - numeric)))


def check_parameter_gradients(
    net: Sequential, x: np.ndarray, *, target=None, eps: float = 1e-6
) -> dict:
    """Max abs analytic-vs-numeric difference per parameter tensor."""
    loss_fn = BinaryCrossEntropy()
    x = np.asarray(x, dtype=np.float64)
    if target is None:
        pred0 = net.forward(x, training=False)
        target = np.zeros_like(pred0)

    pred = net.forward(x, training=False)
    net.backward(loss_fn.gradient(pred, target))
    analytic = net.flat_grads.copy()

    def objective(_params):
        return loss_fn.value(net.forward(x, training=False), target)

    # Perturbs the network's flat weights in place, restoring each one.
    numeric = numerical_gradient(objective, net.flat_params, eps=eps)
    errors = np.abs(analytic - numeric)
    return {f"{li}.{name}": float(err.max()) for li, name, err in net.split(errors)}
