"""Frozen pre-optimization (seed) hot-path implementations.

``bench_hotpath.py`` needs an honest "before" to measure against after
the optimized code replaces the originals in ``src/``.  This module
vendors the seed implementations verbatim (modulo imports):

* the per-scale, per-segment Morlet CWT loop (full complex ``fft``,
  kernel rebuilt for every scale on every call),
* the per-segment feature-extraction loop and the double-extracting
  ``fit().transform()`` chain the seed ``fit_transform`` performed,
* the allocating Dense layers and Adam optimizer driving the seed CGAN
  training step.

Nothing here is exported through the library; it exists only so the
benchmark's "looped"/"before" numbers keep meaning something once the
optimized code is the only implementation in ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.features import MinMaxScaler
from repro.dsp.filterbank import DEFAULT_OMEGA0
from repro.gan.cgan import ConditionalGAN
from repro.nn.activations import Sigmoid
from repro.nn.layers import Dense
from repro.nn.optimizers import Adam


class LegacySigmoid(Sigmoid):
    """Seed sigmoid: sign-masked gather/scatter evaluation."""

    def forward(self, x, out=None):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out


# --------------------------------------------------------------------------
# Seed DSP front-end: per-scale kernel rebuild, full complex FFTs.
# --------------------------------------------------------------------------
def legacy_cwt_morlet(x, sample_rate, frequencies, *, omega0=DEFAULT_OMEGA0):
    """Seed ``cwt_morlet``: rebuilds ``psi_hat`` for every scale per call."""
    x = np.asarray(x, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64)
    n = len(x)
    center = (omega0 + np.sqrt(2.0 + omega0**2)) / (4.0 * np.pi)
    scales = center * sample_rate / freqs
    w = 2.0 * np.pi * np.fft.fftfreq(n)
    xf = np.fft.fft(x)
    out = np.empty((len(freqs), n), dtype=np.complex128)
    norm_const = np.pi ** (-0.25)
    for i, s in enumerate(scales):
        sw = s * w
        psi_hat = np.zeros(n, dtype=np.float64)
        pos = w > 0
        psi_hat[pos] = norm_const * np.exp(-0.5 * (sw[pos] - omega0) ** 2)
        psi_hat *= np.sqrt(2.0 * np.pi * s)
        out[i] = np.fft.ifft(xf * psi_hat)
    return out


def legacy_average_band_energy(x, sample_rate, frequencies, *, omega0=DEFAULT_OMEGA0):
    """Seed ``average_band_energy``: full scalogram, then time mean."""
    return np.abs(
        legacy_cwt_morlet(x, sample_rate, frequencies, omega0=omega0)
    ).mean(axis=1)


def legacy_raw_feature_matrix(segments, sample_rate, frequencies):
    """Seed ``raw_feature_matrix``: python loop over segments."""
    return np.vstack(
        [legacy_average_band_energy(seg, sample_rate, frequencies) for seg in segments]
    )


def legacy_fit_transform(segments, sample_rate, frequencies):
    """Seed ``fit_transform`` = ``fit(segments).transform(segments)``.

    The chained form extracted every segment twice — once to fit the
    scaler, once to produce the transformed matrix.  Reproduced here
    faithfully because that doubling is part of the measured "before".
    """
    scaler = MinMaxScaler()
    scaler.fit(legacy_raw_feature_matrix(segments, sample_rate, frequencies))
    return scaler.transform(
        legacy_raw_feature_matrix(segments, sample_rate, frequencies)
    )


# --------------------------------------------------------------------------
# Seed NN hot path: allocating layers and optimizer.
# --------------------------------------------------------------------------
class LegacyDense(Dense):
    """Seed ``Dense``: fresh arrays for pre-activations and gradients."""

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=np.float64)
        self._x = x
        self._ws = None
        pre = x @ self.W + self.b
        self._pre = pre
        self._out = self.activation.forward(pre) if self.activation else pre
        return self._out

    def backward(self, grad_out):
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if self.activation:
            grad_pre = grad_out * self.activation.backward(self._pre, self._out)
        else:
            grad_pre = grad_out
        self.dW = self._x.T @ grad_pre
        self.db = grad_pre.sum(axis=0)
        return grad_pre @ self.W.T


class LegacyAdam(Adam):
    def update(self, key, param, grad):
        m, v, t = self._state.setdefault(
            key, [np.zeros_like(param), np.zeros_like(param), 0]
        )
        t += 1
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        self._state[key][2] = t
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class LegacyConditionalGAN(ConditionalGAN):
    """Seed training steps: hstack/vstack assembly, fresh noise arrays."""

    def _d_step(self, real_x, real_c, *, label_smoothing):
        from repro.nn.losses import discriminator_loss

        n = real_x.shape[0]
        z = self.sample_noise(n)
        fake_x = self.generator.forward(np.hstack([z, real_c]), training=True)
        d_in = np.vstack(
            [np.hstack([real_x, real_c]), np.hstack([fake_x, real_c])]
        )
        targets = np.vstack(
            [np.full((n, 1), 1.0 - label_smoothing), np.zeros((n, 1))]
        )
        preds = self.discriminator.forward(d_in, training=True)
        self.discriminator.backward(self._bce.gradient(preds, targets))
        self._d_opt.step(self.discriminator.layers)
        return discriminator_loss(preds[:n], preds[n:])

    def _g_step(self, cond_batch):
        from repro.nn.losses import (
            GeneratorLossMinimax,
            GeneratorLossNonSaturating,
        )

        n = cond_batch.shape[0]
        z = self.sample_noise(n)
        fake_x = self.generator.forward(np.hstack([z, cond_batch]), training=True)
        d_pred = self.discriminator.forward(
            np.hstack([fake_x, cond_batch]), training=True
        )
        grad_d_in = self.discriminator.backward(self._g_loss.gradient(d_pred))
        grad_fake = grad_d_in[:, : self.feature_dim]
        self.generator.backward(grad_fake)
        self._g_opt.step(self.generator.layers)
        g_objective = GeneratorLossMinimax().value(d_pred)
        g_loss = GeneratorLossNonSaturating().value(d_pred)
        return g_loss, g_objective


def build_legacy_cgan(feature_dim, condition_dim, *, noise_dim=16, seed=None):
    """A CGAN wired entirely from the seed (allocating) components."""
    gen = [
        LegacyDense(64, "relu", kernel_init="he_uniform"),
        LegacyDense(64, "relu", kernel_init="he_uniform"),
        LegacyDense(feature_dim, LegacySigmoid()),
    ]
    disc = [
        LegacyDense(64, "leaky_relu", kernel_init="he_uniform"),
        LegacyDense(32, "leaky_relu", kernel_init="he_uniform"),
        LegacyDense(1, LegacySigmoid()),
    ]
    cgan = LegacyConditionalGAN(
        feature_dim,
        condition_dim,
        noise_dim=noise_dim,
        generator_layers=gen,
        discriminator_layers=disc,
        seed=seed,
    )
    cgan._g_opt = LegacyAdam(2e-3)
    cgan._d_opt = LegacyAdam(2e-3)
    return cgan
