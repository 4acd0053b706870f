"""Non-GAN baselines for the security analyses.

The paper argues for estimating ``Pr(F_i | F_j)`` with a CGAN rather
than directly from the (limited) data: the generator "never sees the
real data [and] estimates the distribution without overfitting on the
currently limited data".  These baselines make that claim testable:

* :class:`EmpiricalConditionalSampler` — sample ``Pr(F_i | F_j)``
  directly from the recorded data (resampling + optional jitter), i.e.
  a Parzen window on the *real* samples instead of generated ones;
* :class:`GaussianConditionalSampler` — a per-condition diagonal
  Gaussian fit (the classic parametric density baseline);
* :class:`NearestCentroidAttacker` — a density-free attacker that
  classifies emissions by distance to per-condition feature centroids.

All samplers expose the ``(condition, n, rng) -> samples`` interface of
:func:`repro.security.likelihood.security_likelihood_analysis`, so every
Algorithm 3 analysis and attacker can run unchanged against a baseline —
the comparison the ablation benchmark ``bench_ablation_baselines`` runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset, condition_indices


class EmpiricalConditionalSampler:
    """Resample the recorded data per condition (with Gaussian jitter).

    With ``jitter=h`` this is exactly sampling from a Parzen window of
    width *h* fitted on the real per-condition samples — the "directly
    estimate from data" alternative to the CGAN.
    """

    def __init__(self, dataset: FlowPairDataset, *, jitter: float = 0.0):
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        self._subsets = {
            tuple(cond): dataset.subset_for_condition(cond).features
            for cond in dataset.unique_conditions()
        }
        if not self._subsets:
            raise DataError("dataset has no conditions")
        self.jitter = float(jitter)
        self.feature_dim = dataset.feature_dim

    def __call__(self, condition, n: int, rng) -> np.ndarray:
        key = tuple(np.asarray(condition, dtype=float).ravel())
        if key not in self._subsets:
            raise DataError(f"no recorded data for condition {list(key)}")
        pool = self._subsets[key]
        idx = rng.integers(0, pool.shape[0], size=n)
        out = pool[idx].copy()
        if self.jitter > 0:
            out = out + rng.normal(0.0, self.jitter, size=out.shape)
        return out


class GaussianConditionalSampler:
    """Per-condition diagonal Gaussian fit of the feature distribution."""

    def __init__(self, dataset: FlowPairDataset, *, min_std: float = 1e-3):
        if min_std <= 0:
            raise ConfigurationError(f"min_std must be > 0, got {min_std}")
        self._params = {}
        for cond in dataset.unique_conditions():
            feats = dataset.subset_for_condition(cond).features
            self._params[tuple(cond)] = (
                feats.mean(axis=0),
                np.maximum(feats.std(axis=0), min_std),
            )
        self.feature_dim = dataset.feature_dim

    def __call__(self, condition, n: int, rng) -> np.ndarray:
        key = tuple(np.asarray(condition, dtype=float).ravel())
        if key not in self._params:
            raise DataError(f"no fitted Gaussian for condition {list(key)}")
        mean, std = self._params[key]
        return rng.normal(mean[None, :], std[None, :], size=(n, len(mean)))


class NearestCentroidAttacker:
    """Density-free baseline attacker: classify by nearest centroid.

    Bypasses the whole generative machinery — an upper-bound sanity
    check on how much structure the features alone carry.
    """

    def __init__(self, train_set: FlowPairDataset):
        self.conditions = train_set.unique_conditions()
        if len(self.conditions) < 2:
            raise DataError("need at least two conditions")
        self._centroids = np.vstack(
            [
                train_set.subset_for_condition(cond).features.mean(axis=0)
                for cond in self.conditions
            ]
        )

    def infer(self, features) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        dists = np.linalg.norm(
            features[:, None, :] - self._centroids[None, :, :], axis=2
        )
        return np.argmin(dists, axis=1)

    def accuracy(self, test_set: FlowPairDataset) -> float:
        true_idx = condition_indices(self.conditions, test_set.conditions)
        return float((self.infer(test_set.features) == true_idx).mean())
