"""Mutual-information metrics between flows.

The paper notes that "various other metrics may also be created using
the conditional probability values (e.g., mutual information metrics of
side channel attacks)".  This module estimates the mutual information
``I(C; X)`` between the discrete condition ``C`` (cyber signal flow)
and continuous emission features ``X`` (physical energy flow), both
from data and from a trained generator — quantifying side-channel
capacity in bits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.runtime.analysis import as_sampler
from repro.utils.rng import as_rng


def histogram_mutual_information(
    values: np.ndarray, labels: np.ndarray, *, bins: int = 16
) -> float:
    """MI (bits) between a 1-D continuous variable and discrete labels.

    Uses equal-width binning of *values*; a simple plug-in estimator
    that is adequate for the [0, 1]-scaled features here.
    """
    values = np.asarray(values, dtype=float).ravel()
    labels = np.asarray(labels)
    if values.shape[0] != labels.shape[0]:
        raise DataError("values and labels are misaligned")
    if values.size == 0:
        raise DataError("no samples")
    if bins < 2:
        raise ConfigurationError(f"bins must be >= 2, got {bins}")
    edges = np.histogram_bin_edges(values, bins=bins)
    v_idx = np.clip(np.digitize(values, edges[1:-1]), 0, bins - 1)
    unique_labels, l_idx = np.unique(labels, return_inverse=True, axis=0)
    joint = np.zeros((bins, len(unique_labels)))
    np.add.at(joint, (v_idx, l_idx), 1.0)
    joint /= joint.sum()
    pv = joint.sum(axis=1, keepdims=True)
    pl = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (pv @ pl), 1.0)
        terms = np.where(joint > 0, joint * np.log2(ratio), 0.0)
    return float(terms.sum())


def condition_entropy_bits(conditions: np.ndarray) -> float:
    """Entropy (bits) of the empirical condition distribution — the
    maximum information the side channel could possibly leak."""
    conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
    _, counts = np.unique(conditions, axis=0, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def feature_leakage_profile(
    dataset: FlowPairDataset, *, bins: int = 16
) -> np.ndarray:
    """Per-feature MI (bits) between each feature column and the condition.

    The profile shows *which* frequency bins leak — the analyst's view
    of where in the spectrum the side channel lives.
    """
    labels = [tuple(c) for c in dataset.conditions]
    labels = np.array([hash(t) for t in labels])
    return np.array(
        [
            histogram_mutual_information(dataset.features[:, d], labels, bins=bins)
            for d in range(dataset.feature_dim)
        ]
    )


def generator_leakage_profile(
    generator_sampler,
    conditions,
    *,
    n_per_condition: int = 200,
    bins: int = 16,
    seed=None,
) -> np.ndarray:
    """Per-feature MI computed on *generated* samples.

    Comparing this with :func:`feature_leakage_profile` on real data
    shows how faithfully the CGAN reproduces the leakage structure —
    the property GAN-Sec's design-time analysis relies on.
    """
    sample = as_sampler(generator_sampler)
    rng = as_rng(seed)
    conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
    features = []
    labels = []
    for ci, cond in enumerate(conditions):
        gen = sample(cond, n_per_condition, rng)
        features.append(gen)
        labels.extend([ci] * n_per_condition)
    features = np.vstack(features)
    labels = np.asarray(labels)
    return np.array(
        [
            histogram_mutual_information(features[:, d], labels, bins=bins)
            for d in range(features.shape[1])
        ]
    )
