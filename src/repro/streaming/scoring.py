"""Batched per-window likelihood scoring for the streaming detector.

The streaming engine scores *batches* of windows against the same
per-condition, per-feature Parzen model
(:class:`~repro.security.parzen.ConditionalParzen`) the offline
analyses use, with generator draws routed through the engine's
:class:`~repro.runtime.analysis.ConditionSampleCache` and the
``(root_entropy, pair, condition)``-derived RNG streams
(:func:`~repro.runtime.analysis.draw_condition_samples`) — so a
streaming scorer and an offline analysis built from the same
``(sampler, conditions, h, g_size, root_entropy)`` are fitting exactly
the same densities.

Scoring is row-independent: ``score_windows`` over any partition of a
window batch is bitwise identical to one call over the whole batch
(enforced by the streaming property tests).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.runtime.analysis import (
    ConditionSampleCache,
    as_sampler,
    draw_condition_samples,
)
from repro.security.parzen import ConditionalParzen
from repro.utils.validation import check_positive


class StreamingScorer:
    """Per-window mean log-likelihood under the *claimed* condition.

    Parameters
    ----------
    sampler:
        Trained CGAN or ``(condition, n, rng) -> samples`` callable
        providing ``G(Z | c)``.
    conditions:
        ``(n_conditions, condition_dim)`` matrix of every condition the
        G-code stream can legitimately claim; windows carry *indices*
        into this matrix.
    h / g_size:
        Parzen window width and generator samples per condition.
    feature_indices:
        Feature columns used for scoring (``None`` = all).
    root_entropy:
        Integer seed root for the per-condition generator streams
        (:func:`~repro.runtime.analysis.analysis_rng`), making fits
        reproducible and cache-addressable.
    pair:
        Flow-pair label; part of the RNG derivation and cache key.
    cache:
        Optional :class:`~repro.runtime.analysis.ConditionSampleCache`
        consulted for generated samples and refilled on miss.
    """

    def __init__(
        self,
        sampler,
        conditions,
        *,
        h: float = 0.2,
        g_size: int = 200,
        feature_indices=None,
        root_entropy: int = 0,
        pair: str = "stream",
        cache: ConditionSampleCache | None = None,
    ):
        check_positive(h, "h")
        check_positive(g_size, "g_size")
        self._sample = as_sampler(sampler)
        self.conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
        if self.conditions.shape[0] < 1:
            raise ConfigurationError("need at least one condition")
        self.h = float(h)
        self.g_size = int(g_size)
        self.feature_indices = (
            None if feature_indices is None else np.asarray(feature_indices, dtype=int)
        )
        self.root_entropy = int(root_entropy)
        self.pair = str(pair)
        self.cache = cache
        self._model = None

    @property
    def fitted(self) -> bool:
        return self._model is not None

    @property
    def n_conditions(self) -> int:
        return self.conditions.shape[0]

    def fit(self) -> "StreamingScorer":
        """Fit per-condition, per-feature Parzen models from G samples.

        Draws go through the sample cache when one is configured; the
        per-condition RNG is a pure function of
        ``(root_entropy, pair, condition)``, so a cache hit is
        numerically indistinguishable from regeneration.
        """
        draws = [
            draw_condition_samples(
                self._sample, self.pair, cond, self.g_size, self.root_entropy,
                cache=self.cache,
            )
            for cond in self.conditions
        ]
        self._model = ConditionalParzen(
            self.h, draws, feature_indices=self.feature_indices
        )
        return self

    def score_windows(self, features, claim_indices) -> np.ndarray:
        """Mean per-feature log density of each window under its claim.

        Parameters
        ----------
        features:
            ``(n_windows, n_features)`` extracted (scaled) window
            features.
        claim_indices:
            Per-window condition *index* into :attr:`conditions` — the
            condition the G-code stream claims was executing.

        Higher = emission consistent with the claim (normal); lower =
        suspicious.  Rows are scored independently: any batching of
        windows produces bitwise-identical scores.
        """
        if not self.fitted:
            raise NotFittedError("StreamingScorer.fit() not called")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        model = self._model
        return model.joint_log_density(features, claim_indices) / model.n_features

    def __repr__(self):
        return (
            f"StreamingScorer(pair={self.pair!r}, conditions={self.n_conditions}, "
            f"h={self.h}, g_size={self.g_size}, fitted={self.fitted})"
        )
