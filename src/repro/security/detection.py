"""Integrity and availability attack detection from physical emissions.

The dual use of the CGAN model (paper Section IV-D): "if a designer
needs to create an integrity and availability attack detection model to
detect attacks on individual components (X, Y or Z motor) using the
side-channels, he/she will be able to estimate the performance of such
a model using the CGAN model."

The detector knows the *claimed* condition of each segment (from the
G-code the controller believes it is executing) and checks whether the
observed emission is likely under the CGAN's conditional model for that
claim.  Low likelihood ⇒ the physical behaviour does not match the
cyber claim ⇒ integrity attack (motion replaced/modified) or
availability attack (motor stalled/disabled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.flows.dataset import FlowPairDataset, condition_indices
from repro.runtime.analysis import DEFAULT_PAIR, as_sampler, fit_condition_model
from repro.utils.validation import check_positive, check_positive_int


@dataclass
class DetectionReport:
    """Evaluation of an attack detector on labeled clean/attacked data.

    Attributes
    ----------
    threshold:
        Log-likelihood decision threshold in use.
    true_positive_rate:
        Fraction of attacked samples flagged.
    false_positive_rate:
        Fraction of clean samples flagged.
    auc:
        Area under the ROC curve over all thresholds.
    clean_scores / attack_scores:
        Per-sample log-likelihoods (higher = more normal).
    """

    threshold: float
    true_positive_rate: float
    false_positive_rate: float
    auc: float
    clean_scores: np.ndarray
    attack_scores: np.ndarray

    def summary(self) -> str:
        return (
            f"detection: TPR={self.true_positive_rate:.3f} "
            f"FPR={self.false_positive_rate:.3f} AUC={self.auc:.3f} "
            f"(threshold={self.threshold:.3f})"
        )


def roc_auc(clean_scores: np.ndarray, attack_scores: np.ndarray) -> float:
    """AUC via the Mann–Whitney U statistic.

    *clean_scores* should stochastically exceed *attack_scores* for a
    working detector (higher score = more normal).  Scores may be
    ``±inf`` (the Parzen floor is ``-inf``); NaN raises
    :class:`~repro.errors.DataError`.
    """
    clean = np.asarray(clean_scores, dtype=float).ravel()
    attack = np.asarray(attack_scores, dtype=float).ravel()
    if clean.size == 0 or attack.size == 0:
        raise DataError("need both clean and attack scores for AUC")
    if np.isnan(clean).any() or np.isnan(attack).any():
        raise DataError("AUC scores must not be NaN")
    # U = #(clean > attack) + 0.5 #(clean == attack), counted exactly.
    ordered = np.sort(attack)
    below = np.searchsorted(ordered, clean, side="left")
    not_above = np.searchsorted(ordered, clean, side="right")
    u = (below.sum() + not_above.sum()) / 2.0
    return float(u / (clean.size * attack.size))


class EmissionAttackDetector:
    """Likelihood-ratio attack detector built on the CGAN generator.

    The same detector scores offline claims (condition vectors,
    :meth:`score`) and the streaming monitor's windows (condition
    indices, :meth:`score_windows`).  Rows are scored independently, so
    any batching of windows gives bitwise-identical scores.

    Parameters
    ----------
    generator_sampler:
        Trained CGAN (or sampler callable) providing ``G(Z | c)``.
    conditions:
        All conditions that can legitimately be claimed.
    h:
        Parzen window width for the per-feature models.
    feature_indices:
        Feature columns used for scoring (``None`` = all).
    g_size:
        Generator samples per condition.
    root_entropy / pair / cache:
        The draws' derived streams and sample cache, as in
        :func:`~repro.runtime.analysis.draw_condition_samples`: a
        detector and an Algorithm 3 analysis with the same root, pair
        and ``g_size`` fit the same draws.
    """

    def __init__(
        self,
        generator_sampler,
        conditions,
        *,
        h: float = 0.2,
        feature_indices=None,
        g_size: int = 200,
        root_entropy: int | None = None,
        pair: str = DEFAULT_PAIR,
        cache=None,
    ):
        check_positive(h, "h")
        self._sample = as_sampler(generator_sampler)
        self.conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
        self.h = float(h)
        self.feature_indices = feature_indices
        self.g_size = check_positive_int(g_size, "g_size")
        self.root_entropy = root_entropy
        self.pair = str(pair)
        self.cache = cache
        self._model = None
        self.threshold = None

    def fit(self) -> "EmissionAttackDetector":
        """Fit per-condition, per-feature Parzen models from G samples."""
        self._model = fit_condition_model(
            self._sample,
            self.conditions,
            h=self.h,
            g_size=self.g_size,
            root_entropy=self.root_entropy,
            pair=self.pair,
            cache=self.cache,
            feature_indices=self.feature_indices,
        )
        return self

    def score(self, features, claimed_conditions) -> np.ndarray:
        """Per-sample mean log-likelihood under the *claimed* condition.

        Higher = emission consistent with the claim (normal); lower =
        suspicious.
        """
        self._require_fitted()
        features = np.atleast_2d(np.asarray(features, dtype=float))
        claimed = np.atleast_2d(np.asarray(claimed_conditions, dtype=float))
        if claimed.shape[0] == 1 and features.shape[0] > 1:
            claimed = np.tile(claimed, (features.shape[0], 1))
        if features.shape[0] != claimed.shape[0]:
            raise DataError("features and claimed_conditions are misaligned")
        return self.score_windows(features, condition_indices(self.conditions, claimed))

    def score_windows(self, features, claim_indices) -> np.ndarray:
        """:meth:`score` with each claim given as an index into
        :attr:`conditions` (the streaming monitor's per-window claims)."""
        self._require_fitted()
        model = self._model
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return model.joint_log_density(features, claim_indices) / model.n_features

    def _require_fitted(self) -> None:
        if self._model is None:
            raise NotFittedError("EmissionAttackDetector.fit() not called")

    def calibrate(
        self, clean_set: FlowPairDataset, *, false_positive_rate: float = 0.05
    ) -> float:
        """Pick the threshold achieving a target FPR on clean data."""
        if not 0.0 < false_positive_rate < 1.0:
            raise ConfigurationError(
                f"false_positive_rate must be in (0,1), got {false_positive_rate}"
            )
        scores = self.score(clean_set.features, clean_set.conditions)
        self.threshold = float(np.quantile(scores, false_positive_rate))
        return self.threshold

    def detect(self, features, claimed_conditions) -> np.ndarray:
        """Boolean attack flags (True = attack) using the calibrated threshold."""
        if self.threshold is None:
            raise NotFittedError("calibrate() must run before detect()")
        return self.score(features, claimed_conditions) < self.threshold

    def evaluate(
        self,
        clean_set: FlowPairDataset,
        attack_features,
        attack_claims,
    ) -> DetectionReport:
        """Score clean and attacked samples and compile a report."""
        if self.threshold is None:
            self.calibrate(clean_set)
        clean_scores = self.score(clean_set.features, clean_set.conditions)
        attack_scores = self.score(attack_features, attack_claims)
        tpr = float((attack_scores < self.threshold).mean())
        fpr = float((clean_scores < self.threshold).mean())
        return DetectionReport(
            threshold=self.threshold,
            true_positive_rate=tpr,
            false_positive_rate=fpr,
            auc=roc_auc(clean_scores, attack_scores),
            clean_scores=clean_scores,
            attack_scores=attack_scores,
        )
