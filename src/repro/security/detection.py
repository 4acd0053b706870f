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
from repro.runtime.analysis import as_sampler
from repro.security.parzen import ConditionalParzen
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive


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
    working detector (higher score = more normal).
    """
    clean = np.asarray(clean_scores, dtype=float)
    attack = np.asarray(attack_scores, dtype=float)
    if clean.size == 0 or attack.size == 0:
        raise DataError("need both clean and attack scores for AUC")
    # Imported here: scipy.stats would add to every CLI start-up.
    from scipy.stats import rankdata

    # P(clean > attack) + 0.5 P(==): rank sum with ties at their average rank.
    avg_ranks = rankdata(np.concatenate([clean, attack]))
    r_clean = avg_ranks[: clean.size].sum()
    u = r_clean - clean.size * (clean.size + 1) / 2.0
    return float(u / (clean.size * attack.size))


class EmissionAttackDetector:
    """Likelihood-ratio attack detector built on the CGAN generator.

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
    """

    def __init__(
        self,
        generator_sampler,
        conditions,
        *,
        h: float = 0.2,
        feature_indices=None,
        g_size: int = 200,
        seed=None,
    ):
        check_positive(h, "h")
        self._sample = as_sampler(generator_sampler)
        self.conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
        self.h = float(h)
        self.feature_indices = (
            None if feature_indices is None else np.asarray(feature_indices, dtype=int)
        )
        self.g_size = int(g_size)
        self._seed = seed
        self._model = None
        self.threshold = None

    def fit(self) -> "EmissionAttackDetector":
        """Fit per-condition, per-feature Parzen models from G samples."""
        rng = as_rng(self._seed)
        draws = [self._sample(cond, self.g_size, rng) for cond in self.conditions]
        self._model = ConditionalParzen(
            self.h, draws, feature_indices=self.feature_indices
        )
        return self

    def score(self, features, claimed_conditions) -> np.ndarray:
        """Per-sample mean log-likelihood under the *claimed* condition.

        Higher = emission consistent with the claim (normal); lower =
        suspicious.
        """
        if self._model is None:
            raise NotFittedError("EmissionAttackDetector.fit() not called")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        claimed = np.atleast_2d(np.asarray(claimed_conditions, dtype=float))
        if claimed.shape[0] == 1 and features.shape[0] > 1:
            claimed = np.tile(claimed, (features.shape[0], 1))
        if features.shape[0] != claimed.shape[0]:
            raise DataError("features and claimed_conditions are misaligned")
        claim_idx = condition_indices(self.conditions, claimed)
        model = self._model
        return model.joint_log_density(features, claim_idx) / model.n_features

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
