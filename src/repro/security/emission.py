"""The CGAN's conditional emission model and its two read-outs.

The paper gives the trained CGAN two uses (Section IV-D), both read off
one model of ``Pr(emission | G-code condition)``:

* **confidentiality** — "Is data in F1 (cyber domain) being leaked from
  F9 (physical domain)?"  A side-channel attacker observes an emission
  and infers which motor ran by maximum Parzen likelihood over the
  conditions (:meth:`EmissionModel.infer`, :meth:`EmissionModel.leakage`).
  High inference accuracy = high leakage = confidentiality violation.
  :func:`leakage_report` is that read-out for any log-likelihood
  matrix: the model's own, or the one the security report takes from
  Algorithm 3's scores
  (:meth:`~repro.security.likelihood.LikelihoodResult.joint_log_likelihoods`).
* **integrity/availability** — "if a designer needs to create an
  integrity and availability attack detection model ... he/she will be
  able to estimate the performance of such a model using the CGAN
  model."  A defender knows the *claimed* condition of each segment
  (the G-code the controller believes it runs) and scores the emission
  under that claim (:meth:`EmissionModel.score`,
  :meth:`EmissionModel.detection`).  Low likelihood ⇒ the physical
  behaviour does not match the cyber claim ⇒ integrity attack (motion
  replaced/modified) or availability attack (motor stalled/disabled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset, condition_indices
from repro.runtime.analysis import DEFAULT_PAIR, as_sampler, fit_condition_model
from repro.security.roc import roc_auc
from repro.utils.tables import format_table
from repro.utils.validation import check_array, check_positive, check_positive_int


@dataclass
class LeakageReport:
    """Result of a confidentiality attack evaluation.

    Attributes
    ----------
    conditions:
        Condition vectors, in classifier-slot order.
    accuracy:
        Fraction of test emissions whose condition the attacker inferred
        correctly (chance = 1 / n_conditions).
    confusion:
        ``confusion[i, j]`` = count of samples with true condition *i*
        classified as *j*.
    per_condition_recall:
        Recall per true condition.
    """

    conditions: np.ndarray
    accuracy: float
    confusion: np.ndarray
    per_condition_recall: np.ndarray

    @property
    def n_conditions(self) -> int:
        return len(self.conditions)

    @property
    def chance_accuracy(self) -> float:
        return 1.0 / self.n_conditions

    @property
    def leakage_ratio(self) -> float:
        """Accuracy relative to random guessing (1.0 = no leakage)."""
        return self.accuracy / self.chance_accuracy

    def to_table(self, *, condition_names=None) -> str:
        names = condition_names or [f"Cond{i+1}" for i in range(self.n_conditions)]
        rows = []
        for i, name in enumerate(names):
            rows.append(
                [name, float(self.per_condition_recall[i])]
                + [int(c) for c in self.confusion[i]]
            )
        headers = ["true\\pred", "recall"] + list(names)
        title = (
            f"Side-channel leakage: accuracy={self.accuracy:.3f} "
            f"(chance {self.chance_accuracy:.3f}, ratio {self.leakage_ratio:.2f}x)"
        )
        return format_table(rows, headers, title=title, float_fmt=".3f")


def leakage_report(
    conditions, log_likelihoods, test_set: FlowPairDataset
) -> LeakageReport:
    """The attacker's :class:`LeakageReport` on *test_set*: each row is
    assigned the condition of its largest entry in the
    ``(n_rows, n_conditions)`` *log_likelihoods* (columns in the order
    of *conditions*), and scored against its true label."""
    true_idx = condition_indices(conditions, test_set.conditions)
    pred_idx = np.argmax(log_likelihoods, axis=1)
    n = len(conditions)
    confusion = np.zeros((n, n), dtype=int)
    for t, p in zip(true_idx, pred_idx):
        confusion[t, p] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(
            confusion.sum(axis=1) > 0,
            np.diag(confusion) / np.maximum(confusion.sum(axis=1), 1),
            0.0,
        )
    return LeakageReport(
        conditions=conditions,
        accuracy=float((true_idx == pred_idx).mean()),
        confusion=confusion,
        per_condition_recall=recall,
    )


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


class EmissionModel:
    """Per-condition, per-feature Parzen models of ``G(Z | c)``, fitted
    when built, with an attacker and a detector read-out.

    Both read-outs go through one
    :meth:`~repro.security.parzen.ConditionalParzen.joint_log_density`:
    the attacker takes its argmax over all conditions, the detector
    reads it under the claimed condition.  Rows are scored
    independently, so any batching gives bitwise-identical values.

    Parameters
    ----------
    generator_sampler:
        Trained :class:`~repro.gan.cgan.ConditionalGAN` or callable
        ``(condition, n, rng) -> samples``.
    conditions:
        The distinct condition vectors, one per row: the attacker's
        classes and the claims the detector accepts.
    h:
        Parzen window width.
    feature_indices:
        Feature columns used (``None`` = all).
    g_size:
        Generated samples per condition.
    root_entropy / pair:
        The draws' derived streams, as in
        :func:`~repro.runtime.analysis.draw_condition_samples`: a model
        and an Algorithm 3 analysis with the same root, pair and
        ``g_size`` fit the same draws and score the same log densities.
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
    ):
        check_positive(h, "h")
        conditions = np.asarray(conditions, dtype=float)
        if conditions.ndim != 2:
            raise ConfigurationError(
                f"conditions must be 2-D (one row per condition), "
                f"got shape {conditions.shape}"
            )
        if len({tuple(c) for c in conditions}) != len(conditions):
            raise ConfigurationError("conditions must not repeat a row")
        self.conditions = conditions
        self._model = fit_condition_model(
            as_sampler(generator_sampler),
            conditions,
            h=h,
            g_size=check_positive_int(g_size, "g_size"),
            root_entropy=root_entropy,
            pair=str(pair),
            feature_indices=feature_indices,
        )

    # -- attacker read-out -------------------------------------------------

    def log_likelihoods(self, features) -> np.ndarray:
        """Per-condition log-likelihood matrix ``(n_samples, n_conds)``.

        Feature dimensions are treated independently (the same
        per-feature Parzen structure as Algorithm 3): the log-likelihood
        of a sample is the sum over selected features.
        """
        if len(self.conditions) < 2:
            raise ConfigurationError("inference needs at least 2 conditions")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        n = features.shape[0]
        return np.stack(
            [
                self._model.joint_log_density(features, np.full(n, ci))
                for ci in range(self._model.n_conditions)
            ],
            axis=1,
        )

    def infer(self, features) -> np.ndarray:
        """Most likely condition index per sample."""
        return np.argmax(self.log_likelihoods(features), axis=1)

    def leakage(self, test_set: FlowPairDataset) -> LeakageReport:
        """Attack every test sample and compile a :class:`LeakageReport`."""
        return leakage_report(
            self.conditions, self.log_likelihoods(test_set.features), test_set
        )

    # -- detector read-out -------------------------------------------------

    def score(self, features, claimed_conditions) -> np.ndarray:
        """Per-sample mean log-likelihood under the *claimed* condition.

        Higher = emission consistent with the claim (normal); lower =
        suspicious.
        """
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
        model = self._model
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return model.joint_log_density(features, claim_indices) / model.n_features

    def calibrate(
        self, clean_set: FlowPairDataset, *, false_positive_rate: float = 0.05
    ) -> float:
        """The threshold achieving a target FPR on clean data."""
        if not 0.0 < false_positive_rate < 1.0:
            raise ConfigurationError(
                f"false_positive_rate must be in (0,1), got {false_positive_rate}"
            )
        scores = self.score(clean_set.features, clean_set.conditions)
        # np.quantile over a -inf score returns nan, which flags nothing.
        scores = check_array(scores, "calibration scores")
        return float(np.quantile(scores, false_positive_rate))

    def detection(
        self,
        clean_set: FlowPairDataset,
        attack_features,
        attack_claims,
        *,
        threshold: float,
    ) -> DetectionReport:
        """Score clean and attacked samples and compile a report; a
        sample is flagged when its score falls below *threshold*."""
        clean_scores = self.score(clean_set.features, clean_set.conditions)
        attack_scores = self.score(attack_features, attack_claims)
        auc = roc_auc(clean_scores, attack_scores)
        return DetectionReport(
            threshold=threshold,
            true_positive_rate=float((attack_scores < threshold).mean()),
            false_positive_rate=float((clean_scores < threshold).mean()),
            auc=auc,
            clean_scores=clean_scores,
            attack_scores=attack_scores,
        )


def leakage_vs_training_data(
    make_cgan,
    dataset: FlowPairDataset,
    fractions=(0.25, 0.5, 0.75, 1.0),
    *,
    test_fraction: float = 0.25,
    iterations: int = 500,
    h: float = 0.2,
    seed=None,
) -> list:
    """Attacker capability study: leakage accuracy vs training-data volume.

    The paper: "The amount of data given for training can also be
    modified according to the attacker capability".  *make_cgan* is a
    zero-argument factory returning a fresh untrained CGAN.

    *seed* drives the split, the subsets and the training; each
    attacker's draw root is taken from the same stream.

    Returns a list of ``(fraction, n_train, accuracy)`` tuples.
    """
    for frac in fractions:
        if not 0.0 < frac <= 1.0:
            raise ConfigurationError(f"fractions must be in (0,1], got {frac}")
    rng = np.random.default_rng(seed)
    train, test = dataset.split(test_fraction, seed=rng)
    results = []
    for frac in fractions:
        subset = (
            train
            if frac == 1.0
            else train.take(max(2, int(round(frac * len(train)))), seed=rng)
        )
        cgan = make_cgan()
        cgan.train(subset, iterations=iterations, seed=rng)
        root = int(rng.integers(2**63))
        model = EmissionModel(cgan, test.unique_conditions(), h=h, root_entropy=root)
        results.append((float(frac), len(subset), model.leakage(test).accuracy))
    return results
