"""Confidentiality analysis: can an attacker recover the cyber signal
(G-code conditions) from physical emissions?

The paper's question — "Is data in F1 (cyber domain) being leaked from
F9 (physical domain)?" — becomes a classification task: a
side-channel attacker observes an emission feature vector and infers
which motor ran by maximum Parzen likelihood under the CGAN's
per-condition generative models.  High inference accuracy = high
leakage = confidentiality violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.flows.dataset import FlowPairDataset, condition_indices
from repro.runtime.analysis import DEFAULT_PAIR, as_sampler, fit_condition_model
from repro.utils.tables import format_table
from repro.utils.validation import check_positive


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


class SideChannelAttacker:
    """Maximum-likelihood condition inference from emission features.

    The attacker trains per-condition Parzen models on samples drawn
    from the CGAN generator (their learned model of the printer), then
    classifies observed emissions by the highest summed log-likelihood
    over the selected feature indices.

    Parameters
    ----------
    generator_sampler:
        Trained :class:`~repro.gan.cgan.ConditionalGAN` or callable
        ``(condition, n, rng) -> samples``.
    conditions:
        The condition vectors the attacker distinguishes.
    h:
        Parzen window width.
    feature_indices:
        Feature columns used for inference (``None`` = all).
    g_size:
        Generated samples per condition for the attacker's models.
    root_entropy / pair / cache:
        The draws' derived streams and sample cache, as in
        :func:`~repro.runtime.analysis.draw_condition_samples`.
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
        check_positive(g_size, "g_size")
        self._sample = as_sampler(generator_sampler)
        self.conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
        if self.conditions.shape[0] < 2:
            raise ConfigurationError("attacker needs at least 2 conditions")
        self.h = float(h)
        self.feature_indices = (
            None if feature_indices is None else np.asarray(feature_indices, dtype=int)
        )
        self.g_size = int(g_size)
        self.root_entropy = root_entropy
        self.pair = str(pair)
        self.cache = cache
        self._model = None

    @property
    def fitted(self) -> bool:
        return self._model is not None

    def fit(self) -> "SideChannelAttacker":
        """Draw generator samples and fit per-condition, per-feature
        1-D Parzen models (the same factorized structure Algorithm 3
        uses)."""
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

    def log_likelihoods(self, features) -> np.ndarray:
        """Per-condition log-likelihood matrix ``(n_samples, n_conds)``.

        Feature dimensions are treated independently (the same
        per-feature Parzen structure as Algorithm 3): the log-likelihood
        of a sample is the sum over selected features.
        """
        if not self.fitted:
            raise NotFittedError("SideChannelAttacker.fit() not called")
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

    def evaluate(self, test_set: FlowPairDataset) -> LeakageReport:
        """Attack every test sample and compile a :class:`LeakageReport`."""
        if not self.fitted:
            self.fit()
        true_idx = condition_indices(self.conditions, test_set.conditions)
        pred_idx = self.infer(test_set.features)
        n = len(self.conditions)
        confusion = np.zeros((n, n), dtype=int)
        for t, p in zip(true_idx, pred_idx):
            confusion[t, p] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            recall = np.where(
                confusion.sum(axis=1) > 0,
                np.diag(confusion) / np.maximum(confusion.sum(axis=1), 1),
                0.0,
            )
        accuracy = float((true_idx == pred_idx).mean())
        return LeakageReport(
            conditions=self.conditions,
            accuracy=accuracy,
            confusion=confusion,
            per_condition_recall=recall,
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
    rng = np.random.default_rng(seed)
    train, test = dataset.split(test_fraction, seed=rng)
    results = []
    for frac in fractions:
        if not 0.0 < frac <= 1.0:
            raise ConfigurationError(f"fractions must be in (0,1], got {frac}")
        subset = (
            train
            if frac == 1.0
            else train.take(max(2, int(round(frac * len(train)))), seed=rng)
        )
        cgan = make_cgan()
        cgan.train(subset, iterations=iterations, seed=rng)
        root = int(rng.integers(2**63))
        attacker = SideChannelAttacker(
            cgan, test.unique_conditions(), h=h, root_entropy=root
        ).fit()
        report = attacker.evaluate(test)
        results.append((float(frac), len(subset), report.accuracy))
    return results
