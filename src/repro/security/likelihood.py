"""Algorithm 3: the paper's security-analysis methodology.

For every condition ``C_i`` and every selected frequency feature
``FtIdx``:

1. generate ``GSize`` samples from ``G(Z | C_i)``;
2. fit a 1-D Parzen Gaussian window of width ``h`` to the generated
   values of feature ``FtIdx`` (``FtDistr``);
3. score every test sample's feature value:
   ``Like = exp(FtDistr.score(x)) * h``;
4. accumulate the likelihood into *CorLike* when the test sample's true
   label equals ``C_i`` and into *IncLike* otherwise;
5. average per feature, producing the matrices ``AvgCorLike`` and
   ``AvgIncLike`` (conditions × features).

High *AvgCorLike* with low *AvgIncLike* means the generator has learned
a sharp, condition-specific emission model — i.e. the physical emission
*leaks* the cyber condition (confidentiality risk), and dually the same
model can *detect* integrity/availability attacks that change the
condition-emission relationship.

The engine (:mod:`repro.security.engine`) runs the algorithm; this
module holds its result types, its input validation, the Lines 9-15
scoring of one condition (:func:`condition_likelihoods`), and the
repeated and feature-selection analyses built on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.runtime.analysis import resolve_root_entropy
from repro.security.parzen import ConditionalParzen
from repro.utils.rng import stable_entropy
from repro.utils.tables import format_table
from repro.utils.validation import check_indices


@dataclass
class LikelihoodResult:
    """Output of Algorithm 3.

    Attributes
    ----------
    conditions:
        The condition vectors analyzed, shape ``(n_conds, c)``.
    feature_indices:
        The analyzed feature columns (``FtIndices``).
    avg_correct:
        ``AvgCorLike`` matrix, shape ``(n_conds, n_features)``.
    avg_incorrect:
        ``AvgIncLike`` matrix, same shape.
    h:
        Parzen window width used.
    """

    conditions: np.ndarray
    feature_indices: np.ndarray
    avg_correct: np.ndarray
    avg_incorrect: np.ndarray
    h: float

    def margin(self) -> np.ndarray:
        """Cor − Inc per (condition, feature): the attacker's edge."""
        return self.avg_correct - self.avg_incorrect

    def per_condition_summary(self) -> list:
        """List of dicts: condition, mean Cor, mean Inc, mean margin."""
        out = []
        for i, cond in enumerate(self.conditions):
            out.append(
                {
                    "condition": cond.tolist(),
                    "avg_correct": float(self.avg_correct[i].mean()),
                    "avg_incorrect": float(self.avg_incorrect[i].mean()),
                    "margin": float(self.margin()[i].mean()),
                }
            )
        return out

    def to_table(self, *, condition_names=None) -> str:
        """Render as an ASCII table (rows = conditions)."""
        names = condition_names or [
            f"Cond{i + 1}" for i in range(len(self.conditions))
        ]
        rows = []
        for name, summary in zip(names, self.per_condition_summary()):
            rows.append(
                [name, summary["avg_correct"], summary["avg_incorrect"], summary["margin"]]
            )
        return format_table(
            rows,
            ["condition", "Cor", "Inc", "margin"],
            title=f"Average likelihoods (h={self.h})",
        )


def resolve_analysis_target(
    test_set: FlowPairDataset, conditions=None, feature_indices=None, *, label=None
) -> tuple:
    """Algorithm 3's validated ``(conditions, feature_indices)``; they
    default to the test set's distinct conditions and to every column."""
    if conditions is None:
        conditions = test_set.unique_conditions()
    conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
    if feature_indices is None:
        feature_indices = np.arange(test_set.feature_dim)
    feature_indices = check_indices(
        feature_indices, "feature_indices", test_set.feature_dim
    )
    where = f" for {label}" if label is not None else ""
    for cond in conditions:
        if not test_set.mask_for_condition(cond).any():
            raise DataError(
                f"test set{where} has no samples labeled {cond.tolist()}; "
                "Algorithm 3 needs test data for every analyzed condition"
            )
    return conditions, feature_indices


def condition_likelihoods(
    model: ConditionalParzen, features, cond_index: int, correct_mask
) -> tuple:
    """Algorithm 3 Lines 9-15 for condition *cond_index* of *model*: the
    per-feature mean of ``exp(LogLike) * h`` over the correctly and the
    incorrectly labeled rows (0 if there are none) of *features*."""
    claims = np.full(len(features), cond_index)
    likes = np.exp(model.log_density(features, claims).T) * model.h

    def masked_mean(mask):
        # C order makes each feature's mean reduce like a 1-D mean.
        return np.ascontiguousarray(likes[:, mask]).mean(axis=1)

    incorrect = ~correct_mask
    avg_inc = masked_mean(incorrect) if incorrect.any() else np.zeros(model.n_features)
    return masked_mean(correct_mask), avg_inc


@dataclass
class RepeatedLikelihoodResult:
    """Mean/std of Algorithm 3 outputs over repeated runs.

    Repetition varies the generator's noise draws and the Parzen fits,
    quantifying the Monte-Carlo uncertainty of the Table I numbers.
    """

    conditions: np.ndarray
    feature_indices: np.ndarray
    mean_correct: np.ndarray
    std_correct: np.ndarray
    mean_incorrect: np.ndarray
    std_incorrect: np.ndarray
    h: float
    n_repeats: int

    def margin(self) -> np.ndarray:
        return self.mean_correct - self.mean_incorrect

    def to_table(self, *, condition_names=None) -> str:
        names = condition_names or [
            f"Cond{i + 1}" for i in range(len(self.conditions))
        ]
        rows = []
        for i, name in enumerate(names):
            rows.append(
                [
                    name,
                    f"{self.mean_correct[i].mean():.4f}"
                    f" ± {self.std_correct[i].mean():.4f}",
                    f"{self.mean_incorrect[i].mean():.4f}"
                    f" ± {self.std_incorrect[i].mean():.4f}",
                ]
            )
        return format_table(
            rows,
            ["condition", "Cor (mean ± std)", "Inc (mean ± std)"],
            title=f"Algorithm 3 over {self.n_repeats} repeats (h={self.h})",
        )


def repeated_likelihood_analysis(
    generator_sampler,
    test_set: FlowPairDataset,
    *,
    n_repeats: int = 5,
    root_entropy: int | None = None,
    **kwargs,
) -> RepeatedLikelihoodResult:
    """Run Algorithm 3 *n_repeats* times with fresh generator noise.

    Accepts the keyword arguments of
    :func:`~repro.security.engine.security_analysis`; repeat ``r`` runs
    on its own root, ``stable_entropy(root_entropy, "repeat", r)``, so
    results carry honest Monte-Carlo error bars.
    """
    from repro.security.engine import security_analysis  # Avoids a cycle.

    if n_repeats < 2:
        raise ConfigurationError(f"n_repeats must be >= 2, got {n_repeats}")
    root = resolve_root_entropy(root_entropy)
    cors, incs = [], []
    last = None
    for r in range(n_repeats):
        last = security_analysis(
            generator_sampler,
            test_set,
            root_entropy=stable_entropy(root, "repeat", r),
            **kwargs,
        )
        cors.append(last.avg_correct)
        incs.append(last.avg_incorrect)
    cors = np.stack(cors)
    incs = np.stack(incs)
    return RepeatedLikelihoodResult(
        conditions=last.conditions,
        feature_indices=last.feature_indices,
        mean_correct=cors.mean(axis=0),
        std_correct=cors.std(axis=0),
        mean_incorrect=incs.mean(axis=0),
        std_incorrect=incs.std(axis=0),
        h=last.h,
        n_repeats=n_repeats,
    )


def choose_analysis_feature(
    generator_sampler,
    calibration_set: FlowPairDataset,
    *,
    candidates=None,
    h: float = 0.2,
    g_size: int = 150,
    objective: str = "balanced",
    root_entropy: int | None = None,
) -> int:
    """Pick the single feature for a Table-I-style analysis.

    Implements the paper's (implicit) feature extraction/selection
    ``f_Y`` on the *calibration* (training) data.

    Parameters
    ----------
    objective:
        ``"balanced"`` — maximize mean-plus-minimum per-condition margin
        (a robust feature that identifies every condition reasonably);
        ``"peak"`` — among features whose margin is positive for *every*
        condition, maximize the strongest single-condition margin (the
        feature on which some condition is most identifiable — the
        paper's Table I highlights exactly such a feature, with Cond3
        standing out).  Falls back to ``"balanced"`` scoring when no
        candidate has all-positive margins.
    candidates:
        Feature indices to score; defaults to the 10 highest-MI columns
        for ``"balanced"`` and to all columns for ``"peak"``.

    Returns the chosen feature index.
    """
    from repro.security.engine import security_analysis  # Avoids a cycle.
    from repro.security.mutual_information import feature_leakage_profile

    if objective not in ("balanced", "peak"):
        raise ConfigurationError(
            f"objective must be 'balanced' or 'peak', got {objective!r}"
        )
    if candidates is None:
        if objective == "peak":
            candidates = np.arange(calibration_set.feature_dim)
        else:
            mi = feature_leakage_profile(calibration_set)
            candidates = np.argsort(mi)[::-1][:10]
    candidates = check_indices(candidates, "candidates", calibration_set.feature_dim)
    result = security_analysis(
        generator_sampler,
        calibration_set,
        feature_indices=candidates,
        h=h,
        g_size=g_size,
        root_entropy=root_entropy,
    )
    margins = result.margin()  # (n_conds, n_candidates)
    if objective == "peak":
        all_positive = np.all(margins > 0, axis=0)
        if all_positive.any():
            score = np.where(all_positive, margins.max(axis=0), -np.inf)
            return int(candidates[int(np.argmax(score))])
    # Mean margin plus the minimum (so one hopeless condition penalizes).
    score = margins.mean(axis=0) + margins.min(axis=0)
    return int(candidates[int(np.argmax(score))])
