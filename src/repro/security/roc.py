"""Full ROC analysis for emission attack detectors.

:func:`roc_auc` gives the scalar AUC; :func:`roc_curve` computes the
whole curve and operating-point tables so a designer can pick a
detection threshold for a target false-positive budget — the practical
artifact of the paper's "estimate the performance of such a [detection]
model".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.ascii_plot import ascii_line_plot
from repro.utils.tables import format_table


def roc_auc(clean_scores, attack_scores) -> float:
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


@dataclass
class RocCurve:
    """An ROC curve over decision thresholds.

    Scores follow the detector convention: *higher = more normal*, and a
    sample is flagged as an attack when its score falls **below** the
    threshold.

    Attributes
    ----------
    thresholds:
        Decision thresholds, ascending.
    fpr / tpr:
        False/true-positive rates at each threshold.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    @property
    def auc(self) -> float:
        """Area under the curve via trapezoidal integration over FPR."""
        order = np.argsort(self.fpr, kind="mergesort")
        return float(np.trapezoid(self.tpr[order], self.fpr[order]))

    def threshold_for_fpr(self, max_fpr: float) -> float:
        """Largest threshold whose FPR stays within *max_fpr*.

        (Larger threshold = more sensitive detector, so this is the most
        sensitive operating point inside the false-positive budget.)
        """
        if not 0.0 <= max_fpr <= 1.0:
            raise ConfigurationError(f"max_fpr must be in [0,1], got {max_fpr}")
        ok = self.fpr <= max_fpr
        if not ok.any():
            raise DataError(f"no threshold achieves FPR <= {max_fpr}")
        return float(self.thresholds[ok].max())

    def operating_point(self, threshold: float) -> tuple:
        """(fpr, tpr) at the curve point nearest *threshold*."""
        idx = int(np.argmin(np.abs(self.thresholds - threshold)))
        return float(self.fpr[idx]), float(self.tpr[idx])

    def to_table(self, *, fpr_grid=(0.01, 0.05, 0.1, 0.2)) -> str:
        """Operating points at standard false-positive budgets."""
        rows = []
        for budget in fpr_grid:
            try:
                thr = self.threshold_for_fpr(budget)
            except DataError:
                continue
            fpr, tpr = self.operating_point(thr)
            rows.append([f"{budget:.0%}", thr, fpr, tpr])
        return format_table(
            rows,
            ["FPR budget", "threshold", "achieved FPR", "TPR"],
            title=f"detector operating points (AUC={self.auc:.3f})",
        )

    def to_ascii(self, **kwargs) -> str:
        """Render TPR-vs-FPR as an ASCII plot."""
        order = np.argsort(self.fpr, kind="mergesort")
        return ascii_line_plot(
            {"ROC": self.tpr[order]},
            title=f"ROC curve (AUC={self.auc:.3f})",
            xlabel="FPR 0 .. 1 (uniform in curve points)",
            ylabel="TPR",
            **kwargs,
        )


def roc_curve(clean_scores, attack_scores) -> RocCurve:
    """Compute the ROC curve from detector scores.

    Parameters
    ----------
    clean_scores / attack_scores:
        Per-sample scores (higher = more normal) of benign and attacked
        observations.
    """
    clean = np.asarray(clean_scores, dtype=float).ravel()
    attack = np.asarray(attack_scores, dtype=float).ravel()
    if clean.size == 0 or attack.size == 0:
        raise DataError("need both clean and attack scores")
    # Candidate thresholds: every distinct score, plus sentinels so the
    # curve spans (0,0) .. (1,1).
    all_scores = np.unique(np.concatenate([clean, attack]))
    eps = 1e-12 + (all_scores[-1] - all_scores[0]) * 1e-9
    thresholds = np.concatenate(
        [[all_scores[0] - eps], all_scores, [all_scores[-1] + eps]]
    )
    fpr = np.array([(clean < thr).mean() for thr in thresholds])
    tpr = np.array([(attack < thr).mean() for thr in thresholds])
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)
