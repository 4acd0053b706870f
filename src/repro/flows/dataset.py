"""Aligned (feature, condition) datasets for CGAN training.

Algorithm 2 consumes labeled pairs ``(f_1, f_2)`` sampled jointly: a
feature vector of the modeled flow together with the simultaneous value
of the conditioning flow.  :class:`FlowPairDataset` stores these aligned
arrays, provides mini-batch sampling, train/test splitting, and
per-condition slicing (Algorithm 3 iterates conditions).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError, ShapeError
from repro.utils.rng import as_rng
from repro.utils.validation import check_array


class FlowPairDataset:
    """Aligned samples of one (modeled flow, conditioning flow) pair.

    Parameters
    ----------
    features:
        Array ``(n, d)`` of modeled-flow feature vectors (e.g. scaled
        100-bin acoustic spectra).
    conditions:
        Array ``(n, c)`` of conditioning vectors (e.g. one-hot motor
        encodings), row-aligned with *features*.
    name:
        Dataset label for reports (usually the flow-pair name).
    """

    def __init__(self, features, conditions, *, name: str = "pair"):
        self.features = check_array(features, "features", ndim=2)
        self.conditions = check_array(conditions, "conditions", ndim=2)
        if self.features.shape[0] != self.conditions.shape[0]:
            raise ShapeError(
                f"features ({self.features.shape[0]} rows) and conditions "
                f"({self.conditions.shape[0]} rows) are misaligned"
            )
        self.name = name

    def __len__(self):
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def condition_dim(self) -> int:
        return self.conditions.shape[1]

    # -- condition bookkeeping -----------------------------------------------
    def unique_conditions(self) -> np.ndarray:
        """Distinct condition vectors, ``(k, c)``, in first-seen order."""
        seen = {}
        for row in self.conditions:
            seen.setdefault(tuple(row), row)
        return np.array(list(seen.values()))

    def mask_for_condition(self, condition) -> np.ndarray:
        """Boolean mask of rows whose condition equals *condition*."""
        cond = np.asarray(condition, dtype=float)
        if cond.shape != (self.condition_dim,):
            raise ShapeError(
                f"condition must have shape ({self.condition_dim},), got {cond.shape}"
            )
        return np.all(np.isclose(self.conditions, cond[None, :]), axis=1)

    def subset_for_condition(self, condition) -> "FlowPairDataset":
        """Rows observed under a single condition (Algorithm 3 inner loop)."""
        mask = self.mask_for_condition(condition)
        if not mask.any():
            raise DataError(
                f"dataset {self.name!r} has no rows for condition "
                f"{np.asarray(condition).tolist()}"
            )
        return FlowPairDataset(
            self.features[mask], self.conditions[mask], name=self.name
        )

    def condition_counts(self) -> list:
        """List of (condition_vector, count) pairs."""
        return [
            (cond, int(self.mask_for_condition(cond).sum()))
            for cond in self.unique_conditions()
        ]

    # -- sampling & splitting --------------------------------------------------
    def sample_batch(self, batch_size: int, *, seed=None, out=None):
        """Random mini-batch ``(features, conditions)`` with replacement.

        This is Algorithm 2's "acquire n mini-batch samples from
        Pr_data(F1)" together with the *corresponding* conditioning values
        (Lines 6-7) — alignment is preserved by construction.

        Parameters
        ----------
        out:
            Optional ``(feature_buffer, condition_buffer)`` pair of
            preallocated ``(batch_size, d)`` / ``(batch_size, c)``
            arrays filled in place — the training loop's zero-allocation
            path.  The RNG draw and the gathered rows are identical to
            the allocating call.
        """
        if batch_size <= 0:
            raise DataError(f"batch_size must be > 0, got {batch_size}")
        rng = as_rng(seed)
        idx = rng.integers(0, len(self), size=batch_size)
        if out is not None:
            feat_buf, cond_buf = out
            np.take(self.features, idx, axis=0, out=feat_buf)
            np.take(self.conditions, idx, axis=0, out=cond_buf)
            return feat_buf, cond_buf
        return self.features[idx], self.conditions[idx]

    def shuffled(self, *, seed=None) -> "FlowPairDataset":
        """Row-shuffled copy."""
        rng = as_rng(seed)
        idx = rng.permutation(len(self))
        return FlowPairDataset(
            self.features[idx], self.conditions[idx], name=self.name
        )

    def split(self, test_fraction: float = 0.25, *, seed=None, stratify: bool = True):
        """Train/test split; stratified per condition by default.

        Stratification guarantees each condition appears in both halves —
        Algorithm 3 needs test samples for *every* condition.
        """
        if not 0.0 < test_fraction < 1.0:
            raise DataError(f"test_fraction must be in (0,1), got {test_fraction}")
        rng = as_rng(seed)
        test_mask = np.zeros(len(self), dtype=bool)
        if stratify:
            for cond in self.unique_conditions():
                rows = np.flatnonzero(self.mask_for_condition(cond))
                rng.shuffle(rows)
                n_test = max(1, int(round(len(rows) * test_fraction)))
                if n_test >= len(rows):
                    raise DataError(
                        f"condition {cond.tolist()} has only {len(rows)} rows; "
                        "not enough to split"
                    )
                test_mask[rows[:n_test]] = True
        else:
            rows = rng.permutation(len(self))
            n_test = max(1, int(round(len(self) * test_fraction)))
            test_mask[rows[:n_test]] = True
        train = FlowPairDataset(
            self.features[~test_mask], self.conditions[~test_mask], name=self.name
        )
        test = FlowPairDataset(
            self.features[test_mask], self.conditions[test_mask], name=self.name
        )
        return train, test

    def take(self, n: int, *, seed=None) -> "FlowPairDataset":
        """Random subset of *n* rows without replacement (attacker-capability
        modeling: restrict how much training data is available)."""
        if not 1 <= n <= len(self):
            raise DataError(f"n must be in [1, {len(self)}], got {n}")
        rng = as_rng(seed)
        idx = rng.choice(len(self), size=n, replace=False)
        return FlowPairDataset(
            self.features[idx], self.conditions[idx], name=self.name
        )

    def merge(self, other: "FlowPairDataset") -> "FlowPairDataset":
        """Concatenate two datasets with identical dimensions."""
        if (
            other.feature_dim != self.feature_dim
            or other.condition_dim != self.condition_dim
        ):
            raise ShapeError(
                f"cannot merge: dims ({self.feature_dim},{self.condition_dim}) vs "
                f"({other.feature_dim},{other.condition_dim})"
            )
        return FlowPairDataset(
            np.vstack([self.features, other.features]),
            np.vstack([self.conditions, other.conditions]),
            name=self.name,
        )

    def __repr__(self):
        return (
            f"FlowPairDataset(name={self.name!r}, n={len(self)}, "
            f"feature_dim={self.feature_dim}, condition_dim={self.condition_dim})"
        )


def condition_indices(conditions, rows) -> np.ndarray:
    """Position of each condition vector in *rows* within *conditions*."""
    index = {tuple(c): i for i, c in enumerate(conditions)}
    try:
        return np.array([index[tuple(r)] for r in rows], dtype=int)
    except KeyError as err:
        raise DataError(
            f"condition {list(err.args[0])} is not one of the "
            f"{len(index)} known conditions"
        ) from None
