"""Parzen Gaussian-window density estimation (Algorithm 3, Line 8).

The paper evaluates generator quality and security metrics by fitting a
Parzen window (kernel density estimate with Gaussian kernels of width
``h``) to generator samples and scoring test points — the classic GAN
evaluation protocol from Goodfellow et al. 2014.

:class:`ConditionalParzen` is the one such model: a 1-D window per
(condition, feature), fitted to draws from ``G(Z | C_i)`` and scored in
one fused pass.  Its log density is Algorithm 3's
``FtDistr.score(x)``; :func:`~repro.security.likelihood.condition_likelihoods`
applies the paper's ``exp(LogLike) * h`` scaling.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.utils.validation import check_array, check_indices, check_positive

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Elements of one ``(feature, row, kernel)`` block of the fused
#: :class:`ConditionalParzen` kernel.  Small blocks keep the distance
#: block and its temporaries in cache; blocks of ``2**17`` elements or
#: more measured slower than scoring one feature at a time.
BLOCK_ELEMENTS = 2**14


class ConditionalParzen:
    """One 1-D Parzen window per (condition, feature) (Algorithm 3, Line 8).

    *draws* holds one ``(g_size, n_inputs)`` draw from ``G(Z | C_i)``
    per condition, in condition-index order; *feature_indices* picks
    the modelled input columns (``None`` = all).  Each feature's scores
    are bitwise equal to those of a model fitted on that column alone,
    ``ConditionalParzen(h, [draw[:, [j]]])``.
    """

    def __init__(self, h: float, draws, *, feature_indices=None):
        check_positive(h, "h")
        draws = [check_array(d, "draws", ndim=2) for d in draws]
        shapes = {d.shape for d in draws}
        if len(shapes) != 1:
            raise DataError(f"need one draw per condition, all one shape; got {shapes}")
        self.h = float(h)
        self.n_inputs = draws[0].shape[1]
        if feature_indices is not None:
            feature_indices = check_indices(
                feature_indices, "feature_indices", self.n_inputs
            )
            draws = [d[:, feature_indices] for d in draws]
        self.feature_indices = feature_indices
        #: ``(n_conditions, n_features, g_size)``: the kernel centres.
        self.kernels = np.stack([d.T for d in draws])
        self.n_conditions, self.n_features, self.g_size = self.kernels.shape

    def log_density(self, features, claim_idx) -> np.ndarray:
        """``(n, n_features)`` log density of each ``(n, n_inputs)`` row's
        features under the condition index it claims.

        The result is the transpose of a C-contiguous array, so each
        feature's rows are contiguous.  Rows are scored independently.
        """
        x = check_array(features, "features", ndim=2, allow_empty=True)
        claims = np.asarray(claim_idx).ravel()
        if x.shape[1] != self.n_inputs:
            raise DataError(
                f"features have {x.shape[1]} columns, model fitted on {self.n_inputs}"
            )
        if claims.shape[0] != x.shape[0]:
            raise DataError(f"{x.shape[0]} rows but {claims.shape[0]} claims")
        if claims.size and (
            not np.issubdtype(claims.dtype, np.integer)
            or claims.min() < 0
            or claims.max() >= self.n_conditions
        ):
            raise DataError(
                f"claim indices must be integers in [0, {self.n_conditions})"
            )
        if self.feature_indices is not None:
            x = x[:, self.feature_indices]
        groups = np.unique(claims)
        if groups.size == 1:
            return self._score(groups[0], x.T).T
        out = np.empty((self.n_features, x.shape[0]))
        for ci in groups:
            rows = np.flatnonzero(claims == ci)
            out[:, rows] = self._score(ci, x[rows].T)
        return out.T

    def joint_log_density(self, features, claim_idx) -> np.ndarray:
        """Per-row sum of :meth:`log_density` over features, added one
        feature at a time (``sum`` goes pairwise for a single row)."""
        return np.add.accumulate(self.log_density(features, claim_idx).T)[-1]

    def _score(self, ci: int, xt: np.ndarray) -> np.ndarray:
        """``(n_features, rows)`` log densities under condition *ci*, in
        ``(feature, row, kernel)`` blocks of about :data:`BLOCK_ELEMENTS`."""
        n_feats, n_rows = xt.shape
        pairs = max(1, BLOCK_ELEMENTS // self.g_size)
        row_step = max(1, min(n_rows, pairs))
        feat_step = max(1, pairs // row_step)
        out = np.empty((n_feats, n_rows))
        for f0 in range(0, n_feats, feat_step):
            f = slice(f0, f0 + feat_step)
            kernels = self.kernels[ci, f, None, :]
            for r0 in range(0, n_rows, row_step):
                r = slice(r0, r0 + row_step)
                out[f, r] = self._score_block(xt[f, r, None], kernels)
        return out

    def _score_block(self, x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
        """Log density of ``(feats, rows, 1)`` points against ``(feats,
        1, g)`` kernels: a log-sum-exp over the kernel axis."""
        scale = -0.5 / (self.h * self.h)
        # Overflow to inf is the right saturation for astronomically far
        # points (their kernel weight is exactly 0).
        with np.errstate(over="ignore"):
            # C order keeps each row's kernels contiguous, so every sum
            # below reduces one row in numpy's pairwise order whatever
            # the block shape: blocking never changes a score.
            diffs = np.subtract(x, kernels, order="C")
            log_kernel = (diffs * diffs) * scale
        m = log_kernel.max(axis=2, keepdims=True)
        finite = np.isfinite(m)
        if finite.all():
            lse = m[..., 0] + np.log(np.exp(log_kernel - m).sum(axis=2))
        else:
            # Rows where every kernel underflowed are exactly -inf, not nan.
            shifted = np.where(
                finite, log_kernel - np.where(finite, m, 0.0), -np.inf
            )
            with np.errstate(divide="ignore"):
                lse = np.where(
                    finite[..., 0],
                    m[..., 0] + np.log(np.exp(shifted).sum(axis=2)),
                    -np.inf,
                )
        return lse - np.log(self.g_size) - np.log(self.h) - 0.5 * _LOG_2PI

