"""Parzen Gaussian-window density estimation (Algorithm 3, Line 8).

The paper evaluates generator quality and security metrics by fitting a
Parzen window (kernel density estimate with Gaussian kernels of width
``h``) to generator samples and scoring test points — the classic GAN
evaluation protocol from Goodfellow et al. 2014.  The ``score`` method
returns log-likelihood, matching the ``FtDistr.score(x)`` call in
Algorithm 3, and the helper :func:`likelihood` applies the paper's
``exp(LogLike) * h`` scaling.

:class:`ConditionalParzen` is the factorized model every analysis
builds on: one 1-D window per (condition, feature), fitted to draws
from ``G(Z | C_i)`` and scored in one fused pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DataError, NotFittedError, ShapeError
from repro.utils.validation import check_array

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Default memory budget (MiB) for the blocked score evaluation: the
#: (chunk, n_kernels) distance block plus its temporaries stay within
#: this footprint regardless of how many test points are scored.
DEFAULT_MEMORY_BUDGET_MB = 64.0

#: Elements of one ``(feature, row, kernel)`` block of the fused
#: :class:`ConditionalParzen` kernel.  Small blocks keep the distance
#: block and its temporaries in cache; blocks of ``2**17`` elements or
#: more measured slower than scoring one feature at a time.
BLOCK_ELEMENTS = 2**14


def resolve_chunk_size(
    n_kernels: int,
    dim: int,
    *,
    chunk_size: int | None = None,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
) -> int:
    """Number of test points scored per block of matrix work.

    An explicit *chunk_size* wins; otherwise the chunk is sized so the
    ``(chunk, n_kernels, dim)`` difference tensor and its ``(chunk,
    n_kernels)`` reductions fit inside *memory_budget_mb* MiB of float64
    temporaries.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return int(chunk_size)
    if memory_budget_mb <= 0:
        raise ConfigurationError(
            f"memory_budget_mb must be > 0, got {memory_budget_mb}"
        )
    # diffs (chunk*m*d) + squared-distance block and exp workspace
    # (2 * chunk*m) doubles.
    bytes_per_row = 8.0 * n_kernels * (dim + 2)
    return max(1, int(memory_budget_mb * 2**20 / bytes_per_row))


class ParzenWindow:
    """Gaussian-kernel density estimate over d-dimensional points.

    Parameters
    ----------
    h:
        Kernel bandwidth (the paper's Parzen window width); shared
        across dimensions.
    """

    def __init__(self, h: float):
        if h <= 0:
            raise ConfigurationError(f"Parzen window width h must be > 0, got {h}")
        self.h = float(h)
        self._data = None

    @property
    def fitted(self) -> bool:
        return self._data is not None

    @property
    def n_kernels(self) -> int:
        self._require_fitted()
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        self._require_fitted()
        return self._data.shape[1]

    def _require_fitted(self):
        if not self.fitted:
            raise NotFittedError("ParzenWindow used before fit()")

    def fit(self, samples) -> "ParzenWindow":
        """Center one Gaussian kernel on every row of *samples*."""
        samples = check_array(samples, "samples", ndim=(1, 2))
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] == 0:
            raise DataError("cannot fit ParzenWindow on zero samples")
        self._data = samples
        return self

    def _score_block(self, x: np.ndarray) -> np.ndarray:
        """Log density of one pre-validated ``(rows, dim)`` block.

        Uses the log-sum-exp trick so tiny densities do not underflow to
        ``-inf`` prematurely.  Rows so far from every kernel that the
        exponent itself overflows yield an exact ``-inf`` (density 0),
        never ``nan``: the max-subtraction is skipped for rows whose
        running maximum is already ``-inf``.
        """
        # Scaled log kernel weights: (rows, n_kernels).  Overflow to inf
        # is the correct saturation for astronomically distant points
        # (their kernel weight is exactly 0), so the warning is silenced.
        # d == 1 (every per-feature fit in Algorithm 3) broadcasts to the
        # (rows, n_kernels) matrix directly, without the 3-D temporary.
        scale = -0.5 / (self.h * self.h)
        with np.errstate(over="ignore"):
            if self.dim == 1:
                diffs = x - self._data.T
                log_kernel = (diffs * diffs) * scale
            else:
                diffs = x[:, None, :] - self._data[None, :, :]
                log_kernel = np.sum(diffs * diffs, axis=2) * scale
        # log p = logsumexp(log_kernel) - log(n) - d*log(h) - d/2*log(2pi)
        m = log_kernel.max(axis=1, keepdims=True)
        finite = np.isfinite(m)
        if finite.all():
            # Common path: no kernel saturated, plain log-sum-exp.
            lse = m.ravel() + np.log(np.exp(log_kernel - m).sum(axis=1))
        else:
            # Guard: m == -inf means every kernel underflowed (x
            # astronomically far away); -inf - -inf would poison the row
            # with nan, so those rows are pinned to exactly -inf.
            shifted = np.where(
                finite, log_kernel - np.where(finite, m, 0.0), -np.inf
            )
            with np.errstate(divide="ignore"):
                lse = np.where(
                    finite.ravel(),
                    m.ravel() + np.log(np.exp(shifted).sum(axis=1)),
                    -np.inf,
                )
        return (
            lse
            - np.log(self.n_kernels)
            - self.dim * np.log(self.h)
            - 0.5 * self.dim * _LOG_2PI
        )

    def _validate_points(self, x) -> np.ndarray:
        self._require_fitted()
        x = check_array(x, "x", ndim=(1, 2))
        if x.ndim == 1:
            x = x[:, None] if self.dim == 1 else x[None, :]
        if x.shape[1] != self.dim:
            raise ShapeError(
                f"x has {x.shape[1]} dims, ParzenWindow fitted on {self.dim}"
            )
        return x

    def score_batch(
        self,
        x,
        *,
        chunk_size: int | None = None,
        memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    ) -> np.ndarray:
        """Per-row log density via blocked matrix operations.

        Evaluates all test points against all kernels, *chunk_size* rows
        at a time (derived from *memory_budget_mb* when not given), so
        arbitrarily large test sets never materialize the full
        ``(n_x, n_kernels, dim)`` tensor.  Each row's reduction runs
        over every kernel regardless of blocking, so the result is
        bitwise-identical for every chunk size.
        """
        x = self._validate_points(x)
        chunk = resolve_chunk_size(
            self.n_kernels,
            self.dim,
            chunk_size=chunk_size,
            memory_budget_mb=memory_budget_mb,
        )
        n = x.shape[0]
        if n <= chunk:
            return self._score_block(x)
        out = np.empty(n)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            out[start:stop] = self._score_block(x[start:stop])
        return out

    def score_samples(self, x, *, chunk_size: int | None = None) -> np.ndarray:
        """Per-row log density ``log p(x)`` (blocked; see :meth:`score_batch`)."""
        return self.score_batch(x, chunk_size=chunk_size)

    def score(self, x) -> float:
        """Mean log density of *x* (a single point or a batch)."""
        return float(np.mean(self.score_samples(x)))

    def density(self, x, *, chunk_size: int | None = None) -> np.ndarray:
        """Per-row density ``p(x)``."""
        return np.exp(self.score_batch(x, chunk_size=chunk_size))

    def likelihood(self, x, *, chunk_size: int | None = None) -> np.ndarray:
        """The paper's scaled likelihood ``exp(score(x)) * h`` (Line 10).

        Multiplying the density by the window width converts it into a
        dimensionless per-window probability mass, which keeps Table I's
        values comparable across ``h``.
        """
        return self.density(x, chunk_size=chunk_size) * (self.h ** self.dim)

    def sample(self, n: int, *, seed=None) -> np.ndarray:
        """Draw from the fitted mixture (kernel choice + Gaussian jitter)."""
        self._require_fitted()
        if n <= 0:
            raise ConfigurationError(f"n must be > 0, got {n}")
        rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
        idx = rng.integers(0, self.n_kernels, size=n)
        return self._data[idx] + rng.normal(0.0, self.h, size=(n, self.dim))

    def __repr__(self):
        fitted = f", kernels={self.n_kernels}, dim={self.dim}" if self.fitted else ""
        return f"ParzenWindow(h={self.h}{fitted})"


class ConditionalParzen:
    """One 1-D Parzen window per (condition, feature) (Algorithm 3, Line 8).

    *draws* holds one ``(g_size, n_inputs)`` draw from ``G(Z | C_i)``
    per condition, in condition-index order; *feature_indices* picks
    the modelled input columns (``None`` = all).  Scores are bitwise
    equal to ``ParzenWindow(h).fit(draw[:, j]).score_batch(x[:, j])``.
    """

    def __init__(self, h: float, draws, *, feature_indices=None):
        if h <= 0:
            raise ConfigurationError(f"Parzen window width h must be > 0, got {h}")
        draws = [check_array(d, "draws", ndim=2) for d in draws]
        shapes = {d.shape for d in draws}
        if len(shapes) != 1:
            raise DataError(f"need one draw per condition, all one shape; got {shapes}")
        self.h = float(h)
        self.n_inputs = draws[0].shape[1]
        if feature_indices is not None:
            feature_indices = np.asarray(feature_indices, dtype=int)
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
        """:meth:`ParzenWindow._score_block` at ``dim == 1``, step for step,
        for ``(feats, rows, 1)`` points against ``(feats, 1, g)`` kernels."""
        scale = -0.5 / (self.h * self.h)
        with np.errstate(over="ignore"):
            # C order keeps each row's kernels contiguous, so the sums
            # below reduce in the reference's (pairwise) order.
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


def silverman_bandwidth(samples) -> float:
    """Silverman's rule-of-thumb bandwidth for 1-D data.

    Offered as an automatic alternative to the paper's fixed ``h``
    sweep; the ablation benchmark compares both.
    """
    samples = check_array(samples, "samples", ndim=1)
    n = len(samples)
    if n < 2:
        raise DataError("need at least 2 samples for a bandwidth estimate")
    std = float(np.std(samples, ddof=1))
    iqr = float(np.subtract(*np.percentile(samples, [75, 25])))
    spread = min(std, iqr / 1.349) if iqr > 0 else std
    if spread == 0:
        spread = 1e-3  # Degenerate data: fall back to a tiny width.
    return 0.9 * spread * n ** (-0.2)
