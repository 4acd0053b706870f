"""Argument-validation helpers used across the library.

These raise the library's own exception types (:mod:`repro.errors`) with
messages that name the offending argument, so failures deep inside a
pipeline point back at the call site.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.errors import ShapeError, ConfigurationError, DataError


def check_array(x, name: str, *, ndim=None, dtype=float, allow_empty=False) -> np.ndarray:
    """Coerce *x* to an ndarray and validate its dimensionality.

    Parameters
    ----------
    x:
        Array-like input.
    name:
        Argument name used in error messages.
    ndim:
        Required number of dimensions (int or tuple of acceptable ints),
        or ``None`` to skip the check.
    dtype:
        Target dtype for the coercion.
    allow_empty:
        If false (default), an array with zero elements raises
        :class:`~repro.errors.DataError`.
    """
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None:
        allowed = (ndim,) if isinstance(ndim, int) else tuple(ndim)
        if arr.ndim not in allowed:
            raise ShapeError(
                f"{name} must have ndim in {allowed}, got ndim={arr.ndim} "
                f"(shape {arr.shape})"
            )
    if not allow_empty and arr.size == 0:
        raise DataError(f"{name} is empty")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
        raise DataError(f"{name} contains {bad} non-finite values (nan/inf)")
    return arr


def check_indices(indices, name: str, size: int) -> np.ndarray:
    """Validate *indices* as a non-empty 1-D integer array of positions
    in ``[0, size)``; negative (from-the-end) positions are rejected."""
    arr = np.asarray(indices)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"{name} must be a non-empty 1-D array, got {indices!r}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= size:
        raise ConfigurationError(f"{name} out of range [0, {size}): {arr.tolist()}")
    return arr


def check_positive(value, name: str):
    """Validate a scalar is finite and positive (``> 0``)."""
    if not np.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_positive_int(value, name: str, *, minimum: int = 1) -> int:
    """Return *value* as an ``int`` if it is an integer >= *minimum*
    (a ``bool`` is not an integer here); raise otherwise."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def check_in_range(value, name: str, low, high, *, inclusive=True):
    """Validate a scalar lies in ``[low, high]`` (or ``(low, high)``)."""
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ConfigurationError(
            f"{name} must be in {bracket[0]}{low}, {high}{bracket[1]}, got {value!r}"
        )
    return value


def check_probability_vector(p, name: str, *, atol=1e-8) -> np.ndarray:
    """Validate that *p* is a 1-D vector of probabilities summing to 1."""
    arr = check_array(p, name, ndim=1)
    if np.any(arr < -atol) or np.any(arr > 1 + atol):
        raise DataError(f"{name} has entries outside [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-6 * arr.size):
        raise DataError(f"{name} must sum to 1, sums to {total:.6f}")
    return np.clip(arr, 0.0, 1.0)
