"""Validation helpers shared across the library.

Centralizes the argument checks that many public entry points need
(epsilon ranges, positive weights), so error messages are uniform and
the checks are tested once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_epsilon",
    "check_positive_weights",
    "require",
]


def require(cond: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``cond`` holds."""
    if not cond:
        raise ValueError(message)


def check_epsilon(eps: float, upper: float = 1.0) -> float:
    """Validate an approximation parameter ``0 < eps <= upper``."""
    eps = float(eps)
    require(0.0 < eps <= upper, f"epsilon must be in (0, {upper}], got {eps}")
    return eps


def check_positive_weights(w: np.ndarray) -> np.ndarray:
    """Validate strictly positive, finite edge weights."""
    w = np.asarray(w, dtype=np.float64)
    require(bool(np.all(np.isfinite(w))), "weights must be finite")
    require(bool(np.all(w > 0)), "weights must be strictly positive")
    return w
