"""Small statistics helpers used by models, metrics and experiment reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["geo_mean", "weighted_mean", "summarize", "Summary"]


def geo_mean(values) -> float:
    """Geometric mean of positive values (0.0 for an empty input)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    if np.any(arr <= 0):
        raise ValueError("geo_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def weighted_mean(values, weights) -> float:
    """Weighted arithmetic mean; weights need not be normalised."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return float(np.dot(v, w) / total)


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary used in experiment tables."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float


def summarize(values) -> Summary:
    """Return a :class:`Summary` of ``values`` (all-zero summary if empty)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return Summary(0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )
