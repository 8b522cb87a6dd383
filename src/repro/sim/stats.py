"""Aggregation helpers shared by the experiment harness.

The paper summarizes its per-benchmark comparisons with geometric means
("geomean" columns of Figures 13, 15-18); these helpers keep that math in
one place and guard against the usual pitfalls (empty inputs, non-positive
ratios).
"""

from __future__ import annotations

from math import exp, log

__all__ = ["geometric_mean"]


def geometric_mean(values: list[float] | tuple[float, ...]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
        total += log(value)
    return exp(total / len(values))
