"""Summary statistics with confidence intervals, and :func:`percentile`,
the one quantile definition every report and controller uses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Distribution summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p95: float
    p99: float
    maximum: float

    def row(self) -> str:
        """One aligned text row, handy for benchmark printouts."""
        return (
            f"n={self.count:6d} mean={self.mean:10.4f} p50={self.p50:10.4f} "
            f"p95={self.p95:10.4f} p99={self.p99:10.4f} max={self.maximum:10.4f}"
        )


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an already sorted, non-empty sample."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def percentile(values: Sequence[float], q: float, default: float = 0.0) -> float:
    """The ``q``-th percentile (0..100) by nearest rank (Hyndman & Fan
    type 1), ``default`` when empty: the ``ceil(q/100 * n)``-th smallest
    sample, returned unchanged (on ``[1, 2, 3, 4]``, p50 = 2, p95 = 4)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if len(values) == 0:
        return default
    return _nearest_rank(sorted(values), q)


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``values``; raises on an empty sample."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    array = np.asarray(values, dtype=float)
    ordered = np.sort(array)
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        p50=float(_nearest_rank(ordered, 50.0)),
        p90=float(_nearest_rank(ordered, 90.0)),
        p95=float(_nearest_rank(ordered, 95.0)),
        p99=float(_nearest_rank(ordered, 99.0)),
        maximum=float(array.max()),
    )


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    statistic=np.mean,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic``, its
    endpoints the nearest-rank tail percentiles of the resampled estimates.

    Deterministic when an explicit ``rng`` is passed.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if rng is None:
        rng = np.random.default_rng(0)
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        resample = rng.choice(array, size=array.size, replace=True)
        estimates[i] = statistic(resample)
    # In percent, so that 0.9/0.95/0.99 give exact tails and exact ranks.
    tail = (100.0 - 100.0 * confidence) / 2.0
    estimates.sort()
    return (float(_nearest_rank(estimates, tail)),
            float(_nearest_rank(estimates, 100.0 - tail)))
