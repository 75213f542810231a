"""Unit tests for summary statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import Summary, bootstrap_ci, percentile, summarize


def test_percentile_nearest_rank_and_validation():
    values = [5.0, 1.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 100.0) == 5.0
    assert percentile([], 95.0, default=2.5) == 2.5
    with pytest.raises(ValueError):
        percentile(values, 101.0)
    with pytest.raises(ValueError):
        percentile(values, -0.5)
    # Linear interpolation (numpy's default) would give 2.5 and 3.85.
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert percentile(np.array([4.0, 3.0, 2.0, 1.0]), 95.0) == 4.0


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=100),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_returns_a_sample_and_ranks_it(values, q):
    result = percentile(values, q)
    assert any(result is value for value in values)  # unchanged, not a copy
    n = len(values)
    at_or_below = sum(1 for v in values if v <= result)
    below = sum(1 for v in values if v < result)
    assert below < max(1, math.ceil(q / 100.0 * n)) <= at_or_below


def test_summarize_quantiles_are_nearest_rank():
    summary = summarize([4.0, 1.0, 3.0, 2.0])
    assert (summary.p50, summary.p90, summary.p95, summary.p99) == (
        2.0, 4.0, 4.0, 4.0)
    values = list(range(1, 101))
    summary = summarize(values)
    assert (summary.p50, summary.p90, summary.p95, summary.p99) == (
        50.0, 90.0, 95.0, 99.0)


@pytest.mark.parametrize("confidence, expected", [
    (0.95, (0.0, 38.0)),   # ranks ceil(0.025 * 40) = 1, ceil(0.975 * 40) = 39
    (0.9, (1.0, 37.0)),    # ranks 2 and 38
])
def test_bootstrap_ci_endpoints_are_nearest_rank(confidence, expected):
    estimates = iter(range(40))  # the statistic yields 0, 1, ..., 39
    interval = bootstrap_ci([1.0, 2.0], confidence=confidence,
                            n_resamples=40,
                            statistic=lambda _: next(estimates),
                            rng=np.random.default_rng(0))
    assert interval == expected


def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary.count == 5
    assert summary.mean == pytest.approx(3.0)
    assert summary.minimum == 1.0
    assert summary.maximum == 5.0
    assert summary.p50 == pytest.approx(3.0)


def test_summarize_single_value_has_zero_std():
    summary = summarize([7.0])
    assert summary.std == 0.0
    assert summary.p99 == 7.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_row_is_printable():
    row = summarize([1.0, 2.0]).row()
    assert "mean=" in row and "p99=" in row


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_summary_ordering_invariants(values):
    summary = summarize(values)
    tol = 1e-6 * max(1.0, abs(summary.maximum), abs(summary.minimum))
    assert summary.minimum <= summary.p50 + tol
    assert summary.p50 <= summary.p95 + tol
    assert summary.p95 <= summary.p99 + tol
    assert summary.p99 <= summary.maximum + tol
    assert summary.minimum - tol <= summary.mean <= summary.maximum + tol


def test_bootstrap_ci_brackets_mean():
    rng = np.random.default_rng(42)
    sample = rng.normal(10.0, 2.0, size=500)
    low, high = bootstrap_ci(sample, rng=np.random.default_rng(1))
    assert low < 10.0 < high
    assert high - low < 1.0  # tight for n=500


def test_bootstrap_ci_deterministic_with_rng():
    sample = [1.0, 2.0, 3.0, 4.0]
    a = bootstrap_ci(sample, rng=np.random.default_rng(7))
    b = bootstrap_ci(sample, rng=np.random.default_rng(7))
    assert a == b


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], confidence=1.5)
