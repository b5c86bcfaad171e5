"""Tests for the incremental bucket statistics behind Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimize.bucket_stats import BucketStats
from repro.optimize.objective import (
    BucketAssignment,
    estimation_error,
    evaluate_assignment,
    similarity_error,
)


def build_stats(frequencies, features, labels, num_buckets=3):
    assignment = BucketAssignment(labels=labels, num_buckets=num_buckets)
    return BucketStats(np.asarray(frequencies, float), np.asarray(features, float), assignment)


class TestInitialization:
    def test_initial_errors_match_objective_module(self, small_frequencies, small_features):
        labels = [0, 0, 1, 1, 2, 2, 0, 1]
        stats = build_stats(small_frequencies, small_features, labels)
        assignment = BucketAssignment(labels=labels, num_buckets=3)
        assert stats.estimation_errors.sum() == pytest.approx(
            estimation_error(small_frequencies, assignment)
        )
        assert stats.similarity_errors.sum() == pytest.approx(
            similarity_error(small_features, assignment)
        )

    def test_total_error_is_convex_combination(self, small_frequencies, small_features):
        labels = [0, 1, 2, 0, 1, 2, 0, 1]
        stats = build_stats(small_frequencies, small_features, labels)
        value = evaluate_assignment(
            small_frequencies,
            small_features,
            BucketAssignment(labels=labels, num_buckets=3),
            0.4,
        )
        assert stats.total_error(0.4) == pytest.approx(value.overall)

    def test_mean_of_empty_bucket_is_zero(self):
        stats = build_stats([1.0, 2.0], [[0.0], [1.0]], [0, 0], num_buckets=2)
        assert stats.mean(1) == 0.0

    def test_featureless_inputs_supported(self):
        stats = build_stats([1.0, 5.0, 9.0], np.zeros((3, 0)), [0, 0, 1], num_buckets=2)
        assert stats.similarity_errors.sum() == 0.0
        assert stats.estimation_errors[0] == pytest.approx(4.0)


class TestMoves:
    def test_remove_then_add_restores_state(self, small_frequencies, small_features):
        labels = [0, 0, 1, 1, 2, 2, 0, 1]
        stats = build_stats(small_frequencies, small_features, labels)
        before_est = stats.estimation_errors.copy()
        before_sim = stats.similarity_errors.copy()
        bucket = stats.remove(3)
        stats.add(3, bucket)
        np.testing.assert_allclose(stats.estimation_errors, before_est)
        np.testing.assert_allclose(stats.similarity_errors, before_sim)

    def test_add_requires_prior_removal(self, small_frequencies, small_features):
        stats = build_stats(small_frequencies, small_features, [0] * 8)
        with pytest.raises(ValueError):
            stats.add(0, 1)

    def test_snapshot_fails_with_unassigned_element(self, small_frequencies, small_features):
        stats = build_stats(small_frequencies, small_features, [0] * 8)
        stats.remove(0)
        with pytest.raises(RuntimeError):
            stats.to_assignment()

    def test_hypothetical_errors_match_actual_move(self, small_frequencies, small_features):
        labels = [0, 0, 1, 1, 2, 2, 0, 1]
        stats = build_stats(small_frequencies, small_features, labels)
        stats.remove(5)
        # λ = 1 isolates the estimation term, λ = 0 the similarity term.
        predicted_est = stats.estimation_errors[0] + stats.marginal_cost(5, 1.0)[0]
        predicted_sim = stats.similarity_errors[0] + stats.marginal_cost(5, 0.0)[0]
        stats.add(5, 0)
        assert stats.estimation_errors[0] == pytest.approx(predicted_est)
        assert stats.similarity_errors[0] == pytest.approx(predicted_sim)

    def test_marginal_cost_equals_objective_delta(self, small_frequencies, small_features):
        labels = [0, 0, 1, 1, 2, 2, 0, 1]
        lam = 0.6
        stats = build_stats(small_frequencies, small_features, labels)
        stats.remove(2)
        base = stats.total_error(lam)
        marginal = stats.marginal_cost(2, lam)[2]
        stats.add(2, 2)
        assert stats.total_error(lam) == pytest.approx(base + marginal)

    def test_to_assignment_reflects_moves(self, small_frequencies, small_features):
        stats = build_stats(small_frequencies, small_features, [0] * 8)
        stats.remove(7)
        stats.add(7, 2)
        assignment = stats.to_assignment()
        assert assignment.labels[7] == 2


@given(
    seed=st.integers(min_value=0, max_value=500),
    num_moves=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_incremental_errors_stay_consistent_after_random_moves(seed, num_moves):
    """After arbitrary move sequences the incremental stats equal a recompute."""
    rng = np.random.default_rng(seed)
    n, b = 12, 4
    frequencies = rng.integers(0, 40, size=n).astype(float)
    features = rng.normal(size=(n, 3))
    labels = rng.integers(0, b, size=n)
    stats = BucketStats(frequencies, features, BucketAssignment(labels=labels, num_buckets=b))
    for _ in range(num_moves):
        element = int(rng.integers(n))
        stats.remove(element)
        stats.add(element, int(rng.integers(b)))
    assignment = stats.to_assignment()
    assert stats.estimation_errors.sum() == pytest.approx(
        estimation_error(frequencies, assignment)
    )
    assert stats.similarity_errors.sum() == pytest.approx(
        similarity_error(features, assignment)
    )


@given(
    seed=st.integers(min_value=0, max_value=500),
    num_moves=st.integers(min_value=0, max_value=20),
    feature_dim=st.sampled_from([0, 3]),
    lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_marginal_cost_prices_every_bucket_like_the_actual_move(
    seed, num_moves, feature_dim, lam
):
    """Entry j of the marginal-cost vector is the objective change of add(e, j)."""
    rng = np.random.default_rng(seed)
    n, b = 12, 4
    frequencies = rng.integers(0, 40, size=n).astype(float)
    features = rng.normal(size=(n, feature_dim))
    labels = rng.integers(0, b, size=n)
    stats = BucketStats(frequencies, features, BucketAssignment(labels=labels, num_buckets=b))
    for _ in range(num_moves):
        element = int(rng.integers(n))
        stats.remove(element)
        stats.add(element, int(rng.integers(b)))
    element = int(rng.integers(n))
    stats.remove(element)
    before = stats.total_error(lam)
    costs = stats.marginal_cost(element, lam)
    assert costs.shape == (b,)
    for bucket in range(b):
        stats.add(element, bucket)
        assert stats.total_error(lam) - before == pytest.approx(
            costs[bucket], rel=1e-9, abs=1e-9
        )
        stats.remove(element)
