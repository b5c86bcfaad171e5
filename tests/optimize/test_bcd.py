"""Tests for the block coordinate descent (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimize.bcd import block_coordinate_descent
from repro.optimize.dp import dynamic_programming
from repro.optimize.initialization import random_assignment
from repro.optimize.objective import (
    BucketAssignment,
    evaluate_assignment,
    estimation_error,
)


class TestBcdBasics:
    def test_returns_valid_assignment(self, small_frequencies, small_features):
        result = block_coordinate_descent(
            small_frequencies, small_features, num_buckets=3, lam=0.5, random_state=0
        )
        assignment = result.assignment
        assert assignment.num_elements == 8
        assert np.all((assignment.labels >= 0) & (assignment.labels < 3))

    def test_objective_matches_reported_assignment(self, small_frequencies, small_features):
        result = block_coordinate_descent(
            small_frequencies, small_features, num_buckets=3, lam=0.5, random_state=0
        )
        recomputed = evaluate_assignment(
            small_frequencies, small_features, result.assignment, 0.5
        )
        assert result.objective.overall == pytest.approx(recomputed.overall)

    def test_history_is_monotone_non_increasing(self, small_frequencies, small_features):
        result = block_coordinate_descent(
            small_frequencies, small_features, num_buckets=3, lam=0.5, random_state=1
        )
        history = np.array(result.history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_converged_flag_set_when_improvement_stalls(self, small_frequencies):
        result = block_coordinate_descent(
            small_frequencies, None, num_buckets=3, lam=1.0, max_iterations=50, random_state=2
        )
        assert result.converged
        assert result.iterations <= 50

    def test_iteration_budget_respected(self, small_frequencies, small_features):
        result = block_coordinate_descent(
            small_frequencies,
            small_features,
            num_buckets=3,
            lam=0.5,
            max_iterations=1,
            random_state=3,
        )
        assert result.iterations == 1

    def test_invalid_parameters_rejected(self, small_frequencies):
        with pytest.raises(ValueError):
            block_coordinate_descent(small_frequencies, num_buckets=2, max_iterations=0)
        with pytest.raises(ValueError):
            block_coordinate_descent(small_frequencies, num_buckets=2, num_restarts=0)
        with pytest.raises(ValueError):
            block_coordinate_descent(small_frequencies, num_buckets=2, lam=-0.1)


class TestBcdQuality:
    def test_clusters_obvious_frequency_groups(self):
        frequencies = np.array([1.0, 2.0, 3.0, 100.0, 101.0, 102.0])
        result = block_coordinate_descent(
            frequencies, None, num_buckets=2, lam=1.0, random_state=0
        )
        labels = result.assignment.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_improves_over_random_initialization(self, rng):
        frequencies = rng.integers(0, 200, size=60).astype(float)
        features = rng.normal(size=(60, 2))
        initial = random_assignment(60, 5, rng=np.random.default_rng(0))
        initial_value = evaluate_assignment(frequencies, features, initial, 0.5).overall
        result = block_coordinate_descent(
            frequencies,
            features,
            num_buckets=5,
            lam=0.5,
            initial_assignment=initial,
            random_state=0,
        )
        assert result.objective.overall <= initial_value + 1e-9

    def test_near_optimal_versus_dp_at_lambda_one(self, rng):
        frequencies = rng.integers(0, 500, size=80).astype(float)
        optimal = dynamic_programming(frequencies, 6).cost
        result = block_coordinate_descent(
            frequencies, None, num_buckets=6, lam=1.0, num_restarts=3, random_state=0
        )
        assert result.objective.estimation >= optimal - 1e-9
        # BCD is a local method, but on 1-D problems it lands close to the optimum.
        assert result.objective.estimation <= 1.5 * optimal + 1e-6

    def test_lambda_zero_groups_by_features(self):
        frequencies = np.array([1.0, 100.0, 1.0, 100.0])
        features = np.array([[0.0, 0.0], [0.1, 0.1], [10.0, 10.0], [10.1, 10.1]])
        result = block_coordinate_descent(
            frequencies, features, num_buckets=2, lam=0.0, random_state=0
        )
        labels = result.assignment.labels
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_multiple_restarts_never_hurt(self, rng):
        frequencies = rng.integers(0, 300, size=40).astype(float)
        features = rng.normal(size=(40, 2))
        single = block_coordinate_descent(
            frequencies, features, num_buckets=4, lam=0.5, num_restarts=1, random_state=7
        )
        multi = block_coordinate_descent(
            frequencies, features, num_buckets=4, lam=0.5, num_restarts=4, random_state=7
        )
        assert multi.objective.overall <= single.objective.overall + 1e-9
        assert multi.num_restarts == 4

    @pytest.mark.parametrize("strategy", ["random", "sorted", "heavy_hitter", "dp"])
    def test_all_initialization_strategies_work(self, strategy, small_frequencies, small_features):
        result = block_coordinate_descent(
            small_frequencies,
            small_features,
            num_buckets=3,
            lam=0.5,
            initialization=strategy,
            random_state=0,
        )
        assert result.assignment.num_elements == 8


@given(
    seed=st.integers(min_value=0, max_value=300),
    num_buckets=st.integers(min_value=1, max_value=5),
    lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_bcd_objective_never_worse_than_initialization_property(seed, num_buckets, lam):
    """Each BCD sweep is greedy per element, so no sweep raises the objective
    and the final objective cannot exceed the initial one."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    frequencies = rng.integers(0, 100, size=n).astype(float)
    features = rng.normal(size=(n, 2))
    initial = random_assignment(n, num_buckets, rng=rng)
    initial_value = evaluate_assignment(frequencies, features, initial, lam).overall
    result = block_coordinate_descent(
        frequencies,
        features,
        num_buckets=num_buckets,
        lam=lam,
        initial_assignment=initial,
        random_state=seed,
    )
    assert np.all(np.diff(result.history) <= 1e-9)
    assert result.objective.overall <= initial_value + 1e-6
