"""Tests for the MILP reformulation (Theorem 1) and its branch-and-bound solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimize.milp import MilpModel, solve_exact_enumeration, solve_milp
from repro.optimize.objective import BucketAssignment, evaluate_assignment


@pytest.fixture(scope="module")
def scipy():
    """The LP relaxations need scipy, an optional dependency."""
    return pytest.importorskip("scipy")


@pytest.mark.usefixtures("scipy")
class TestMilpModel:
    def test_variable_counts_match_formulation(self):
        model = MilpModel(np.array([1.0, 2.0, 3.0]), None, num_buckets=2, lam=1.0)
        n, b = 3, 2
        assert model.num_z == n * b
        assert model.num_e == n * b
        assert model.num_theta == n * n * b
        assert model.num_delta == n * n * b
        assert model.num_variables == 2 * n * b + 2 * n * n * b

    def test_constraint_counts_match_formulation(self):
        model = MilpModel(np.array([1.0, 2.0, 3.0]), None, num_buckets=2, lam=0.5)
        n, b = 3, 2
        assert model.A_eq.shape == (n, model.num_variables)
        # 2nb mean-linearization rows + 6 n^2 b big-M / product rows.
        assert model.A_ub.shape[0] == 2 * n * b + 6 * n * n * b

    def test_big_m_upper_bounds_frequencies(self):
        frequencies = np.array([3.0, 7.0, 11.0])
        model = MilpModel(frequencies, None, num_buckets=2, lam=1.0)
        assert model.big_m >= frequencies.max()

    def test_relaxation_lower_bounds_integral_objective(self, small_frequencies, small_features):
        model = MilpModel(small_frequencies[:5], small_features[:5], num_buckets=2, lam=0.5)
        relaxation = model.solve_relaxation({})
        assert relaxation.success
        _, best_value = solve_exact_enumeration(
            small_frequencies[:5], small_features[:5], 2, 0.5
        )
        assert relaxation.fun <= best_value + 1e-6

    def test_objective_of_assignment_matches_problem_one(self, small_frequencies, small_features):
        model = MilpModel(small_frequencies, small_features, num_buckets=3, lam=0.4)
        assignment = BucketAssignment(labels=[0, 0, 1, 1, 2, 2, 0, 1], num_buckets=3)
        expected = evaluate_assignment(
            small_frequencies, small_features, assignment, 0.4
        ).overall
        assert model.objective_of_assignment(assignment) == pytest.approx(expected)


class TestSolveMilp:
    @pytest.mark.usefixtures("scipy")
    def test_lambda_one_small_instance_solved_to_optimality(self):
        frequencies = np.array([1.0, 2.0, 10.0, 11.0, 50.0])
        result = solve_milp(frequencies, None, num_buckets=2, lam=1.0, time_limit=30)
        _, best_value = solve_exact_enumeration(frequencies, None, 2, 1.0)
        assert result.objective.overall == pytest.approx(best_value, abs=1e-6)
        assert result.status == "optimal"
        assert result.gap <= 1e-6 or result.objective.overall == 0.0

    @pytest.mark.usefixtures("scipy")
    def test_general_lambda_matches_enumeration(self):
        frequencies = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        features = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]]
        )
        result = solve_milp(
            frequencies, features, num_buckets=2, lam=0.5, time_limit=60, random_state=0
        )
        _, best_value = solve_exact_enumeration(frequencies, features, 2, 0.5)
        assert result.objective.overall == pytest.approx(best_value, abs=1e-6)

    @pytest.mark.usefixtures("scipy")
    def test_lower_bound_never_exceeds_incumbent(self):
        frequencies = np.array([4.0, 5.0, 20.0, 21.0])
        result = solve_milp(frequencies, None, num_buckets=2, lam=1.0, time_limit=30)
        assert result.lower_bound <= result.objective.overall + 1e-9

    @pytest.mark.usefixtures("scipy")
    def test_warm_start_disabled_still_solves(self):
        frequencies = np.array([1.0, 9.0, 10.0])
        result = solve_milp(
            frequencies, None, num_buckets=2, lam=1.0, warm_start=False, time_limit=30
        )
        _, best_value = solve_exact_enumeration(frequencies, None, 2, 1.0)
        assert result.objective.overall == pytest.approx(best_value, abs=1e-6)

    @pytest.mark.usefixtures("scipy")
    def test_node_limit_returns_feasible_solution(self):
        frequencies = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 50.0])
        result = solve_milp(
            frequencies, None, num_buckets=3, lam=1.0, node_limit=1, time_limit=5
        )
        # Even when the search is truncated, the warm-started incumbent is valid.
        assert result.assignment.num_elements == 7
        assert result.objective.overall >= result.lower_bound - 1e-9

    def test_enumeration_guard_on_large_inputs(self):
        with pytest.raises(ValueError):
            solve_exact_enumeration(np.arange(20, dtype=float), None, 3)


@pytest.mark.usefixtures("scipy")
@given(
    seed=st.integers(min_value=0, max_value=200),
    num_buckets=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_milp_matches_enumeration_property(seed, num_buckets):
    """Branch-and-bound finds the global optimum on random tiny instances."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    frequencies = rng.integers(0, 30, size=n).astype(float)
    features = rng.normal(size=(n, 2))
    result = solve_milp(
        frequencies, features, num_buckets=num_buckets, lam=0.5, time_limit=30, random_state=seed
    )
    _, best_value = solve_exact_enumeration(frequencies, features, num_buckets, 0.5)
    assert result.objective.overall == pytest.approx(best_value, abs=1e-5)
