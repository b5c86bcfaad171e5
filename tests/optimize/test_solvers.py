"""Tests for the unified solver dispatch."""

import numpy as np
import pytest

from repro.optimize.solvers import learn_hashing_scheme


class TestLearnHashingScheme:
    def test_bcd_dispatch(self, small_frequencies, small_features):
        result = learn_hashing_scheme(
            small_frequencies, small_features, num_buckets=3, lam=0.5, solver="bcd", random_state=0
        )
        assert result.solver == "bcd"
        assert result.assignment.num_elements == 8
        assert result.details.iterations >= 1

    def test_dp_dispatch_evaluates_objective_at_requested_lambda(
        self, small_frequencies, small_features
    ):
        result = learn_hashing_scheme(
            small_frequencies, small_features, num_buckets=3, lam=0.5, solver="dp"
        )
        assert result.solver == "dp"
        # The dp solver ignores lambda internally but the reported objective
        # is evaluated at the requested lambda.
        assert result.objective.lam == 0.5
        assert result.objective.similarity >= 0.0

    def test_milp_dispatch(self):
        pytest.importorskip("scipy")
        frequencies = np.array([1.0, 2.0, 10.0, 11.0])
        result = learn_hashing_scheme(
            frequencies, None, num_buckets=2, lam=1.0, solver="milp", time_limit=20
        )
        assert result.solver == "milp"
        assert result.objective.estimation == pytest.approx(2.0, abs=1e-6)

    def test_unknown_solver_rejected(self, small_frequencies):
        with pytest.raises(ValueError):
            learn_hashing_scheme(small_frequencies, None, num_buckets=2, solver="simplex")

    def test_solver_options_forwarded(self, small_frequencies, small_features):
        result = learn_hashing_scheme(
            small_frequencies,
            small_features,
            num_buckets=3,
            lam=0.5,
            solver="bcd",
            random_state=0,
            num_restarts=2,
        )
        assert result.details.num_restarts == 2

    def test_dp_and_bcd_agree_on_trivial_problem(self):
        frequencies = np.array([5.0, 5.0, 50.0, 50.0])
        dp = learn_hashing_scheme(frequencies, None, num_buckets=2, lam=1.0, solver="dp")
        bcd = learn_hashing_scheme(
            frequencies, None, num_buckets=2, lam=1.0, solver="bcd", random_state=0
        )
        assert dp.objective.estimation == pytest.approx(0.0)
        assert bcd.objective.estimation == pytest.approx(0.0)
