"""Tests for the λ=1 dynamic programming solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimize.dp import SegmentCost, cluster_cost_matrix, dynamic_programming
from repro.optimize.milp import solve_exact_enumeration
from repro.optimize.objective import estimation_error


def contiguous_optimum(frequencies, num_buckets, center="mean"):
    """Brute-force best partition of the *sorted* values into contiguous
    ranges — the DP's actual search space.
    """
    values = np.sort(np.asarray(frequencies, dtype=float))
    cost = SegmentCost(values, center=center)
    n = len(values)
    best = float("inf")
    for k in range(1, min(num_buckets, n) + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0, *cuts, n)
            total = sum(
                cost(bounds[i], bounds[i + 1] - 1) for i in range(k)
            )
            best = min(best, total)
    return best


class TestSegmentCost:
    def test_single_element_segment_is_free(self):
        cost = SegmentCost(np.array([1.0, 5.0, 9.0]))
        assert cost(0, 0) == 0.0
        assert cost(2, 2) == 0.0

    def test_two_element_segment(self):
        cost = SegmentCost(np.array([2.0, 6.0]))
        # Mean 4 -> deviations 2 + 2.
        assert cost(0, 1) == pytest.approx(4.0)

    def test_matches_direct_computation(self):
        values = np.sort(np.array([3.0, 1.0, 7.0, 7.0, 20.0]))
        cost = SegmentCost(values)
        for start in range(len(values)):
            for end in range(start, len(values)):
                segment = values[start : end + 1]
                expected = np.abs(segment - segment.mean()).sum()
                assert cost(start, end) == pytest.approx(expected)

    def test_median_center_uses_median(self):
        values = np.array([0.0, 0.0, 10.0])
        cost = SegmentCost(values, center="median")
        assert cost(0, 2) == pytest.approx(10.0)  # deviations from median 0
        mean_cost = SegmentCost(values, center="mean")
        assert mean_cost(0, 2) == pytest.approx(13.333333, rel=1e-5)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            SegmentCost(np.array([3.0, 1.0]))

    def test_invalid_center_rejected(self):
        with pytest.raises(ValueError):
            SegmentCost(np.array([1.0]), center="mode")

    @pytest.mark.parametrize("center", ["mean", "median"])
    def test_costs_ending_at_matches_scalar_calls(self, center, rng):
        values = np.sort(rng.integers(0, 200, size=40).astype(float))
        cost = SegmentCost(values, center=center)
        for end in (0, 5, 20, 39):
            vector = cost.costs_ending_at(end)
            expected = np.array([cost(start, end) for start in range(end + 1)])
            np.testing.assert_allclose(vector, expected, atol=1e-9)

    def test_cluster_cost_matrix_upper_triangular(self):
        matrix = cluster_cost_matrix(np.array([1.0, 2.0, 10.0]))
        assert matrix.shape == (3, 3)
        assert matrix[0, 0] == 0.0
        assert matrix[0, 2] > matrix[0, 1]


class TestDynamicProgramming:
    def test_well_separated_clusters_recovered(self):
        frequencies = np.array([1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 1000.0])
        result = dynamic_programming(frequencies, 3)
        labels = result.assignment.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[6] not in (labels[0], labels[3])

    def test_more_buckets_than_elements_gives_zero_cost(self):
        frequencies = np.array([4.0, 9.0, 1.0])
        result = dynamic_programming(frequencies, 10)
        assert result.cost == pytest.approx(0.0)
        assert estimation_error(frequencies, result.assignment) == pytest.approx(0.0)

    def test_single_bucket_cost_is_total_deviation(self):
        frequencies = np.array([0.0, 10.0])
        result = dynamic_programming(frequencies, 1)
        assert result.cost == pytest.approx(10.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            dynamic_programming(np.array([]), 2)
        with pytest.raises(ValueError):
            dynamic_programming(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            dynamic_programming(np.array([1.0]), 2, method="alien")

    @pytest.mark.parametrize("method", ["quadratic", "smawk"])
    def test_all_methods_agree_for_median_center(self, method, rng):
        frequencies = rng.integers(0, 100, size=60).astype(float)
        reference = dynamic_programming(
            frequencies, 6, center="median", method="quadratic"
        )
        result = dynamic_programming(frequencies, 6, center="median", method=method)
        assert result.cost == pytest.approx(reference.cost)

    def test_fast_methods_rejected_for_mean_center(self, rng):
        frequencies = rng.integers(0, 100, size=20).astype(float)
        with pytest.raises(ValueError):
            dynamic_programming(frequencies, 3, center="mean", method="smawk")

    def test_matches_exhaustive_contiguous_enumeration(self, rng):
        for _ in range(5):
            frequencies = rng.integers(0, 30, size=8).astype(float)
            result = dynamic_programming(frequencies, 3)
            assert result.cost == pytest.approx(
                contiguous_optimum(frequencies, 3), abs=1e-9
            )
            # ... and never beats the unrestricted global optimum.
            _, best_value = solve_exact_enumeration(frequencies, None, 3, lam=1.0)
            assert result.cost >= best_value - 1e-9

    def test_mean_center_contiguity_counterexample(self):
        # The optimal mean-centre partition is NOT always contiguous in
        # sorted order (unlike k-median): here the global optimum puts the
        # outlier 21 in with the low bucket, skipping over the 17s.  The DP
        # must return the best *contiguous* split — this pins both values
        # so the gap is a documented property, not a flaky surprise.
        frequencies = np.array([0.0, 11.0, 11.0, 11.0, 17.0, 17.0, 21.0])
        result = dynamic_programming(frequencies, 2)
        assert result.cost == pytest.approx(131.0 / 6.0)  # {0,11,11,11}|{17,17,21}
        _, best_value = solve_exact_enumeration(frequencies, None, 2, lam=1.0)
        assert best_value == pytest.approx(21.6)  # {0,11,11,11,21}|{17,17}

    def test_reported_cost_matches_assignment(self, rng):
        frequencies = rng.integers(0, 1000, size=40).astype(float)
        result = dynamic_programming(frequencies, 5)
        assert result.cost == pytest.approx(
            estimation_error(frequencies, result.assignment)
        )

    def test_duplicate_frequencies_handled(self):
        frequencies = np.array([5.0] * 10 + [50.0] * 10)
        result = dynamic_programming(frequencies, 2)
        assert result.cost == pytest.approx(0.0)

    def test_median_variant_lower_or_equal_on_kmedian_objective(self, rng):
        frequencies = rng.integers(0, 100, size=30).astype(float)
        median_result = dynamic_programming(frequencies, 4, center="median")
        assert median_result.cost >= 0.0
        assert median_result.assignment.num_elements == 30

    def test_auto_method_selects_smawk_for_large_median_inputs(self, rng):
        frequencies = rng.integers(0, 1000, size=300).astype(float)
        result = dynamic_programming(frequencies, 8, center="median", method="auto")
        assert result.method == "smawk"
        reference = dynamic_programming(
            frequencies, 8, center="median", method="quadratic"
        )
        assert result.cost == pytest.approx(reference.cost)

    def test_auto_method_stays_quadratic_for_mean_center(self, rng):
        frequencies = rng.integers(0, 1000, size=300).astype(float)
        result = dynamic_programming(frequencies, 4, center="mean", method="auto")
        assert result.method == "quadratic"


@given(
    frequencies=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=9
    ),
    num_buckets=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_dp_is_contiguous_optimal_property(frequencies, num_buckets):
    """The DP cost equals the optimum over contiguous sorted partitions —
    its actual search space — and never beats the unrestricted global
    optimum.  (Under the mean centre the two can differ: see
    ``test_mean_center_contiguity_counterexample``.)
    """
    frequencies = np.array(frequencies, dtype=float)
    result = dynamic_programming(frequencies, num_buckets)
    assert result.cost == pytest.approx(
        contiguous_optimum(frequencies, num_buckets), abs=1e-9
    )
    _, best_value = solve_exact_enumeration(frequencies, None, num_buckets, lam=1.0)
    assert result.cost >= best_value - 1e-9


@given(
    frequencies=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=8
    ),
    num_buckets=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_median_dp_is_globally_optimal_property(frequencies, num_buckets):
    """For the k-median variant contiguity does hold, so the DP really is
    the unrestricted global optimum over all ``b^n`` labelings.
    """
    values = np.array(frequencies, dtype=float)
    result = dynamic_programming(values, num_buckets, center="median")
    n = len(values)
    best = float("inf")
    for labels in itertools.product(range(min(num_buckets, n)), repeat=n):
        labels = np.array(labels)
        total = 0.0
        for bucket in range(num_buckets):
            members = values[labels == bucket]
            if members.size:
                total += float(np.abs(members - np.median(members)).sum())
        best = min(best, total)
    assert result.cost == pytest.approx(best, abs=1e-9)


@given(
    frequencies=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=2, max_size=120
    ),
    num_buckets=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_smawk_and_quadratic_layers_agree_property(frequencies, num_buckets):
    """The O(nb) SMAWK formulation matches the O(n^2 b) reference DP.

    Exactness of the fast layers requires the Monge condition, which holds
    for the median-centre cost.
    """
    frequencies = np.array(frequencies, dtype=float)
    fast = dynamic_programming(frequencies, num_buckets, center="median", method="smawk")
    slow = dynamic_programming(
        frequencies, num_buckets, center="median", method="quadratic"
    )
    assert fast.cost == pytest.approx(slow.cost, abs=1e-9)
