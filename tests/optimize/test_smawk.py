"""Tests for the SMAWK row-minima algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.optimize.smawk import smawk_row_minima


def brute_force_row_minima(matrix):
    """Leftmost column index of each row's minimum."""
    return [int(np.argmin(row)) for row in matrix]


def random_totally_monotone_matrix(num_rows, num_cols, rng):
    """Build a totally monotone matrix from a Monge (concave QI) construction.

    ``M[i][j] = (a_i - b_j)^2`` with ``a`` and ``b`` sorted is a Monge matrix,
    and every Monge matrix is totally monotone.
    """
    a = np.sort(rng.uniform(0, 100, size=num_rows))
    b = np.sort(rng.uniform(0, 100, size=num_cols))
    return (a[:, None] - b[None, :]) ** 2


class TestSmawk:
    def test_single_row_and_column(self):
        matrix = np.array([[3.0, 1.0, 2.0]])
        assert smawk_row_minima(1, 3, lambda i, j: matrix[i, j]) == [1]
        column = np.array([[5.0], [2.0], [9.0]])
        assert smawk_row_minima(3, 1, lambda i, j: column[i, j]) == [0, 0, 0]

    def test_small_monge_matrix(self):
        matrix = np.array(
            [
                [10.0, 17.0, 24.0],
                [11.0, 16.0, 22.0],
                [15.0, 15.0, 19.0],
            ]
        )
        assert smawk_row_minima(3, 3, lambda i, j: matrix[i, j]) == [0, 0, 0]

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            smawk_row_minima(0, 3, lambda i, j: 0.0)
        with pytest.raises(ValueError):
            smawk_row_minima(3, 0, lambda i, j: 0.0)

    def test_matches_brute_force_on_random_monge_matrices(self, rng):
        for _ in range(20):
            num_rows = int(rng.integers(1, 40))
            num_cols = int(rng.integers(1, 40))
            matrix = random_totally_monotone_matrix(num_rows, num_cols, rng)
            expected = brute_force_row_minima(matrix)
            actual = smawk_row_minima(num_rows, num_cols, lambda i, j: matrix[i, j])
            assert actual == expected

    def test_values_receive_each_row_minimum(self, rng):
        matrix = random_totally_monotone_matrix(25, 18, rng)
        values = [None] * 25
        columns = smawk_row_minima(25, 18, lambda i, j: matrix[i, j], values)
        assert values == [matrix[row, col] for row, col in enumerate(columns)]
        with pytest.raises(ValueError):
            smawk_row_minima(25, 18, lambda i, j: matrix[i, j], [0.0] * 24)

    def test_lookup_call_count_is_subquadratic(self):
        rng = np.random.default_rng(0)
        n = 256
        matrix = random_totally_monotone_matrix(n, n, rng)
        calls = 0

        def lookup(i, j):
            nonlocal calls
            calls += 1
            return matrix[i, j]

        smawk_row_minima(n, n, lookup)
        # SMAWK needs O(n) evaluations (with a moderate constant); a full
        # scan would need n^2 = 65536.
        assert calls < 16 * n


@given(
    num_rows=st.integers(min_value=1, max_value=30),
    num_cols=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_smawk_property_against_brute_force(num_rows, num_cols, seed):
    rng = np.random.default_rng(seed)
    matrix = random_totally_monotone_matrix(num_rows, num_cols, rng)
    expected = brute_force_row_minima(matrix)
    actual = smawk_row_minima(num_rows, num_cols, lambda i, j: matrix[i, j])
    assert actual == expected
