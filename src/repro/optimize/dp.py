"""Exact dynamic programming for the λ = 1 case (paper Section 4.4).

With λ = 1 the similarity term vanishes and Problem (1) reduces to a
one-dimensional clustering problem over the observed frequencies: partition
the (sorted) frequencies into at most ``b`` groups minimizing the sum, over
groups, of absolute deviations from the group's *mean* (the centre is the
mean because that is what the streaming estimator will answer with).  A
layered dynamic program finds the best partition into contiguous ranges of
the sorted frequencies exactly:

``D[k][i] = min_{j ≤ i} D[k−1][j−1] + cost(j, i)``

where ``cost(j, i)`` is the deviation cost of the segment ``j..i``.  Two
evaluation strategies are provided:

* ``"quadratic"`` — the straightforward O(n²b) DP (the paper's reference
  method, per Wang & Song's Ckmeans.1d.dp), the only one valid for the mean
  centre and the oracle the tests check the fast method against;
* ``"smawk"`` — O(nb) via SMAWK matrix searching (Wu 1991), which ``auto``
  picks for median-centre inputs above n = 256, where it is the faster one.

Both price a segment in O(1) for the median centre: the median splits a
sorted segment in closed form, so ``SegmentCost.__call__`` (SMAWK's lookup)
and ``SegmentCost.costs_ending_at`` (the quadratic layer's rows) return the
same float for every segment, ties at the median included.

``center="median"`` solves the classic 1-D k-median variant (the name the
paper uses for the problem); the default ``center="mean"`` matches the
formulation as written.

Two subtleties the paper glosses over:

* The linear-time matrix-searching accelerations require the segment cost
  to satisfy the concave quadrangle (Monge) inequality.  The
  *median*-centre cost does; the *mean*-centre cost — the one Problem (3)
  literally uses — does not (counter-examples are easy to generate), so for
  ``center="mean"`` only the quadratic DP evaluates every contiguous
  partition and SMAWK is rejected.
* The DP searches **contiguous** partitions of the sorted values.  For
  ``center="median"`` (classic 1-D k-median) some optimal partition is
  always contiguous, so the DP is globally optimal.  For ``center="mean"``
  contiguity can fail: with frequencies ``[0, 11, 11, 11, 17, 17, 21]`` and
  ``b = 2``, the best contiguous split ``{0,11,11,11} | {17,17,21}`` costs
  131/6 ≈ 21.83 while the non-contiguous ``{0,11,11,11,21} | {17,17}``
  costs 21.6 — the outlier 21 is cheaper to absorb into the large bucket
  than to let it drag the small bucket's mean.  The DP is therefore the
  contiguous optimum (and an upper bound on the global one) under the mean
  centre; ``tests/optimize/test_dp.py`` pins both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.optimize.objective import BucketAssignment, estimation_error
from repro.optimize.smawk import smawk_row_minima

__all__ = ["DpResult", "SegmentCost", "cluster_cost_matrix", "dynamic_programming"]

_INFINITY = float("inf")


class SegmentCost:
    """Segment deviation costs over sorted values: O(1) for the median
    centre, O(log n) for the mean.

    Given values sorted in non-decreasing order, ``cost(j, i)`` (0-based,
    inclusive) is the sum of absolute deviations of ``values[j..i]`` from the
    segment's mean (or median).  Prefix sums make each query cheap without
    materializing the O(n²) cost matrix.
    """

    def __init__(self, sorted_values: np.ndarray, center: str = "mean") -> None:
        if center not in ("mean", "median"):
            raise ValueError("center must be 'mean' or 'median'")
        self.center = center
        self.values = np.asarray(sorted_values, dtype=float)
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be sorted in non-decreasing order")
        self._prefix = np.concatenate([[0.0], np.cumsum(self.values)])

    def __call__(self, start: int, end: int) -> float:
        """Deviation cost of the segment ``values[start..end]`` (inclusive)."""
        if start > end:
            return 0.0
        length = end - start + 1
        total_sum = self._prefix[end + 1] - self._prefix[start]
        if self.center == "mean":
            center = total_sum / length
            # Values are sorted, so everything below the centre lies in a
            # prefix of the segment; locate the split with binary search.
            split = start + int(
                np.searchsorted(self.values[start : end + 1], center, side="right")
            )
        else:
            # The median splits the segment in closed form, exactly as in
            # costs_ending_at, so both price every segment identically.
            median = start + (length - 1) // 2
            center = self.values[median]
            split = median + 1
        below_count = split - start
        below_sum = self._prefix[split] - self._prefix[start]
        above_sum = total_sum - below_sum
        above_count = length - below_count
        return float(
            (below_count * center - below_sum) + (above_sum - above_count * center)
        )

    def costs_ending_at(self, end: int) -> np.ndarray:
        """Vector of costs ``[cost(0, end), cost(1, end), ..., cost(end, end)]``.

        Used by the quadratic DP layer so one row of the cost matrix is
        computed with numpy instead of ``end + 1`` Python-level calls.
        """
        starts = np.arange(end + 1)
        lengths = end + 1 - starts
        segment_sums = self._prefix[end + 1] - self._prefix[starts]
        if self.center == "mean":
            centers = segment_sums / lengths
            # Number of values in [start, end] that are <= centre: a global
            # searchsorted works because the values are sorted.
            split_positions = np.searchsorted(
                self.values[: end + 1], centers, side="right"
            )
        else:
            median_positions = starts + (lengths - 1) // 2
            centers = self.values[median_positions]
            split_positions = median_positions + 1
        below_counts = split_positions - starts
        below_sums = self._prefix[split_positions] - self._prefix[starts]
        above_sums = segment_sums - below_sums
        above_counts = lengths - below_counts
        return (below_counts * centers - below_sums) + (
            above_sums - above_counts * centers
        )


def cluster_cost_matrix(sorted_values: np.ndarray, center: str = "mean") -> np.ndarray:
    """Dense ``(n, n)`` matrix of segment costs (for testing / small inputs)."""
    cost = SegmentCost(sorted_values, center=center)
    n = len(cost.values)
    matrix = np.zeros((n, n))
    for start in range(n):
        for end in range(start, n):
            matrix[start, end] = cost(start, end)
    return matrix


@dataclass
class DpResult:
    """Result of the λ=1 dynamic program."""

    assignment: BucketAssignment
    cost: float
    boundaries: List[int]
    method: str

    @property
    def num_clusters_used(self) -> int:
        return len(self.boundaries)


def _dp_layer_quadratic(previous: np.ndarray, cost: SegmentCost) -> tuple:
    """One DP layer by exhaustive minimization: O(n²) (numpy-vectorized rows)."""
    n = len(previous) - 1
    current = np.full(n + 1, _INFINITY)
    argmin = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        # candidates[j - 1] = previous[j - 1] + cost(j - 1, i - 1) for j = 1..i.
        candidates = previous[:i] + cost.costs_ending_at(i - 1)
        best = int(np.argmin(candidates))
        current[i] = candidates[best]
        argmin[i] = best + 1
    return current, argmin


def _dp_layer_smawk(previous: np.ndarray, cost: SegmentCost) -> tuple:
    """One DP layer via SMAWK row minima: O(n)."""
    n = len(previous) - 1

    def lookup(row: int, col: int) -> float:
        # row, col are 0-based; they represent i = row + 1 and j = col + 1.
        i = row + 1
        j = col + 1
        if j > i or previous[j - 1] == _INFINITY:
            # Padding: the upper-right region must stay totally monotone, so
            # return a huge value that grows with the column index.
            return 1e200 * (1 + col)
        return previous[j - 1] + cost(j - 1, i - 1)

    minima = [0.0] * n
    minima_cols = smawk_row_minima(n, n, lookup, minima)
    current = np.array([_INFINITY, *minima])
    argmin = np.zeros(n + 1, dtype=int)
    argmin[1:] = np.add(minima_cols, 1)
    return current, argmin


_LAYER_METHODS = {
    "quadratic": _dp_layer_quadratic,
    "smawk": _dp_layer_smawk,
}


def dynamic_programming(
    frequencies,
    num_buckets: int,
    center: str = "mean",
    method: str = "auto",
) -> DpResult:
    """Solve the λ=1 bucket-assignment problem over sorted contiguous groups.

    Exact over partitions of the sorted frequencies into contiguous ranges —
    which is the global optimum for ``center="median"``; for
    ``center="mean"`` a non-contiguous partition can (rarely) do better, so
    the result is the contiguous optimum and an upper bound on the global
    one (see the module docstring for a counterexample).

    Parameters
    ----------
    frequencies:
        Observed prefix frequencies (any order; sorting is handled here).
    num_buckets:
        Bucket budget ``b``; at most ``min(b, n)`` buckets are used.
    center:
        ``"mean"`` (Problem (3) as written) or ``"median"`` (classic 1-D
        k-median).
    method:
        ``"quadratic"``, ``"smawk"`` or ``"auto"``.  SMAWK requires
        ``center="median"`` (the mean-centre cost violates the Monge
        condition it relies on); ``"auto"`` picks smawk
        for large median-centre inputs and the quadratic DP otherwise.

    Returns
    -------
    DpResult
        Optimal assignment, its estimation-error cost, and the sorted-order
        boundaries of the clusters.
    """
    frequencies = np.asarray(frequencies, dtype=float).ravel()
    if frequencies.size == 0:
        raise ValueError("frequencies must be non-empty")
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    if method not in ("auto", *_LAYER_METHODS):
        raise ValueError(f"unknown method '{method}'")

    n = frequencies.size
    num_clusters = min(num_buckets, n)
    if method == "auto":
        method = "smawk" if (n > 256 and center == "median") else "quadratic"
    if center == "mean" and method != "quadratic":
        raise ValueError(
            "the mean-centre segment cost violates the Monge condition required "
            f"by the '{method}' method; use method='quadratic' (exact) or "
            "center='median'"
        )
    layer = _LAYER_METHODS[method]

    order = np.argsort(frequencies, kind="stable")
    sorted_values = frequencies[order]
    cost = SegmentCost(sorted_values, center=center)

    # D[i] = optimal cost of clustering the first i sorted values with the
    # current number of clusters; parents[k][i] = start of the last cluster.
    current = np.full(n + 1, _INFINITY)
    current[0] = 0.0
    for i in range(1, n + 1):
        current[i] = cost(0, i - 1)
    parents = [np.zeros(n + 1, dtype=int)]
    parents[0][1:] = 1

    for _ in range(1, num_clusters):
        previous = current.copy()
        previous[0] = _INFINITY  # every cluster must be non-empty
        current, argmin = layer(previous, cost)
        current[0] = 0.0
        parents.append(argmin)

    # Using fewer clusters can never help (costs are non-negative and the
    # empty cluster is free), so the optimum uses exactly num_clusters layers;
    # still, guard against the degenerate 1-cluster case.
    best_cost = float(current[n])

    # Backtrack the cluster boundaries in sorted order.
    boundaries: List[int] = []
    end = n
    for k in range(num_clusters - 1, -1, -1):
        start = int(parents[k][end]) if k > 0 else 1
        boundaries.append(start - 1)  # 0-based start index of the cluster
        end = start - 1
        if end == 0:
            break
    boundaries.reverse()

    # Convert sorted-order cluster ranges back to labels over the original order.
    labels_sorted = np.zeros(n, dtype=int)
    for cluster_index, start in enumerate(boundaries):
        stop = boundaries[cluster_index + 1] if cluster_index + 1 < len(boundaries) else n
        labels_sorted[start:stop] = cluster_index
    labels = np.zeros(n, dtype=int)
    labels[order] = labels_sorted

    assignment = BucketAssignment(labels=labels, num_buckets=num_buckets)
    # Recompute the cost from the assignment for the mean-centre case to keep
    # the reported number consistent with the objective module (for the
    # median centre the DP cost is the k-median cost, which differs).
    if center == "mean":
        best_cost = estimation_error(frequencies, assignment)
    return DpResult(
        assignment=assignment,
        cost=best_cost,
        boundaries=boundaries,
        method=method,
    )
