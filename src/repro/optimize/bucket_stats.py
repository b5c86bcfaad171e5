"""Incremental per-bucket statistics for the block coordinate descent.

Algorithm 1 repeatedly asks "what would the objective be if element ``i``
joined bucket ``j``?" for every bucket ``j``.  Answering from scratch would
make every sweep quadratic in the bucket sizes, so — exactly as the paper
describes in Section 4.3 — we maintain, per bucket:

* its cardinality ``c_j`` and frequency sum (so the mean ``μ_j`` updates in
  O(1)); membership itself is the ``labels`` array;
* the feature sum ``Σ x_i`` and squared-norm sum ``Σ ‖x_i‖²`` (so the
  similarity error updates in O(p));
* the current estimation error ``e_j`` and similarity error ``s_j``.

:meth:`BucketStats.marginal_cost` prices adding one element to all ``b``
buckets at once: the estimation term still needs every member's deviation
from its bucket's shifted mean, which is one O(n) vector pass over the
labels per element, matching the per-iteration complexity the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.optimize.objective import BucketAssignment

__all__ = ["BucketStats"]


class BucketStats:
    """Mutable per-bucket statistics backing Algorithm 1.

    Parameters
    ----------
    frequencies:
        Observed prefix frequencies ``f0`` of the ``n`` elements.
    features:
        ``(n, p)`` feature matrix (``p`` may be 0, in which case all
        similarity terms are 0).
    assignment:
        Initial assignment; the stats are built from it and then kept in sync
        through :meth:`remove` / :meth:`add`.
    """

    def __init__(
        self,
        frequencies: np.ndarray,
        features: np.ndarray,
        assignment: BucketAssignment,
    ) -> None:
        self.frequencies = np.asarray(frequencies, dtype=float)
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        self.features = features
        self.num_buckets = assignment.num_buckets
        self.num_elements = assignment.num_elements
        self._feature_dim = features.shape[1]
        self._squared_norms = (
            (features**2).sum(axis=1) if self._feature_dim else np.zeros(self.num_elements)
        )

        self.counts = np.zeros(self.num_buckets, dtype=int)
        self.freq_sums = np.zeros(self.num_buckets)
        self.feature_sums = np.zeros((self.num_buckets, self._feature_dim))
        self.sqnorm_sums = np.zeros(self.num_buckets)
        self.estimation_errors = np.zeros(self.num_buckets)
        self.similarity_errors = np.zeros(self.num_buckets)
        self.labels = assignment.labels.copy()

        for element, bucket in enumerate(self.labels):
            self._insert_raw(int(element), int(bucket))
        for bucket in range(self.num_buckets):
            self.estimation_errors[bucket] = self._recompute_estimation(bucket)
            self.similarity_errors[bucket] = self._similarity_from_sums(bucket)

    # ------------------------------------------------------------------
    # raw bookkeeping
    # ------------------------------------------------------------------
    def _insert_raw(self, element: int, bucket: int) -> None:
        self.counts[bucket] += 1
        self.freq_sums[bucket] += self.frequencies[element]
        if self._feature_dim:
            self.feature_sums[bucket] += self.features[element]
            self.sqnorm_sums[bucket] += self._squared_norms[element]

    def _remove_raw(self, element: int, bucket: int) -> None:
        self.counts[bucket] -= 1
        self.freq_sums[bucket] -= self.frequencies[element]
        if self._feature_dim:
            self.feature_sums[bucket] -= self.features[element]
            self.sqnorm_sums[bucket] -= self._squared_norms[element]

    def _similarity_from_sums(self, bucket: int) -> float:
        """Ordered-pair similarity error of a bucket from its running sums."""
        if not self._feature_dim:
            return 0.0
        count = self.counts[bucket]
        if count <= 1:
            return 0.0
        sum_vector = self.feature_sums[bucket]
        value = 2.0 * count * self.sqnorm_sums[bucket] - 2.0 * float(sum_vector @ sum_vector)
        # Guard against tiny negative values from floating-point cancellation.
        return max(float(value), 0.0)

    def _recompute_estimation(self, bucket: int) -> float:
        count = self.counts[bucket]
        if count == 0:
            return 0.0
        mean = self.freq_sums[bucket] / count
        return float(np.abs(self.frequencies[self.labels == bucket] - mean).sum())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def mean(self, bucket: int) -> float:
        """Current mean frequency of a bucket (0 if empty)."""
        count = self.counts[bucket]
        return float(self.freq_sums[bucket] / count) if count else 0.0

    def total_error(self, lam: float) -> float:
        """The Problem (1) objective of the current assignment."""
        return float(
            lam * self.estimation_errors.sum() + (1.0 - lam) * self.similarity_errors.sum()
        )

    def marginal_cost(self, element: int, lam: float) -> np.ndarray:
        """Increase of the objective caused by adding ``element`` to each bucket.

        Returns a length-``b`` vector whose entry ``j`` prices the move into
        bucket ``j``.  The element must currently be unassigned (removed from
        its bucket).  Choosing the bucket with minimal marginal cost is
        equivalent to Algorithm 1's ``argmin_j ε_{σi,j} + Σ_{ℓ≠j} ε_{−σi,ℓ}``.
        """
        frequency = self.frequencies[element]
        new_counts = self.counts + 1
        new_means = (self.freq_sums + frequency) / new_counts
        # Unassigned elements carry label -1: shift every label by one so
        # they land in bin 0, which is dropped (their deviation is read
        # against an arbitrary bucket and never used).
        deviations = np.abs(self.frequencies - new_means[self.labels])
        estimation_with = np.bincount(
            self.labels + 1, weights=deviations, minlength=self.num_buckets + 1
        )[1:] + np.abs(frequency - new_means)
        cost = lam * (estimation_with - self.estimation_errors)
        if self._feature_dim:
            new_sums = self.feature_sums + self.features[element]
            # A stack of (1, p) @ (p, 1) products runs the same dot kernel as
            # ``v @ v`` in _similarity_from_sums, so both agree to the bit.
            new_sq_sums = (new_sums[:, None, :] @ new_sums[:, :, None])[:, 0, 0]
            new_sqnorms = self.sqnorm_sums + self._squared_norms[element]
            similarity_with = np.maximum(
                2.0 * new_counts * new_sqnorms - 2.0 * new_sq_sums, 0.0
            )
            similarity_with[new_counts <= 1] = 0.0
            cost += (1.0 - lam) * (similarity_with - self.similarity_errors)
        return cost

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def remove(self, element: int) -> int:
        """Remove ``element`` from its current bucket; return that bucket."""
        bucket = int(self.labels[element])
        self.labels[element] = -1
        self._remove_raw(element, bucket)
        self.estimation_errors[bucket] = self._recompute_estimation(bucket)
        self.similarity_errors[bucket] = self._similarity_from_sums(bucket)
        return bucket

    def add(self, element: int, bucket: int) -> None:
        """Assign the (currently unassigned) ``element`` to ``bucket``."""
        if self.labels[element] != -1:
            raise ValueError("element must be removed before it can be re-added")
        self.labels[element] = bucket
        self._insert_raw(element, bucket)
        self.estimation_errors[bucket] = self._recompute_estimation(bucket)
        self.similarity_errors[bucket] = self._similarity_from_sums(bucket)

    def to_assignment(self) -> BucketAssignment:
        """Snapshot the current labels as a :class:`BucketAssignment`."""
        if np.any(self.labels < 0):
            raise RuntimeError("cannot snapshot: some elements are unassigned")
        return BucketAssignment(labels=self.labels.copy(), num_buckets=self.num_buckets)
