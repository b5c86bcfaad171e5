"""Streaming estimators built on a learned hashing scheme (paper Sections 3 & 5).

Both estimators keep, per bucket, an aggregate frequency ``φ_j`` and an
element count ``c_j``; a point query answers the bucket's *average*
frequency ``φ_j / c_j``.  They differ in how arrivals after the prefix are
handled:

* :class:`OptHashEstimator` — the static approach: only elements that
  appeared in the prefix update their bucket's counter; unseen elements are
  estimated from the prefix statistics of the bucket the classifier puts
  them in.
* :class:`AdaptiveOptHashEstimator` — the Section 5.3 extension: a Bloom
  filter tracks which elements have been seen, every arrival increments its
  bucket's frequency, and first-time arrivals also increment the bucket's
  element count.  Bloom false positives can only depress ``c_j``, so the
  extension overestimates, never underestimates, relative to exact bucket
  averages.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.api.registry import register_estimator
from repro.api.specs import OptHashSpec
from repro.core.scheme import OptHashScheme
from repro.sketches.base import (
    BYTES_PER_BUCKET,
    FrequencyEstimator,
    IncompatibleSketchError,
    as_key_batch,
)
from repro.sketches.bloom import BloomFilter
from repro.streams.stream import Element

__all__ = ["OptHashEstimator", "AdaptiveOptHashEstimator", "estimator_from_scheme"]


def _build_opt_hash(cls, spec, context):
    """Registry builder: run the learning phase and return the estimator.

    ``context['prefix']`` (guaranteed non-None by ``build``) is the observed
    stream prefix; ``context['featurizer']`` optionally maps elements to
    classifier features.  The spec's ``adaptive`` flag decides which of the
    two estimator classes comes back, so both kinds share this builder.
    """
    from repro.core.pipeline import train_opt_hash

    training = train_opt_hash(
        context["prefix"], spec, featurizer=context.get("featurizer")
    )
    return training.estimator


def _check_mergeable_schemes(first, second) -> None:
    """Merged opt-hash estimators must route every key identically.

    The exact hash tables must agree; the classifier is compared by identity
    only (two shards built from the same training run share the object).
    """
    if first.scheme is second.scheme:
        return
    if first.scheme.num_buckets != second.scheme.num_buckets:
        raise IncompatibleSketchError(
            f"bucket count mismatch: {first.scheme.num_buckets} vs "
            f"{second.scheme.num_buckets}"
        )
    if first.scheme.key_to_bucket != second.scheme.key_to_bucket:
        raise IncompatibleSketchError(
            "hash tables differ: merged estimators must assign every stored "
            "key to the same bucket"
        )
    if first.scheme.classifier is not second.scheme.classifier:
        raise IncompatibleSketchError(
            "classifiers differ: merged estimators must share the unseen-"
            "element classifier"
        )


@register_estimator(
    "opt_hash",
    spec_cls=OptHashSpec,
    builder=_build_opt_hash,
    requires_training=True,
)
class OptHashEstimator(FrequencyEstimator):
    """The static opt-hash estimator.

    Parameters
    ----------
    scheme:
        The learned hashing scheme (hash table + classifier).
    initial_frequencies:
        Mapping from prefix element keys to their prefix frequencies; used to
        seed the per-bucket aggregates so the estimator already reflects the
        prefix at the start of stream processing.  Pass ``None`` (or an empty
        mapping) to start from zero counters.
    count_stored_ids:
        Whether the stored IDs are charged against the memory footprint
        (one bucket-equivalent each, following Section 7.3).  On by default.
    """

    def __init__(
        self,
        scheme: OptHashScheme,
        initial_frequencies: Optional[Dict[Hashable, float]] = None,
        count_stored_ids: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        self.scheme = scheme
        self.seed = seed
        self._count_stored_ids = count_stored_ids
        self._bucket_totals = np.zeros(scheme.num_buckets)
        self._bucket_counts = np.zeros(scheme.num_buckets)
        if initial_frequencies:
            for key, frequency in initial_frequencies.items():
                bucket = scheme.key_to_bucket.get(key)
                if bucket is None:
                    raise ValueError(
                        f"initial frequency given for key {key!r} that is not in the scheme"
                    )
                self._bucket_totals[bucket] += float(frequency)
                self._bucket_counts[bucket] += 1.0
        else:
            # Even without initial frequencies the per-bucket element counts
            # reflect the scheme so queries average over the right population.
            for bucket in scheme.key_to_bucket.values():
                self._bucket_counts[bucket] += 1.0
        # Post-seed snapshots: merge() folds in only the *ingested* deltas of
        # the other estimator, so shards that each start from the same prefix
        # seeding do not double-count it when collapsed.
        self._initial_totals = self._bucket_totals.copy()
        self._initial_counts = self._bucket_counts.copy()

    # ------------------------------------------------------------------
    # FrequencyEstimator interface
    # ------------------------------------------------------------------
    @property
    def routes_by_features(self) -> bool:
        """Ingestion only consults the exact hash table, never the classifier."""
        return False

    def update(self, element: Element) -> None:
        """Process one arrival: only prefix elements update their bucket."""
        bucket = self.scheme.key_to_bucket.get(element.key)
        if bucket is not None:
            self._bucket_totals[bucket] += 1.0

    def update_batch(self, keys, counts=None) -> None:
        """Vectorized ingestion: one ``h_S`` lookup, then one ``bincount``.

        Keys outside the scheme's hash table are ignored, exactly as in the
        scalar path.  Counts are integers, so each bucket's batch sum is
        exact below 2^53 arrivals, and adding it once leaves integer-valued
        totals (prefix counts seed them) bit-identical to a scalar replay.
        """
        key_batch, count_array = as_key_batch(keys, counts)
        buckets = self.scheme.stored_buckets(key_batch)
        # Bin 0 gathers the keys outside the table (bucket -1) and is dropped.
        self._bucket_totals += np.bincount(
            buckets + 1, weights=count_array, minlength=self.scheme.num_buckets + 1
        )[1:]

    def estimate(self, element: Element) -> float:
        bucket = self.scheme.bucket_of(element)
        count = self._bucket_counts[bucket]
        if count == 0:
            return 0.0
        return float(self._bucket_totals[bucket] / count)

    def estimate_batch(self, keys) -> np.ndarray:
        """Vectorized point queries: one batched bucket resolution + gather."""
        items = keys if isinstance(keys, np.ndarray) else list(keys)
        if len(items) == 0:
            return np.zeros(0, dtype=np.float64)
        buckets = self.scheme.buckets_batch(items)
        counts = self._bucket_counts[buckets]
        totals = self._bucket_totals[buckets]
        return np.divide(
            totals, counts, out=np.zeros_like(totals), where=counts != 0
        )

    def merge(self, other: "OptHashEstimator") -> "OptHashEstimator":
        """Fold another shard's *ingested* arrivals into this estimator.

        Both estimators must share the learned scheme and have been seeded
        identically (same prefix frequencies); what transfers is the delta
        each bucket accumulated after construction.  Bucket updates are
        integer-valued, so as long as the stream stays below 2^53 arrivals
        per bucket the merged totals are bit-identical to single-estimator
        ingestion of the concatenated streams.
        """
        if not isinstance(other, OptHashEstimator):
            raise IncompatibleSketchError(
                f"cannot merge OptHashEstimator with {type(other).__name__}"
            )
        _check_mergeable_schemes(self, other)
        if not np.array_equal(self._initial_totals, other._initial_totals):
            raise IncompatibleSketchError(
                "initial bucket seedings differ: merged estimators must be "
                "built from the same prefix frequencies"
            )
        self._bucket_totals += other._bucket_totals - other._initial_totals
        # The static estimator never mutates the element counts after
        # seeding, so there is no count delta to transfer.
        return self

    @property
    def size_bytes(self) -> int:
        stored_ids = self.scheme.num_stored_ids if self._count_stored_ids else 0
        return BYTES_PER_BUCKET * (self.scheme.num_buckets + stored_ids)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _describe_params(self) -> dict:
        return {
            "num_buckets": self.scheme.num_buckets,
            "num_stored_ids": self.scheme.num_stored_ids,
            "classifier": (
                type(self.scheme.classifier).__name__
                if self.scheme.classifier is not None
                else None
            ),
            "seed": self.seed,
        }

    @property
    def bucket_totals(self) -> np.ndarray:
        """Aggregate frequency ``φ_j`` per bucket."""
        return self._bucket_totals.copy()

    @property
    def bucket_counts(self) -> np.ndarray:
        """Element count ``c_j`` per bucket."""
        return self._bucket_counts.copy()

    def bucket_average(self, bucket: int) -> float:
        """Current average frequency of a bucket (0 if empty)."""
        count = self._bucket_counts[bucket]
        return float(self._bucket_totals[bucket] / count) if count else 0.0


@register_estimator(
    "adaptive_opt_hash",
    spec_cls=OptHashSpec,
    builder=_build_opt_hash,
    requires_training=True,
)
class AdaptiveOptHashEstimator(FrequencyEstimator):
    """The adaptive (Bloom-filter) opt-hash estimator of Section 5.3.

    Parameters
    ----------
    scheme:
        The learned hashing scheme.
    initial_frequencies:
        Prefix frequencies used to seed the bucket aggregates and to
        initialize the Bloom filter with the prefix elements.
    bloom_bits:
        Size of the Bloom filter in bits.  If omitted it is sized for a 1%
        false-positive rate over ``expected_distinct`` elements.
    expected_distinct:
        Expected number of distinct elements over the stream's lifetime
        (used only to size the default Bloom filter).
    seed:
        Seed for the Bloom filter's hash functions.
    backend:
        Kernel backend for the Bloom filter's batch hot paths
        (see :mod:`repro.kernels`).
    """

    def __init__(
        self,
        scheme: OptHashScheme,
        initial_frequencies: Optional[Dict[Hashable, float]] = None,
        bloom_bits: Optional[int] = None,
        expected_distinct: int = 10_000,
        seed: Optional[int] = None,
        count_stored_ids: bool = False,
        backend: str = "auto",
    ) -> None:
        self.scheme = scheme
        self.seed = seed
        self.backend = backend
        self._count_stored_ids = count_stored_ids
        self._bucket_totals = np.zeros(scheme.num_buckets)
        self._bucket_counts = np.zeros(scheme.num_buckets)
        if bloom_bits is not None:
            self._bloom = BloomFilter(
                num_bits=bloom_bits,
                expected_items=expected_distinct,
                seed=seed,
                backend=backend,
            )
        else:
            self._bloom = BloomFilter.from_false_positive_rate(
                expected_items=expected_distinct,
                false_positive_rate=0.01,
                seed=seed,
                backend=backend,
            )
        if initial_frequencies:
            # One batched resolution (unstored keys are classified together);
            # the totals still accumulate key by key, in the mapping's order.
            keys = list(initial_frequencies)
            buckets = scheme.buckets_batch(keys).tolist()
            for key, bucket, frequency in zip(
                keys, buckets, initial_frequencies.values()
            ):
                self._bucket_totals[bucket] += float(frequency)
                self._bucket_counts[bucket] += 1.0
                self._bloom.add(key)
        else:
            for key, bucket in scheme.key_to_bucket.items():
                self._bucket_counts[bucket] += 1.0
                self._bloom.add(key)
        # Post-seed snapshots for delta-based merging (see OptHashEstimator).
        self._initial_totals = self._bucket_totals.copy()
        self._initial_counts = self._bucket_counts.copy()

    @property
    def routes_by_features(self) -> bool:
        """Unseen arrivals route through the feature-based classifier."""
        return self.scheme.classifier is not None

    def update(self, element: Element) -> None:
        """Every arrival updates its bucket; first-time arrivals grow ``c_j``."""
        bucket = self.scheme.bucket_of(element)
        self._bucket_totals[bucket] += 1.0
        if element.key not in self._bloom:
            self._bucket_counts[bucket] += 1.0
            self._bloom.add(element.key)

    def update_batch(self, keys, counts=None) -> None:
        """Vectorized ingestion with sequential first-occurrence accounting.

        Bucket resolution and the φ_j scatter-add are fully vectorized; the
        Bloom-filter pass walks the batch in arrival order (via
        :meth:`BloomFilter.observe_batch`) so within-batch repeats of a key
        count exactly once, as in a scalar replay.
        """
        items = keys if isinstance(keys, np.ndarray) else list(keys)
        key_batch, count_array = as_key_batch(items, counts)
        if len(key_batch) == 0:
            return
        if count_array.min() == 0:
            # Zero-count entries are no-ops in a scalar replay: they must not
            # touch the Bloom filter or the per-bucket element counts.
            nonzero = np.flatnonzero(count_array)
            if nonzero.size == 0:
                return
            items = (
                items[nonzero]
                if isinstance(items, np.ndarray)
                else [items[i] for i in nonzero]
            )
            key_batch = (
                key_batch[nonzero]
                if isinstance(key_batch, np.ndarray)
                else [key_batch[i] for i in nonzero]
            )
            count_array = count_array[nonzero]
        buckets = self.scheme.buckets_batch(items)
        num_buckets = self.scheme.num_buckets
        self._bucket_totals += np.bincount(
            buckets, weights=count_array, minlength=num_buckets
        )
        new_flags = self._bloom.observe_batch(key_batch)
        if new_flags.any():
            self._bucket_counts += np.bincount(
                buckets[new_flags], minlength=num_buckets
            )

    def estimate(self, element: Element) -> float:
        if element.key not in self._bloom:
            # The paper multiplies the bucket average by BF(u): elements never
            # marked as seen are estimated as zero.
            return 0.0
        bucket = self.scheme.bucket_of(element)
        count = self._bucket_counts[bucket]
        if count == 0:
            return 0.0
        return float(self._bucket_totals[bucket] / count)

    def estimate_batch(self, keys) -> np.ndarray:
        """Vectorized point queries gated by batched Bloom membership."""
        items = keys if isinstance(keys, np.ndarray) else list(keys)
        key_batch, _ = as_key_batch(items)
        n = len(key_batch)
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        contained = self._bloom.contains_batch(key_batch)
        estimates = np.zeros(n, dtype=np.float64)
        if contained.any():
            indices = np.flatnonzero(contained)
            subset = (
                items[indices]
                if isinstance(items, np.ndarray)
                else [items[i] for i in indices]
            )
            buckets = self.scheme.buckets_batch(subset)
            counts = self._bucket_counts[buckets]
            totals = self._bucket_totals[buckets]
            estimates[indices] = np.divide(
                totals, counts, out=np.zeros_like(totals), where=counts != 0
            )
        return estimates

    def merge(self, other: "AdaptiveOptHashEstimator") -> "AdaptiveOptHashEstimator":
        """Fold another shard's ingested arrivals and Bloom state into this one.

        Totals and first-occurrence element counts transfer as post-seed
        deltas; the Bloom filters (built from the same seed, holding the same
        prefix) union bitwise.  With key-partitioned sharding every key's
        arrivals hit exactly one shard, so its first occurrence is counted
        once and the merged state matches serial ingestion exactly.  Under
        round-robin sharding a key's first arrival in *each* shard bumps that
        shard's ``c_j``, so merged element counts can exceed the serial ones
        — use key partitioning when exact adaptive semantics matter.
        """
        if not isinstance(other, AdaptiveOptHashEstimator):
            raise IncompatibleSketchError(
                f"cannot merge AdaptiveOptHashEstimator with {type(other).__name__}"
            )
        _check_mergeable_schemes(self, other)
        if not np.array_equal(self._initial_totals, other._initial_totals):
            raise IncompatibleSketchError(
                "initial bucket seedings differ: merged estimators must be "
                "built from the same prefix frequencies"
            )
        self._bloom.merge(other._bloom)
        self._bucket_totals += other._bucket_totals - other._initial_totals
        self._bucket_counts += other._bucket_counts - other._initial_counts
        return self

    @property
    def size_bytes(self) -> int:
        stored_ids = self.scheme.num_stored_ids if self._count_stored_ids else 0
        # Two counters (φ_j and c_j) per bucket, plus the Bloom filter bits.
        return (
            BYTES_PER_BUCKET * (2 * self.scheme.num_buckets + stored_ids)
            + self._bloom.size_bytes
        )

    def _describe_params(self) -> dict:
        params = {
            "num_buckets": self.scheme.num_buckets,
            "num_stored_ids": self.scheme.num_stored_ids,
            "classifier": (
                type(self.scheme.classifier).__name__
                if self.scheme.classifier is not None
                else None
            ),
            "bloom_bits": self._bloom.num_bits,
            "seed": self.seed,
        }
        if self.backend != "auto":
            params["backend"] = self.backend
        return params

    @property
    def kernel_backend(self) -> str:
        """The kernel backend executing the Bloom filter's hot paths."""
        return self._bloom.kernel_backend

    @property
    def bloom_filter(self) -> BloomFilter:
        return self._bloom

    @property
    def bucket_totals(self) -> np.ndarray:
        return self._bucket_totals.copy()

    @property
    def bucket_counts(self) -> np.ndarray:
        return self._bucket_counts.copy()


def estimator_from_scheme(
    spec: OptHashSpec,
    scheme: OptHashScheme,
    initial_frequencies: Optional[Dict[Hashable, float]],
) -> OptHashEstimator:
    """The streaming estimator ``spec`` describes, over a learned scheme.

    This is the one place an opt-hash spec becomes estimator arguments:
    training, scheme-sharing shards and window panes all construct here, so
    every spec field reaches every estimator.  ``spec.adaptive`` picks the
    class; ``initial_frequencies`` seeds the bucket aggregates.
    """
    if spec.adaptive:
        return AdaptiveOptHashEstimator(
            scheme,
            initial_frequencies=initial_frequencies,
            bloom_bits=spec.bloom_bits,
            expected_distinct=spec.expected_distinct,
            seed=spec.seed,
            backend=spec.backend,
        )
    return OptHashEstimator(
        scheme, initial_frequencies=initial_frequencies, seed=spec.seed
    )
