"""The proposed learning-based frequency estimator (``opt-hash``).

This subpackage assembles the paper's primary contribution from the
substrates:

1. :func:`~repro.core.pipeline.train_opt_hash` runs the learning phase that
   an :class:`~repro.api.specs.OptHashSpec` describes on an observed stream
   prefix: it computes the empirical frequencies, learns a
   (near-)optimal assignment of the prefix elements to buckets with one of
   the :mod:`repro.optimize` solvers, and trains a :mod:`repro.ml` classifier
   that maps *unseen* elements to buckets from their features.
2. The resulting :class:`~repro.core.scheme.OptHashScheme` (hash table +
   classifier) is wrapped into the streaming estimator the spec names by
   :func:`~repro.core.estimator.estimator_from_scheme`:
   :class:`~repro.core.estimator.OptHashEstimator` (the static variant that
   only tracks prefix elements) or
   :class:`~repro.core.estimator.AdaptiveOptHashEstimator` (the Bloom-filter
   extension of Section 5.3 that also counts unseen elements).
"""

from repro.core.scheme import OptHashScheme
from repro.core.estimator import OptHashEstimator, AdaptiveOptHashEstimator
from repro.core.sharding import ShardedEstimator
from repro.core.storage import (
    STORAGE_BACKENDS,
    CounterStorage,
    DenseStorage,
    MmapStorage,
    SharedMemoryStorage,
    StorageBacked,
    StorageError,
)
from repro.core.workers import ShardWorkerPool
from repro.core.pipeline import (
    TrainingResult,
    train_opt_hash,
    sample_prefix_elements,
    split_bucket_budget,
    replay,
    replay_sharded,
)

__all__ = [
    "OptHashScheme",
    "OptHashEstimator",
    "AdaptiveOptHashEstimator",
    "ShardedEstimator",
    "ShardWorkerPool",
    "STORAGE_BACKENDS",
    "CounterStorage",
    "DenseStorage",
    "SharedMemoryStorage",
    "MmapStorage",
    "StorageBacked",
    "StorageError",
    "TrainingResult",
    "train_opt_hash",
    "sample_prefix_elements",
    "split_bucket_budget",
    "replay",
    "replay_sharded",
]
