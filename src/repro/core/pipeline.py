"""End-to-end training pipeline for the opt-hash estimator (paper Section 3).

:func:`train_opt_hash` takes an observed stream prefix and an
:class:`~repro.api.specs.OptHashSpec` — the one description of the learning
phase, also what :func:`repro.api.build` takes — and produces a ready
streaming estimator by:

1. computing the empirical frequencies of the distinct prefix elements;
2. optionally sampling a subset of them (with probability proportional to
   frequency, as the real-data experiments in Section 7.3 do when storing
   every prefix ID would already exceed the memory budget);
3. learning the bucket assignment with the configured solver (bcd / dp / milp);
4. training the configured classifier on ``(features, bucket)`` pairs so
   unseen elements can be hashed;
5. seeding the per-bucket aggregates with the prefix frequencies
   (:func:`~repro.core.estimator.estimator_from_scheme`).

The helper :func:`split_bucket_budget` implements the paper's split of a
total bucket budget into "stored IDs" and "buckets" via the ratio ``c``.
:func:`replay` is the chunked batch-ingestion loop every driver shares: it
feeds a stream (or raw key array) through ``update_batch`` in fixed-size
chunks so streaming 10^6+ arrivals costs a handful of NumPy calls per chunk
instead of one Python call per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api.specs import OptHashSpec
from repro.core.estimator import OptHashEstimator, estimator_from_scheme
from repro.core.scheme import OptHashScheme, default_featurizer, featurize
from repro.core.sharding import ShardedEstimator
from repro.ml import make_classifier
from repro.ml.base import Classifier
from repro.ml.model_selection import grid_search
from repro.optimize.solvers import SolverResult, learn_hashing_scheme
from repro.streams.stream import Element, Stream, StreamPrefix

__all__ = [
    "TrainingResult",
    "train_opt_hash",
    "sample_prefix_elements",
    "split_bucket_budget",
    "replay",
    "replay_sharded",
    "DEFAULT_REPLAY_BATCH_SIZE",
]

#: Chunk size of the batch replay loop.  Large enough that per-chunk Python
#: overhead is negligible, small enough to keep the working set in cache.
DEFAULT_REPLAY_BATCH_SIZE = 65536


def replay(
    estimator,
    stream,
    batch_size: int = DEFAULT_REPLAY_BATCH_SIZE,
    metrics=None,
) -> int:
    """Stream all arrivals through ``estimator.update_batch`` in chunks.

    ``stream`` may be a :class:`~repro.streams.stream.Stream` (its cached
    key array is sliced into chunks) or any array/sequence of raw keys or
    elements.  Returns the number of arrivals processed.  When the
    estimator declares ``routes_by_features`` (the adaptive opt-hash
    classifier, a feature-based heavy-hitter oracle) and the stream's
    elements carry features, the chunks keep the full elements; otherwise
    the raw key array is the fast path.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) opt-in records
    ``repro_replay_chunk_seconds`` / ``repro_replay_keys_total`` per chunk;
    without it the loop carries no instrumentation overhead at all.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    chunk_seconds = keys_total = None
    if metrics is not None:
        chunk_seconds = metrics.histogram(
            "repro_replay_chunk_seconds", "update_batch latency per replay chunk."
        )
        keys_total = metrics.counter(
            "repro_replay_keys_total", "Arrivals replayed through update_batch."
        )
    if isinstance(stream, Stream):
        # Feature-routing estimators always get whole elements — exactly
        # what a scalar replay would feed them, whether or not individual
        # arrivals happen to carry features.
        needs_features = getattr(estimator, "routes_by_features", False)
        if not needs_features:
            total = 0
            for chunk in stream.iter_key_batches(batch_size):
                if chunk_seconds is not None:
                    with chunk_seconds.time():
                        estimator.update_batch(chunk)
                    keys_total.inc(len(chunk))
                else:
                    estimator.update_batch(chunk)
                total += len(chunk)
            return total
        stream = stream.arrivals
    keys = stream if isinstance(stream, np.ndarray) else list(stream)
    for start in range(0, len(keys), batch_size):
        chunk = keys[start : start + batch_size]
        if chunk_seconds is not None:
            with chunk_seconds.time():
                estimator.update_batch(chunk)
            keys_total.inc(len(chunk))
        else:
            estimator.update_batch(chunk)
    return len(keys)


def replay_sharded(
    factory,
    stream,
    num_shards: int = 4,
    mode: str = "key-partition",
    executor: str = "serial",
    batch_size: int = DEFAULT_REPLAY_BATCH_SIZE,
    collapse: bool = True,
):
    """Replay a stream through ``num_shards`` estimator shards.

    ``factory`` is what :class:`ShardedEstimator` accepts: an
    :class:`~repro.api.specs.EstimatorSpec` (or JSON-safe spec dict, e.g.
    ``{"kind": "count_min", "total_buckets": 8192, "depth": 2, "seed": 1}``),
    or a zero-argument callable producing one (seeded, hence mergeable)
    estimator per call — e.g. a closure re-wrapping a trained
    :class:`OptHashScheme`.  With
    ``collapse=True`` (default) the shards are merged into one ordinary
    estimator, the pool is shut down, and the merged estimator is returned —
    a drop-in replacement for :func:`replay` into a single instance.  With
    ``collapse=False`` the live :class:`ShardedEstimator` is returned (caller
    owns ``close()``), which keeps answering queries while further batches
    stream in.
    """
    sharded = ShardedEstimator(factory, num_shards, mode=mode, executor=executor)
    try:
        replay(sharded, stream, batch_size=batch_size)
    except BaseException:
        sharded.close()
        raise
    if collapse:
        merged = sharded.collapse()
        sharded.close()
        return merged
    return sharded


def split_bucket_budget(total_buckets: int, ratio: float) -> Tuple[int, int]:
    """Split a total budget into ``(num_stored_ids, num_buckets)``.

    Following Section 7.3: for user-specified total budget ``b_total`` and
    ratio ``c = b / n`` between buckets and stored IDs,
    ``n = b_total / (1 + c)`` and ``b = b_total − n``.
    """
    if total_buckets < 2:
        raise ValueError("total_buckets must be at least 2")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    num_stored = int(round(total_buckets / (1.0 + ratio)))
    num_stored = min(max(num_stored, 1), total_buckets - 1)
    num_buckets = total_buckets - num_stored
    return num_stored, num_buckets


def sample_prefix_elements(
    frequencies: np.ndarray,
    max_elements: int,
    proportional_to_frequency: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Indices of a sample of prefix elements to keep in the hash table.

    When the prefix contains more distinct elements than the memory budget
    allows, a subset is sampled — by default with probability proportional to
    the observed frequencies, so the high-impact elements are retained.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    num_elements = len(frequencies)
    if max_elements >= num_elements:
        return np.arange(num_elements)
    if max_elements <= 0:
        raise ValueError("max_elements must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    if proportional_to_frequency and frequencies.sum() > 0:
        probabilities = frequencies / frequencies.sum()
        return np.sort(
            rng.choice(num_elements, size=max_elements, replace=False, p=probabilities)
        )
    return np.sort(rng.choice(num_elements, size=max_elements, replace=False))


@dataclass
class TrainingResult:
    """Everything the learning phase produced.

    ``estimator`` is what stream processing uses; the other fields expose the
    intermediate artifacts for analysis (e.g. the experiments that report the
    optimizer's objective value directly).
    """

    estimator: OptHashEstimator
    scheme: OptHashScheme
    solver_result: SolverResult
    classifier: Optional[Classifier]
    stored_keys: list
    stored_frequencies: np.ndarray
    stored_features: np.ndarray
    classifier_cv_score: Optional[float] = None


def _default_tuning_grid(classifier_name: str) -> Dict[str, Sequence]:
    """The hyperparameter grids of Section 6.2."""
    if classifier_name == "logreg":
        return {"ridge": [1e-4, 1e-3, 1e-2, 1e-1]}
    if classifier_name == "cart":
        return {"min_impurity_decrease": [0.0, 1e-3, 1e-2], "max_depth": [5, 10, None]}
    if classifier_name == "rf":
        return {"max_features": ["sqrt", 0.5, None], "max_depth": [5, 10, None]}
    return {}


def _fit_classifier(
    spec: OptHashSpec,
    features: np.ndarray,
    labels: np.ndarray,
) -> Tuple[Optional[Classifier], Optional[float]]:
    """Fit (and optionally tune) the unseen-element classifier."""
    if spec.classifier is None or features.shape[1] == 0:
        return None, None
    if len(np.unique(labels)) < 2:
        # Degenerate case: every stored element landed in one bucket, so a
        # constant classifier is all that is needed.
        classifier = make_classifier("cart", max_depth=1, random_state=spec.seed)
        classifier.fit(features, labels)
        return classifier, None

    options = dict(spec.classifier_options or {})
    cv_score = None
    if spec.tune_classifier:
        grid = spec.tuning_grid or _default_tuning_grid(spec.classifier)
        if grid:
            best_params, cv_score = grid_search(
                lambda **params: make_classifier(
                    spec.classifier, random_state=spec.seed, **{**options, **params}
                ),
                grid,
                features,
                labels,
                n_splits=min(spec.tuning_folds, len(labels)),
                random_state=spec.seed,
            )
            options.update(best_params)

    if spec.classifier in ("cart", "rf", "logreg"):
        options.setdefault("random_state", spec.seed)
    classifier = make_classifier(spec.classifier, **options)
    classifier.fit(features, labels)
    return classifier, cv_score


def train_opt_hash(
    prefix: StreamPrefix,
    spec: OptHashSpec,
    featurizer: Optional[Callable[[Element], np.ndarray]] = None,
) -> TrainingResult:
    """Run the full learning phase on an observed stream prefix.

    Parameters
    ----------
    prefix:
        The observed prefix ``S0``.
    spec:
        The learning-phase configuration and the estimator it yields
        (``spec.adaptive`` picks the Bloom-filter extension).
    featurizer:
        Optional callable mapping elements to feature vectors.  When omitted,
        the elements' own feature vectors are used (the synthetic workload);
        the query-log workload passes a fitted
        :class:`~repro.ml.text.QueryFeaturizer` here.
    """
    if len(prefix) == 0:
        raise ValueError("the observed prefix must be non-empty")
    rng = np.random.default_rng(spec.seed)
    featurizer = featurizer or default_featurizer

    keys, _, frequencies = prefix.training_arrays()
    distinct_elements = prefix.distinct_elements()
    features = featurize(distinct_elements, featurizer)

    # Optionally sample the elements whose IDs the scheme will store.
    if spec.max_stored_elements is not None:
        selected = sample_prefix_elements(
            frequencies,
            spec.max_stored_elements,
            proportional_to_frequency=spec.sample_proportional_to_frequency,
            rng=rng,
        )
    else:
        selected = np.arange(len(keys))
    stored_keys = [keys[index] for index in selected]
    stored_frequencies = frequencies[selected]
    stored_features = features[selected]

    # Phase 1: learn the bucket assignment.
    solver_result = learn_hashing_scheme(
        stored_frequencies,
        stored_features,
        num_buckets=spec.num_buckets,
        lam=float(spec.lam),
        solver=spec.solver,
        random_state=spec.seed,
        **(spec.solver_options or {}),
    )
    labels = solver_result.assignment.labels

    # Phase 2: train the classifier for unseen elements.
    classifier, cv_score = _fit_classifier(spec, stored_features, labels)

    scheme = OptHashScheme(
        num_buckets=spec.num_buckets,
        key_to_bucket={key: int(bucket) for key, bucket in zip(stored_keys, labels)},
        classifier=classifier,
        featurizer=featurizer,
    )
    initial = {key: float(freq) for key, freq in zip(stored_keys, stored_frequencies)}

    return TrainingResult(
        estimator=estimator_from_scheme(spec, scheme, initial),
        scheme=scheme,
        solver_result=solver_result,
        classifier=classifier,
        stored_keys=stored_keys,
        stored_frequencies=stored_frequencies,
        stored_features=stored_features,
        classifier_cv_score=cv_score,
    )
