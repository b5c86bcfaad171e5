"""Online re-optimization: retrain the learned scheme, hot-swap it live.

The paper trains its hashing scheme once, on a prefix, and never looks
back.  With the temporal layer in place the natural closed loop is:

1. a :class:`~repro.temporal.windowed.SlidingWindowSketch` (or the
   service's ingest path) keeps recent per-key counts;
2. a :class:`~repro.temporal.drift.DriftDetector` notices the training
   profile has gone stale;
3. :class:`ReOptimizer` re-runs the full learning phase on the fresh
   counts — as a *weighted* prefix, so a pane's count table stands in for
   the arrival sequence without materializing it — and swaps the newly
   trained estimator into a live :class:`~repro.api.session.Session` or
   :class:`~repro.service.server.StreamingService` between micro-batches.

Training happens in whatever thread calls :meth:`ReOptimizer.retrain`
(:class:`BackgroundReOptimizer` provides the off-thread variant); only
the final pointer swap touches the serving path, and the swap targets
guarantee it lands between batches, never inside one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np

from repro.api.specs import OptHashSpec, SpecError, spec_from_dict
from repro.streams.stream import Element

__all__ = [
    "WeightedPrefix",
    "prefix_from_counts",
    "ReOptimizationResult",
    "ReOptimizer",
    "BackgroundReOptimizer",
]


class WeightedPrefix:
    """A ``key -> count`` table wearing the training-prefix protocol.

    :func:`~repro.core.pipeline.train_opt_hash` only needs ``len()``,
    ``distinct_elements()`` and ``training_arrays()`` from its prefix, so
    recent observations summarized as counts (a window pane, a drift
    detector's buffer) can feed the learning phase directly — no need to
    expand them back into an arrival sequence.
    """

    def __init__(
        self,
        counts: Mapping[Hashable, float],
        features: Optional[Mapping[Hashable, Sequence[float]]] = None,
    ) -> None:
        if not counts:
            raise ValueError("a weighted prefix needs at least one key")
        elements = []
        for key in counts:
            if features is not None and key in features:
                elements.append(Element.with_features(key, features[key]))
            else:
                elements.append(Element(key=key))
        self._elements = elements
        self._frequencies = np.fromiter(
            (float(counts[key]) for key in counts),
            dtype=np.float64,
            count=len(elements),
        )
        if len(self._frequencies) and self._frequencies.min() < 0:
            raise ValueError("counts must be non-negative")

    def __len__(self) -> int:
        return int(self._frequencies.sum())

    def distinct_elements(self):
        return list(self._elements)

    def training_arrays(self):
        keys = [element.key for element in self._elements]
        if self._elements and len(self._elements[0].features) > 0:
            features = np.array(
                [element.feature_array() for element in self._elements]
            )
        else:
            features = np.zeros((len(keys), 0))
        return keys, features, self._frequencies.copy()


def prefix_from_counts(counts, features=None) -> WeightedPrefix:
    """Lift observed counts into a trainable :class:`WeightedPrefix`.

    Accepts a plain mapping, anything with an ``observed_counts`` property
    (a :class:`~repro.temporal.drift.DriftDetector`), or an exact-counting
    estimator exposing its count table (``ExactCounter``).
    """
    if isinstance(counts, Mapping):
        return WeightedPrefix(counts, features)
    observed = getattr(counts, "observed_counts", None)
    if isinstance(observed, Mapping):
        if features is None:
            # A DriftDetector remembers the features its Elements carried;
            # feature-based classifiers need them again at retrain time.
            features = getattr(counts, "observed_features", None) or None
        return WeightedPrefix(observed, features)
    table = getattr(counts, "_counts", None)
    if isinstance(table, Mapping):
        return WeightedPrefix(dict(table), features)
    raise TypeError(
        f"cannot extract key counts from {type(counts).__name__}; pass a "
        "mapping, a DriftDetector, or an ExactCounter"
    )


@dataclass
class ReOptimizationResult:
    """Outcome of one retrain + hot-swap cycle."""

    training: object  # the full TrainingResult of the fresh learning phase
    old_estimator: object  # what was serving before the swap (maybe closed)

    @property
    def estimator(self):
        return self.training.estimator

    @property
    def scheme(self):
        return self.training.scheme


class ReOptimizer:
    """Re-run the opt-hash learning phase and swap the result into a target.

    Parameters
    ----------
    spec:
        The :class:`~repro.api.specs.OptHashSpec` (or its dict form) to
        retrain under — typically the spec the live estimator was built
        from, reused verbatim.
    featurizer:
        Optional featurizer forwarded to the learning phase.
    """

    def __init__(self, spec, featurizer: Optional[Callable] = None) -> None:
        spec = spec_from_dict(spec)
        if not isinstance(spec, OptHashSpec):
            raise SpecError(
                f"re-optimization retrains an opt-hash spec, got kind "
                f"{spec.kind!r}"
            )
        self.spec = spec
        self.featurizer = featurizer

    def retrain(self, counts, features=None):
        """Run the full learning phase on fresh counts; a TrainingResult.

        The returned estimator is seeded with the fresh counts as its
        initial frequencies, so it answers sensibly from the first
        post-swap query.
        """
        from repro.core.pipeline import train_opt_hash

        if hasattr(counts, "training_arrays"):
            prefix = counts
        else:
            prefix = prefix_from_counts(counts, features)
        return train_opt_hash(prefix, self.spec, featurizer=self.featurizer)

    def reoptimize(
        self, target, counts, features=None, *, close_old: bool = True
    ) -> ReOptimizationResult:
        """Retrain on ``counts`` and hot-swap the result into ``target``.

        ``target`` is anything exposing ``hot_swap(spec, estimator,
        close_old=...)`` — a :class:`~repro.api.session.Session`, a
        :class:`~repro.service.server.ServiceThread`, or a
        :class:`~repro.service.server.StreamingService` driven from its
        own loop.  With ``close_old=False`` the previous estimator is
        returned still-live (callers that must audit what the old
        estimator absorbed — e.g. the zero-loss service test — stash it).
        """
        training = self.retrain(counts, features)
        swap = getattr(target, "hot_swap", None)
        if swap is None:
            raise TypeError(
                f"{type(target).__name__} does not support hot_swap(); "
                "pass a Session, ServiceThread, or StreamingService"
            )
        old = swap(self.spec, training.estimator, close_old=close_old)
        return ReOptimizationResult(training=training, old_estimator=old)


class BackgroundReOptimizer:
    """One retrain + hot-swap cycle on a daemon thread.

    The learning phase (solver + classifier fit) is the expensive part of
    re-optimization; running it here keeps the ingest path live the whole
    time, and the final swap still lands between micro-batches because the
    target's ``hot_swap`` serializes against ingestion itself.

    >>> background = BackgroundReOptimizer(reoptimizer, service_thread)
    >>> background.start(detector.observed_counts)
    >>> ...  # keep ingesting
    >>> result = background.join()
    """

    def __init__(self, reoptimizer: ReOptimizer, target, *, close_old: bool = True):
        self.reoptimizer = reoptimizer
        self.target = target
        self.close_old = close_old
        self.result: Optional[ReOptimizationResult] = None
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, counts, features=None) -> "BackgroundReOptimizer":
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("a re-optimization cycle is already running")
        self.result = None
        self.error = None

        def run() -> None:
            try:
                self.result = self.reoptimizer.reoptimize(
                    self.target, counts, features, close_old=self.close_old
                )
            except BaseException as error:  # surfaced on join()
                self.error = error

        self._thread = threading.Thread(
            target=run, name="repro-reoptimize", daemon=True
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> ReOptimizationResult:
        """Wait for the cycle; returns its result or re-raises its error."""
        if self._thread is None:
            raise RuntimeError("start() was never called")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("re-optimization still running")
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result
