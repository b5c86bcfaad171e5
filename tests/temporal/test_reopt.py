"""Online re-optimization: retrain on fresh counts, hot-swap into a live
session.

The contract under test: a ``key -> count`` table (a drift detector's
buffer, a pane, an exact counter) stands in for a training prefix via
:class:`WeightedPrefix`; :class:`ReOptimizer` re-runs the full learning
phase on it and swaps the result into any target exposing
``hot_swap(spec, estimator, close_old=)`` — with the old estimator
either released or handed back intact for auditing.
"""

import numpy as np
import pytest

import repro
from repro.api import SpecError, SketchSpec
from repro.sketches import ExactCounter
from repro.streams.stream import Element
from repro.temporal import (
    BackgroundReOptimizer,
    DriftDetector,
    ReOptimizer,
    prefix_from_counts,
)
from repro.temporal.reopt import WeightedPrefix

SPEC = repro.OptHashSpec(num_buckets=5, lam=0.5, solver="bcd", classifier="cart", seed=6)


def element_counts(seed=0, universe=60, total=2000):
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(1.3, size=total) % universe
    counts = {}
    for rank in ranks:
        element = Element.with_features(f"key-{rank}", [float(rank)])
        counts[element.key] = counts.get(element.key, 0) + 1
    features = {f"key-{r}": (float(r),) for r in set(ranks.tolist())}
    return counts, features


class TestWeightedPrefix:
    def test_wears_the_prefix_protocol(self):
        counts, features = element_counts()
        prefix = WeightedPrefix(counts, features)
        assert len(prefix) == sum(counts.values())
        assert {e.key for e in prefix.distinct_elements()} == set(counts)
        keys, X, freqs = prefix.training_arrays()
        assert X.shape == (len(counts), 1)
        assert freqs.sum() == sum(counts.values())
        assert dict(zip(keys, freqs)) == {k: float(v) for k, v in counts.items()}

    def test_featureless_counts_train_featureless(self):
        prefix = WeightedPrefix({"a": 3, "b": 1})
        _, X, _ = prefix.training_arrays()
        assert X.shape == (2, 0)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            WeightedPrefix({})
        with pytest.raises(ValueError):
            WeightedPrefix({"a": -1})

    def test_trains_an_actual_scheme(self):
        counts, features = element_counts()
        training = ReOptimizer(SPEC).retrain(counts, features)
        assert training.scheme.num_buckets == SPEC.num_buckets
        # heavy keys answer with their (bucket-averaged) weight
        heavy = max(counts, key=counts.get)
        estimate = training.estimator.estimate_batch(
            [Element.with_features(heavy, features[heavy])]
        )[0]
        assert estimate > 0


class TestPrefixFromCounts:
    def test_accepts_mapping_detector_and_exact_counter(self):
        counts, features = element_counts()
        assert len(prefix_from_counts(counts, features)) == sum(counts.values())

        training = ReOptimizer(SPEC).retrain(counts, features)
        detector = DriftDetector(training.scheme, training)
        detector.observe(
            [Element.with_features(k, features[k]) for k in list(counts)[:40]]
        )
        lifted = prefix_from_counts(detector)
        assert len(lifted) == 40
        # the detector's element features ride along automatically
        _, X, _ = lifted.training_arrays()
        assert X.shape[1] == 1

        counter = ExactCounter()
        counter.update_batch(["a", "a", "b"])
        assert len(prefix_from_counts(counter)) == 3

    def test_rejects_unextractable_inputs(self):
        with pytest.raises(TypeError):
            prefix_from_counts(42)


class TestReOptimizer:
    def test_rejects_non_opt_hash_specs(self):
        with pytest.raises(SpecError):
            ReOptimizer(SketchSpec("count_min", total_buckets=64, depth=1, seed=0))

    def test_reoptimize_swaps_a_session(self):
        counts, features = element_counts(seed=1)
        with repro.open(
            SPEC, options=repro.Options(prefix=_as_prefix(counts, features))
        ) as session:
            before = session.estimator
            fresh_counts, fresh_features = element_counts(seed=2)
            result = ReOptimizer(SPEC).reoptimize(
                session, fresh_counts, fresh_features, close_old=False
            )
            assert session.estimator is result.estimator
            assert result.old_estimator is before
            assert session.estimator is not before

    def test_target_without_hot_swap_raises(self):
        counts, features = element_counts()
        with pytest.raises(TypeError):
            ReOptimizer(SPEC).reoptimize(object(), counts, features)

    def test_background_cycle_joins_with_result(self):
        counts, features = element_counts(seed=3)
        with repro.open(
            SPEC, options=repro.Options(prefix=_as_prefix(counts, features))
        ) as session:
            background = BackgroundReOptimizer(
                ReOptimizer(SPEC), session, close_old=False
            )
            background.start(*element_counts(seed=4))
            result = background.join(timeout=60)
            assert not background.running
            assert session.estimator is result.estimator

    def test_background_rejects_overlapping_cycles(self):
        import threading

        release = threading.Event()

        class SlowTarget:
            def hot_swap(self, spec, estimator, *, close_old=True):
                release.wait(30)
                return None

        counts, features = element_counts(seed=5)
        background = BackgroundReOptimizer(ReOptimizer(SPEC), SlowTarget())
        background.start(counts, features)
        try:
            with pytest.raises(RuntimeError):
                background.start(counts, features)
        finally:
            release.set()
            background.join(timeout=60)

    def test_background_surfaces_errors_on_join(self):
        background = BackgroundReOptimizer(ReOptimizer(SPEC), object())
        background.start({"a": 1})
        with pytest.raises(TypeError):
            background.join(timeout=60)


def _as_prefix(counts, features):
    from repro.streams.stream import StreamPrefix

    arrivals = []
    for key, count in counts.items():
        arrivals.extend([Element.with_features(key, features[key])] * count)
    return StreamPrefix(arrivals=arrivals)
