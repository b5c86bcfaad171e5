"""Tests for the end-to-end opt-hash training pipeline."""

import numpy as np
import pytest

from repro.api.specs import OptHashSpec
from repro.core.estimator import AdaptiveOptHashEstimator, OptHashEstimator
from repro.core.pipeline import (
    sample_prefix_elements,
    split_bucket_budget,
    train_opt_hash,
)
from repro.ml.text import QueryFeaturizer
from repro.streams.stream import Element, StreamPrefix


class TestSplitBucketBudget:
    def test_paper_formula(self):
        num_stored, num_buckets = split_bucket_budget(1000, 0.25)
        assert num_stored == 800
        assert num_buckets == 200
        assert num_stored + num_buckets == 1000

    def test_small_ratio_stores_most_ids(self):
        num_stored, num_buckets = split_bucket_budget(1000, 0.03)
        assert num_stored > num_buckets
        assert num_stored + num_buckets == 1000

    def test_at_least_one_of_each(self):
        num_stored, num_buckets = split_bucket_budget(2, 1000.0)
        assert num_stored == 1
        assert num_buckets == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            split_bucket_budget(1, 0.3)
        with pytest.raises(ValueError):
            split_bucket_budget(10, 0.0)


class TestSamplePrefixElements:
    def test_all_kept_when_budget_sufficient(self):
        indices = sample_prefix_elements(np.array([1.0, 2.0, 3.0]), 10)
        np.testing.assert_array_equal(indices, [0, 1, 2])

    def test_sample_size_respected(self, rng):
        frequencies = rng.integers(1, 100, size=50).astype(float)
        indices = sample_prefix_elements(frequencies, 10, rng=rng)
        assert len(indices) == 10
        assert len(set(indices.tolist())) == 10

    def test_frequency_proportional_sampling_prefers_heavy_elements(self):
        frequencies = np.array([1.0] * 50 + [1000.0] * 5)
        rng = np.random.default_rng(0)
        counts = np.zeros(55)
        for _ in range(50):
            indices = sample_prefix_elements(frequencies, 5, rng=rng)
            counts[indices] += 1
        # The five heavy elements should be selected nearly always.
        assert counts[50:].mean() > 10 * counts[:50].mean()

    def test_uniform_sampling_supported(self, rng):
        frequencies = np.array([1.0, 1000.0, 1.0, 1.0])
        indices = sample_prefix_elements(
            frequencies, 2, proportional_to_frequency=False, rng=rng
        )
        assert len(indices) == 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            sample_prefix_elements(np.array([1.0, 2.0]), 0)


class TestTrainOptHash:
    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            train_opt_hash(StreamPrefix(arrivals=[]), OptHashSpec())

    def test_training_produces_consistent_scheme(self, toy_prefix):
        spec = OptHashSpec(num_buckets=2, lam=1.0, solver="dp", seed=0)
        result = train_opt_hash(toy_prefix, spec)
        assert set(result.scheme.key_to_bucket) == {"a", "b", "c", "d"}
        # Elements with close frequencies (6,5) and (1,2) share buckets.
        scheme = result.scheme
        assert scheme.key_to_bucket["a"] == scheme.key_to_bucket["b"]
        assert scheme.key_to_bucket["c"] == scheme.key_to_bucket["d"]
        assert scheme.key_to_bucket["a"] != scheme.key_to_bucket["c"]

    def test_estimator_answers_prefix_averages(self, toy_prefix):
        spec = OptHashSpec(num_buckets=2, lam=1.0, solver="dp", seed=0)
        estimator = train_opt_hash(toy_prefix, spec).estimator
        assert isinstance(estimator, OptHashEstimator)
        assert estimator.estimate(Element(key="a")) == pytest.approx(5.5)
        assert estimator.estimate(Element(key="c")) == pytest.approx(1.5)

    def test_unseen_elements_estimated_via_classifier(self, toy_prefix):
        spec = OptHashSpec(num_buckets=2, lam=0.5, solver="bcd", classifier="cart", seed=0)
        estimator = train_opt_hash(toy_prefix, spec).estimator
        # Feature 5.2 resembles the low-frequency group (c, d).
        unseen = Element.with_features("e", [5.2])
        assert estimator.estimate(unseen) == pytest.approx(1.5)

    def test_classifier_disabled_falls_back_to_bucket_zero(self, toy_prefix):
        spec = OptHashSpec(num_buckets=2, lam=1.0, solver="dp", classifier=None, seed=0)
        result = train_opt_hash(toy_prefix, spec)
        assert result.classifier is None
        unseen = Element.with_features("zzz", [100.0])
        assert result.scheme.bucket_of(unseen) == 0

    def test_max_stored_elements_caps_hash_table(self, small_prefix):
        spec = OptHashSpec(
            num_buckets=4, lam=1.0, solver="dp", max_stored_elements=5, seed=0
        )
        result = train_opt_hash(small_prefix, spec)
        assert result.scheme.num_stored_ids == 5
        assert len(result.stored_keys) == 5

    def test_adaptive_configuration_builds_adaptive_estimator(self, toy_prefix):
        spec = OptHashSpec(
            num_buckets=2, lam=1.0, solver="dp", adaptive=True, expected_distinct=100, seed=0
        )
        estimator = train_opt_hash(toy_prefix, spec).estimator
        assert isinstance(estimator, AdaptiveOptHashEstimator)

    def test_custom_featurizer_used_for_classifier(self):
        # Keys are strings; features come from a text featurizer, not elements.
        arrivals = [Element(key="www.google.com")] * 10 + [Element(key="rare long query text")] * 1
        prefix = StreamPrefix(arrivals=arrivals)
        featurizer_model = QueryFeaturizer(vocabulary_size=10)
        featurizer_model.fit([e.key for e in prefix.distinct_elements()])
        spec = OptHashSpec(num_buckets=2, lam=1.0, solver="dp", classifier="cart", seed=0)
        result = train_opt_hash(
            prefix, spec, featurizer=lambda e: featurizer_model.transform_one(str(e.key))
        )
        assert result.stored_features.shape[1] == featurizer_model.num_features

    def test_classifier_tuning_runs_grid_search(self, small_prefix):
        spec = OptHashSpec(
            num_buckets=3,
            lam=0.5,
            solver="bcd",
            classifier="cart",
            tune_classifier=True,
            tuning_grid={"max_depth": [2, 6]},
            tuning_folds=3,
            seed=0,
        )
        result = train_opt_hash(small_prefix, spec)
        assert result.classifier_cv_score is not None
        assert 0.0 <= result.classifier_cv_score <= 1.0

    def test_reproducible_with_seed(self, small_prefix):
        spec = OptHashSpec(num_buckets=4, lam=0.5, solver="bcd", seed=11)
        first = train_opt_hash(small_prefix, spec)
        second = train_opt_hash(small_prefix, spec)
        np.testing.assert_array_equal(
            first.solver_result.assignment.labels, second.solver_result.assignment.labels
        )

    def test_single_bucket_degenerate_case(self, toy_prefix):
        spec = OptHashSpec(num_buckets=1, lam=1.0, solver="dp", seed=0)
        result = train_opt_hash(toy_prefix, spec)
        estimator = result.estimator
        # Everything shares one bucket: the estimate is the global average.
        assert estimator.estimate(Element(key="a")) == pytest.approx(14 / 4)
