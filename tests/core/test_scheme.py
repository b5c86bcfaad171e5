"""Tests for the learned hashing scheme (hash table + classifier)."""

import numpy as np
import pytest

from repro.core.scheme import OptHashScheme, default_featurizer
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.streams.stream import Element


def fitted_classifier():
    """A classifier mapping 1-D features below 2.5 to bucket 0, else bucket 1."""
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    return DecisionTreeClassifier(max_depth=2).fit(X, y)


class TestConstruction:
    def test_invalid_bucket_count_rejected(self):
        with pytest.raises(ValueError):
            OptHashScheme(num_buckets=0, key_to_bucket={})

    def test_out_of_range_bucket_rejected(self):
        with pytest.raises(ValueError):
            OptHashScheme(num_buckets=2, key_to_bucket={"a": 5})

    def test_default_featurizer_uses_element_features(self):
        element = Element.with_features("x", [1.5, 2.5])
        np.testing.assert_allclose(default_featurizer(element), [1.5, 2.5])


class TestRouting:
    def test_seen_elements_use_hash_table(self):
        scheme = OptHashScheme(
            num_buckets=3,
            key_to_bucket={"a": 2, "b": 0},
            classifier=fitted_classifier(),
        )
        assert scheme.is_seen(Element(key="a"))
        assert scheme.bucket_of(Element.with_features("a", [0.0])) == 2
        assert scheme.bucket_of(Element.with_features("b", [5.0])) == 0

    def test_unseen_elements_use_classifier(self):
        scheme = OptHashScheme(
            num_buckets=2, key_to_bucket={}, classifier=fitted_classifier()
        )
        assert scheme.bucket_of(Element.with_features("low", [0.5])) == 0
        assert scheme.bucket_of(Element.with_features("high", [4.5])) == 1

    def test_unseen_without_classifier_falls_back_to_bucket_zero(self):
        scheme = OptHashScheme(num_buckets=4, key_to_bucket={"a": 3})
        assert scheme.bucket_of(Element(key="unknown")) == 0

    def test_custom_featurizer_applied(self):
        scheme = OptHashScheme(
            num_buckets=2,
            key_to_bucket={},
            classifier=fitted_classifier(),
            featurizer=lambda element: [float(len(str(element.key)))],
        )
        assert scheme.bucket_of(Element(key="ab")) == 0  # length 2 -> low
        assert scheme.bucket_of(Element(key="abcdef")) == 1  # length 6 -> high

    def test_predict_buckets_batches_and_caches(self):
        scheme = OptHashScheme(
            num_buckets=2, key_to_bucket={}, classifier=fitted_classifier()
        )
        elements = [Element.with_features(f"k{i}", [float(i)]) for i in range(6)]
        buckets = scheme.predict_buckets(elements)
        np.testing.assert_array_equal(buckets, [0, 0, 0, 1, 1, 1])
        # Cached predictions are reused by single-element routing: the key's
        # cached bucket wins over what these features would predict.
        assert scheme.bucket_of(Element.with_features("k5", [0.0])) == 1

    def test_precompute_skips_seen_elements(self):
        scheme = OptHashScheme(
            num_buckets=2, key_to_bucket={"seen": 1}, classifier=fitted_classifier()
        )
        scheme.precompute([Element.with_features("seen", [0.0]), Element.with_features("new", [4.0])])
        assert scheme.bucket_of(Element.with_features("seen", [0.0])) == 1
        assert scheme.bucket_of(Element.with_features("new", [4.0])) == 1

    def test_predict_buckets_empty_input(self):
        scheme = OptHashScheme(num_buckets=2, key_to_bucket={}, classifier=fitted_classifier())
        assert scheme.predict_buckets([]).shape == (0,)


@pytest.mark.parametrize(
    "classifier",
    [
        DecisionTreeClassifier(max_depth=6, random_state=0),
        RandomForestClassifier(n_estimators=5, max_depth=6, random_state=0),
    ],
    ids=["cart", "rf"],
)
def test_batched_buckets_match_one_at_a_time_prediction(classifier):
    """Many-lane prediction (``buckets_batch``) agrees with one-lane
    prediction (``bucket_of`` on a fresh scheme) for unseen elements."""
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(120, 4)), 1)
    classifier.fit(X, rng.integers(0, 8, size=120) + 2 * (X[:, 0] > 0))
    elements = [
        Element.with_features(f"u{i}", row) for i, row in enumerate(np.round(rng.normal(size=(60, 4)), 1))
    ]
    stored = {"seen": 3}
    batched = OptHashScheme(10, stored, classifier=classifier).buckets_batch(elements)
    fresh = OptHashScheme(10, stored, classifier=classifier)
    single = [fresh.bucket_of(element) for element in elements]
    np.testing.assert_array_equal(batched, single)
    assert len(set(single)) > 1


class TestIntrospection:
    def test_num_stored_ids_and_population(self):
        scheme = OptHashScheme(
            num_buckets=3, key_to_bucket={"a": 0, "b": 0, "c": 2}
        )
        assert scheme.num_stored_ids == 3
        np.testing.assert_array_equal(scheme.bucket_population(), [2, 0, 1])

    def test_hash_codes_returns_copy(self):
        scheme = OptHashScheme(num_buckets=2, key_to_bucket={"a": 1})
        codes = scheme.hash_codes()
        codes["a"] = 0
        assert scheme.key_to_bucket["a"] == 1
