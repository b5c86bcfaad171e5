"""Opt-hash point queries and adaptive ingest: the batched resolve pass
against the scalar definitions.

``OptHashScheme.buckets_batch`` resolves a whole batch at once: the exact
hash table over every key, one prediction-cache lookup for the misses, and
one ``precompute`` (featurize + ``classifier.predict``) for the misses the
cache does not hold.  These properties pin it to one-at-a-time routing: a
static or adaptive ``estimate_batch`` must equal the scalar ``estimate``
loop bit for bit, and an adaptive ``update_batch`` must leave exactly the
state a scalar ``update`` replay leaves, across int and str keys, elements
and raw keys, with or without a classifier, on cold and warm caches, with
unseen keys repeated inside a batch (carrying different features, so the
first occurrence must win as it does one at a time), and for batches that
are all stored or empty.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import AdaptiveOptHashEstimator, OptHashEstimator
from repro.core.scheme import OptHashScheme, default_featurizer, featurize
from repro.ml.tree import DecisionTreeClassifier
from repro.streams.stream import Element

NUM_BUCKETS = 6
FEATURE_VALUES = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])


def _classifier():
    """A CART over two features whose predictions spread over every bucket."""
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(size=(80, 2)), 1)
    y = (X[:, 0] > 0) * 3 + np.digitize(X[:, 1], [-0.5, 0.5])
    return DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)


CLASSIFIER = _classifier()


def key_featurizer(element):
    """Features computed from the key alone, so raw keys can be classified."""
    text = str(element.key)
    return [float(len(text) % 4) - 1.5, float(sum(map(ord, text)) % 7) / 2.0 - 1.5]


int_keys = st.integers(min_value=-6, max_value=30)
str_keys = st.text(alphabet="abz", max_size=3)


@st.composite
def cases(draw):
    """A scheme (table, classifier, featurizer), prefix frequencies, and the
    arrivals / queries to replay, drawn as elements or raw keys."""
    keys = draw(st.sampled_from([int_keys, str_keys]))
    stored = draw(st.lists(keys, min_size=0, max_size=8, unique=True))
    table = {key: draw(st.integers(0, NUM_BUCKETS - 1)) for key in stored}
    classifier = draw(st.sampled_from([CLASSIFIER, None]))
    as_elements = draw(st.booleans())
    featurizer = (
        draw(st.sampled_from([None, key_featurizer])) if as_elements else key_featurizer
    )
    frequencies = {key: float(draw(st.integers(1, 9))) for key in stored}
    # Keys drawn from a small pool repeat inside a batch; elements draw
    # fresh features per arrival, so a repeated key may carry new ones.
    pool = draw(st.lists(keys, min_size=1, max_size=5, unique=True)) + stored

    def batch(max_size):
        drawn = draw(st.lists(st.sampled_from(pool), max_size=max_size))
        if not as_elements:
            return drawn
        return [
            Element(key=key, features=(draw(FEATURE_VALUES), draw(FEATURE_VALUES)))
            for key in drawn
        ]

    return {
        "table": table,
        "classifier": classifier,
        "featurizer": featurizer,
        "frequencies": frequencies,
        "warm": batch(12) if draw(st.booleans()) else [],
        "batches": [batch(20) for _ in range(draw(st.integers(1, 3)))],
        "counts": draw(st.lists(st.integers(0, 3), min_size=60, max_size=60)),
    }


def _scheme(case):
    return OptHashScheme(
        NUM_BUCKETS,
        case["table"],
        classifier=case["classifier"],
        featurizer=case["featurizer"],
    )


def _element(item):
    return item if isinstance(item, Element) else Element(key=item)


def _estimators(case, cls):
    """Twin estimators over twin (cold) schemes."""
    options = {"seed": 5, "expected_distinct": 64} if cls is AdaptiveOptHashEstimator else {}
    initial = case["frequencies"] or None
    return [cls(_scheme(case), initial_frequencies=initial, **options) for _ in range(2)]


def _as_batch(items, use_array):
    """A batch as given, or as an int64 array when it holds raw int keys."""
    if use_array and items and all(type(item) is int for item in items):
        return np.array(items, dtype=np.int64)
    return items


def _assert_same_state(batch, scalar):
    assert batch.bucket_totals.tobytes() == scalar.bucket_totals.tobytes()
    assert batch.bucket_counts.tobytes() == scalar.bucket_counts.tobytes()
    assert batch.scheme._prediction_cache == scalar.scheme._prediction_cache


@given(case=cases(), use_array=st.booleans())
@settings(max_examples=150, deadline=None)
def test_buckets_batch_equals_bucket_of_loop(case, use_array):
    batch, scalar = _scheme(case), _scheme(case)
    for items in [case["warm"], *case["batches"]]:
        buckets = batch.buckets_batch(_as_batch(items, use_array))
        assert buckets.dtype == np.int64
        assert buckets.tolist() == [scalar.bucket_of(_element(item)) for item in items]
    assert batch._prediction_cache == scalar._prediction_cache


@pytest.mark.parametrize("cls", [OptHashEstimator, AdaptiveOptHashEstimator])
@given(case=cases(), use_array=st.booleans())
@settings(max_examples=80, deadline=None)
def test_estimate_batch_equals_scalar_estimate_loop(cls, case, use_array):
    batch, scalar = _estimators(case, cls)
    if cls is AdaptiveOptHashEstimator:
        # Mark a few unseen keys as arrived so queries reach the classifier.
        for item in case["batches"][-1][::2]:
            batch.update(_element(item))
            scalar.update(_element(item))
    for items in [case["warm"], *case["batches"]]:
        answers = batch.estimate_batch(_as_batch(items, use_array))
        expected = np.array([scalar.estimate(_element(item)) for item in items], dtype=float)
        assert answers.dtype == np.float64
        assert answers.tobytes() == expected.tobytes()
    _assert_same_state(batch, scalar)


@given(case=cases(), use_array=st.booleans())
@settings(max_examples=80, deadline=None)
def test_adaptive_update_batch_equals_scalar_replay(case, use_array):
    batch, scalar = _estimators(case, AdaptiveOptHashEstimator)
    counts = iter(case["counts"])
    for items in [case["warm"], *case["batches"]]:
        weights = [next(counts) for _ in items]
        batch.update_batch(_as_batch(items, use_array), weights)
        for item, weight in zip(items, weights):
            for _ in range(weight):
                scalar.update(_element(item))
        _assert_same_state(batch, scalar)
        assert batch.bloom_filter.to_bytes() == scalar.bloom_filter.to_bytes()


@given(case=cases())
@settings(max_examples=40, deadline=None)
def test_adaptive_seeding_matches_key_by_key_routing(case):
    """Prefix keys the table does not store are classified in one batch, and
    the totals accumulate in the mapping's order, as ``bucket_of`` one key
    at a time would leave them."""
    frequencies = dict(case["frequencies"])
    for item in case["batches"][0]:
        frequencies.setdefault(_element(item).key, 0.5 + len(frequencies))
    if not frequencies:
        return
    if case["featurizer"] is None and case["classifier"] is not None:
        # Seeding classifies bare keys, which the default featurizer cannot.
        case["featurizer"] = key_featurizer
    estimator = AdaptiveOptHashEstimator(_scheme(case), initial_frequencies=frequencies)
    oracle = _scheme(case)
    totals, element_counts = np.zeros(NUM_BUCKETS), np.zeros(NUM_BUCKETS)
    for key, frequency in frequencies.items():
        bucket = oracle.bucket_of(Element(key=key))
        totals[bucket] += float(frequency)
        element_counts[bucket] += 1.0
    assert estimator.bucket_totals.tobytes() == totals.tobytes()
    assert estimator.bucket_counts.tobytes() == element_counts.tobytes()
    assert all(key in estimator.bloom_filter for key in frequencies)


class TestResolvePass:
    def test_all_stored_batch_never_classifies(self):
        calls = []

        class Recording:
            def predict(self, X):
                calls.append(len(X))
                return np.zeros(len(X), dtype=np.int64)

        scheme = OptHashScheme(3, {"a": 2, "b": 1}, classifier=Recording(), featurizer=key_featurizer)
        assert scheme.buckets_batch(["b", "a", "a"]).tolist() == [1, 2, 2]
        assert scheme.buckets_batch([]).shape == (0,)
        assert calls == []
        assert scheme.buckets_batch(["a", "new", "new", "b"]).tolist() == [2, 0, 0, 1]
        assert calls == [1]  # one row for the repeated unseen key
        assert scheme.buckets_batch(["new", "a"]).tolist() == [0, 2]
        assert calls == [1]  # cached

    def test_empty_batches(self):
        for cls in (OptHashEstimator, AdaptiveOptHashEstimator):
            estimator = cls(OptHashScheme(2, {1: 0}, classifier=CLASSIFIER))
            assert estimator.estimate_batch([]).shape == (0,)
            assert estimator.estimate_batch(np.zeros(0, dtype=np.int64)).shape == (0,)
        assert OptHashScheme(2, {}).predict_buckets([]).shape == (0,)

    def test_without_classifier_misses_fall_back_to_bucket_zero(self):
        scheme = OptHashScheme(4, {7: 3})
        keys = np.array([7, 8, 7, -1], dtype=np.int64)
        assert scheme.buckets_batch(keys).tolist() == [3, 0, 3, 0]
        assert scheme._prediction_cache == {}


class TestFeaturize:
    def test_default_featurizer_matrix_equals_per_element_arrays(self):
        elements = [Element.with_features(i, [i * 0.5, -i, 1e300]) for i in range(5)]
        matrix = featurize(elements, default_featurizer)
        expected = np.array([default_featurizer(element) for element in elements])
        assert matrix.dtype == np.float64
        assert matrix.tobytes() == expected.tobytes()
        assert featurize([], default_featurizer).shape == (0, 0)
        assert featurize([Element(key=1), Element(key=2)], default_featurizer).shape == (2, 0)

    @pytest.mark.parametrize("widths", [(1, 3), (2, 0), (1, 2, 0), (2, 2, 1)])
    def test_ragged_feature_rows_raise(self, widths):
        elements = [Element(key=i, features=(1.0,) * width) for i, width in enumerate(widths)]
        with pytest.raises(ValueError):
            featurize(elements, default_featurizer)
        with pytest.raises(ValueError):
            featurize(elements, lambda element: element.feature_array())

    def test_scalar_featurizer_gives_one_column(self):
        matrix = featurize([Element(key="ab"), Element(key="c")], lambda e: len(e.key))
        assert matrix.tolist() == [[2.0], [1.0]]
