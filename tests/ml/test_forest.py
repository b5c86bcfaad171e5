"""Tests for the random forest classifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.forest import RandomForestClassifier


def make_dataset(seed=0, num_samples=300):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(num_samples, 4))
    y = ((X[:, 0] + X[:, 1] > 0) & (X[:, 2] > -0.5)).astype(int)
    return X, y


class TestRandomForest:
    def test_invalid_estimator_count_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_learns_nonlinear_boundary(self):
        X, y = make_dataset()
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert forest.score(X, y) > 0.9

    def test_generalizes_to_held_out_data(self):
        X, y = make_dataset(seed=1, num_samples=600)
        forest = RandomForestClassifier(
            n_estimators=25, max_depth=8, random_state=0
        ).fit(X[:400], y[:400])
        assert forest.score(X[400:], y[400:]) > 0.8

    def test_predict_proba_normalized(self):
        X, y = make_dataset()
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:20])
        assert proba.shape == (20, 2)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(20), atol=1e-9)

    def test_number_of_trees_matches_config(self):
        X, y = make_dataset()
        forest = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(forest.estimators_) == 7

    def test_reproducible_with_seed(self):
        X, y = make_dataset()
        first = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        second = RandomForestClassifier(n_estimators=5, random_state=3).fit(X, y)
        np.testing.assert_array_equal(first.predict(X), second.predict(X))

    def test_multiclass_with_noncontiguous_labels(self):
        rng = np.random.default_rng(2)
        X = np.vstack(
            [rng.normal(center, 0.3, size=(40, 2)) for center in [(0, 0), (5, 0), (0, 5)]]
        )
        y = np.repeat([2, 7, 11], 40)
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        np.testing.assert_array_equal(forest.classes_, [2, 7, 11])
        assert forest.score(X, y) > 0.95

    def test_without_bootstrap_trees_see_all_data(self):
        X, y = make_dataset()
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, max_features=None, random_state=0
        ).fit(X, y)
        # Without bootstrap or feature subsampling all trees are identical,
        # so the forest behaves like a single tree with perfect training fit.
        assert forest.score(X, y) == 1.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict([[0.0, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("X", [np.zeros((2, 5)), np.zeros((2, 1)), []])
    def test_feature_count_mismatch_rejected(self, X):
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(*make_dataset())
        with pytest.raises(ValueError, match="4"):
            forest.predict(X)
        with pytest.raises(ValueError, match="4"):
            forest.predict_proba(X)

    def test_zero_rows_of_the_fit_width_give_empty_results(self):
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(*make_dataset())
        assert forest.predict(np.zeros((0, 4))).shape == (0,)
        assert forest.predict_proba(np.zeros((0, 4))).shape == (0, 2)

    def test_feature_importances_average_over_trees(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 5))
        y = (X[:, 3] > 0).astype(int)  # only feature 3 matters
        forest = RandomForestClassifier(
            n_estimators=15, max_depth=5, random_state=0
        ).fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (5,)
        assert importances[3] == importances.max()
        assert importances.sum() == pytest.approx(1.0)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_queries=st.integers(min_value=0, max_value=25),
)
@settings(max_examples=25, deadline=None)
def test_proba_equals_sequential_per_tree_sum(seed, num_queries):
    """The flat forest's probabilities equal, bit for bit, each tree's
    probabilities summed in tree order onto the forest's columns (aligned
    by ``tree.classes_``) and divided by the tree count."""
    rng = np.random.default_rng(seed)
    # Twelve classes over 24 samples: bootstraps miss some classes.
    X = np.round(rng.normal(size=(24, 3)), 1)
    y = np.repeat(np.arange(0, 24, 2), 2)
    Q = np.round(rng.normal(size=(num_queries, 3)), 1)
    Q[rng.random(Q.shape) < 0.1] = np.nan
    forest = RandomForestClassifier(n_estimators=6, max_depth=4, random_state=seed).fit(X, y)
    assert any(len(tree.classes_) < len(forest.classes_) for tree in forest.estimators_)
    expected = np.zeros((num_queries, len(forest.classes_)))
    for tree in forest.estimators_:
        expected[:, tree.classes_] += tree.predict_proba(Q)
    expected = expected / forest.n_estimators
    assert np.array_equal(forest.predict_proba(Q), expected)
    assert np.array_equal(forest.predict(Q), forest.classes_[expected.argmax(axis=1)])
    # Each tree's lanes of the shared traversal land where the tree alone does.
    for tree, tree_leaves in zip(forest.estimators_, forest._nodes.leaves(Q)):
        assert np.array_equal(forest._nodes.prediction[tree_leaves], tree.predict(Q))
