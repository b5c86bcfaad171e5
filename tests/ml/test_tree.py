"""Tests for the CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _NodeArrays, gini_impurity


def left(nodes, node):
    return nodes.child[2 * node + 1]


def right(nodes, node):
    return nodes.child[2 * node]


def scalar_leaf(nodes, row, root=0):
    """Reference traversal: walk one row down from the root, one node at a
    time (NaN fails ``<=`` and goes right)."""
    node = root
    while not nodes.is_leaf[node]:
        if row[nodes.feature[node]] <= nodes.threshold[node]:
            node = left(nodes, node)
        else:
            node = right(nodes, node)
    return node


def scalar_depth(nodes, node=0):
    """Reference depth: the recursive definition over the node arrays."""
    if nodes.is_leaf[node]:
        return 0
    return 1 + max(scalar_depth(nodes, left(nodes, node)), scalar_depth(nodes, right(nodes, node)))


def compaction_leaves(nodes, X):
    """Reference batch walk: the level-synchronous traversal that drops each
    lane from the active set once it reaches a leaf (the walk ``leaves`` used
    before leaves became self-loops)."""
    X = np.asarray(X, dtype=float).reshape(-1, nodes.num_features)
    num_rows, width = X.shape
    values = X.ravel()
    node = np.repeat(nodes.roots, num_rows)
    row_start = np.tile(np.arange(num_rows, dtype=np.intp) * width, len(nodes.roots))
    lanes = np.flatnonzero(~nodes.is_leaf[node])
    while lanes.size:
        current = node[lanes]
        go_left = values[row_start[lanes] + nodes.feature[current]] <= nodes.threshold[current]
        current = np.where(go_left, nodes.child[2 * current + 1], nodes.child[2 * current])
        node[lanes] = current
        lanes = lanes[~nodes.is_leaf[current]]
    return node.reshape(len(nodes.roots), num_rows)


class TestGiniImpurity:
    def test_pure_node_has_zero_impurity(self):
        assert gini_impurity(np.array([10.0, 0.0])) == 0.0

    def test_uniform_two_classes(self):
        assert gini_impurity(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_empty_node(self):
        assert gini_impurity(np.array([0.0, 0.0])) == 0.0

    def test_bounded_by_one(self):
        assert 0.0 <= gini_impurity(np.array([1.0, 2.0, 3.0, 4.0])) < 1.0


class TestDecisionTree:
    def test_perfectly_separable_data_fit_exactly(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_xor_requires_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert shallow.score(X, y) < 1.0
        assert deep.score(X, y) == 1.0

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_impurity_decrease_prunes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, size=100)  # pure noise
        permissive = DecisionTreeClassifier(min_impurity_decrease=0.0).fit(X, y)
        strict = DecisionTreeClassifier(min_impurity_decrease=0.4).fit(X, y)
        assert strict.num_leaves() <= permissive.num_leaves()
        assert strict.num_leaves() == 1  # noise offers no 0.4 impurity decrease

    def test_min_samples_split_respected(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(min_samples_split=10).fit(X, y)
        assert tree.num_leaves() == 1

    def test_multiclass_prediction(self):
        X = np.array([[0.0], [0.5], [5.0], [5.5], [10.0], [10.5]])
        y = np.array([0, 0, 1, 1, 2, 2])
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)
        np.testing.assert_array_equal(tree.classes_, [0, 1, 2])

    def test_predict_proba_reflects_leaf_composition(self):
        X = np.array([[0.0], [0.0], [0.0], [10.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        # The only possible split isolates the x=10 sample, leaving a mixed
        # leaf {0, 0, 1} on the left.
        proba = tree.predict_proba([[0.05]])
        assert proba.shape == (1, 2)
        assert proba[0, 0] == pytest.approx(2 / 3)

    def test_constant_features_yield_single_leaf(self):
        X = np.zeros((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.num_leaves() == 1
        # Majority class (tie broken towards the lower label index).
        assert tree.predict([[0.0, 0.0, 0.0]])[0] in (0, 1)

    def test_max_features_subsampling_still_learns(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 6))
        y = (X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.8

    def test_invalid_max_features_rejected(self):
        tree = DecisionTreeClassifier(max_features="bogus")
        with pytest.raises(ValueError):
            tree.fit(np.array([[0.0], [1.0]]), np.array([0, 1]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_feature_importances_identify_informative_feature(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        y = (X[:, 1] > 0).astype(int)  # only feature 1 matters
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        importances = tree.feature_importances_
        assert importances.shape == (4,)
        assert importances[1] == importances.max()
        assert importances.sum() == pytest.approx(1.0)

    def test_feature_importances_zero_for_single_leaf(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_allclose(tree.feature_importances_, [0.0, 0.0])

    def test_zero_rows_of_the_fit_width_give_empty_results(self):
        tree = DecisionTreeClassifier().fit(np.eye(3), [0, 1, 2])
        assert tree.predict(np.zeros((0, 3))).shape == (0,)
        assert tree.predict_proba(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("X", [np.zeros((2, 5)), np.zeros((2, 1)), [], [[]]])
    def test_feature_count_mismatch_rejected(self, X):
        tree = DecisionTreeClassifier().fit(np.eye(3), [0, 1, 2])
        with pytest.raises(ValueError, match="3"):
            tree.predict(X)
        with pytest.raises(ValueError, match="3"):
            tree.predict_proba(X)

    def test_nan_training_features_never_split_at_nan(self):
        # NaN sorts last and NaN != NaN; splitting between the last finite
        # value and a NaN gave a NaN threshold, a child equal to its parent
        # and unbounded recursion.
        X = np.array([[0.0], [1.0], [np.nan], [np.nan], [2.0]])
        y = np.array([0, 1, 1, 0, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.isfinite(tree._nodes.threshold[~tree._nodes.is_leaf]).all()
        assert list(tree.predict([[0.0], [1.0], [2.0]])) == [0, 1, 1]
        # NaN rows train and predict on the right of every split.
        assert tree.predict_proba([[np.nan]]).shape == (1, 2)
        assert tree.depth() <= 2

    def test_string_labels_supported(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array(["cold", "cold", "hot", "hot"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert list(tree.predict([[0.5], [10.5]])) == ["cold", "hot"]


@given(
    num_samples=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_unrestricted_tree_fits_training_data(num_samples, seed):
    """With distinct feature values and no depth limit, training accuracy is 1."""
    rng = np.random.default_rng(seed)
    X = rng.permutation(num_samples).reshape(-1, 1).astype(float)
    y = rng.integers(0, 3, size=num_samples)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.score(X, y) == 1.0


FEATURE_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
QUERY_VALUES = st.sampled_from([-2.0, -1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, np.nan])


@st.composite
def tree_problems(draw):
    """A small fit set with tied values and a constant column, labels that
    are ints or strings, tree limits that may leave a single leaf, and a
    query set (possibly empty) with NaN features."""
    num_samples = draw(st.integers(min_value=1, max_value=30))
    num_features = draw(st.integers(min_value=1, max_value=4))
    X = np.array(draw(st.lists(FEATURE_VALUES, min_size=num_samples * num_features,
                               max_size=num_samples * num_features))).reshape(num_samples, -1)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, num_features - 1))] = 0.5
    labels = draw(st.sampled_from([[0, 1, 2], [3, 7], ["cold", "hot", "warm"]]))
    y = np.array(draw(st.lists(st.sampled_from(labels), min_size=num_samples, max_size=num_samples)))
    num_queries = draw(st.integers(min_value=0, max_value=12))
    Q = np.array(draw(st.lists(QUERY_VALUES, min_size=num_queries * num_features,
                               max_size=num_queries * num_features))).reshape(num_queries, num_features)
    params = dict(
        max_depth=draw(st.sampled_from([None, 1, 3])),
        min_samples_split=draw(st.sampled_from([2, 5, 100])),
        max_features=draw(st.sampled_from([None, 1])),
        random_state=draw(st.integers(0, 5)),
    )
    return X, y, Q, params


@given(problem=tree_problems())
@settings(max_examples=150, deadline=None)
def test_vectorized_inference_matches_scalar_walk(problem):
    """Level-synchronous ``predict``/``predict_proba`` equal a per-row walk
    over the same node arrays, bit for bit."""
    X, y, Q, params = problem
    tree = DecisionTreeClassifier(**params).fit(X, y)
    nodes = tree._nodes
    leaves = np.array([scalar_leaf(nodes, row) for row in Q], dtype=np.intp)
    assert np.array_equal(tree.predict(Q), tree.classes_[nodes.prediction[leaves]])
    assert np.array_equal(tree.predict_proba(Q), nodes.proportions[leaves])
    assert tree.num_leaves() == int(nodes.is_leaf.sum()) >= 1
    assert tree.depth() == scalar_depth(nodes)
    assert np.array_equal(nodes.leaves(Q.reshape(-1, X.shape[1]))[0], leaves)


@given(problem=tree_problems())
@settings(max_examples=100, deadline=None)
def test_fixed_depth_walk_matches_compaction_walk(problem):
    """The fixed-depth walk over self-looping leaves lands every lane where
    the compaction walk does: NaN features, single-leaf trees and all."""
    X, y, Q, params = problem
    nodes = DecisionTreeClassifier(**params).fit(X, y)._nodes
    Q = Q.reshape(-1, X.shape[1])
    assert np.array_equal(nodes.leaves(Q), compaction_leaves(nodes, Q))
    # Leaves loop back to themselves whichever way a row compares.
    leaf = np.flatnonzero(nodes.is_leaf)
    assert np.array_equal(nodes.child[2 * leaf], leaf)
    assert np.array_equal(nodes.child[2 * leaf + 1], leaf)
    assert np.isposinf(nodes.threshold[leaf]).all()


def test_single_leaf_tree_walks_no_level():
    tree = DecisionTreeClassifier().fit([[1.0], [2.0]], [4, 4])
    assert tree.depth() == 0 and tree.num_leaves() == 1
    Q = np.array([[0.0], [np.nan], [np.inf], [-np.inf]])
    assert tree._nodes.leaves(Q).tolist() == [[0, 0, 0, 0]]
    assert tree.predict(Q).tolist() == [4, 4, 4, 4]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_queries=st.integers(min_value=0, max_value=25),
)
@settings(max_examples=25, deadline=None)
def test_shared_walk_matches_compaction_walk_across_depths(seed, num_queries):
    """Trees of different depths (single leaves among them) share one
    fixed-depth walk; every lane lands where the compaction walk puts it."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(30, 3)), 1)
    y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0.5)
    Q = np.round(rng.normal(size=(num_queries, 3)), 1)
    Q[rng.random(Q.shape) < 0.15] = np.nan
    # Bootstraps of 30 rows with min_samples_split=12 grow trees from a
    # single leaf to a few levels deep.
    forest = RandomForestClassifier(
        n_estimators=8, min_samples_split=12, random_state=seed
    ).fit(X, y)
    # A single-leaf tree joins the shared array first, so lanes of depth 0
    # ride along with the deepest ones.
    stump = DecisionTreeClassifier().fit(X[:1], y[:1])
    trees = [stump] + forest.estimators_
    nodes = _NodeArrays.concatenate(
        [tree._nodes for tree in trees],
        [np.searchsorted(forest.classes_, tree.classes_) for tree in trees],
        len(forest.classes_),
    )
    depths = [tree.depth() for tree in trees]
    assert depths[0] == 0 < nodes.depth == max(depths)
    assert np.array_equal(nodes.leaves(Q), compaction_leaves(nodes, Q))
    for root, tree_leaves in zip(nodes.roots, nodes.leaves(Q)):
        assert [scalar_leaf(nodes, row, root) for row in Q] == tree_leaves.tolist()
