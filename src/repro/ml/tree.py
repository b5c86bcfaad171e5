"""CART decision-tree classifier.

The tree-based classifier of the paper's Experiment 5 (``cart``) and the
base learner of the random forest.  Splits minimize weighted Gini impurity;
the hyperparameters the paper tunes — ``max_depth`` and
``min_impurity_decrease`` — are supported, along with ``max_features`` used
by the forest for per-split feature subsampling.

The split search is vectorized per feature: candidate thresholds are the
midpoints between consecutive sorted values, and class-count prefix sums give
the impurity of every candidate split in one pass.

Inference runs on flat arrays.  A fitted tree is stored as parallel per-node
arrays in preorder (left subtree before right): split feature, threshold,
both children in one flat array, an is-leaf flag, the majority class and the
class proportions ``counts / counts.sum()``, computed once at fit, along with
the tree's depth.  :meth:`_NodeArrays.leaves` sends every row down together,
one level per step, with a handful of NumPy gathers per level instead of a
Python walk per row; a NaN feature fails ``<=`` and goes right.  Leaves loop
back to themselves, so every lane takes the same fixed number of steps and
each step works on whole arrays.  The random forest stores all its
trees in one such array and runs the same traversal over every (tree, row)
lane at once.  The cost is a fixed NumPy overhead per level, so a single row
predicts slower than a scalar walk would (tens of microseconds); the
library's query paths predict unseen elements in batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.ml.base import Classifier, as_2d_array, check_fitted
from repro.ml.preprocessing import LabelEncoder

__all__ = ["DecisionTreeClassifier", "gini_impurity"]


def gini_impurity(class_counts: np.ndarray) -> float:
    """Gini impurity of a node given its per-class counts."""
    total = class_counts.sum()
    if total == 0:
        return 0.0
    proportions = class_counts / total
    return float(1.0 - np.sum(proportions**2))


#: Child and feature index of a leaf in the node records of a fit.
_LEAF = -1


@dataclass(frozen=True)
class _NodeArrays:
    """Parallel per-node arrays of one or more fitted trees.

    Row ``x`` at node ``i`` moves to ``child[2*i + (x[feature[i]] <=
    threshold[i])]``: slot ``2*i + 1`` holds the left child and ``2*i`` the
    right one, so a NaN feature, which fails ``<=``, goes right.  A leaf is a
    self-loop on feature 0 with threshold ``+inf``, so ``depth`` steps (the
    deepest leaf of any tree) bring every lane to its leaf.  ``roots`` holds
    one root index per tree; ``prediction`` and ``proportions`` hold each
    node's majority class and class proportions.
    """

    num_features: int
    depth: int
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    is_leaf: np.ndarray
    prediction: np.ndarray
    proportions: np.ndarray

    @classmethod
    def from_preorder(cls, nodes: List[list], num_features: int) -> "_NodeArrays":
        """One tree from ``[feature, threshold, left, right, class_counts]``
        node records listed in preorder (the root first; a leaf has feature,
        left and right ``_LEAF``)."""
        feature, threshold, left, right, counts = zip(*nodes)
        counts = np.array(counts)
        totals = counts.sum(axis=1, keepdims=True)
        # A split whose threshold sends every row one way (a midpoint that
        # rounds onto a neighbouring value) leaves an empty, unreachable
        # child; it gets uniform proportions.
        uniform = np.full_like(counts, 1.0 / counts.shape[1])
        feature = np.array(feature, dtype=np.intp)
        is_leaf = feature == _LEAF
        itself = np.arange(len(nodes), dtype=np.intp)
        child = np.empty(2 * len(nodes), dtype=np.intp)
        child[0::2] = np.where(is_leaf, itself, right)
        child[1::2] = np.where(is_leaf, itself, left)
        # Preorder lists every parent before its children.
        depths = [0] * len(nodes)
        for node, (low, high) in enumerate(zip(left, right)):
            if low != _LEAF:
                depths[low] = depths[high] = depths[node] + 1
        return cls(
            num_features=num_features,
            depth=max(depths),
            roots=np.zeros(1, dtype=np.intp),
            feature=np.where(is_leaf, 0, feature),
            threshold=np.where(is_leaf, np.inf, np.array(threshold, dtype=float)),
            child=child,
            is_leaf=is_leaf,
            prediction=counts.argmax(axis=1),
            proportions=np.divide(counts, totals, out=uniform, where=totals > 0),
        )

    @classmethod
    def concatenate(
        cls, trees: Sequence["_NodeArrays"], columns: Sequence[np.ndarray], num_classes: int
    ) -> "_NodeArrays":
        """Many single-root trees as one array in a shared ``num_classes``
        label space: tree ``t``'s class ``j`` becomes class ``columns[t][j]``,
        and classes a tree never saw get proportion 0."""
        sizes = [len(tree.feature) for tree in trees]
        roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        proportions = np.zeros((sum(sizes), num_classes))
        for root, size, tree, tree_columns in zip(roots, sizes, trees, columns):
            proportions[root : root + size, tree_columns] = tree.proportions
        return cls(
            num_features=trees[0].num_features,
            depth=max(tree.depth for tree in trees),
            roots=roots,
            feature=np.concatenate([tree.feature for tree in trees]),
            threshold=np.concatenate([tree.threshold for tree in trees]),
            child=np.concatenate([tree.child + root for root, tree in zip(roots, trees)]),
            is_leaf=np.concatenate([tree.is_leaf for tree in trees]),
            prediction=np.concatenate(
                [tree_columns[tree.prediction] for tree, tree_columns in zip(trees, columns)]
            ),
            proportions=proportions,
        )

    def leaves(self, X) -> np.ndarray:
        """Leaf reached by every (tree, row) lane, shape ``(trees, rows)``.

        All lanes descend together, one tree level per step, for ``depth``
        steps; a lane that reaches a leaf early stays on it.  There is no
        early exit: on depth-12 and depth-13 trees, checking after each step
        whether every lane had arrived cost more than the steps it saved.
        """
        X = as_2d_array(X)
        num_rows, width = X.shape
        if width != self.num_features:
            raise ValueError(
                f"X has {width} features, but the model was fit on {self.num_features}"
            )
        values = X.ravel()
        node = np.repeat(self.roots, num_rows)
        row_start = np.tile(np.arange(num_rows, dtype=np.intp) * width, len(self.roots))
        for _ in range(self.depth):
            go_left = values[row_start + self.feature[node]] <= self.threshold[node]
            node = self.child[2 * node + go_left]
        return node.reshape(len(self.roots), num_rows)


class DecisionTreeClassifier(Classifier):
    """CART classifier with Gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_impurity_decrease:
        Minimum weighted impurity decrease required to accept a split.
    max_features:
        Number of features examined per split: an int, a float fraction,
        ``"sqrt"``, ``"log2"``, or ``None`` for all features.
    random_state:
        Seed controlling feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        max_features: Union[None, int, float, str] = None,
        random_state: Optional[int] = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: Optional[_NodeArrays] = None
        self._label_encoder: Optional[LabelEncoder] = None
        self._num_features: Optional[int] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = as_2d_array(X)
        self._label_encoder = LabelEncoder().fit(y)
        encoded = self._label_encoder.transform(y)
        self._num_classes = len(self._label_encoder.classes_)
        self._num_features = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._num_training_samples = X.shape[0]
        self._importances = np.zeros(self._num_features)
        nodes: List[list] = []
        self._build(X, encoded, 0, nodes)
        self._nodes = _NodeArrays.from_preorder(nodes, self._num_features)
        total = self._importances.sum()
        self._importances = (
            self._importances / total if total > 0 else self._importances
        )
        return self

    def _resolve_max_features(self) -> int:
        total = self._num_features
        value = self.max_features
        if value is None:
            return total
        if value == "sqrt":
            return max(1, int(np.sqrt(total)))
        if value == "log2":
            return max(1, int(np.log2(total))) if total > 1 else 1
        if isinstance(value, float):
            return max(1, int(round(value * total)))
        if isinstance(value, int):
            return max(1, min(value, total))
        raise ValueError(f"invalid max_features: {value!r}")

    def _class_counts(self, encoded_labels: np.ndarray) -> np.ndarray:
        return np.bincount(encoded_labels, minlength=self._num_classes).astype(float)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: List[list]) -> int:
        """Append the subtree for ``(X, y)`` to ``nodes`` in preorder and
        return the index of its root."""
        counts = self._class_counts(y)
        index = len(nodes)
        nodes.append([_LEAF, 0.0, _LEAF, _LEAF, counts])
        num_samples = len(y)

        if (
            num_samples < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == num_samples  # pure node
        ):
            return index

        split = self._best_split(X, y, counts)
        if split is None:
            return index
        feature, threshold, impurity_decrease = split
        if impurity_decrease < self.min_impurity_decrease:
            return index

        mask = X[:, feature] <= threshold
        nodes[index][:2] = feature, threshold
        # Importance: impurity decrease weighted by the fraction of training
        # samples reaching this node (the standard "Gini importance").
        self._importances[feature] += (
            num_samples / self._num_training_samples
        ) * impurity_decrease
        nodes[index][2] = self._build(X[mask], y[mask], depth + 1, nodes)
        nodes[index][3] = self._build(X[~mask], y[~mask], depth + 1, nodes)
        return index

    def _best_split(self, X: np.ndarray, y: np.ndarray, parent_counts: np.ndarray):
        """Return ``(feature, threshold, impurity_decrease)`` or None."""
        num_samples = len(y)
        parent_impurity = gini_impurity(parent_counts)
        num_candidates = self._resolve_max_features()
        if num_candidates < self._num_features:
            features = self._rng.choice(self._num_features, size=num_candidates, replace=False)
        else:
            features = np.arange(self._num_features)

        best = None
        best_decrease = -np.inf
        one_hot = np.zeros((num_samples, self._num_classes))
        one_hot[np.arange(num_samples), y] = 1.0

        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            # Candidate split positions: between distinct consecutive values.
            # NaN sorts last and never equals itself; a position whose upper
            # value is NaN would give a NaN threshold that sends every row
            # right, so the child repeats its parent.  NaN rows go right of
            # whatever finite threshold is chosen, as at prediction.
            distinct = (sorted_values[1:] != sorted_values[:-1]) & ~np.isnan(
                sorted_values[1:]
            )
            if not distinct.any():
                continue
            # Prefix class counts after each position (left side of the split).
            left_counts = np.cumsum(one_hot[order], axis=0)[:-1]
            right_counts = parent_counts - left_counts
            left_sizes = np.arange(1, num_samples)
            right_sizes = num_samples - left_sizes

            left_gini = 1.0 - np.sum(
                (left_counts / left_sizes[:, None]) ** 2, axis=1
            )
            right_gini = 1.0 - np.sum(
                (right_counts / right_sizes[:, None]) ** 2, axis=1
            )
            weighted = (left_sizes * left_gini + right_sizes * right_gini) / num_samples
            weighted[~distinct] = np.inf  # cannot split between equal values

            position = int(np.argmin(weighted))
            decrease = parent_impurity - weighted[position]
            # Zero-gain splits are kept (CART's behaviour): they can enable
            # gainful splits deeper down (e.g. XOR-style interactions);
            # ``min_impurity_decrease`` is the knob that prunes them.
            if decrease > best_decrease + 1e-12:
                threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
                best = (int(feature), float(threshold), float(decrease))
                best_decrease = decrease
        return best

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        check_fitted(self, "_nodes")
        leaves = self._nodes.leaves(X)[0]
        return self._label_encoder.inverse_transform(self._nodes.prediction[leaves])

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "_nodes")
        return self._nodes.proportions[self._nodes.leaves(X)[0]]

    @property
    def classes_(self) -> np.ndarray:
        check_fitted(self, "_label_encoder")
        return self._label_encoder.classes_

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized Gini importances of the features (sum to 1 if any split)."""
        check_fitted(self, "_nodes")
        return self._importances.copy()

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""
        check_fitted(self, "_nodes")
        return self._nodes.depth

    def num_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        check_fitted(self, "_nodes")
        return int(self._nodes.is_leaf.sum())
