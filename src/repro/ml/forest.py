"""Random forest classifier (Breiman, 2001).

The ensemble classifier of the paper's Experiment 5 (``rf``) and the model
the real-data experiments settle on for mapping unseen queries to buckets.
Each tree is grown on a bootstrap sample with per-split feature subsampling
(the "maximum number of features in each split" hyperparameter the paper
tunes); prediction averages the per-tree class probabilities.

Inference runs on flat arrays.  After fitting, every tree's nodes are
concatenated into one :class:`~repro.ml.tree._NodeArrays` whose leaf class
proportions already sit in the forest's label space (zero for classes a
tree's bootstrap missed), so no per-tree column realignment happens at
predict time.  One level-synchronous traversal advances all (tree, row)
lanes together; the per-tree proportions are then summed in tree order and
divided by ``n_estimators``, the same additions as a per-tree loop (a missed
class adds ``+0.0``), so probabilities are bit-identical to it.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.ml.base import Classifier, as_2d_array, check_fitted
from repro.ml.preprocessing import LabelEncoder
from repro.ml.tree import DecisionTreeClassifier, _NodeArrays

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(Classifier):
    """Bagged ensemble of CART trees with feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_impurity_decrease, max_features:
        Passed through to each :class:`DecisionTreeClassifier`;
        ``max_features`` defaults to ``"sqrt"`` as is conventional.
    bootstrap:
        Whether each tree sees a bootstrap resample of the training data.
    random_state:
        Seed controlling bootstraps and per-tree feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        max_features: Union[None, int, float, str] = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._trees: Optional[List[DecisionTreeClassifier]] = None
        self._label_encoder: Optional[LabelEncoder] = None
        self._nodes: Optional[_NodeArrays] = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X = as_2d_array(X)
        self._label_encoder = LabelEncoder().fit(y)
        encoded = self._label_encoder.transform(y)
        num_samples = X.shape[0]
        rng = np.random.default_rng(self.random_state)

        trees: List[DecisionTreeClassifier] = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_impurity_decrease=self.min_impurity_decrease,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31)),
            )
            if self.bootstrap:
                indices = rng.integers(0, num_samples, size=num_samples)
            else:
                indices = np.arange(num_samples)
            tree.fit(X[indices], encoded[indices])
            trees.append(tree)
        self._trees = trees
        self._nodes = _NodeArrays.concatenate(
            [tree._nodes for tree in trees],
            [tree.classes_ for tree in trees],
            len(self._label_encoder.classes_),
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "_nodes")
        proportions = self._nodes.proportions
        leaves = self._nodes.leaves(X)
        aggregate = np.zeros((leaves.shape[1], proportions.shape[1]))
        for tree_leaves in leaves:
            aggregate += proportions[tree_leaves]
        return aggregate / self.n_estimators

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self._label_encoder.inverse_transform(proba.argmax(axis=1))

    @property
    def classes_(self) -> np.ndarray:
        check_fitted(self, "_label_encoder")
        return self._label_encoder.classes_

    @property
    def estimators_(self) -> List[DecisionTreeClassifier]:
        """The fitted trees."""
        check_fitted(self, "_trees")
        return list(self._trees)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean of the per-tree Gini importances (normalized to sum to 1)."""
        check_fitted(self, "_trees")
        stacked = np.vstack([tree.feature_importances_ for tree in self._trees])
        importances = stacked.mean(axis=0)
        total = importances.sum()
        return importances / total if total > 0 else importances
