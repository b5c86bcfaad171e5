"""Query-text featurization (paper Section 7.3).

For the real-data experiments the classifier's input features are built from
the query text with a deliberately simple and interpretable recipe:

* a bag-of-words indicator over the ``K`` most common words in the training
  queries (``K = 500`` in the paper), and
* four count features: number of ASCII characters, number of punctuation
  marks, number of dots, and number of whitespace characters.

:class:`QueryFeaturizer` implements exactly that; it is fit on the prefix
queries and then applied to any query string (seen or unseen).
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["basic_text_counts", "QueryFeaturizer"]

#: ``str.translate`` table deleting every ASCII punctuation mark.
_DELETE_PUNCTUATION = str.maketrans("", "", string.punctuation)
#: Runs of alphanumeric characters: ``\w`` is ``str.isalnum`` plus ``_``.
_WORD = re.compile(r"[^\W_]+")


def basic_text_counts(text: str) -> List[float]:
    """The four count features of Section 7.3.

    Returns ``[ascii_chars, punctuation_marks, dots, whitespaces]``, where
    whitespace is every character ``str.isspace`` accepts.
    """
    length = len(text)
    ascii_chars = length if text.isascii() else len(text.encode("ascii", "ignore"))
    punctuation = length - len(text.translate(_DELETE_PUNCTUATION))
    dots = text.count(".")
    # ``str.split()`` splits on exactly the characters ``str.isspace`` accepts.
    whitespaces = length - sum(map(len, text.split()))
    return [float(ascii_chars), float(punctuation), float(dots), float(whitespaces)]


def _tokenize(text: str) -> List[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _WORD.findall(text.lower())


class QueryFeaturizer:
    """Bag-of-words + count features over query strings.

    Parameters
    ----------
    vocabulary_size:
        Number of most-common training words to keep (500 in the paper).
    binary:
        If True (default), word features are presence indicators; otherwise
        they are occurrence counts within the query.
    """

    def __init__(self, vocabulary_size: int = 500, binary: bool = True) -> None:
        if vocabulary_size < 0:
            raise ValueError("vocabulary_size must be non-negative")
        self.vocabulary_size = vocabulary_size
        self.binary = binary
        self.vocabulary_: Optional[List[str]] = None
        self._word_index = {}

    def fit(self, queries: Iterable[str]) -> "QueryFeaturizer":
        """Learn the vocabulary from training queries."""
        counts: Counter = Counter()
        for query in queries:
            counts.update(_tokenize(query))
        most_common = [word for word, _ in counts.most_common(self.vocabulary_size)]
        self.vocabulary_ = most_common
        self._word_index = {word: i for i, word in enumerate(most_common)}
        return self

    @property
    def num_features(self) -> int:
        """Dimensionality of the produced feature vectors."""
        if self.vocabulary_ is None:
            raise RuntimeError("QueryFeaturizer must be fitted first")
        return len(self.vocabulary_) + 4

    def transform_one(self, query: str) -> np.ndarray:
        """Featurize a single query string."""
        if self.vocabulary_ is None:
            raise RuntimeError("QueryFeaturizer must be fitted first")
        vector = np.zeros(self.num_features)
        for token in _tokenize(query):
            index = self._word_index.get(token)
            if index is not None:
                if self.binary:
                    vector[index] = 1.0
                else:
                    vector[index] += 1.0
        vector[len(self.vocabulary_):] = basic_text_counts(query)
        return vector

    def transform(self, queries: Sequence[str]) -> np.ndarray:
        """Featurize a sequence of queries into an ``(n, p)`` matrix."""
        return np.array([self.transform_one(query) for query in queries])

    def fit_transform(self, queries: Sequence[str]) -> np.ndarray:
        return self.fit(queries).transform(queries)

    def feature_names(self) -> List[str]:
        """Names of all features (words followed by the four counts)."""
        if self.vocabulary_ is None:
            raise RuntimeError("QueryFeaturizer must be fitted first")
        return list(self.vocabulary_) + [
            "num_ascii_chars",
            "num_punctuation",
            "num_dots",
            "num_whitespaces",
        ]
