"""The learned hashing scheme: exact hash table + classifier (paper Section 5).

After the optimization phase every prefix element has an integer hash code
(its bucket).  The scheme that replaces a random hash function therefore has
two parts:

* ``h_S`` — an exact mapping from the IDs of elements seen in the prefix to
  their learned bucket (a plain hash table);
* ``h_U`` — a multi-class classifier over element features that predicts a
  bucket for elements *not* seen in the prefix.

:class:`OptHashScheme` packages the two together with the featurizer used to
turn elements into classifier inputs.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import Classifier
from repro.sketches.base import as_key_batch
from repro.streams.stream import Element

__all__ = ["OptHashScheme", "default_featurizer", "featurize"]


def default_featurizer(element: Element) -> np.ndarray:
    """Use the element's own feature vector as classifier input."""
    return element.feature_array()


def featurize(
    elements: Sequence[Element], featurizer: Callable[[Element], np.ndarray]
) -> np.ndarray:
    """The ``(n, p)`` float matrix of ``featurizer`` over ``elements``, for
    training and unseen-element routing alike.  The default featurizer's
    rows stream into one ``np.fromiter``; rows of unequal length raise."""
    n = len(elements)
    if featurizer is not default_featurizer:
        features = np.array([np.asarray(featurizer(e), dtype=float) for e in elements])
        return features.reshape(n, -1) if features.ndim == 1 else features
    rows = [element.features for element in elements]
    widths = set(map(len, rows)) or {0}
    if len(widths) > 1:
        raise ValueError(f"feature vectors of different lengths {sorted(widths)}")
    width = widths.pop()
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=float, count=n * width)
    return flat.reshape(n, width)


def _sorted_int_index(
    table: Dict[Hashable, int]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(sorted int64 keys, aligned buckets)`` of an all-integer hash table.

    Returns ``None`` unless every stored key is a Python or NumPy integer
    (``bool`` excluded) inside the int64 range: only then does an int64
    equality match mean exactly what ``dict.get`` means.
    """
    if not table:
        return None
    keys = []
    for key in table:
        if not (type(key) is int or isinstance(key, np.integer)):
            return None
        key = int(key)
        if not -(2**63) <= key < 2**63:
            return None
        keys.append(key)
    keys = np.array(keys, dtype=np.int64)
    buckets = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    order = np.argsort(keys)
    return keys[order], buckets[order]


class OptHashScheme:
    """Learned mapping of elements to buckets.

    Parameters
    ----------
    num_buckets:
        Number of buckets ``b`` of the scheme.
    key_to_bucket:
        The exact hash table ``h_S`` for elements seen in the prefix.
    classifier:
        Fitted multi-class classifier ``h_U`` predicting buckets from
        features; ``None`` means unseen elements cannot be routed (they fall
        back to bucket 0).
    featurizer:
        Callable mapping an :class:`Element` to the classifier's input
        vector.  Defaults to the element's own features.
    """

    def __init__(
        self,
        num_buckets: int,
        key_to_bucket: Dict[Hashable, int],
        classifier: Optional[Classifier] = None,
        featurizer: Optional[Callable[[Element], np.ndarray]] = None,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        for key, bucket in key_to_bucket.items():
            if not 0 <= bucket < num_buckets:
                raise ValueError(
                    f"bucket {bucket} of key {key!r} outside [0, {num_buckets})"
                )
        self.num_buckets = num_buckets
        self.key_to_bucket = dict(key_to_bucket)
        # The table is never mutated after construction, so its integer
        # index is built once here.
        self._int_index = _sorted_int_index(self.key_to_bucket)
        self.classifier = classifier
        self.featurizer = featurizer or default_featurizer
        # Classifier predictions are deterministic per key, so they are cached
        # to keep repeated queries (and the adaptive estimator's updates) fast.
        self._prediction_cache: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def is_seen(self, element: Element) -> bool:
        """Was this element part of the training prefix?"""
        return element.key in self.key_to_bucket

    def bucket_of(self, element: Element) -> int:
        """Bucket of an element: hash table if seen, classifier otherwise."""
        bucket = self.key_to_bucket.get(element.key)
        return int(self.predict_buckets([element])[0]) if bucket is None else bucket

    def stored_buckets(self, keys) -> np.ndarray:
        """``h_S`` over a batch of raw keys: ``key_to_bucket.get(key, -1)`` each.

        Returns an int64 array aligned with ``keys`` where ``-1`` means "not
        stored".  Integer arrays (int64 or safely castable to it) over an
        all-integer table resolve with one ``searchsorted`` on the sorted
        stored keys; every other batch or table goes through ``dict.get``.
        """
        index = self._int_index
        if (
            index is not None
            and isinstance(keys, np.ndarray)
            and np.can_cast(keys.dtype, np.int64)
        ):
            sorted_keys, sorted_buckets = index
            # Sorted needles let each binary search start from the previous
            # one's result; in arrival order every search starts over.
            order = np.argsort(keys)
            needles = keys[order].astype(np.int64, copy=False)
            positions = np.searchsorted(sorted_keys, needles)
            np.minimum(positions, len(sorted_keys) - 1, out=positions)
            found = sorted_keys[positions] == needles
            buckets = np.empty(len(keys), dtype=np.int64)
            buckets[order] = np.where(found, sorted_buckets[positions], -1)
            return buckets
        n = len(keys)
        return np.fromiter(
            map(self.key_to_bucket.get, keys, itertools.repeat(-1, n)),
            dtype=np.int64,
            count=n,
        )

    def buckets_batch(self, items) -> np.ndarray:
        """Vectorized :meth:`bucket_of` over a batch of elements or raw keys:
        :meth:`stored_buckets` over every key, then :meth:`predict_buckets`
        over the misses only."""
        items = items if isinstance(items, np.ndarray) else list(items)
        buckets = self.stored_buckets(as_key_batch(items)[0])
        misses = np.flatnonzero(buckets < 0)
        if misses.size:
            array = isinstance(items, np.ndarray)
            missed = items[misses] if array else map(items.__getitem__, misses.tolist())
            buckets[misses] = self.predict_buckets(missed)
        return buckets

    def predict_buckets(self, items) -> np.ndarray:
        """``h_U`` over a batch of elements or raw keys (featureless
        elements), ignoring the hash table; all 0 without a classifier.

        Cached buckets are reused.  One :meth:`precompute` call classifies
        each uncached key from its first occurrence in the batch, as
        one-at-a-time routing would.
        """
        items = items.tolist() if isinstance(items, np.ndarray) else list(items)
        keys = as_key_batch(items)[0]
        if self.classifier is None:
            return np.zeros(len(keys), dtype=np.int64)
        cached = list(map(self._prediction_cache.get, keys))
        if None in cached:
            uncached = list(map(operator.is_, cached, itertools.repeat(None)))
            pending_keys = list(itertools.compress(keys, uncached))
            pending = list(itertools.compress(items, uncached))
            if len(set(pending_keys)) < len(pending):
                # Reversed, so each key's first occurrence is the one kept.
                pending = list(dict(zip(pending_keys[::-1], pending[::-1])).values())
            if not isinstance(pending[0], Element):
                pending = list(map(Element, pending))
            self.precompute(pending)
            cached = map(self._prediction_cache.__getitem__, keys)
        return np.fromiter(cached, dtype=np.int64, count=len(keys))

    def precompute(self, elements: Sequence[Element]) -> None:
        """Classify elements and cache their buckets: one feature matrix, one
        ``classifier.predict`` call and one cache update."""
        if self.classifier is None or len(elements) == 0:
            return
        buckets = self.classifier.predict(featurize(elements, self.featurizer))
        keys = [element.key for element in elements]
        self._prediction_cache.update(zip(keys, np.asarray(buckets, np.int64).tolist()))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_stored_ids(self) -> int:
        """Number of element IDs stored in the exact hash table."""
        return len(self.key_to_bucket)

    def hash_codes(self) -> Dict[Hashable, int]:
        """A copy of the exact hash table (key → bucket)."""
        return dict(self.key_to_bucket)

    def bucket_population(self) -> np.ndarray:
        """Number of stored (prefix) elements per bucket."""
        population = np.zeros(self.num_buckets, dtype=int)
        for bucket in self.key_to_bucket.values():
            population[bucket] += 1
        return population
