"""Windowed and time-decayed estimators: a ring of mergeable panes.

The paper's estimators answer "how often has x appeared *ever*?".  A
production service under drifting traffic usually wants "how often has x
appeared *recently*?" — and the mergeable / serializable substrate built
in earlier PRs makes that nearly free:

* :class:`SlidingWindowSketch` keeps a ring of ``num_panes`` sub-sketches
  ("panes") built independently from one inner spec.  Arrivals land in the
  head pane; rotation (every ``pane_items`` weighted arrivals, or on an
  explicit :meth:`~SlidingWindowSketch.tick` in wall-clock mode) advances
  the head and drops the oldest pane in O(1) — no per-counter aging pass.
  Queries answer from the *merge* of the live panes, so for every linear
  base (count_min / count_sketch / ams / exact_counter / opt_hash) the
  window's answer is bit-identical to a fresh sketch fed only the
  in-window arrivals.
* :class:`DecayedSketch` reuses the same ring but weights pane ``age`` by
  ``decay ** age`` at query time — exponential forgetting with no
  full-table rescale anywhere on the hot path.

Both register under the one build/loads name space (kinds
``"sliding_window"`` / ``"decayed"``, described by
:class:`~repro.api.specs.WindowedSpec`), so ``repro.open``, ``restore``,
:class:`~repro.core.sharding.ShardedEstimator` and the streaming service
compose with them unchanged.

Over an opt-hash inner spec the learning phase runs **once** (panes share
the trained scheme, like sharding does) but panes start from *empty*
bucket aggregates rather than the prefix seeding — a window measures only
what arrived inside it, and seeding every pane would replicate the prefix
mass once per live pane in the merge.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.registry import build, register_estimator
from repro.api.specs import (
    EstimatorSpec,
    OptHashSpec,
    SpecError,
    WindowedSpec,
    spec_from_dict,
)
from repro.sketches.base import FrequencyEstimator, IncompatibleSketchError
from repro.sketches.serialization import (
    SerializationError,
    loads,
    pack,
    register_sketch,
    unpack,
)
from repro.streams.stream import Element

__all__ = ["SlidingWindowSketch", "DecayedSketch"]


def _pane_factory(inner: EstimatorSpec, context: Optional[dict]):
    """``(factory, training_result)`` producing merge-compatible panes.

    Plain sketch specs build through the registry.  Opt-hash specs train
    once and share the learned scheme across every pane (rotation must not
    re-run the learning phase), with empty initial frequencies — see the
    module docstring.
    """
    context = context or {}
    if isinstance(inner, OptHashSpec):
        if context.get("prefix") is None:
            raise SpecError(
                f"a windowed spec over kind {inner.kind!r} runs a learning "
                "phase: pass the observed stream prefix, e.g. "
                "build(spec, prefix=prefix)"
            )
        from repro.core.estimator import estimator_from_scheme
        from repro.core.pipeline import train_opt_hash

        training = train_opt_hash(
            context["prefix"], inner, featurizer=context.get("featurizer")
        )
        scheme = training.scheme
        return (lambda: estimator_from_scheme(inner, scheme, {})), training
    return (lambda: build(inner)), None


def _close_estimator(estimator, discard: bool) -> None:
    """Release an estimator's storage backend, tolerating every base kind.

    ``discard=True`` skips the detach-to-dense copy (the object is being
    dropped — a rotated-out pane, a stale merged cache) so owned shm
    segments unlink immediately instead of surviving as dense copies.
    """
    close = getattr(estimator, "close", None)
    if close is None:
        return
    try:
        close(detach=not discard)
    except TypeError:
        close()


def _build_windowed(cls, spec: WindowedSpec, context: dict):
    return cls._from_spec(spec, context)


@register_estimator(
    "sliding_window",
    spec_cls=WindowedSpec,
    builder=_build_windowed,
    seedless=True,
)
@register_sketch("sliding_window")
class SlidingWindowSketch(FrequencyEstimator):
    """Sliding-window estimator over any mergeable inner spec.

    Parameters
    ----------
    inner:
        The pane spec — any mergeable registered kind as an
        :class:`~repro.api.specs.EstimatorSpec` or its JSON-safe dict form
        (randomized kinds need an explicit seed so rotated-in panes stay
        merge-compatible).
    num_panes:
        Ring size ``K >= 2``.  The window covers between ``K-1`` and ``K``
        panes of history (the oldest pane is partially expired on average);
        more panes mean finer expiry granularity at ``K`` times the inner
        state.
    pane_items:
        Rotate automatically every ``pane_items`` *weighted* arrivals
        (count-based windowing; a batch straddling a boundary is split
        exactly).  ``None`` (default) rotates only on explicit
        :meth:`tick` calls — the wall-clock mode where the caller owns the
        timer, as the streaming service does.
    prefix / featurizer:
        Training context, only consulted for opt-hash inner specs.
    """

    def __init__(
        self,
        inner,
        num_panes: int = 8,
        pane_items: Optional[int] = None,
        *,
        prefix=None,
        featurizer=None,
    ) -> None:
        spec = WindowedSpec(spec_from_dict(inner), num_panes, pane_items, None)
        self._init_ring(spec, {"prefix": prefix, "featurizer": featurizer})

    # ------------------------------------------------------------------
    # construction plumbing (shared with DecayedSketch and from_bytes)
    # ------------------------------------------------------------------
    @classmethod
    def _from_spec(cls, spec: WindowedSpec, context: dict):
        if spec.kind != cls.SERIAL_TAG:
            raise SpecError(
                f"{cls.__name__} builds kind {cls.SERIAL_TAG!r}, "
                f"got a {spec.kind!r} spec"
            )
        self = cls.__new__(cls)
        self._init_ring(spec, context)
        return self

    def _init_ring(
        self, spec: WindowedSpec, context: Optional[dict], build_panes: bool = True
    ) -> None:
        self._window_spec = spec
        self.inner_spec = spec.inner
        self.num_panes = spec.num_panes
        self.pane_items = spec.pane_items
        self.decay = spec.decay
        self._factory, self.training_result = _pane_factory(spec.inner, context)
        self._panes = [self._factory() for _ in range(spec.num_panes)] if build_panes else []
        self._head = 0
        self._fill = 0
        self._rotations = 0
        self._pane_arrivals = [0] * spec.num_panes
        self._merged_cache = None
        self._dirty = True
        if self._panes:
            self._feature_routed = bool(
                getattr(self._panes[0], "routes_by_features", False)
            )
        else:
            self._feature_routed = spec.inner.kind == "adaptive_opt_hash"

    @property
    def scheme(self):
        """The shared learned scheme (opt-hash inner only; else ``None``)."""
        training = self.training_result
        return training.scheme if training is not None else None

    @property
    def routes_by_features(self) -> bool:
        """Whether ingestion must see full Elements (adaptive opt-hash)."""
        return self._feature_routed

    @property
    def kernel_backend(self):
        """The kernel backend the panes run on (None for non-kernel inners).

        Panes come from one factory, so the head pane speaks for the ring.
        """
        if not self._panes:
            return None
        return getattr(self._head_pane(), "kernel_backend", None)

    # ------------------------------------------------------------------
    # ring mechanics
    # ------------------------------------------------------------------
    def _head_pane(self):
        return self._panes[self._head]

    def pane_at_age(self, age: int):
        """The live pane ``age`` rotations old (0 = currently filling)."""
        if not 0 <= age < self.num_panes:
            raise IndexError(
                f"pane age must lie in [0, {self.num_panes}), got {age}"
            )
        return self._panes[(self._head - age) % self.num_panes]

    def _rotate(self) -> None:
        """Advance the head; the oldest pane is dropped and rebuilt blank."""
        slot = (self._head + 1) % self.num_panes
        _close_estimator(self._panes[slot], discard=True)
        self._panes[slot] = self._factory()
        self._head = slot
        self._fill = 0
        self._pane_arrivals[slot] = 0
        self._rotations += 1
        self._dirty = True

    def tick(self) -> int:
        """Rotate once (wall-clock windowing); returns the rotation count.

        The caller owns the clock: the streaming service calls this from
        its flush timer, tests call it directly.  Rotation happens whether
        or not the head pane is full.
        """
        self._rotate()
        return self._rotations

    @property
    def rotations(self) -> int:
        """How many panes have been rotated out since construction."""
        return self._rotations

    def window_state(self) -> dict:
        """JSON-safe window introspection (service ``stats`` / metrics).

        ``pane_arrivals`` is ordered youngest first, i.e. indexed by age.
        """
        return {
            "num_panes": self.num_panes,
            "pane_items": self.pane_items,
            "decay": self.decay,
            "rotations": self._rotations,
            "head_fill": self._fill,
            "pane_arrivals": [
                self._pane_arrivals[(self._head - age) % self.num_panes]
                for age in range(self.num_panes)
            ],
        }

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def update(self, element: Element) -> None:
        item = element if self._feature_routed else element.key
        keys, ones = self._scalar_batch(item)
        self._ingest(keys, ones)

    def update_batch(self, keys, counts=None) -> None:
        if not self._feature_routed:
            super().update_batch(keys, counts)
            return
        # Feature-routing panes (adaptive opt-hash) must see the Elements
        # themselves; normalize counts here without stripping to raw keys.
        items = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        if counts is None:
            count_array = np.ones(len(items), dtype=np.int64)
        else:
            count_array = np.asarray(counts, dtype=np.int64)
            if count_array.shape != (len(items),):
                raise ValueError("counts must align one-to-one with keys")
            if len(items) and count_array.min() < 0:
                raise ValueError("counts must be non-negative")
        self._ingest(items, count_array)

    def _ingest(self, key_batch, count_array: np.ndarray) -> None:
        total = int(count_array.sum())
        if total == 0:
            return
        self._dirty = True
        if self.pane_items is None:
            self._head_pane().update_batch(key_batch, count_array)
            self._fill += total
            self._pane_arrivals[self._head] += total
            return
        # Count-based rotation with exact boundary splitting: a batch is a
        # run of weighted arrivals, and the pane boundary may fall *inside*
        # one key's count.  cumsum + searchsorted find the spanned slice;
        # the end counts are trimmed to the [done, done+take) sub-run.
        cum = np.cumsum(count_array)
        done = 0
        while done < total:
            room = self.pane_items - self._fill
            if room <= 0:
                # A merge can leave the head past pane_items; drain first.
                self._rotate()
                continue
            take = min(room, total - done)
            lo = int(np.searchsorted(cum, done, side="right"))
            hi = int(np.searchsorted(cum, done + take, side="left"))
            counts_slice = np.array(count_array[lo : hi + 1], dtype=np.int64)
            prev = int(cum[lo - 1]) if lo else 0
            counts_slice[0] -= done - prev
            counts_slice[-1] -= int(cum[hi]) - (done + take)
            self._head_pane().update_batch(key_batch[lo : hi + 1], counts_slice)
            self._fill += take
            self._pane_arrivals[self._head] += take
            done += take
            if self._fill >= self.pane_items:
                self._rotate()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _merged_estimator(self):
        """The merge of every live pane (cached until the next mutation).

        Merging at the *state* level before querying is what makes the
        window bit-identical to a rebuild for every linear base — e.g. for
        count-min the estimate is min-of-summed-rows, not sum-of-mins.
        """
        if self._dirty or self._merged_cache is None:
            if self._merged_cache is not None:
                _close_estimator(self._merged_cache, discard=True)
                self._merged_cache = None
            merged = self._factory()
            for age in range(self.num_panes - 1, -1, -1):
                merged.merge(self.pane_at_age(age))
            self._merged_cache = merged
            self._dirty = False
        return self._merged_cache

    def _query_target(self, method: str):
        target = self._merged_estimator()
        bound = getattr(target, method, None)
        if bound is None:
            raise TypeError(
                f"inner kind {self.inner_spec.kind!r} does not support "
                f"{method}(); query it through its native API"
            )
        return bound

    def estimate(self, element: Element) -> float:
        return float(self._query_target("estimate")(element))

    def estimate_batch(self, keys) -> np.ndarray:
        return self._query_target("estimate_batch")(keys)

    def estimate_second_moment(self) -> float:
        """In-window second moment (AMS inner specs)."""
        return float(self._query_target("estimate_second_moment")())

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, other: "SlidingWindowSketch") -> "SlidingWindowSketch":
        """Pane-aligned merge: age-``a`` panes of both rings are merged.

        Requires identical window configuration *and* rotation count —
        pane ``a`` of both sketches must cover the same window slice for
        the merged ring to mean anything.  Afterwards this sketch answers
        as if it had also ingested the other's in-window arrivals.
        """
        if type(other) is not type(self):
            raise IncompatibleSketchError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if (
            self.num_panes != other.num_panes
            or self.pane_items != other.pane_items
            or self.decay != other.decay
            or self.inner_spec.to_dict() != other.inner_spec.to_dict()
        ):
            raise IncompatibleSketchError(
                "window configurations differ: merged windowed sketches "
                "must share num_panes, pane_items, decay and the inner spec"
            )
        if self._rotations != other._rotations:
            raise IncompatibleSketchError(
                f"pane alignment differs: {self._rotations} vs "
                f"{other._rotations} rotations — age-a panes would cover "
                "different window slices"
            )
        for age in range(self.num_panes):
            self.pane_at_age(age).merge(other.pane_at_age(age))
        self._fill += other._fill
        for age in range(self.num_panes):
            slot = (self._head - age) % self.num_panes
            other_slot = (other._head - age) % other.num_panes
            self._pane_arrivals[slot] += other._pane_arrivals[other_slot]
        self._dirty = True
        return self

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        state = {
            "spec": self._window_spec.to_dict(),
            "head": self._head,
            "fill": self._fill,
            "rotations": self._rotations,
            "pane_arrivals": list(self._pane_arrivals),
        }
        arrays = {}
        for index, pane in enumerate(self._panes):
            to_bytes = getattr(pane, "to_bytes", None)
            if to_bytes is None:
                raise SerializationError(
                    f"inner kind {self.inner_spec.kind!r} has no binary "
                    "serialization; the windowed wrapper cannot snapshot it"
                )
            arrays[f"pane_{index}"] = np.frombuffer(to_bytes(), dtype=np.uint8)
        return pack(type(self).SERIAL_TAG, state, arrays)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlidingWindowSketch":
        _, state, arrays = unpack(data, expect_tag=cls.SERIAL_TAG)
        spec_dict = state.get("spec")
        if not isinstance(spec_dict, dict):
            raise SerializationError("windowed buffer is missing its spec")
        try:
            spec = spec_from_dict(spec_dict)
        except SpecError as error:
            raise SerializationError(
                f"windowed buffer holds an invalid spec: {error}"
            ) from error
        if not isinstance(spec, WindowedSpec) or spec.kind != cls.SERIAL_TAG:
            raise SerializationError(
                f"windowed buffer spec has kind "
                f"{getattr(spec, 'kind', None)!r}, expected {cls.SERIAL_TAG!r}"
            )
        self = cls.__new__(cls)
        self._init_ring(spec, {}, build_panes=False)
        panes = []
        for index in range(spec.num_panes):
            blob = arrays.get(f"pane_{index}")
            if blob is None:
                raise SerializationError(
                    f"windowed buffer is missing pane {index} of "
                    f"{spec.num_panes}"
                )
            panes.append(loads(blob.tobytes(), expect_kind=spec.inner.kind))
        self._panes = panes
        self._head = int(state.get("head", 0)) % spec.num_panes
        self._fill = int(state.get("fill", 0))
        self._rotations = int(state.get("rotations", 0))
        stored = state.get("pane_arrivals")
        if isinstance(stored, list) and len(stored) == spec.num_panes:
            self._pane_arrivals = [int(value) for value in stored]
        return self

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return int(sum(int(pane.size_bytes) for pane in self._panes))

    def _describe_params(self) -> dict:
        params = {
            "inner": self.inner_spec.to_dict(),
            "num_panes": self.num_panes,
        }
        if self.pane_items is not None:
            params["pane_items"] = self.pane_items
        if self.decay is not None:
            params["decay"] = self.decay
        return params

    def close(self) -> None:
        """Release pane storage backends (panes stay queryable, detached)."""
        for pane in self._panes:
            _close_estimator(pane, discard=False)
        if self._merged_cache is not None:
            _close_estimator(self._merged_cache, discard=True)
            self._merged_cache = None
            self._dirty = True


@register_estimator(
    "decayed",
    spec_cls=WindowedSpec,
    builder=_build_windowed,
    seedless=True,
)
@register_sketch("decayed")
class DecayedSketch(SlidingWindowSketch):
    """Exponentially time-decayed estimator on the sliding-window ring.

    A query answers ``sum_age decay**age * estimate_age(key)`` over the
    live panes — each rotation implicitly multiplies all existing mass by
    ``decay`` without touching a single counter.  Combining per-pane
    *estimates* (instead of merging state) keeps every pane's own error
    guarantee: for count-min each term overestimates, so the decayed
    answer still never underestimates the decayed count.

    Mass older than ``num_panes`` rotations leaves the ring entirely, so
    the ring size bounds the decay horizon: choose ``num_panes`` with
    ``decay ** num_panes`` below the error you care about.
    """

    def __init__(
        self,
        inner,
        num_panes: int = 8,
        decay: float = 0.5,
        pane_items: Optional[int] = None,
        *,
        prefix=None,
        featurizer=None,
    ) -> None:
        spec = WindowedSpec(spec_from_dict(inner), num_panes, pane_items, decay)
        self._init_ring(spec, {"prefix": prefix, "featurizer": featurizer})

    def estimate(self, element: Element) -> float:
        total = 0.0
        for age in range(self.num_panes):
            pane = self.pane_at_age(age)
            estimate = getattr(pane, "estimate", None)
            if estimate is None:
                raise TypeError(
                    f"inner kind {self.inner_spec.kind!r} does not support "
                    "estimate(); query it through its native API"
                )
            total += (self.decay ** age) * float(estimate(element))
        return total

    def estimate_batch(self, keys) -> np.ndarray:
        items = keys if isinstance(keys, np.ndarray) else list(keys)
        out: Optional[np.ndarray] = None
        for age in range(self.num_panes):
            pane = self.pane_at_age(age)
            estimate_batch = getattr(pane, "estimate_batch", None)
            if estimate_batch is None:
                raise TypeError(
                    f"inner kind {self.inner_spec.kind!r} does not support "
                    "estimate_batch(); query it through its native API"
                )
            values = np.asarray(estimate_batch(items), dtype=np.float64)
            if out is None:
                out = (self.decay ** age) * values
            else:
                out += (self.decay ** age) * values
        assert out is not None
        return out

    def estimate_second_moment(self) -> float:
        raise TypeError(
            "second moments do not decompose over decay-weighted panes; "
            "use a sliding_window spec for windowed second moments"
        )
