"""Count-Min Sketch (Cormode & Muthukrishnan, 2005).

The conventional baseline of the paper (``count-min``).  The sketch keeps
``d`` levels of ``w`` counters each; every arrival increments one counter per
level (chosen by that level's random hash function) and a point query returns
the minimum of the ``d`` counters the key maps to, which always
*overestimates* the true count.

With ``w = ceil(e / eps)`` and ``d = ceil(ln(1 / delta))`` the estimate error
is at most ``eps * ||f||_1`` with probability at least ``1 - delta``
(Section 2.1 of the paper).

A conservative-update variant is included as a design-choice ablation: it
only raises the counters that are currently equal to the minimum, which can
only tighten the overestimate while keeping the one-sided error guarantee.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.api.registry import register_estimator
from repro.api.specs import SpecError
from repro.core.storage import STORAGE_SCHEMA, StorageBacked, check_storage_params
from repro.kernels import BACKEND_SCHEMA, KernelDispatch
from repro.sketches.base import (
    BYTES_PER_BUCKET,
    FrequencyEstimator,
    IncompatibleSketchError,
    as_key_batch,
)
from repro.sketches.hashing import (
    UniversalHashFamily,
    hash_functions_equal,
    hash_functions_from_state,
    hash_functions_state,
)
from repro.sketches.serialization import pack, register_sketch, unpack
from repro.streams.stream import Element

__all__ = ["CountMinSketch"]


def require_one_table_size(params: dict) -> None:
    """Width-style specs must fix the table by exactly one of the two knobs."""
    if ("width" in params) == ("total_buckets" in params):
        raise SpecError(
            "specify exactly one of 'width' (buckets per level) or "
            "'total_buckets' (width * depth)"
        )
    check_storage_params(params)


def build_width_sketch(cls, spec, context):
    """Shared builder for the width/depth table sketches (CMS, Count Sketch)."""
    params = dict(spec.params)
    total_buckets = params.pop("total_buckets", None)
    if total_buckets is not None:
        return cls.from_total_buckets(total_buckets, **params)
    return cls(**params)


#: Schema shared by the width/depth table sketches; Count Sketch reuses it
#: minus the conservative-update flag.  The ``storage`` fields make the
#: counter-table backend (dense / shm / mmap) spec-selectable.
WIDTH_SKETCH_SCHEMA = {
    "width": {"type": "int", "min": 1},
    "total_buckets": {"type": "int", "min": 1},
    "depth": {"type": "int", "min": 1},
    "seed": {"type": "int", "nullable": True},
    "conservative": {"type": "bool"},
    "hash_scheme": {"type": "str", "choices": ("universal", "tabulation")},
    **STORAGE_SCHEMA,
    **BACKEND_SCHEMA,
}


@register_estimator(
    "count_min",
    schema=WIDTH_SKETCH_SCHEMA,
    builder=build_width_sketch,
    check=require_one_table_size,
)
@register_sketch("count_min")
class CountMinSketch(KernelDispatch, StorageBacked, FrequencyEstimator):
    """Count-Min Sketch with ``d`` levels of ``w`` buckets.

    Parameters
    ----------
    width:
        Number of buckets per level (``w``).
    depth:
        Number of levels (``d``).
    seed:
        Seed for the random hash functions.
    conservative:
        If True, use conservative update (only counters equal to the current
        minimum are incremented).
    hash_scheme:
        ``"universal"`` (Carter–Wegman, default) or ``"tabulation"``.
    storage:
        Where the counter table lives: ``"dense"`` (process-private NumPy
        array, default), ``"shm"`` (named shared-memory segment other
        processes can attach zero-copy), or ``"mmap"`` (file-backed, crash
        recoverable).  Estimates are bit-identical across backends.
    storage_path:
        Backing file for ``storage="mmap"`` (a temp file when omitted).
    backend:
        Kernel backend executing the hot paths: ``"auto"`` (default; fastest
        available), ``"numpy"``, or ``"native"``.  Both backends are
        bit-identical; see :mod:`repro.kernels`.
    """

    _STORAGE_FIELD = "_table"

    def __init__(
        self,
        width: int,
        depth: int = 1,
        seed: Optional[int] = None,
        conservative: bool = False,
        hash_scheme: str = "universal",
        storage: str = "dense",
        storage_path: Optional[str] = None,
        backend: str = "auto",
    ) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.width = width
        self.depth = depth
        self.conservative = conservative
        self.seed = seed
        self.hash_scheme = hash_scheme
        self._init_storage((depth, width), np.int64, storage, storage_path)
        family = UniversalHashFamily(width, seed=seed, scheme=hash_scheme)
        self._hashes = family.draw(depth)
        self._init_kernels(backend)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_error_guarantee(
        cls, epsilon: float, delta: float, seed: Optional[int] = None
    ) -> "CountMinSketch":
        """Size the sketch so that ``P(|f̃ - f| > eps*||f||_1) <= delta``."""
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=max(depth, 1), seed=seed)

    @classmethod
    def from_total_buckets(
        cls, total_buckets: int, depth: int = 1, seed: Optional[int] = None, **kwargs
    ) -> "CountMinSketch":
        """Build a sketch with ``total_buckets = width * depth`` counters.

        This is the constructor the error-vs-size experiments use: the memory
        budget fixes the total number of buckets and the depth is a tunable
        hyperparameter.
        """
        if total_buckets < depth:
            raise ValueError("total_buckets must be at least depth")
        width = total_buckets // depth
        return cls(width=width, depth=depth, seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # FrequencyEstimator interface
    # ------------------------------------------------------------------
    def update(self, element: Element) -> None:
        key_batch, ones = self._scalar_batch(element.key)
        self._ingest(key_batch, ones)

    def estimate(self, element: Element) -> float:
        return float(self.estimate_batch([element.key])[0])

    # ------------------------------------------------------------------
    # vectorized batch path (runs on the configured kernel backend)
    # ------------------------------------------------------------------
    def _ingest(self, key_batch, count_array) -> None:
        """Ingest ``counts[i]`` arrivals of ``keys[i]``, all at once.

        The plain variant is order-independent; conservative update reads
        the counters it is about to raise, so every backend replays its
        min/max counter logic in arrival order to stay bit-identical.
        """
        if len(key_batch) == 0:
            return
        self._kernel.cms_ingest(
            self._table, self._plan, key_batch, count_array, self.conservative
        )

    def estimate_batch(self, keys) -> np.ndarray:
        """Vectorized point queries: min over levels of the gathered counters."""
        key_batch, _ = as_key_batch(keys)
        if len(key_batch) == 0:
            return np.zeros(0, dtype=np.float64)
        return self._kernel.cms_query(self._table, self._plan, key_batch)

    @property
    def size_bytes(self) -> int:
        return BYTES_PER_BUCKET * self.width * self.depth

    @property
    def total_buckets(self) -> int:
        return self.width * self.depth

    def counters(self) -> np.ndarray:
        """Return a copy of the counter table (for inspection/testing)."""
        return self._table.copy()

    def _describe_params(self) -> dict:
        params = {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "conservative": self.conservative,
            "hash_scheme": self.hash_scheme,
        }
        # storage_path is deliberately omitted: a twin rebuilt from these
        # params must not clobber (or share) this sketch's backing file.
        if self.storage_backend != "dense":
            params["storage"] = self.storage_backend
        params.update(self._backend_describe_params())
        return params

    # ------------------------------------------------------------------
    # merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Add another CMS's counters into this one, level by level.

        Count-Min is a linear sketch: the plain variant's merged table is
        *bit-identical* to ingesting the concatenated streams into a single
        sketch, because each counter is just a sum of its arrivals.

        Conservative update is not linear — which counters an arrival raises
        depends on the counter values at that moment, so splitting a stream
        across sketches changes the trajectories.  Summing the tables is
        still sound: each table upper-bounds the counts of its own substream,
        so the sum upper-bounds the whole stream and the one-sided
        (overestimate-only) guarantee survives.  The merged estimates are
        merely allowed to be larger than what single-sketch conservative
        ingestion would have produced.
        """
        if not isinstance(other, CountMinSketch):
            raise IncompatibleSketchError(
                f"cannot merge CountMinSketch with {type(other).__name__}"
            )
        if (self.width, self.depth, self.conservative) != (
            other.width,
            other.depth,
            other.conservative,
        ):
            raise IncompatibleSketchError(
                f"shape/variant mismatch: ({self.width}, {self.depth}, "
                f"conservative={self.conservative}) vs ({other.width}, "
                f"{other.depth}, conservative={other.conservative})"
            )
        if not hash_functions_equal(self._hashes, other._hashes):
            raise IncompatibleSketchError(
                "hash functions differ (sketches must be built from the same "
                "seed and hash scheme to be mergeable)"
            )
        self._table += other._table
        return self

    def to_bytes(self, *, live: bool = False) -> bytes:
        """Serialize; ``live=True`` (mmap only) records the file path instead
        of embedding the table — an O(1) zero-copy snapshot."""
        hash_states, arrays = hash_functions_state(self._hashes)
        state = {
            "width": self.width,
            "depth": self.depth,
            "conservative": self.conservative,
            "seed": self.seed,
            "hash_scheme": self.hash_scheme,
            "hashes": hash_states,
        }
        state.update(self._backend_serial_state())
        state.update(self._storage_serial_state(live))
        if not live:
            arrays["table"] = self._table
        return pack("count_min", state, arrays)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        storage: Optional[str] = None,
        storage_path: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> "CountMinSketch":
        """Rehydrate; ``storage=`` loads the buffer onto a different storage
        backend than the one it was serialized from, and ``backend=``
        overrides the serialized kernel-backend choice (bit-identical either
        way).  A serialized compiled-backend choice that is unavailable here
        degrades to NumPy with a ``RuntimeWarning`` instead of failing."""
        _, state, arrays = unpack(data, expect_tag="count_min")
        sketch = cls.__new__(cls)
        sketch.width = int(state["width"])
        sketch.depth = int(state["depth"])
        sketch.conservative = bool(state["conservative"])
        sketch.seed = state.get("seed")
        sketch.hash_scheme = state.get("hash_scheme", "universal")
        sketch._restore_storage(
            state,
            arrays.get("table"),
            (sketch.depth, sketch.width),
            np.int64,
            storage=storage,
            storage_path=storage_path,
        )
        sketch._hashes = hash_functions_from_state(state["hashes"], arrays)
        requested = backend if backend is not None else state.get("backend", "auto")
        sketch._init_kernels(requested, on_unavailable="fallback")
        return sketch
