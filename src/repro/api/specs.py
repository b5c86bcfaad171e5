"""Declarative estimator specifications.

A spec is a small, validated, JSON-safe description of an estimator
configuration — the single currency that experiments, services and process
shards exchange instead of bespoke constructor calls and closure factories.
Three spec shapes cover every estimator in the library:

* :class:`SketchSpec` — any registered sketch (``count_min``,
  ``count_sketch``, ``bloom``, ``ams``, ``misra_gries``, ``space_saving``,
  ``exact_counter``, ``learned_cms``) with its constructor parameters;
* :class:`OptHashSpec` — the trained opt-hash estimators (``opt_hash`` /
  ``adaptive_opt_hash``), carrying the full learning-phase configuration
  (bucket count, λ, solver and classifier *by name*, tuning, sampling);
* :class:`ShardedSpec` — a sharded estimator wrapping any inner spec with a
  shard layout (count, partition mode, executor, query mode);
* :class:`WindowedSpec` — a temporal wrapper (``sliding_window`` /
  ``decayed``) putting any mergeable inner spec behind a ring of rotating
  panes (see :mod:`repro.temporal`).

Every spec round-trips losslessly through ``to_dict()`` / ``from_dict()``:
the dict is JSON-serializable (``json.dumps(spec.to_dict())`` always works),
``from_dict`` validates strictly, and ``build(from_dict(to_dict(spec)))``
yields an estimator merge-compatible with ``build(spec)``.  Anything
malformed — unknown kind, unknown/missing/ill-typed parameters, values that
cannot survive JSON — raises :class:`SpecError` (a ``ValueError``), never a
bare ``KeyError``/``TypeError`` from deep inside a constructor.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "SpecError",
    "EstimatorSpec",
    "SketchSpec",
    "OptHashSpec",
    "ShardedSpec",
    "WindowedSpec",
    "spec_from_dict",
    "iter_spec_grid",
]


# Canonical definition lives in repro.errors (common ReproError base);
# this module remains its permanent public import path.
from repro.errors import SpecError  # noqa: E402


def _ensure_json_safe(value: Any, path: str) -> Any:
    """Verify ``value`` survives a JSON round-trip; coerce NumPy scalars.

    Returns the (possibly coerced) value so specs built from NumPy ints /
    floats serialize identically to ones built from plain Python scalars.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    # NumPy scalars present as neither int nor float above on some versions;
    # an .item() duck-check converts them without importing numpy here.
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        try:
            return _ensure_json_safe(value.item(), path)
        except (AttributeError, ValueError):
            pass
    if isinstance(value, (list, tuple)):
        return [
            _ensure_json_safe(item, f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecError(
                    f"{path}: mapping keys must be strings, got {key!r}"
                )
            out[key] = _ensure_json_safe(item, f"{path}.{key}")
        return out
    raise SpecError(
        f"{path}: value {value!r} of type {type(value).__name__} is not "
        "JSON-serializable (use int, float, str, bool, None, list or dict)"
    )


class EstimatorSpec:
    """Base class of all estimator specs.

    Subclasses expose a ``kind`` (the registry name, which is also the
    serialization tag of the built estimator), validate on construction, and
    round-trip through :meth:`to_dict` / :func:`spec_from_dict`.
    """

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def validate(self) -> "EstimatorSpec":
        """Re-run validation (a no-op for specs validated at construction)."""
        return self

    def to_json(self) -> str:
        """The spec as a compact JSON string (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def build(self, **context):
        """Shortcut for :func:`repro.api.build` on this spec."""
        from repro.api.registry import build

        return self.build_with(build, **context)

    def build_with(self, builder, **context):
        return builder(self, **context)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EstimatorSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.to_json())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{key}={value!r}"
            for key, value in self.to_dict().items()
            if key != "kind"
        )
        return f"{type(self).__name__}({self.kind!r}, {body})"


class SketchSpec(EstimatorSpec):
    """Spec of a registered sketch: a kind name plus constructor parameters.

    >>> SketchSpec("count_min", total_buckets=8192, depth=2, seed=1)
    >>> SketchSpec("bloom", num_bits=4096, num_hashes=3, seed=7)

    Parameters are validated against the schema the estimator class declared
    when it registered (unknown names, missing required names, type and
    range violations all raise :class:`SpecError`).
    """

    def __init__(self, kind: str, **params: Any) -> None:
        if not isinstance(kind, str) or not kind:
            raise SpecError(f"kind must be a non-empty string, got {kind!r}")
        self._kind = kind
        self.params = {
            name: _ensure_json_safe(value, f"{kind}.{name}")
            for name, value in params.items()
        }
        self.validate()

    @property
    def kind(self) -> str:
        return self._kind

    def validate(self) -> "SketchSpec":
        from repro.api.registry import validate_spec_params

        validate_spec_params(self._kind, self.params)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self._kind, **self.params}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SketchSpec":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind is None:
            raise SpecError("spec dict is missing its 'kind' entry")
        return cls(kind, **data)


# Fields of :class:`OptHashSpec` as (name, default); documented on the class.
# ``adaptive`` is implied by the kind name.
_OPT_HASH_FIELDS: Tuple[Tuple[str, Any], ...] = (
    ("num_buckets", 10),
    ("lam", 1.0),
    ("solver", "bcd"),
    ("solver_options", None),
    ("classifier", "cart"),
    ("classifier_options", None),
    ("tune_classifier", False),
    ("tuning_grid", None),
    ("tuning_folds", 10),
    ("max_stored_elements", None),
    ("sample_proportional_to_frequency", True),
    ("bloom_bits", None),
    ("expected_distinct", 10_000),
    ("seed", None),
    ("backend", "auto"),
)

_SOLVERS = ("bcd", "dp", "milp")
_CLASSIFIERS = ("cart", "logreg", "rf")


class OptHashSpec(EstimatorSpec):
    """Spec of the paper's opt-hash estimator (learning phase + streaming).

    ``build`` / ``open`` on this spec require a training ``prefix`` (and
    optionally a ``featurizer``), since the estimator's hash table and
    classifier are learned from observed data.  The spec is also what
    :func:`repro.core.pipeline.train_opt_hash` takes.  Every field is
    validated at construction.

    Parameters
    ----------
    adaptive:
        If True, build the Bloom-filter extension of Section 5.3 (kind
        ``adaptive_opt_hash``) instead of the static estimator.
    num_buckets:
        Number of buckets ``b`` of the learned scheme.
    lam:
        Trade-off λ in ``[0, 1]`` between estimation and similarity errors.
    solver:
        ``"bcd"``, ``"dp"`` or ``"milp"``.
    solver_options:
        Extra keyword arguments for the solver.
    classifier:
        Name of the classifier for unseen elements (``"cart"``, ``"logreg"``,
        ``"rf"``) or ``None`` to disable it (unseen elements then fall back
        to bucket 0).
    classifier_options:
        Keyword arguments for the classifier constructor.
    tune_classifier / tuning_grid / tuning_folds:
        Optional k-fold cross-validated grid search over classifier
        hyperparameters (10 folds in the paper).  ``tuning_grid`` maps
        parameter names to non-empty lists of values; ``None`` uses the
        grids of Section 6.2.
    max_stored_elements:
        Cap on the number of prefix elements whose IDs are stored (``n``);
        ``None`` stores all of them.
    sample_proportional_to_frequency:
        Sampling rule used when the cap binds.
    bloom_bits / expected_distinct:
        Bloom filter sizing for the adaptive estimator.
    seed:
        Seed for all stochastic steps.
    backend:
        Kernel backend for the adaptive estimator's Bloom filter hot paths
        (see :mod:`repro.kernels`); the static estimator has no array hot
        path and ignores it.
    """

    def __init__(self, adaptive: bool = False, **params: Any) -> None:
        known = dict(_OPT_HASH_FIELDS)
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise SpecError(
                f"unknown opt-hash parameter(s) {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        self.adaptive = bool(adaptive)
        for name, default in _OPT_HASH_FIELDS:
            value = params.get(name, default)
            setattr(self, name, _ensure_json_safe(value, f"{self.kind}.{name}"))
        self.validate()

    @property
    def kind(self) -> str:
        return "adaptive_opt_hash" if self.adaptive else "opt_hash"

    def validate(self) -> "OptHashSpec":
        if not isinstance(self.num_buckets, int) or self.num_buckets <= 0:
            raise SpecError(
                f"num_buckets must be a positive int, got {self.num_buckets!r}"
            )
        if not isinstance(self.lam, (int, float)) or not 0.0 <= float(self.lam) <= 1.0:
            raise SpecError(f"lam must lie in [0, 1], got {self.lam!r}")
        if self.solver not in _SOLVERS:
            raise SpecError(
                f"unknown solver {self.solver!r}; expected one of {_SOLVERS}"
            )
        if self.classifier is not None and self.classifier not in _CLASSIFIERS:
            raise SpecError(
                f"unknown classifier {self.classifier!r}; expected one of "
                f"{_CLASSIFIERS} or None"
            )
        if self.solver_options is not None and not isinstance(self.solver_options, dict):
            raise SpecError("solver_options must be a dict or None")
        if self.classifier_options is not None and not isinstance(
            self.classifier_options, dict
        ):
            raise SpecError("classifier_options must be a dict or None")
        if not isinstance(self.tune_classifier, bool):
            raise SpecError(
                f"tune_classifier must be a bool, got {self.tune_classifier!r}"
            )
        if self.tuning_grid is not None and not (
            isinstance(self.tuning_grid, dict)
            and all(
                isinstance(values, list) and values
                for values in self.tuning_grid.values()
            )
        ):
            raise SpecError(
                "tuning_grid must be None or a dict of non-empty lists, got "
                f"{self.tuning_grid!r}"
            )
        if not isinstance(self.tuning_folds, int) or self.tuning_folds < 2:
            raise SpecError(
                f"tuning_folds must be an int >= 2, got {self.tuning_folds!r}"
            )
        if self.max_stored_elements is not None and (
            not isinstance(self.max_stored_elements, int)
            or self.max_stored_elements <= 0
        ):
            raise SpecError(
                "max_stored_elements must be a positive int or None, got "
                f"{self.max_stored_elements!r}"
            )
        if not isinstance(self.sample_proportional_to_frequency, bool):
            raise SpecError(
                "sample_proportional_to_frequency must be a bool, got "
                f"{self.sample_proportional_to_frequency!r}"
            )
        if not isinstance(self.expected_distinct, int) or self.expected_distinct <= 0:
            raise SpecError(
                "expected_distinct must be a positive int, got "
                f"{self.expected_distinct!r}"
            )
        if self.seed is not None and not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int or None, got {self.seed!r}")
        if self.bloom_bits is not None and (
            not isinstance(self.bloom_bits, int) or self.bloom_bits <= 0
        ):
            raise SpecError(
                f"bloom_bits must be a positive int or None, got {self.bloom_bits!r}"
            )
        from repro.kernels import BACKEND_SCHEMA

        choices = BACKEND_SCHEMA["backend"]["choices"]
        if self.backend not in choices:
            raise SpecError(
                f"unknown kernel backend {self.backend!r}; expected one of {choices}"
            )
        return self

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for name, default in _OPT_HASH_FIELDS:
            value = getattr(self, name)
            if value != default:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptHashSpec":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in ("opt_hash", "adaptive_opt_hash"):
            raise SpecError(f"not an opt-hash spec dict (kind={kind!r})")
        adaptive = data.pop("adaptive", None)
        implied = kind == "adaptive_opt_hash"
        if adaptive is not None and bool(adaptive) != implied:
            raise SpecError(
                f"kind {kind!r} conflicts with adaptive={adaptive!r}"
            )
        return cls(adaptive=implied, **data)


class ShardedSpec(EstimatorSpec):
    """Spec of a sharded estimator wrapping an inner spec.

    The inner spec must construct deterministically (an explicit seed for
    every randomized estimator), because all shards — and, with the process
    executor, the workers' blank twins — are built independently from it and
    must be merge-compatible.  The process executor shares the shards'
    counter tables with its workers through shared memory, so it needs an
    inner kind with pluggable storage.
    """

    MODES = ("key-partition", "round-robin")
    EXECUTORS = ("serial", "thread", "process")
    QUERY_MODES = ("collapse", "fanout")

    def __init__(
        self,
        inner: EstimatorSpec,
        num_shards: int = 4,
        mode: str = "key-partition",
        executor: str = "serial",
        query_mode: str = "collapse",
        partition_seed: Optional[int] = None,
    ) -> None:
        if not isinstance(inner, EstimatorSpec):
            raise SpecError(
                f"inner must be an EstimatorSpec, got {type(inner).__name__} "
                "(use spec_from_dict to lift a plain dict)"
            )
        if isinstance(inner, ShardedSpec):
            raise SpecError("sharded specs cannot nest (inner is already sharded)")
        self.inner = inner
        self.num_shards = num_shards
        self.mode = mode
        self.executor = executor
        self.query_mode = query_mode
        self.partition_seed = partition_seed
        self.validate()

    @property
    def kind(self) -> str:
        return "sharded"

    def validate(self) -> "ShardedSpec":
        if not isinstance(self.num_shards, int) or self.num_shards <= 0:
            raise SpecError(
                f"num_shards must be a positive int, got {self.num_shards!r}"
            )
        if self.mode not in self.MODES:
            raise SpecError(f"mode must be one of {self.MODES}, got {self.mode!r}")
        if self.executor not in self.EXECUTORS:
            raise SpecError(
                f"executor must be one of {self.EXECUTORS}, got {self.executor!r}"
            )
        if self.query_mode not in self.QUERY_MODES:
            raise SpecError(
                f"query_mode must be one of {self.QUERY_MODES}, got "
                f"{self.query_mode!r}"
            )
        if self.query_mode == "fanout" and self.mode != "key-partition":
            raise SpecError("fanout queries require key-partition mode")
        if self.partition_seed is not None and not isinstance(self.partition_seed, int):
            raise SpecError(
                f"partition_seed must be an int or None, got {self.partition_seed!r}"
            )
        self.inner.validate()
        from repro.api.registry import (
            check_deterministic_for_sharding,
            kind_supports_storage,
        )

        check_deterministic_for_sharding(self.inner)
        if self.executor == "process":
            if not kind_supports_storage(self.inner.kind):
                raise SpecError(
                    f"executor='process' needs an inner kind with pluggable "
                    f"counter storage; {self.inner.kind!r} has no storage= "
                    "field — use the serial or thread executor"
                )
            if (
                isinstance(self.inner, SketchSpec)
                and self.inner.params.get("storage") == "mmap"
            ):
                raise SpecError(
                    "mmap-backed shards cannot run on the process executor "
                    "(its workers share shm tables); pick storage='shm' or "
                    "the serial or thread executor"
                )
        return self

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": "sharded",
            "inner": self.inner.to_dict(),
            "num_shards": self.num_shards,
            "mode": self.mode,
            "executor": self.executor,
            "query_mode": self.query_mode,
        }
        if self.partition_seed is not None:
            data["partition_seed"] = self.partition_seed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardedSpec":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind != "sharded":
            raise SpecError(f"not a sharded spec dict (kind={kind!r})")
        inner = data.pop("inner", None)
        if not isinstance(inner, Mapping):
            raise SpecError("sharded spec dict is missing its 'inner' spec dict")
        # Older dicts and snapshots name the shared-memory process path
        # explicitly; it is now the only one, so the key carries nothing.
        if data.pop("transport", "shm") != "shm":
            raise SpecError(
                "the serialization transport was removed: executor='process' "
                "always runs persistent shm workers; for inner kinds without "
                "pluggable storage use the serial or thread executor"
            )
        unknown = sorted(
            set(data)
            - {"num_shards", "mode", "executor", "query_mode", "partition_seed"}
        )
        if unknown:
            raise SpecError(f"unknown sharded parameter(s) {unknown}")
        return cls(spec_from_dict(inner), **data)


class WindowedSpec(EstimatorSpec):
    """Spec of a temporal (sliding-window / time-decayed) estimator.

    Wraps any mergeable inner spec in a ring of ``num_panes`` sub-sketches
    (see :mod:`repro.temporal.windowed`).  ``decay=None`` describes a
    :class:`~repro.temporal.windowed.SlidingWindowSketch` (kind
    ``"sliding_window"``); a decay factor in ``(0, 1]`` describes a
    :class:`~repro.temporal.windowed.DecayedSketch` (kind ``"decayed"``).
    ``pane_items=None`` rotates only on explicit ``tick()`` calls (the
    wall-clock mode the streaming service drives); a positive value rotates
    every ``pane_items`` weighted arrivals.

    The inner spec must construct deterministically (an explicit seed for
    every randomized estimator): panes are built independently from it at
    every rotation and must stay merge-compatible.
    """

    KINDS = ("sliding_window", "decayed")

    def __init__(
        self,
        inner: EstimatorSpec,
        num_panes: int = 8,
        pane_items: Optional[int] = None,
        decay: Optional[float] = None,
    ) -> None:
        if not isinstance(inner, EstimatorSpec):
            raise SpecError(
                f"inner must be an EstimatorSpec, got {type(inner).__name__} "
                "(use spec_from_dict to lift a plain dict)"
            )
        if isinstance(inner, (ShardedSpec, WindowedSpec)):
            raise SpecError(
                "windowed specs wrap a plain estimator spec; nest the "
                "windowed spec *inside* a sharded spec instead of the "
                "other way around"
            )
        self.inner = inner
        self.num_panes = num_panes
        self.pane_items = pane_items
        self.decay = decay
        self.validate()

    @property
    def kind(self) -> str:
        return "decayed" if self.decay is not None else "sliding_window"

    @property
    def seed(self) -> Optional[int]:
        """The inner spec's seed (the wrapper itself draws no randomness)."""
        seed = getattr(self.inner, "seed", None)
        if seed is None and isinstance(self.inner, SketchSpec):
            seed = self.inner.params.get("seed")
        return seed

    def validate(self) -> "WindowedSpec":
        if not isinstance(self.num_panes, int) or self.num_panes < 2:
            raise SpecError(
                f"num_panes must be an int >= 2, got {self.num_panes!r}"
            )
        if self.pane_items is not None and (
            not isinstance(self.pane_items, int) or self.pane_items <= 0
        ):
            raise SpecError(
                f"pane_items must be a positive int or None, got "
                f"{self.pane_items!r}"
            )
        if self.decay is not None:
            if not isinstance(self.decay, (int, float)) or not (
                0.0 < float(self.decay) <= 1.0
            ):
                raise SpecError(
                    f"decay must lie in (0, 1], got {self.decay!r}"
                )
            self.decay = float(self.decay)
        self.inner.validate()
        from repro.api.registry import check_deterministic_for_sharding

        # Same reproducibility requirement as sharding: every rotation
        # rebuilds a pane from the spec, and all panes must merge.
        check_deterministic_for_sharding(self.inner)
        return self

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "inner": self.inner.to_dict(),
            "num_panes": self.num_panes,
        }
        if self.pane_items is not None:
            data["pane_items"] = self.pane_items
        if self.decay is not None:
            data["decay"] = self.decay
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WindowedSpec":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in cls.KINDS:
            raise SpecError(f"not a windowed spec dict (kind={kind!r})")
        inner = data.pop("inner", None)
        if not isinstance(inner, Mapping):
            raise SpecError("windowed spec dict is missing its 'inner' spec dict")
        unknown = sorted(set(data) - {"num_panes", "pane_items", "decay"})
        if unknown:
            raise SpecError(f"unknown windowed parameter(s) {unknown}")
        decay = data.get("decay")
        if kind == "decayed" and decay is None:
            raise SpecError("kind 'decayed' requires a 'decay' factor")
        if kind == "sliding_window" and decay is not None:
            raise SpecError("kind 'sliding_window' must not carry a 'decay'")
        return cls(spec_from_dict(inner), **data)


def spec_from_dict(data: Mapping[str, Any]) -> EstimatorSpec:
    """Rebuild any spec from its :meth:`EstimatorSpec.to_dict` form.

    Dispatches on ``data["kind"]``: ``sharded`` → :class:`ShardedSpec`,
    ``opt_hash`` / ``adaptive_opt_hash`` → :class:`OptHashSpec`, any other
    registered kind → :class:`SketchSpec`.  Raises :class:`SpecError` for
    anything else.
    """
    if isinstance(data, EstimatorSpec):
        return data.validate()
    if not isinstance(data, Mapping):
        raise SpecError(
            f"expected a spec dict, got {type(data).__name__}: {data!r}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise SpecError(f"spec dict is missing a string 'kind' entry: {data!r}")
    if kind == "sharded":
        return ShardedSpec.from_dict(data)
    if kind in WindowedSpec.KINDS:
        return WindowedSpec.from_dict(data)
    if kind in ("opt_hash", "adaptive_opt_hash"):
        return OptHashSpec.from_dict(data)
    return SketchSpec.from_dict(data)


def iter_spec_grid(kind: str, **axes) -> Iterator[SketchSpec]:
    """Yield a :class:`SketchSpec` per point of a parameter grid.

    Scalar values are broadcast; list/tuple values become grid axes::

        for spec in iter_spec_grid("count_min", total_buckets=[1024, 8192],
                                   depth=[1, 2, 4], seed=0):
            ...  # 6 specs

    This is the "a paper figure is a spec grid" helper the evaluation
    drivers and examples share.
    """
    names = list(axes)
    pools = [
        list(value) if isinstance(value, (list, tuple)) else [value]
        for value in axes.values()
    ]

    def product(index: int, chosen: Dict[str, Any]) -> Iterator[SketchSpec]:
        if index == len(names):
            yield SketchSpec(kind, **chosen)
            return
        for value in pools[index]:
            chosen[names[index]] = value
            yield from product(index + 1, chosen)
            del chosen[names[index]]

    yield from product(0, {})
