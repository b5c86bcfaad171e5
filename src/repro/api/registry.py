"""The estimator registry: one name space for build *and* loads.

Every estimator class self-registers under a *kind* name with
:func:`register_estimator` (applied in its defining module), declaring the
parameter schema its :class:`~repro.api.specs.SketchSpec` accepts and the
builder that turns validated parameters into an instance.  The kind name is
deliberately the same string as the class's serialization tag
(``@register_sketch``) — registration enforces it — so one name covers the
whole lifecycle: ``build({"kind": "count_min", ...})`` constructs,
``describe()["kind"]`` reports, and ``loads(buf)`` rehydrates through the
identical name, and :func:`repro.sketches.serialization.loads` can
cross-check a buffer's tag against this registry instead of trusting the
tag alone.

:func:`build` is the single construction entry point: it accepts a spec
object or a JSON-safe dict, validates strictly (:class:`SpecError` on any
mismatch), and dispatches to the registered builder.  Specs that need a
learning phase (``opt_hash`` / ``adaptive_opt_hash``) take their training
data through the ``prefix`` / ``featurizer`` context arguments;
:func:`train` exposes the full :class:`~repro.core.pipeline.TrainingResult`
for drivers that inspect solver output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.api.specs import (
    EstimatorSpec,
    OptHashSpec,
    ShardedSpec,
    SketchSpec,
    SpecError,
    WindowedSpec,
    spec_from_dict,
)

__all__ = [
    "register_estimator",
    "registered_kinds",
    "estimator_class_for",
    "kind_exists",
    "kind_requires_training",
    "kind_supports_storage",
    "kind_supports_backend",
    "spec_with_backend",
    "validate_spec_params",
    "check_deterministic_for_sharding",
    "build",
    "train",
]


class _Entry:
    """One registered estimator kind."""

    __slots__ = (
        "kind",
        "cls",
        "spec_cls",
        "schema",
        "builder",
        "requires_training",
        "seedless",
        "check",
    )

    def __init__(self, kind, cls, spec_cls, schema, builder, requires_training, seedless, check):
        self.kind = kind
        self.cls = cls
        self.spec_cls = spec_cls
        self.schema = schema or {}
        self.builder = builder
        self.requires_training = requires_training
        self.seedless = seedless
        self.check = check


_ENTRIES: Dict[str, _Entry] = {}
_CORE_MODULES_LOADED = False


def _default_builder(cls, spec: SketchSpec, context: dict):
    return cls(**spec.params)


def register_estimator(
    kind: str,
    *,
    schema: Optional[Dict[str, dict]] = None,
    builder: Optional[Callable] = None,
    spec_cls: type = SketchSpec,
    requires_training: bool = False,
    seedless: bool = False,
    check: Optional[Callable[[dict], None]] = None,
):
    """Class decorator registering an estimator kind for :func:`build`.

    Parameters
    ----------
    kind:
        Registry name; must equal the class's serialization tag when the
        class has one (one name space for build + loads).
    schema:
        Parameter schema for :class:`SketchSpec` validation: ``name →
        rule`` where a rule is a dict with ``type`` (``"int"`` / ``"float"``
        / ``"bool"`` / ``"str"`` / ``"list"`` / ``"dict"``) and optional
        ``required`` / ``nullable`` / ``choices`` / ``min``.
    builder:
        ``builder(cls, spec, context) → estimator``; defaults to
        ``cls(**spec.params)``.
    spec_cls:
        Which spec class describes this kind (:class:`SketchSpec` for plain
        sketches, :class:`OptHashSpec` / :class:`ShardedSpec` for the
        structured ones).
    requires_training:
        Whether :func:`build` needs a ``prefix`` context (the opt-hash
        estimators).
    seedless:
        True when construction is deterministic without an explicit seed
        (no internal randomness); such kinds may be sharded seedlessly.
    check:
        Optional cross-field validator ``check(params) → None`` raising
        :class:`SpecError`.
    """

    def decorate(cls: type) -> type:
        serial_tag = getattr(cls, "SERIAL_TAG", None)
        if serial_tag is not None and serial_tag != kind:
            raise ValueError(
                f"estimator kind {kind!r} must match serialization tag "
                f"{serial_tag!r} of {cls.__name__} (one name space covers "
                "build + loads)"
            )
        existing = _ENTRIES.get(kind)
        if existing is not None and existing.cls is not cls:
            raise ValueError(f"estimator kind {kind!r} already registered")
        _ENTRIES[kind] = _Entry(
            kind,
            cls,
            spec_cls,
            schema,
            builder or _default_builder,
            requires_training,
            seedless,
            check,
        )
        cls.ESTIMATOR_KIND = kind
        return cls

    return decorate


def _ensure_registered() -> None:
    """Import the estimator modules once so their decorators have run."""
    global _CORE_MODULES_LOADED
    if _CORE_MODULES_LOADED:
        return
    import repro.sketches  # noqa: F401  (registers the sketch kinds)
    import repro.core  # noqa: F401  (registers opt-hash + sharded)
    import repro.temporal  # noqa: F401  (registers sliding_window + decayed)

    _CORE_MODULES_LOADED = True


def _entry(kind: str) -> _Entry:
    entry = _ENTRIES.get(kind)
    if entry is None:
        _ensure_registered()
        entry = _ENTRIES.get(kind)
    if entry is None:
        raise SpecError(
            f"unknown estimator kind {kind!r}; registered kinds: "
            f"{sorted(_ENTRIES)}"
        )
    return entry


def registered_kinds() -> list:
    """Sorted names of every registered estimator kind."""
    _ensure_registered()
    return sorted(_ENTRIES)


def kind_exists(kind: str) -> bool:
    _ensure_registered()
    return kind in _ENTRIES


def estimator_class_for(kind: str) -> type:
    """The estimator class registered under ``kind`` (SpecError if none)."""
    return _entry(kind).cls


def kind_requires_training(kind: str) -> bool:
    """Whether building ``kind`` runs a learning phase (needs a prefix)."""
    return _entry(kind).requires_training


def kind_supports_storage(kind: str) -> bool:
    """Whether ``kind`` accepts the pluggable counter-storage fields.

    A kind supports storage exactly when its spec schema declares the
    ``storage`` parameter (the table sketches merge
    :data:`repro.core.storage.STORAGE_SCHEMA` into their schemas).
    """
    return "storage" in _entry(kind).schema


def kind_supports_backend(kind: str) -> bool:
    """Whether ``kind`` accepts the pluggable kernel-backend field.

    A kind supports kernel dispatch exactly when its spec schema declares
    the ``backend`` parameter (the kernel-capable sketches merge
    :data:`repro.kernels.BACKEND_SCHEMA` into their schemas); the opt-hash
    kinds declare it on :class:`~repro.api.specs.OptHashSpec` directly.
    """
    if kind in ("opt_hash", "adaptive_opt_hash"):
        return True
    return "backend" in _entry(kind).schema


#: Wrapper spec kinds whose kernel work happens in their inner estimator.
_WRAPPER_KINDS = ("sharded", "sliding_window", "decayed")


def spec_with_backend(spec, backend: str):
    """A copy of ``spec`` with its kernel-backend choice set to ``backend``.

    Wrapper specs (sharded / windowed / decayed) delegate the override to
    their innermost estimator spec, which is where the kernels actually run
    — shard workers and window panes rebuild from that inner spec, so the
    choice travels to every process automatically.  Raises
    :class:`~repro.api.specs.SpecError` when the (innermost) kind has no
    kernel-dispatched hot path.
    """
    from repro.api.specs import spec_from_dict

    data = spec.to_dict()
    node = data
    while node.get("kind") in _WRAPPER_KINDS:
        node = node["inner"]
    kind = node.get("kind")
    if not kind_exists(kind) and kind not in ("opt_hash", "adaptive_opt_hash"):
        raise SpecError(f"unknown estimator kind {kind!r}")
    if not kind_supports_backend(kind):
        raise SpecError(
            f"kind {kind!r} has no kernel-dispatched hot path; "
            "backend= does not apply"
        )
    node["backend"] = backend
    return spec_from_dict(data)


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------
def _type_ok(value: Any, type_name: str) -> bool:
    if type_name == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "bool":
        return isinstance(value, bool)
    if type_name == "str":
        return isinstance(value, str)
    if type_name == "list":
        return isinstance(value, list)
    if type_name == "dict":
        return isinstance(value, dict)
    raise ValueError(f"unknown schema type {type_name!r}")  # pragma: no cover


def _validate_value(kind: str, name: str, value: Any, rule: dict) -> None:
    if value is None:
        if rule.get("nullable", False):
            return
        raise SpecError(f"{kind}.{name} must not be None")
    type_name = rule.get("type", "int")
    if not _type_ok(value, type_name):
        raise SpecError(
            f"{kind}.{name} must be of type {type_name}, got "
            f"{type(value).__name__} ({value!r})"
        )
    choices = rule.get("choices")
    if choices is not None and value not in choices:
        raise SpecError(
            f"{kind}.{name} must be one of {tuple(choices)}, got {value!r}"
        )
    minimum = rule.get("min")
    if minimum is not None and value < minimum:
        raise SpecError(f"{kind}.{name} must be >= {minimum}, got {value!r}")


def validate_spec_params(kind: str, params: Mapping[str, Any]) -> None:
    """Validate ``params`` against the schema ``kind`` registered.

    Raises :class:`SpecError` on an unknown kind, a kind that needs a
    structured spec class (opt-hash, sharded), unknown parameter names,
    missing required parameters, or type/range/choice violations.
    """
    entry = _entry(kind)
    if entry.spec_cls is not SketchSpec:
        raise SpecError(
            f"kind {kind!r} is described by {entry.spec_cls.__name__}, not a "
            "plain SketchSpec"
        )
    schema = entry.schema
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise SpecError(
            f"unknown parameter(s) {unknown} for kind {kind!r}; expected a "
            f"subset of {sorted(schema)}"
        )
    for name, rule in schema.items():
        if rule.get("required", False) and name not in params:
            raise SpecError(f"{kind} spec is missing required parameter {name!r}")
        if name in params:
            _validate_value(kind, name, params[name], rule)
    if entry.check is not None:
        entry.check(dict(params))


def check_deterministic_for_sharding(spec: EstimatorSpec) -> None:
    """Reject inner shard specs whose construction is not reproducible.

    Shards (and, in process mode, worker-side blank clones) are built
    independently from the same spec and must be merge-compatible, which
    requires identical hash functions / Bloom filters — i.e. an explicit
    seed for every randomized estimator.
    """
    entry = _entry(spec.kind)
    if entry.seedless:
        return
    seed = getattr(spec, "seed", None)
    if seed is None and isinstance(spec, SketchSpec):
        seed = spec.params.get("seed")
    if seed is None:
        raise SpecError(
            f"sharding over kind {spec.kind!r} requires an explicit seed: "
            "shards are constructed independently from the spec and would "
            "draw different hash functions without one"
        )


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def build(
    spec,
    *,
    prefix=None,
    featurizer: Optional[Callable] = None,
):
    """Build any registered estimator from a spec or JSON-safe spec dict.

    ``prefix`` (a :class:`~repro.streams.stream.StreamPrefix`) and
    ``featurizer`` are only consulted by kinds that run a learning phase
    (``opt_hash`` / ``adaptive_opt_hash``, or a ``sharded`` spec wrapping
    one); passing them for other kinds is harmless.

    Raises :class:`SpecError` for malformed specs and for training kinds
    invoked without a prefix.
    """
    spec = spec_from_dict(spec)
    spec.validate()
    entry = _entry(spec.kind)
    inner = getattr(spec, "inner", None)
    if isinstance(inner, WindowedSpec):
        inner = inner.inner  # sharded-over-windowed: the training kind is inside
    needs_training = entry.requires_training or (
        isinstance(spec, (ShardedSpec, WindowedSpec))
        and _entry(inner.kind).requires_training
    )
    if needs_training and prefix is None:
        raise SpecError(
            f"kind {spec.kind!r} runs a learning phase: pass the observed "
            "stream prefix, e.g. build(spec, prefix=prefix)"
        )
    context = {"prefix": prefix, "featurizer": featurizer}
    try:
        return entry.builder(entry.cls, spec, context)
    except SpecError:
        raise
    except (ValueError, TypeError) as error:
        raise SpecError(f"building {spec.kind!r} failed: {error}") from error


def train(spec, prefix=None, *, options=None):
    """Run the opt-hash learning phase for a spec; full TrainingResult.

    Accepts an :class:`OptHashSpec` or its dict form.  This is the
    spec-level face of :func:`repro.core.pipeline.train_opt_hash` — the
    evaluation drivers use it when they need the solver result and stored
    arrays, not just the estimator.  The prefix (and optional featurizer /
    kernel ``backend`` override) may travel in ``options``
    (a :class:`~repro.api.options.Options`).
    """
    from repro.api.options import checked_options

    opts = checked_options("train", options)
    if prefix is not None and opts.prefix is not None:
        raise SpecError(
            "train() got a positional prefix and Options.prefix; pass one"
        )
    if prefix is None:
        prefix = opts.prefix
    spec = spec_from_dict(spec)
    if not isinstance(spec, OptHashSpec):
        raise SpecError(
            f"train() takes an opt-hash spec, got kind {spec.kind!r}"
        )
    if opts.backend is not None:
        spec = spec_with_backend(spec, opts.backend)
    if prefix is None or len(prefix) == 0:
        raise SpecError("train() needs a non-empty observed stream prefix")
    from repro.core.pipeline import train_opt_hash

    return train_opt_hash(prefix, spec, featurizer=opts.featurizer)
