"""repro.api — the declarative estimator API.

One spec-driven entry point for every estimator in the library:

* **Specs** (:mod:`repro.api.specs`): :class:`SketchSpec`,
  :class:`OptHashSpec`, :class:`ShardedSpec` — validated, JSON-safe,
  lossless ``to_dict`` / ``from_dict``.
* **Registry** (:mod:`repro.api.registry`): every estimator class
  self-registers its kind (the same name as its serialization tag);
  :func:`build` constructs any of them from a spec or dict, selecting
  solvers (``bcd`` / ``dp`` / ``milp``) and classifiers (``cart`` /
  ``logreg`` / ``rf``) by name; :func:`train` exposes the full opt-hash
  training result.
* **Sessions** (:mod:`repro.api.session`): :func:`open` → ingest /
  estimate / merge / snapshot; :func:`restore` resumes from a snapshot.

A complete round trip::

    import repro.api as api

    spec = api.SketchSpec("count_min", total_buckets=8192, depth=2, seed=1)
    with api.open(spec) as session:
        session.ingest(keys)
        blob = session.snapshot()
    resumed = api.restore(blob)           # bit-identical for linear sketches
"""

from repro.api.options import Options
from repro.api.specs import (
    EstimatorSpec,
    OptHashSpec,
    ShardedSpec,
    SketchSpec,
    SpecError,
    WindowedSpec,
    iter_spec_grid,
    spec_from_dict,
)
from repro.api.registry import (
    build,
    estimator_class_for,
    kind_exists,
    kind_requires_training,
    kind_supports_backend,
    register_estimator,
    registered_kinds,
    spec_with_backend,
    train,
    validate_spec_params,
)

__all__ = [
    "SpecError",
    "EstimatorSpec",
    "SketchSpec",
    "OptHashSpec",
    "ShardedSpec",
    "WindowedSpec",
    "Options",
    "spec_from_dict",
    "iter_spec_grid",
    "register_estimator",
    "registered_kinds",
    "estimator_class_for",
    "kind_exists",
    "kind_requires_training",
    "kind_supports_backend",
    "spec_with_backend",
    "validate_spec_params",
    "build",
    "train",
    "Session",
    "load",
    "open",
    "restore",
]

# The Session facade imports repro.core (for the replay loop), which imports
# the sketch modules, which import this package to self-register — so the
# session module must load lazily to keep that chain acyclic.
_SESSION_EXPORTS = ("Session", "load", "open", "restore")


def __getattr__(name):
    if name in _SESSION_EXPORTS:
        from repro.api import session as _session

        return getattr(_session, name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
