"""repro.api.options — one options bundle for the facade entry points.

``repro.open`` / ``load`` / ``restore`` / ``train`` take their construction
options (``prefix``, ``featurizer``, ``metrics`` and the kernel
``backend``) as a single frozen dataclass::

    opts = repro.Options(prefix=prefix, backend="native")
    with repro.open(spec, options=opts) as session:
        ...

Each entry point consumes the subset of fields that applies to it and raises
:class:`~repro.errors.SpecError` for fields that cannot apply (e.g.
``backend`` on :func:`repro.restore` — a snapshot records its own backend),
so a silently ignored option is impossible.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.errors import SpecError

__all__ = ["Options"]


#: Which Options fields each facade entry point consumes.  ``restore`` and
#: ``load`` rebuild from a snapshot that already records its spec (and any
#: pinned backend), so only instrumentation applies there.
APPLICABLE_FIELDS = {
    "open": ("prefix", "featurizer", "metrics", "backend"),
    "train": ("prefix", "featurizer", "backend"),
    "restore": ("metrics",),
    "load": ("metrics",),
}


@dataclasses.dataclass(frozen=True)
class Options:
    """Construction-time options shared by the facade entry points.

    Parameters
    ----------
    prefix:
        Observed stream prefix for kinds that run a learning phase
        (``open`` / ``train``).
    featurizer:
        Feature extractor handed to the classifier during training
        (``open`` / ``train``).
    metrics:
        A :class:`~repro.obs.MetricsRegistry` instrumenting the session
        (``open`` / ``restore`` / ``load``).
    backend:
        Kernel backend override (``"auto"`` / ``"numpy"`` / ``"native"``)
        rewritten into the spec before construction, drilling through
        sharded/windowed wrappers (``open`` / ``train``).
    """

    prefix: Optional[object] = None
    featurizer: Optional[Callable] = None
    metrics: Optional[object] = None
    backend: Optional[str] = None

    def set_fields(self) -> tuple:
        """Names of the fields explicitly set (non-None)."""
        return tuple(
            field.name
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        )

    def check_applicable(self, entry_point: str) -> "Options":
        """Raise :class:`SpecError` for set fields ``entry_point`` ignores."""
        allowed = APPLICABLE_FIELDS[entry_point]
        stray = [name for name in self.set_fields() if name not in allowed]
        if stray:
            raise SpecError(
                f"Options field(s) {', '.join(sorted(stray))} do not apply to "
                f"repro.{entry_point}() (it consumes: {', '.join(allowed)})"
            )
        return self

    def replace(self, **changes) -> "Options":
        return dataclasses.replace(self, **changes)


def checked_options(entry_point: str, options: Optional[Options]) -> Options:
    """``options`` (default: an empty bundle) validated for ``entry_point``."""
    if options is None:
        return Options()
    if not isinstance(options, Options):
        raise SpecError(
            f"options must be a repro.Options, got {type(options).__name__}"
        )
    return options.check_applicable(entry_point)
