"""Versioned binary serialization for sketches and hash functions.

Every sketch exposes ``to_bytes()`` / ``from_bytes()`` built on the two
helpers here, :func:`pack` and :func:`unpack`.  The wire format is designed
for the sharded ingestion path (process shards round-trip sketch state every
batch), so the bulky parts — counter tables, tabulation tables, Bloom bit
arrays — travel as raw NumPy buffers with zero per-element Python work:

``MAGIC (4) | version u16 | flags u16 | meta_len u32 | meta JSON | array blob``

The JSON metadata carries the class tag, the scalar configuration/state, and
one descriptor per array (name, dtype, shape, byte offset into the blob).
:func:`loads` dispatches on the class tag through a registry populated at
import time by the ``@register_sketch`` decorator, so callers can rehydrate
a sketch without knowing its concrete type in advance.

Malformed input (truncated buffer, bad magic, corrupt metadata, arrays
running past the end) raises :class:`SerializationError`; a buffer written
by a different format version is rejected the same way, never silently
reinterpreted.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Hashable, List, Tuple

import numpy as np

__all__ = [
    "SerializationError",
    "pack",
    "unpack",
    "peek_tag",
    "loads",
    "register_sketch",
    "encode_counts",
    "decode_counts",
    "encode_key",
    "decode_key",
]

MAGIC = b"RPSK"
VERSION = 1
_HEADER = struct.Struct("<4sHHI")  # magic, version, flags, meta_len


# Canonical definition lives in repro.errors (common ReproError base);
# this module remains its permanent public import path.
from repro.errors import SerializationError  # noqa: E402


_REGISTRY: Dict[str, type] = {}


def register_sketch(tag: str):
    """Class decorator registering ``tag`` for :func:`loads` dispatch."""

    def decorate(cls: type) -> type:
        existing = _REGISTRY.get(tag)
        if existing is not None and existing is not cls:
            raise ValueError(f"serialization tag {tag!r} already registered")
        _REGISTRY[tag] = cls
        cls.SERIAL_TAG = tag
        return cls

    return decorate


def pack(tag: str, state: dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize ``state`` (JSON-able scalars) and ``arrays`` under ``tag``."""
    descriptors: List[dict] = []
    chunks: List[bytes] = []
    offset = 0
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        raw = contiguous.tobytes()
        descriptors.append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    meta = json.dumps(
        {"tag": tag, "state": state, "arrays": descriptors},
        separators=(",", ":"),
    ).encode("utf-8")
    header = _HEADER.pack(MAGIC, VERSION, 0, len(meta))
    return b"".join([header, meta] + chunks)


def _parse_meta(data: bytes) -> Tuple[dict, int]:
    """Validate the header and parse the JSON metadata (no array work)."""
    if len(data) < _HEADER.size:
        raise SerializationError(
            f"buffer too short for header: {len(data)} < {_HEADER.size} bytes"
        )
    magic, version, _flags, meta_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise SerializationError(
            f"unsupported serialization version {version} (this build reads {VERSION})"
        )
    meta_end = _HEADER.size + meta_len
    if meta_end > len(data):
        raise SerializationError("buffer truncated inside metadata")
    try:
        meta = json.loads(data[_HEADER.size : meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(f"corrupt metadata: {error}") from error
    if not isinstance(meta, dict) or "tag" not in meta:
        raise SerializationError("metadata is not a sketch descriptor")
    return meta, meta_end


def peek_tag(data: bytes) -> str:
    """The class tag of a packed buffer — header + metadata parse only.

    Cheap dispatch helper: unlike :func:`unpack` it never materializes the
    array blob, so callers can route on the tag without copying a
    potentially-large table.
    """
    meta, _ = _parse_meta(bytes(data))
    return meta["tag"]


def unpack(data: bytes, expect_tag: str = None) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """Parse a :func:`pack` buffer into ``(tag, state, arrays)``.

    The returned arrays are fresh writable copies (``np.frombuffer`` views
    would alias the caller's buffer and be read-only).
    """
    data = bytes(data)
    meta, meta_end = _parse_meta(data)
    tag = meta["tag"]
    if expect_tag is not None and tag != expect_tag:
        raise SerializationError(f"buffer holds a {tag!r}, expected {expect_tag!r}")
    arrays: Dict[str, np.ndarray] = {}
    for descriptor in meta.get("arrays", []):
        try:
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(int(dim) for dim in descriptor["shape"])
            start = meta_end + int(descriptor["offset"])
            nbytes = int(descriptor["nbytes"])
            name = descriptor["name"]
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"corrupt array descriptor: {error}") from error
        if dtype.kind not in "biufc":
            # Only plain numeric buffers are valid payloads; an object/str
            # dtype smuggled into the metadata must not reach np.frombuffer.
            raise SerializationError(
                f"array {name!r} has non-numeric dtype {dtype.str!r}"
            )
        if start < meta_end or start + nbytes > len(data) or nbytes < 0:
            raise SerializationError(f"array {name!r} runs past the end of the buffer")
        count = int(np.prod(shape)) if shape else 1
        if count * dtype.itemsize != nbytes:
            raise SerializationError(f"array {name!r} shape/dtype disagree with nbytes")
        try:
            arrays[name] = (
                np.frombuffer(data, dtype=dtype, count=count, offset=start)
                .reshape(shape)
                .copy()
            )
        except ValueError as error:
            raise SerializationError(f"corrupt array {name!r}: {error}") from error
    return tag, meta.get("state", {}), arrays


def _import_default_registrations() -> None:
    """Import the modules whose classes register serialization tags."""
    import repro.sketches  # noqa: F401  (sketch + hash tags)
    import repro.core.sharding  # noqa: F401  ("sharded")
    import repro.api.session  # noqa: F401  ("session")
    import repro.temporal  # noqa: F401  ("sliding_window" + "decayed")


def loads(data: bytes, expect_kind: str = None, storage: str = None,
          storage_path: str = None):
    """Rehydrate any registered sketch/estimator from its serialized bytes.

    Dispatch is *not* by tag alone: the buffer's tag must be the canonical
    kind name of the class it resolves to (a class re-registered under a
    second tag, or one whose registry entries disagree, is rejected with a
    clear :class:`SerializationError` instead of silently rehydrating).
    Pass ``expect_kind`` to additionally reject buffers holding a different
    estimator kind than the caller planned for.

    ``storage`` / ``storage_path`` override the counter-storage backend the
    buffer recorded (forwarded to ``from_bytes``); only valid for kinds
    whose ``from_bytes`` accepts them — the table sketches.
    """
    tag = peek_tag(data)
    cls = _REGISTRY.get(tag)
    if cls is None:
        _import_default_registrations()
        cls = _REGISTRY.get(tag)
    if cls is None:
        raise SerializationError(f"unknown sketch tag {tag!r}")
    canonical = getattr(cls, "SERIAL_TAG", None)
    if canonical != tag:
        raise SerializationError(
            f"tag {tag!r} resolves to {cls.__name__}, whose canonical kind "
            f"is {canonical!r}; refusing to dispatch by tag alone (load "
            f"through the canonical kind instead)"
        )
    registered_kind = getattr(cls, "ESTIMATOR_KIND", None)
    if registered_kind is not None and registered_kind != tag:
        raise SerializationError(
            f"tag {tag!r} belongs to {cls.__name__}, which is registered "
            f"in the estimator registry under kind {registered_kind!r}; "
            "the build and loads name spaces must agree"
        )
    if expect_kind is not None and tag != expect_kind:
        raise SerializationError(
            f"buffer holds a {tag!r} estimator, expected kind {expect_kind!r}"
        )
    if storage is not None or storage_path is not None:
        return cls.from_bytes(data, storage=storage, storage_path=storage_path)
    return cls.from_bytes(data)


# ----------------------------------------------------------------------
# key/count dictionaries (exact counter, heavy-hitter summaries, LCMS)
# ----------------------------------------------------------------------
def encode_key(key: Hashable) -> list:
    if isinstance(key, bool):
        return ["b", key]
    if isinstance(key, (int, np.integer)):
        return ["i", int(key)]
    if isinstance(key, str):
        return ["s", key]
    if isinstance(key, (float, np.floating)):
        return ["f", float(key)]
    if key is None:
        return ["n"]
    raise SerializationError(
        f"key {key!r} of type {type(key).__name__} is not serializable "
        "(int, str, float, bool and None keys are supported)"
    )


def decode_key(encoded: list) -> Hashable:
    try:
        kind = encoded[0]
        if kind == "i":
            return int(encoded[1])
        if kind == "s":
            return encoded[1]
        if kind == "f":
            return float(encoded[1])
        if kind == "b":
            return bool(encoded[1])
        if kind == "n":
            return None
    except (IndexError, TypeError, ValueError) as error:
        raise SerializationError(f"corrupt key encoding: {error}") from error
    raise SerializationError(f"unknown key kind {encoded!r}")


def encode_counts(
    mapping: Dict[Hashable, int], name: str
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Encode a key→int mapping as ``(state_fragment, arrays_fragment)``.

    All-integer key sets take the fast path: two aligned int64 arrays in the
    binary blob.  Mixed/string keys fall back to tagged pairs in the JSON
    metadata, which round-trips exactly but costs JSON encoding.
    """
    keys = list(mapping.keys())
    values = list(mapping.values())
    if keys and all(
        isinstance(key, (int, np.integer)) and not isinstance(key, bool)
        for key in keys
    ):
        try:
            key_array = np.array([int(key) for key in keys], dtype=np.int64)
        except OverflowError:
            key_array = None
        if key_array is not None:
            return {f"{name}_mode": "int64"}, {
                f"{name}_keys": key_array,
                f"{name}_values": np.array([int(v) for v in values], dtype=np.int64),
            }
    items = [[encode_key(key), int(value)] for key, value in mapping.items()]
    return {f"{name}_mode": "json", f"{name}_items": items}, {}


def decode_counts(
    state: dict, arrays: Dict[str, np.ndarray], name: str
) -> Dict[Hashable, int]:
    """Inverse of :func:`encode_counts`."""
    mode = state.get(f"{name}_mode")
    if mode == "int64":
        try:
            keys = arrays[f"{name}_keys"].tolist()
            values = arrays[f"{name}_values"].tolist()
        except KeyError as error:
            raise SerializationError(f"missing arrays for mapping {name!r}") from error
        if len(keys) != len(values):
            raise SerializationError(f"misaligned key/value arrays for {name!r}")
        return dict(zip(keys, values))
    if mode == "json":
        items = state.get(f"{name}_items")
        if not isinstance(items, list):
            raise SerializationError(f"missing items for mapping {name!r}")
        return {decode_key(key): int(value) for key, value in items}
    raise SerializationError(f"unknown mapping mode {mode!r} for {name!r}")
