"""Pluggable counter-storage backends for the table sketches.

Every table sketch in the library — Count-Min, Count Sketch, AMS, the Bloom
filter — is, at heart, one dense counter array.  This module makes *where
that array lives* a configuration choice instead of a hard-coded
``np.zeros``:

* ``dense`` (default): a process-private NumPy array, exactly what the
  sketches always used.  Zero overhead, no cross-process story.
* ``shm``: the array lives in a named POSIX shared-memory segment
  (:mod:`multiprocessing.shared_memory`).  Any process that knows the
  segment name can attach a zero-copy view — this is what makes the sharded
  estimator's process executor possible: worker processes scatter directly
  into the parent's tables and nothing is serialized on the return leg.
* ``mmap``: the array is a file-backed :class:`numpy.memmap`.  Counter
  updates hit the page cache and survive process death, giving
  crash-recoverable persistence and snapshot/restore without copying the
  table (the snapshot records the path; restore reattaches the file).

All three backends expose the same contract: :attr:`CounterStorage.array`
is a live, writable ndarray of the requested shape/dtype, and every NumPy
kernel the sketches run (``np.add.at``, gathers, in-place ``+=`` / ``|=``)
works identically on it — which is why estimates are bit-identical across
backends.

:class:`StorageBacked` is the mixin the sketches use to thread the backend
through construction, serialization (including zero-copy "live" mmap
snapshots), cross-process adoption (the worker side of the process executor),
and resource release.
"""

from __future__ import annotations

import os
import tempfile
import uuid
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.sketches.serialization import SerializationError

__all__ = [
    "StorageError",
    "CounterStorage",
    "DenseStorage",
    "SharedMemoryStorage",
    "MmapStorage",
    "StorageBacked",
    "allocate",
    "attach",
    "check_storage_params",
    "STORAGE_BACKENDS",
    "STORAGE_SCHEMA",
]

#: The supported counter-storage backends, in spec order.
STORAGE_BACKENDS = ("dense", "shm", "mmap")

#: Schema fragment every storage-capable sketch merges into its spec schema.
#: The registry treats the presence of the ``storage`` field as the signal
#: that a kind supports pluggable storage (``kind_supports_storage``).
STORAGE_SCHEMA = {
    "storage": {"type": "str", "choices": STORAGE_BACKENDS},
    "storage_path": {"type": "str", "nullable": True},
}


# Canonical definition lives in repro.errors (common ReproError base);
# this module remains its permanent public import path.
from repro.errors import StorageError  # noqa: E402


def check_storage_params(params: dict) -> None:
    """Cross-field spec check: ``storage_path`` only makes sense for mmap."""
    from repro.api.specs import SpecError

    if params.get("storage_path") is not None and params.get("storage") != "mmap":
        raise SpecError(
            "storage_path is only meaningful with storage='mmap' (dense "
            "tables have no file, shm segments are named automatically)"
        )


#: Segment names created by THIS process.  Attaching to a foreign segment
#: must untrack it (see :func:`_untrack_shm`); attaching to one of our own
#: must NOT, or the owner's eventual unlink double-unregisters.
_OWNED_SHM_NAMES: set = set()


def _untrack_shm(shm) -> None:
    """Detach an *attached* foreign segment from Python's resource tracker.

    Only the creating process owns unlink.  Without this, a spawned process
    that attaches registers the name with its own resource tracker, which
    unlinks the segment at that process's exit — destroying the owner's
    live table — and prints leak warnings.  Python 3.13+ exposes
    ``track=False`` for the same purpose; this works on every version the
    CI matrix runs.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class CounterStorage:
    """Abstract owner of one counter array.

    Subclasses set :attr:`backend` and fill :attr:`_array`; the common
    lifecycle (idempotent close, manifest description) lives here.
    """

    backend = "abstract"

    def __init__(self) -> None:
        self._array: Optional[np.ndarray] = None
        self.owner = True
        self._closed = False

    @property
    def array(self) -> np.ndarray:
        """The live counter array (raises after :meth:`close`)."""
        if self._array is None:
            raise StorageError(f"{self.backend} storage is closed")
        return self._array

    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self) -> None:
        """Push pending writes to the backing store (no-op unless mmap)."""

    def describe_state(self) -> Dict[str, Any]:
        """JSON-safe attach manifest: backend + address + shape/dtype."""
        raise StorageError(
            f"{self.backend} storage cannot be attached from another process"
        )

    def close(self) -> None:
        """Release handles/views.  Idempotent; owned shm segments unlink."""
        self._closed = True
        self._array = None

    def unlink(self) -> None:
        """Destroy the backing resource (shm segment / mmap file)."""

    def __del__(self) -> None:  # best-effort hygiene, never raises
        try:
            self.close()
        except Exception:
            pass


class DenseStorage(CounterStorage):
    """Process-private array — today's ``np.zeros``, the default backend."""

    backend = "dense"

    def __init__(self, shape, dtype, initial: Optional[np.ndarray] = None) -> None:
        super().__init__()
        dtype = np.dtype(dtype)
        if initial is None:
            self._array = np.zeros(shape, dtype=dtype)
        else:
            # Adopt without copying when the buffer already has the right
            # dtype (unpack() hands us fresh writable arrays).
            self._array = np.asarray(initial, dtype=dtype).reshape(shape)


class SharedMemoryStorage(CounterStorage):
    """Named shared-memory table; any process can attach a zero-copy view."""

    backend = "shm"

    def __init__(
        self,
        shape,
        dtype,
        initial: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        shape = tuple(int(dim) for dim in shape)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        try:
            if name is None:
                self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
                self.owner = True
                _OWNED_SHM_NAMES.add(self._shm.name)
            else:
                self._shm = shared_memory.SharedMemory(name=name)
                self.owner = False
                if self._shm.name not in _OWNED_SHM_NAMES:
                    _untrack_shm(self._shm)
        except OSError as error:
            raise StorageError(f"shared-memory allocation failed: {error}") from error
        if not self.owner and self._shm.size < nbytes:
            self._shm.close()
            raise StorageError(
                f"shared-memory segment {name!r} holds {self._shm.size} bytes, "
                f"need {nbytes}"
            )
        self._shape = shape
        self._dtype = dtype
        self._array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        if self.owner:
            self._array[...] = 0 if initial is None else initial

    @property
    def name(self) -> str:
        return self._shm.name

    def describe_state(self) -> Dict[str, Any]:
        return {
            "backend": "shm",
            "name": self._shm.name,
            "shape": list(self._shape),
            "dtype": self._dtype.str,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._array = None
        try:
            self._shm.close()
        except BufferError:
            # A view still pins the buffer somewhere; the OS mapping is
            # released when the last view dies.  Unlink below still works.
            pass
        if self.owner:
            self.unlink()

    def unlink(self) -> None:
        _OWNED_SHM_NAMES.discard(self._shm.name)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


class MmapStorage(CounterStorage):
    """File-backed table: counters survive the process, restore is reattach."""

    backend = "mmap"

    def __init__(
        self,
        shape,
        dtype,
        path: Optional[str] = None,
        initial: Optional[np.ndarray] = None,
        create: bool = True,
    ) -> None:
        super().__init__()
        dtype = np.dtype(dtype)
        shape = tuple(int(dim) for dim in shape)
        if path is None:
            if not create:
                raise StorageError("attaching mmap storage requires a path")
            path = os.path.join(
                tempfile.gettempdir(), f"repro-table-{uuid.uuid4().hex}.bin"
            )
        self.path = os.fspath(path)
        self.owner = create
        if create and initial is None:
            # A fresh *blank* table must never silently zero a surviving
            # one: re-running the same mmap spec after a crash is exactly
            # the moment the file holds the data worth recovering.  (An
            # explicit ``initial`` — restoring a snapshot to a path — is a
            # deliberate overwrite and stays allowed.)
            try:
                existing = os.path.getsize(self.path)
            except OSError:
                existing = 0
            if existing > 0:
                raise StorageError(
                    f"mmap table {self.path!r} already exists; refusing to "
                    "zero a surviving counter table — reattach it via its "
                    "snapshot (repro.restore) or manifest (attach), or "
                    "delete the file for a fresh table"
                )
        if not create:
            # np.memmap in "r+" silently *grows* a short file; a truncated
            # table must surface as an error, not as phantom zero counters.
            nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
            try:
                actual = os.path.getsize(self.path)
            except OSError as error:
                raise StorageError(
                    f"cannot attach mmap table at {self.path!r}: {error}"
                ) from error
            if actual < nbytes:
                raise StorageError(
                    f"mmap table {self.path!r} holds {actual} bytes, "
                    f"need {nbytes}"
                )
        try:
            self._array = np.memmap(
                self.path, dtype=dtype, mode="w+" if create else "r+", shape=shape
            )
        except (OSError, ValueError) as error:
            raise StorageError(
                f"cannot {'create' if create else 'attach'} mmap table at "
                f"{self.path!r}: {error}"
            ) from error
        self._shape = shape
        self._dtype = dtype
        if create and initial is not None:
            self._array[...] = initial

    def flush(self) -> None:
        if self._array is not None:
            self._array.flush()

    def describe_state(self) -> Dict[str, Any]:
        return {
            "backend": "mmap",
            "path": self.path,
            "shape": list(self._shape),
            "dtype": self._dtype.str,
        }

    def close(self) -> None:
        """Flush and release the mapping.  The file is *kept* — that
        persistence is the point of the backend; use :meth:`unlink` to
        delete it."""
        if self._closed:
            return
        self._closed = True
        array, self._array = self._array, None
        if array is not None:
            try:
                array.flush()
            except (OSError, ValueError):
                pass
            mm = getattr(array, "_mmap", None)
            del array
            if mm is not None:
                try:
                    mm.close()
                except BufferError:
                    pass

    def unlink(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def allocate(
    shape,
    dtype,
    backend: str = "dense",
    path: Optional[str] = None,
    initial: Optional[np.ndarray] = None,
) -> CounterStorage:
    """Allocate a fresh counter table on the requested backend."""
    if backend == "dense":
        if path is not None:
            raise StorageError("dense storage takes no path")
        return DenseStorage(shape, dtype, initial=initial)
    if backend == "shm":
        if path is not None:
            raise StorageError(
                "shm segments are named automatically; storage_path is "
                "mmap-only"
            )
        return SharedMemoryStorage(shape, dtype, initial=initial)
    if backend == "mmap":
        return MmapStorage(shape, dtype, path=path, initial=initial, create=True)
    raise StorageError(
        f"unknown storage backend {backend!r}; expected one of {STORAGE_BACKENDS}"
    )


def attach(manifest: Dict[str, Any]) -> CounterStorage:
    """Attach a zero-copy view of storage described by a manifest.

    The manifest is what :meth:`CounterStorage.describe_state` produced in
    the owning process — JSON-safe, so it crosses process boundaries (and
    serialized snapshots) trivially.
    """
    try:
        backend = manifest["backend"]
        shape = tuple(int(dim) for dim in manifest["shape"])
        dtype = np.dtype(manifest["dtype"])
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(f"malformed storage manifest: {error}") from error
    if backend == "shm":
        return SharedMemoryStorage(shape, dtype, name=manifest.get("name"))
    if backend == "mmap":
        return MmapStorage(shape, dtype, path=manifest.get("path"), create=False)
    raise StorageError(f"backend {backend!r} cannot be attached")


class StorageBacked:
    """Mixin threading a :class:`CounterStorage` through a table sketch.

    A subclass names its counter attribute via ``_STORAGE_FIELD`` (e.g.
    ``"_table"`` for Count-Min) and calls :meth:`_init_storage` from its
    constructor; the mixin then provides the backend property, the
    cross-process adoption used by shard workers, serialization state
    (including zero-copy live mmap snapshots), and an idempotent
    :meth:`close` that releases the backend while keeping the sketch
    queryable from a detached dense copy.
    """

    _STORAGE_FIELD = "_table"

    # ------------------------------------------------------------------
    # allocation / introspection
    # ------------------------------------------------------------------
    def _init_storage(
        self,
        shape,
        dtype,
        storage: str = "dense",
        storage_path: Optional[str] = None,
        initial: Optional[np.ndarray] = None,
    ) -> None:
        if storage not in STORAGE_BACKENDS:
            raise ValueError(
                f"storage must be one of {STORAGE_BACKENDS}, got {storage!r}"
            )
        if storage_path is not None and storage != "mmap":
            raise ValueError(
                "storage_path is only meaningful with storage='mmap'"
            )
        self._storage = allocate(
            shape, dtype, storage, path=storage_path, initial=initial
        )
        setattr(self, self._STORAGE_FIELD, self._storage.array)

    @property
    def storage_backend(self) -> str:
        """Which backend holds the counter table (dense / shm / mmap)."""
        return self._storage.backend

    @property
    def storage_path(self) -> Optional[str]:
        """Backing file of an mmap table; None for the other backends."""
        return getattr(self._storage, "path", None)

    def storage_manifest(self) -> Dict[str, Any]:
        """JSON-safe manifest another process can :func:`attach` to."""
        return self._storage.describe_state()

    def flush_storage(self) -> None:
        """Flush pending counter writes to the backing store (mmap)."""
        self._storage.flush()

    # ------------------------------------------------------------------
    # cross-process adoption (worker side of the process executor)
    # ------------------------------------------------------------------
    def adopt_storage(self, manifest: Dict[str, Any]) -> "StorageBacked":
        """Swap the counter array for an attached view of foreign storage.

        The shard worker builds a blank twin from the spec (identical
        shape/dtype/hashes), then adopts the parent's shm table — after
        which every update scatters directly into shared memory.
        """
        attached = attach(manifest)
        expected = getattr(self, self._STORAGE_FIELD)
        if (
            attached.array.shape != expected.shape
            or attached.array.dtype != expected.dtype
        ):
            mismatch = (attached.array.shape, attached.array.dtype)
            attached.close()
            raise StorageError(
                f"storage manifest describes {mismatch}, sketch expects "
                f"({expected.shape}, {expected.dtype})"
            )
        old = getattr(self, "_storage", None)
        self._storage = attached
        setattr(self, self._STORAGE_FIELD, attached.array)
        if old is not None:
            old.close()
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, detach: bool = True) -> None:
        """Release the storage backend (idempotent).

        With ``detach=True`` (default) the current counters are first
        copied into a private dense array, so the sketch keeps answering
        queries after close.  ``detach=False`` skips that copy — for
        objects being discarded outright (deserialization replacements,
        worker shutdown), where copying a large table would be pure waste;
        the sketch must not be used afterwards.  Either way, owned shm
        segments are unlinked and mmap handles flushed and closed (the
        file is kept — it is the persistence).
        """
        storage = getattr(self, "_storage", None)
        if storage is None or storage.closed:
            return
        if storage.backend != "dense" and detach:
            detached = np.array(getattr(self, self._STORAGE_FIELD))
            self._storage = DenseStorage(detached.shape, detached.dtype, detached)
            setattr(self, self._STORAGE_FIELD, self._storage.array)
        storage.close()

    # ------------------------------------------------------------------
    # serialization plumbing
    # ------------------------------------------------------------------
    def _storage_serial_state(self, live: bool = False) -> Dict[str, Any]:
        """State-dict fragment recording the backend for ``to_bytes``.

        ``live=True`` produces the zero-copy mmap form: the table is *not*
        embedded in the buffer — only the file path travels, after a flush —
        so snapshotting is O(1) in the table size and restore reattaches the
        file in place.
        """
        if live:
            if self.storage_backend != "mmap":
                raise SerializationError(
                    "live (zero-copy) snapshots require the mmap backend; "
                    f"this sketch uses {self.storage_backend!r}"
                )
            self._storage.flush()
            return {
                "storage": "mmap",
                "storage_live": True,
                "storage_state": self._storage.describe_state(),
            }
        if self.storage_backend == "dense":
            return {}
        return {"storage": self.storage_backend}

    def _restore_storage(
        self,
        state: dict,
        array: Optional[np.ndarray],
        shape: Tuple[int, ...],
        dtype,
        storage: Optional[str] = None,
        storage_path: Optional[str] = None,
    ) -> None:
        """Rebuild storage from serialized state (the ``from_bytes`` side).

        ``array`` is the embedded table (None for live mmap snapshots).
        ``storage``/``storage_path`` override the recorded backend, which is
        what makes buffers load interchangeably across backends: any sketch
        serialized on any backend restores onto any other.
        """
        dtype = np.dtype(dtype)
        if array is None:
            if not state.get("storage_live"):
                raise SerializationError("buffer carries no counter table")
            if storage not in (None, "mmap"):
                raise SerializationError(
                    "a live mmap snapshot holds no table data; it can only "
                    f"restore onto the mmap backend, not {storage!r}"
                )
            manifest = state.get("storage_state") or {}
            path = storage_path or manifest.get("path")
            if not path:
                raise SerializationError(
                    "live snapshot is missing its storage path"
                )
            try:
                self._storage = MmapStorage(shape, dtype, path=path, create=False)
            except StorageError as error:
                raise SerializationError(str(error)) from error
        else:
            backend = storage if storage is not None else state.get("storage", "dense")
            initial = np.ascontiguousarray(array, dtype=dtype).reshape(shape)
            try:
                self._storage = allocate(
                    shape, dtype, backend, path=storage_path, initial=initial
                )
            except StorageError as error:
                raise SerializationError(str(error)) from error
        setattr(self, self._STORAGE_FIELD, self._storage.array)
