"""Sharded ingestion: split one logical stream across N estimator shards.

This is the scaling layer the merge/serialization machinery exists for.  A
:class:`ShardedEstimator` owns ``num_shards`` identically-configured
estimators (same factory, hence same seeds and hash functions — the merge
compatibility requirement) and splits every ingested batch across them:

* ``key-partition`` (default): a dedicated fingerprint hash routes each key
  to a fixed shard, so all arrivals of a key land on the same shard.  On
  top of the linear sketches, this makes the hash-table/dictionary
  estimators exact — the exact counter, and the opt-hash estimators
  including the adaptive variant's first-occurrence counting (each key's
  first arrival is seen by exactly one Bloom filter).  Estimators whose
  state couples *different* keys — Misra–Gries / Space-Saving (shared
  decrement/eviction) and conservative CMS (counter-dependent updates) —
  see each key's full, in-order substream, but their collapsed results
  carry the merged-summary guarantees rather than matching a serial run
  bit for bit.
* ``round-robin``: each batch splits into contiguous blocks, one per shard,
  with the shard receiving the first block rotating from batch to batch.
  Equivalent for linear sketches (Count-Min, Count Sketch, AMS, Bloom —
  any split of a stream merges back bit-identically), and the cheapest
  split there is: no routing pass, and NumPy batches shard into zero-copy
  views.  Only approximate for the order-dependent estimators.

Ingestion runs on one of three executors:

* ``serial`` (default): plain loop, no extra threads or processes.
* ``thread``: one :class:`~concurrent.futures.ThreadPoolExecutor` task per
  shard.  Shards are disjoint objects, so no locking is needed; NumPy
  releases the GIL in the hashing kernels, which is where batch ingestion
  spends its time.  The only concurrent path for shards without pluggable
  counter storage (opt-hash, the exact counter, the counter summaries).
* ``process``: true parallelism through one *persistent* worker process
  per shard (:class:`~repro.core.workers.ShardWorkerPool`).  The shards'
  counter tables live in shared memory (``storage="shm"`` via
  :mod:`repro.core.storage`) and each worker attaches to its shard's table
  once, at spawn.  Each batch then ships only ``(keys, counts)``; the
  worker scatters directly into the shared table and nothing returns, so
  the parent's resident shards read worker progress live.  Requires
  spec-built shards whose kind supports pluggable storage.
  ``update_batch`` submits and returns immediately — the workers are
  drained lazily, right before anything reads shard state — so the parent
  routes batch N+1 while the workers ingest batch N, with the pool's
  bounded task queues as backpressure.

Queries default to ``collapse``: merge all shards into one estimator (cached
until the next update) and answer from it — for linear sketches this is
bit-identical to having ingested the whole stream into a single sketch.
``fanout`` mode instead routes each queried key to the shard that owns it
(key-partition only).  Fanout answers are exact only for estimators whose
point query depends solely on the queried key's own accumulated state (the
exact counter); estimators that answer from state *shared* across keys —
bucket averages in the opt-hash estimators, counter tables in the sketches —
split that shared state across shards, so the owning shard alone
under-estimates: query those through ``collapse``.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import Callable, Optional, Union

import numpy as np

from repro.api.registry import register_estimator
from repro.api.specs import EstimatorSpec, OptHashSpec, ShardedSpec
from repro.sketches.base import (
    FrequencyEstimator,
    IncompatibleSketchError,
    as_key_batch,
)
from repro.core.workers import WORKER_CHUNK_SIZE, ShardWorkerPool, WorkerDeadError
from repro.sketches.hashing import fingerprint64_batch
from repro.sketches.serialization import (
    SerializationError,
    loads,
    pack,
    register_sketch,
    unpack,
)
from repro.streams.stream import Element

__all__ = ["ShardedEstimator", "WORKER_CHUNK_SIZE"]

#: Seed of the shard-routing fingerprint.  Deliberately distinct from any
#: sketch-level hash seed so shard routing is independent of bucket hashing.
DEFAULT_PARTITION_SEED = 0x51A2DED


def _release_discarded(estimator) -> None:
    """Close a replaced/throwaway estimator's storage without the detach
    copy (it is never used again)."""
    release = getattr(estimator, "close", None)
    if release is None:
        return
    try:
        release(detach=False)
    except TypeError:
        release()


def _build_sharded(cls, spec: ShardedSpec, context: dict) -> "ShardedEstimator":
    """Registry builder for ``{"kind": "sharded", "inner": {...}, ...}``.

    Training-free inner specs construct spec-first (each shard, the collapse
    target, and the process workers' blank twins are all built from the
    spec).  An opt-hash inner spec runs its learning phase *once* and every
    shard wraps the shared trained scheme — retraining per shard would
    produce distinct classifier objects, which the merge compatibility
    checks reject.
    """
    kwargs = dict(
        num_shards=spec.num_shards,
        mode=spec.mode,
        executor=spec.executor,
        query_mode=spec.query_mode,
        partition_seed=(
            spec.partition_seed
            if spec.partition_seed is not None
            else DEFAULT_PARTITION_SEED
        ),
    )
    if isinstance(spec.inner, OptHashSpec):
        sharded = cls(_trained_shard_factory(spec.inner, context), **kwargs)
        sharded.estimator_spec = spec.inner
        return sharded
    return cls(spec.inner, **kwargs)


def _trained_shard_factory(inner: OptHashSpec, context: dict) -> Callable:
    """Train opt-hash once; return a factory of scheme-sharing shards."""
    from repro.core.estimator import estimator_from_scheme
    from repro.core.pipeline import train_opt_hash

    training = train_opt_hash(
        context["prefix"], inner, featurizer=context.get("featurizer")
    )
    scheme = training.scheme
    initial = {
        key: float(frequency)
        for key, frequency in zip(training.stored_keys, training.stored_frequencies)
    }
    return lambda: estimator_from_scheme(inner, scheme, initial)


@register_estimator("sharded", spec_cls=ShardedSpec, builder=_build_sharded)
@register_sketch("sharded")
class ShardedEstimator(FrequencyEstimator):
    """N identically-configured estimator shards behind one estimator API.

    Parameters
    ----------
    factory:
        What produces one shard estimator: an
        :class:`~repro.api.specs.EstimatorSpec` (or its JSON-safe dict
        form) built once per shard through ``repro.api.build`` — or a
        zero-argument callable (the registry's trained opt-hash path builds
        scheme-sharing shards this way; the process executor needs a spec).
        Every construction must yield an identically-configured (mergeable)
        instance; spec construction enforces this by requiring an explicit
        seed for randomized estimators, while a callable must arrange it
        itself.
    num_shards:
        Number of shards (``k >= 1``).
    mode:
        ``"key-partition"`` (exact for linear sketches and the hash-table/
        dictionary estimators; merged-summary guarantees for the rest) or
        ``"round-robin"`` (exact for linear sketches only).
    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docstring).
    query_mode:
        ``"collapse"`` (default; query the merged estimator) or ``"fanout"``
        (route queries to owning shards; requires key partitioning and is
        only exact for per-key-state estimators — see module docstring).
    partition_seed:
        Seed of the key-routing fingerprint hash.
    """

    MODES = ("key-partition", "round-robin")
    EXECUTORS = ("serial", "thread", "process")
    QUERY_MODES = ("collapse", "fanout")
    #: Process-mode backlog cap: at most this many in-flight batches per
    #: shard before update_batch blocks on the shard's full task queue.
    _MAX_PENDING_FACTOR = 4

    def __init__(
        self,
        factory: Union[Callable[[], FrequencyEstimator], EstimatorSpec, dict],
        num_shards: int,
        mode: str = "key-partition",
        executor: str = "serial",
        query_mode: str = "collapse",
        partition_seed: int = DEFAULT_PARTITION_SEED,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if executor not in self.EXECUTORS:
            raise ValueError(
                f"executor must be one of {self.EXECUTORS}, got {executor!r}"
            )
        if query_mode not in self.QUERY_MODES:
            raise ValueError(
                f"query_mode must be one of {self.QUERY_MODES}, got {query_mode!r}"
            )
        if query_mode == "fanout" and mode != "key-partition":
            raise ValueError(
                "fanout queries require key partitioning (round-robin spreads "
                "each key's arrivals over every shard)"
            )
        self.num_shards = num_shards
        self.mode = mode
        self.executor = executor
        self.query_mode = query_mode
        self._partition_seed = partition_seed
        #: Inner-shard spec, when known.  Set either by spec-based
        #: construction (then shards are rebuildable from it anywhere) or as
        #: metadata by the registry's trained-factory path.
        self.estimator_spec: Optional[EstimatorSpec] = None
        self._spec_constructible = False
        if not callable(factory):
            from repro.api.registry import (
                build as _api_build,
                check_deterministic_for_sharding,
            )
            from repro.api.specs import spec_from_dict

            spec = spec_from_dict(factory)
            check_deterministic_for_sharding(spec)
            self.estimator_spec = spec
            self._spec_constructible = True
            factory = lambda: _api_build(spec)  # noqa: E731
        self._factory = factory
        # Merge/collapse targets are transient (one per collapse / cached
        # query estimator): build them dense whatever storage the shards
        # use, or every query cycle would allocate a fresh shm segment or
        # orphan an mmap temp file.  Only possible for spec-built shards;
        # a callable factory is opaque.
        self._merge_factory = factory
        if self._spec_constructible:
            base_dict = self.estimator_spec.to_dict()
            had_storage = base_dict.pop("storage", None) is not None
            had_storage = base_dict.pop("storage_path", None) is not None or had_storage
            if had_storage:
                from repro.api.registry import build as _build_dense

                self._merge_factory = lambda: _build_dense(base_dict)
        self._shard_spec_dict = None
        if executor == "process":
            self._init_shm_shards(num_shards)
        else:
            self.shards = [factory() for _ in range(num_shards)]
        # Shards must speak the batch ingestion + merge protocol; rejecting
        # here turns "bloom cannot shard" into one clear error instead of an
        # AttributeError mid-stream.
        for required in ("update_batch", "merge"):
            if not hasattr(self.shards[0], required):
                raise ValueError(
                    f"{type(self.shards[0]).__name__} cannot be sharded: it "
                    f"has no {required}()"
                )
        self._round_robin_offset = 0
        self._collapsed: Optional[FrequencyEstimator] = None
        self._obs = None
        self._m_routing = None
        self._m_shard_keys = None
        self._m_pending = None
        self._thread_pool = None
        self._worker_pool: Optional[ShardWorkerPool] = None
        self._closed = False
        #: Supervision (opt-in, process executor only): a dead worker marks
        #: its shard down instead of failing the whole estimator, ingestion
        #: and queries continue on the survivors, and a supervisor calls
        #: :meth:`rebuild_shard` to bring the shard back.  See
        #: :meth:`enable_supervision`.
        self.supervised = False
        self._down_shards: set = set()
        # The process executor's persistent worker pool spawns lazily (first
        # ingest or warm_up), so deserialized instances can swap their
        # shards in before any worker attaches a table.
        if executor == "thread":
            self._thread_pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=num_shards
            )

    # ------------------------------------------------------------------
    # process executor plumbing
    # ------------------------------------------------------------------
    def _init_shm_shards(self, num_shards: int) -> None:
        """Build the shards with shared-memory counter tables.

        The inner spec is re-targeted at ``storage="shm"`` so each shard's
        table lives in a named segment the persistent workers can attach
        (collapse/merge targets stay dense — see ``_merge_factory``).
        """
        from repro.api.registry import build as _api_build, kind_supports_storage

        if not self._spec_constructible:
            raise ValueError(
                "the process executor requires spec-built shards (pass an "
                "EstimatorSpec or spec dict, not a callable factory): the "
                "persistent workers rebuild their blank twin from the spec"
            )
        inner_kind = self.estimator_spec.kind
        if not kind_supports_storage(inner_kind):
            raise ValueError(
                f"kind {inner_kind!r} has no pluggable counter storage, so "
                "the process executor cannot share its tables; use the "
                "serial or thread executor"
            )
        shard_dict = self.estimator_spec.to_dict()
        if shard_dict.get("storage") == "mmap":
            raise ValueError(
                "mmap-backed shards cannot run on the process executor (its "
                "workers share shm tables; one file cannot back both); pick "
                "storage='shm' or the serial or thread executor"
            )
        shard_dict["storage"] = "shm"
        shard_dict.pop("storage_path", None)
        self._shard_spec_dict = shard_dict
        self.shards = [_api_build(shard_dict) for _ in range(num_shards)]

    def _ensure_workers(self) -> ShardWorkerPool:
        """Spawn the persistent worker pool on first use."""
        if self._closed:
            raise RuntimeError("ShardedEstimator is closed")
        if self._worker_pool is None:
            manifests = [shard.storage_manifest() for shard in self.shards]
            self._worker_pool = ShardWorkerPool(
                self._shard_spec_dict,
                manifests,
                max_pending=self._MAX_PENDING_FACTOR,
                supervised=self.supervised,
            )
            if self._obs is not None:
                self._worker_pool.instrument(self._obs)
        return self._worker_pool

    # ------------------------------------------------------------------
    # supervision (process executor)
    # ------------------------------------------------------------------
    def enable_supervision(self) -> "ShardedEstimator":
        """Switch to localized failure handling (process executor only).

        After this, a dead or failed worker no longer poisons the whole
        estimator: its shard joins :attr:`down_shards`, batches routed to it
        are dropped (the service's write-ahead log re-supplies them during
        :meth:`rebuild_shard`), and queries/drains proceed on the
        survivors.  Only meaningful for key-partition routing — round-robin
        spreads every key over all shards, so no single shard can be
        rebuilt from a key-determined log slice.
        """
        if self.executor != "process":
            raise ValueError("supervision requires the process executor")
        if self.mode != "key-partition":
            raise ValueError(
                "supervision requires key-partition routing (round-robin "
                "shard content is not determined by the keys)"
            )
        self.supervised = True
        if self._worker_pool is not None:
            self._worker_pool.supervised = True
        return self

    @property
    def down_shards(self) -> frozenset:
        """Shards currently awaiting rebuild (supervised mode)."""
        return frozenset(self._down_shards)

    def check_workers(self) -> set:
        """Detect dead/failed workers; returns the *newly* down shard set.

        Cheap (one ``is_alive`` + one event check per shard) and safe to
        call from a poll loop.  Error messages the dead workers left behind
        are drained without raising — the death is already attributed.
        """
        if not self.supervised or self._worker_pool is None:
            return set()
        newly: set = set()
        for index, worker in enumerate(self._worker_pool._workers):
            if index in self._down_shards:
                continue
            if not worker.process.is_alive() or worker.failed.is_set():
                self._down_shards.add(index)
                newly.add(index)
        if newly:
            self._worker_pool.drain_errors()
            self._collapsed = None
        return newly

    def rebuild_shard(
        self, shard_index: int, *, restored=None, records=(), timeout: float = 30.0
    ) -> "ShardedEstimator":
        """Bring a down shard back: restore counters, revive, replay.

        The shard's shared table is *discarded* (the dead worker may have
        died mid-scatter, leaving a partially-applied batch) and rebuilt
        from ``restored`` — the table from the last snapshot, or zeros when
        none exists — then the worker process is replaced and ``records``
        (the shard's WAL slice since that snapshot) are re-ingested through
        it.  Blocks until the replay is fully acknowledged, so on return
        the shard is exact again.
        """
        if not self.supervised:
            raise RuntimeError("rebuild_shard requires supervision")
        pool = self._ensure_workers()
        shard = self.shards[shard_index]
        field = getattr(shard, "_STORAGE_FIELD", None)
        if field is None:
            raise RuntimeError("supervised shards must be storage-backed")
        table = getattr(shard, field)
        if restored is not None:
            np.copyto(table, np.asarray(restored, dtype=table.dtype))
        else:
            table[...] = 0
        pool.revive(shard_index, shard.storage_manifest(), timeout=timeout)
        for record in records:
            keys = record.keys
            items = keys if isinstance(keys, np.ndarray) else list(keys)
            _, count_array = as_key_batch(items, record.counts)
            pool.submit(shard_index, items, count_array)
        # Drain just this worker (exclude the others: a concurrently-down
        # sibling must not fail the rebuild of this shard).
        pool.join(exclude=frozenset(range(self.num_shards)) - {shard_index})
        self._collapsed = None
        self._down_shards.discard(shard_index)
        return self

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def instrument(self, metrics) -> "ShardedEstimator":
        """Register routing/skew/backlog metrics on a registry.

        Opt-in: an un-instrumented estimator's ingest path carries no
        timing calls at all.  Cascades to the persistent worker pool (now
        or when it spawns) so one registry covers routing *and* scatter.
        """
        self._obs = metrics
        self._m_routing = metrics.histogram(
            "repro_sharded_routing_seconds",
            "Per-batch key-to-shard partitioning latency.",
        )
        self._m_shard_keys = metrics.counter(
            "repro_sharded_keys_total",
            "Arrivals routed to each shard (per-shard key skew).",
            labels=("shard",),
        )
        self._m_pending = metrics.gauge(
            "repro_sharded_pending_batches",
            "Submitted-but-unacked ingestion batches (process executor).",
        )
        if self._worker_pool is not None:
            self._worker_pool.instrument(metrics)
        return self

    def _pending_batches(self) -> int:
        if self._worker_pool is None:
            return 0
        return sum(
            max(0, worker.submitted - worker.acked.value)
            for worker in self._worker_pool._workers
        )

    def sync_metrics(self) -> None:
        """Refresh the backlog gauge and the pool's mirrored counters."""
        if self._obs is None:
            return
        if self._worker_pool is not None:
            self._worker_pool.sync_metrics()
        self._m_pending.set(self._pending_batches())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of_keys(self, key_batch) -> np.ndarray:
        """Deterministic shard index per key (key-partition routing)."""
        fingerprints = fingerprint64_batch(key_batch, seed=self._partition_seed)
        return (fingerprints % np.uint64(self.num_shards)).astype(np.intp)

    @staticmethod
    def _take(items, indices: np.ndarray):
        if isinstance(items, np.ndarray):
            return items[indices]
        return [items[index] for index in indices]

    def _partition_jobs(self, items, key_batch, count_array, n):
        """Split a normalized batch into per-shard ``(index, keys, counts)``."""
        if self.num_shards == 1:
            return [(0, items, count_array)]
        if self.mode == "round-robin":
            # Contiguous blocks (zero-copy views for arrays), rotating which
            # shard receives the first block so partial batches balance out.
            bounds = [n * block // self.num_shards for block in range(self.num_shards + 1)]
            offset = self._round_robin_offset
            self._round_robin_offset = (offset + 1) % self.num_shards
            return [
                (
                    (offset + block) % self.num_shards,
                    items[bounds[block] : bounds[block + 1]],
                    count_array[bounds[block] : bounds[block + 1]],
                )
                for block in range(self.num_shards)
                if bounds[block + 1] > bounds[block]
            ]
        assignments = self.shard_of_keys(key_batch)
        jobs = []
        for shard_index in range(self.num_shards):
            selected = np.flatnonzero(assignments == shard_index)
            if selected.size:
                jobs.append(
                    (shard_index, self._take(items, selected), count_array[selected])
                )
        return jobs

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def update(self, element: Element) -> None:
        self.update_batch([element])

    def update_batch(self, keys, counts=None) -> None:
        """Split a batch across the shards and ingest each part.

        ``items`` (possibly full elements, for feature-routing estimators)
        are what the shards receive; the normalized key view only drives the
        shard assignment.
        """
        items = keys if isinstance(keys, np.ndarray) else list(keys)
        key_batch, count_array = as_key_batch(items, counts)
        n = len(key_batch)
        if n == 0:
            return
        self._collapsed = None
        if self._obs is not None:
            route_start = time.perf_counter()
            jobs = self._partition_jobs(items, key_batch, count_array, n)
            self._m_routing.observe(time.perf_counter() - route_start)
            for shard_index, part, _ in jobs:
                self._m_shard_keys.labels(shard=str(shard_index)).inc(len(part))
        else:
            jobs = self._partition_jobs(items, key_batch, count_array, n)
        if self.executor == "process":
            # Persistent workers scatter straight into the shared tables;
            # only (keys, counts) cross the process boundary and nothing
            # returns.  Backpressure is the pool's bounded task queues.
            pool = self._ensure_workers()
            for shard_index, part, part_counts in jobs:
                if self.supervised and shard_index in self._down_shards:
                    # Dropped, not lost: the supervisor re-supplies the
                    # shard's arrivals from the write-ahead log on rebuild.
                    continue
                try:
                    pool.submit(shard_index, part, part_counts)
                except WorkerDeadError as error:
                    if not self.supervised:
                        raise
                    self._down_shards.add(error.shard_index)
                    self._collapsed = None
                    pool.drain_errors()
        elif self.executor == "thread":
            list(
                self._thread_pool.map(
                    lambda job: self._ingest_resident(job[0], job[1], job[2]), jobs
                )
            )
        else:
            for shard_index, part, part_counts in jobs:
                self._ingest_resident(shard_index, part, part_counts)

    def _ingest_resident(self, shard_index: int, part, part_counts) -> None:
        """Chunked in-process ingestion into a resident shard.

        Large sub-batches are re-chunked to the cache-friendly size — the
        vectorized sketch kernels lose most of their throughput when their
        scatter/gather temporaries outgrow the cache.
        """
        shard = self.shards[shard_index]
        for start in range(0, len(part), WORKER_CHUNK_SIZE):
            shard.update_batch(
                part[start : start + WORKER_CHUNK_SIZE],
                part_counts[start : start + WORKER_CHUNK_SIZE],
            )

    def _drain_pending(self) -> None:
        """Block until the workers have acked every submitted batch.

        Their writes land in the shared tables directly, so there is
        nothing to merge back.  No-op without a process worker pool.
        """
        if self._worker_pool is None:
            return
        if not self.supervised:
            self._worker_pool.join()
            return
        # Survivors drain; a down shard's backlog is unreachable until
        # rebuild (and re-supplied by the WAL then).  A worker dying
        # *during* this drain joins the down set instead of failing the
        # consistency point for the healthy shards.
        while True:
            try:
                self._worker_pool.join(exclude=frozenset(self._down_shards))
                return
            except WorkerDeadError as error:
                self._down_shards.add(error.shard_index)
                self._collapsed = None
                self._worker_pool.drain_errors()

    def drain(self) -> "ShardedEstimator":
        """Block until every submitted batch is reflected in shard state.

        The public face of the lazy-drain machinery, for callers that need
        a consistency point without a query — the streaming service drains
        before every snapshot, and its ``flush`` op is exactly this.  A
        worker that died or failed mid-stream raises here instead of
        hanging.  No-op when nothing is outstanding (serial/thread
        executors ingest synchronously).
        """
        self._drain_pending()
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, element: Element) -> float:
        return float(self.estimate_batch([element])[0])

    def estimate_batch(self, keys) -> np.ndarray:
        if self.query_mode == "fanout":
            return self._fanout_estimate(keys)
        return self.collapsed().estimate_batch(keys)

    def _fanout_estimate(self, keys) -> np.ndarray:
        self._drain_pending()
        items = keys if isinstance(keys, np.ndarray) else list(keys)
        key_batch, _ = as_key_batch(items)
        n = len(key_batch)
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        estimates = np.zeros(n, dtype=np.float64)
        assignments = self.shard_of_keys(key_batch)
        for shard_index in range(self.num_shards):
            selected = np.flatnonzero(assignments == shard_index)
            if selected.size:
                estimates[selected] = self.shards[shard_index].estimate_batch(
                    self._take(items, selected)
                )
        return estimates

    # ------------------------------------------------------------------
    # collapse / lifecycle
    # ------------------------------------------------------------------
    def collapse(self) -> FrequencyEstimator:
        """Merge every shard into one fresh estimator and return it.

        The merge target comes from the factory — another identically-
        configured instance, sharing any referenced objects (learned scheme,
        oracle, classifier) with the shards, so the identity-based
        compatibility checks hold by construction.  For linear sketches the
        result is bit-identical to single-sketch ingestion of the whole
        stream; for the counter summaries it carries the standard
        merged-summary guarantees.
        """
        self._drain_pending()
        merged = self._merge_factory()
        for shard in self.shards:
            merged.merge(shard)
        return merged

    def collapsed(self) -> FrequencyEstimator:
        """Cached :meth:`collapse`, invalidated by the next update."""
        if self._collapsed is None:
            self._collapsed = self.collapse()
        return self._collapsed

    def live_estimate(self, keys) -> np.ndarray:
        """Point queries against the shards' *current* state, without
        draining in-flight batches.

        On the process executor the workers write the shared tables in
        place, so this observes their progress mid-stream.  (The serial and
        thread executors ingest synchronously, so there is nothing to
        skip.)  Answers are exact once the stream is drained, monotone
        under-counts before.
        """
        merged = self._merge_factory()
        for index, shard in enumerate(self.shards):
            if self.supervised and index in self._down_shards:
                # A down shard's table may hold a torn, partially-scattered
                # batch; degraded answers come from the survivors only.
                continue
            merged.merge(shard)
        return merged.estimate_batch(keys)

    def warm_up(self) -> "ShardedEstimator":
        """Eagerly spawn the executor's workers.

        The process workers spawn lazily on first ingest, which would
        otherwise charge worker startup to the first batch; long-lived
        services warm the pool at deploy time instead.  This spawns the
        persistent workers and blocks until each has attached its shard's
        table (the thread executor starts its threads).  No-op for the
        serial executor.
        """
        if self.executor == "process":
            self._ensure_workers().wait_ready()
            return self
        if self._thread_pool is not None:
            list(self._thread_pool.map(int, range(self.num_shards), chunksize=1))
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Drain outstanding work and release every backend resource.

        Idempotent.  Shuts down the executor/worker pools and releases the
        shards' counter storage: owned shm segments are unlinked, mmap
        handles flushed and closed (files kept).  The shards detach into
        private dense copies first, so the estimator keeps answering
        queries after close.  ``timeout`` bounds the worker pool's
        ack-counting shutdown drain (process executor): workers still
        undrained at the deadline are terminated.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._drain_pending()
        finally:
            if self._worker_pool is not None:
                self._worker_pool.close(timeout=timeout)
                self._worker_pool = None
            if self._thread_pool is not None:
                self._thread_pool.shutdown()
                self._thread_pool = None
            for shard in self.shards:
                release = getattr(shard, "close", None)
                if release is not None:
                    release()

    def __enter__(self) -> "ShardedEstimator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # FrequencyEstimator plumbing
    # ------------------------------------------------------------------
    @property
    def routes_by_features(self) -> bool:
        """Replay must keep elements when any shard routes by features."""
        return any(
            getattr(shard, "routes_by_features", False) for shard in self.shards
        )

    @property
    def kernel_backend(self):
        """The kernel backend the shards run on (None for non-kernel kinds).

        Shards are built from one spec, so shard 0 speaks for all of them.
        """
        return getattr(self.shards[0], "kernel_backend", None)

    @property
    def storage_backend(self):
        """The storage backend holding shard counters (None when inapplicable)."""
        return getattr(self.shards[0], "storage_backend", None)

    @property
    def size_bytes(self) -> int:
        self._drain_pending()
        return sum(shard.size_bytes for shard in self.shards)

    def merge(self, other: FrequencyEstimator) -> FrequencyEstimator:
        """Merge another sharded (or plain) estimator into this one.

        A :class:`ShardedEstimator` with the same layout (shard count, mode,
        partition seed) merges shard by shard, preserving fan-out routing.
        Anything else — a plain estimator, or a differently-laid-out sharded
        one — is folded into shard 0, which keeps collapse-mode queries
        exact but would corrupt fan-out routing, so it is rejected when
        ``query_mode == "fanout"``.
        """
        self._collapsed = None
        self._drain_pending()
        if isinstance(other, ShardedEstimator):
            other._drain_pending()
        if (
            isinstance(other, ShardedEstimator)
            and other.num_shards == self.num_shards
            and other.mode == self.mode
            and other._partition_seed == self._partition_seed
        ):
            for mine, theirs in zip(self.shards, other.shards):
                mine.merge(theirs)
            return self
        if self.query_mode == "fanout":
            raise IncompatibleSketchError(
                "cannot fold foreign state into a fanout-queried sharded "
                "estimator: keys would no longer resolve to the shard that "
                "holds their counts"
            )
        folded = other.collapse() if isinstance(other, ShardedEstimator) else other
        self.shards[0].merge(folded)
        return self

    # ------------------------------------------------------------------
    # spec / describe / serialization
    # ------------------------------------------------------------------
    def spec(self) -> Optional[ShardedSpec]:
        """The full :class:`ShardedSpec` of this estimator, when known.

        Available for spec-based construction (and for the registry's
        trained opt-hash path, whose inner spec is recorded as metadata);
        ``None`` when built from an opaque callable factory.
        """
        if self.estimator_spec is None:
            return None
        return ShardedSpec(
            self.estimator_spec,
            num_shards=self.num_shards,
            mode=self.mode,
            executor=self.executor,
            query_mode=self.query_mode,
            partition_seed=(
                None
                if self._partition_seed == DEFAULT_PARTITION_SEED
                else self._partition_seed
            ),
        )

    def _describe_params(self) -> dict:
        params = {
            "num_shards": self.num_shards,
            "mode": self.mode,
            "executor": self.executor,
            "query_mode": self.query_mode,
        }
        if self.estimator_spec is not None:
            params["inner"] = self.estimator_spec.to_dict()
        else:
            params["inner"] = type(self.shards[0]).__name__
        return params

    def to_bytes(self) -> bytes:
        """Serialize layout spec + every shard's state into one buffer.

        Requires spec-based construction: the buffer must carry enough to
        rebuild the estimator anywhere, and an opaque callable factory
        cannot travel.
        """
        if not self._spec_constructible:
            raise SerializationError(
                "only spec-built ShardedEstimators serialize; this one was "
                "constructed from a callable factory (build it from a "
                "ShardedSpec / spec dict instead)"
            )
        self._drain_pending()
        arrays = {
            f"shard_{index}": np.frombuffer(shard.to_bytes(), dtype=np.uint8)
            for index, shard in enumerate(self.shards)
        }
        state = {
            "spec": self.spec().to_dict(),
            "round_robin_offset": self._round_robin_offset,
        }
        return pack("sharded", state, arrays)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardedEstimator":
        _, state, arrays = unpack(data, expect_tag="sharded")
        spec_dict = state.get("spec")
        if not isinstance(spec_dict, dict):
            raise SerializationError("sharded buffer is missing its spec")
        from repro.api.registry import build as _api_build
        from repro.api.specs import SpecError

        try:
            sharded = _api_build(spec_dict)
        except SpecError as error:
            raise SerializationError(
                f"sharded buffer holds an invalid spec: {error}"
            ) from error
        expect_kind = spec_dict.get("inner", {}).get("kind")
        # Process workers attach shm tables, whatever backend the buffer
        # recorded: buffers written by the serialization transport hold
        # dense shards under executor="process".
        storage = "shm" if sharded.executor == "process" else None
        for index in range(sharded.num_shards):
            name = f"shard_{index}"
            if name not in arrays:
                raise SerializationError(f"sharded buffer is missing {name!r}")
            replaced = sharded.shards[index]
            sharded.shards[index] = loads(
                arrays[name].tobytes(), expect_kind=expect_kind, storage=storage
            )
            # The build-time shard is dropped unused; release its storage
            # (process-executor builds allocate one segment per shard) without
            # the keep-queryable detach copy.
            _release_discarded(replaced)
        sharded._round_robin_offset = int(state.get("round_robin_offset", 0))
        sharded._collapsed = None
        return sharded
