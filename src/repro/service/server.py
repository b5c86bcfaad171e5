"""The asyncio streaming ingestion daemon.

One :class:`StreamingService` owns one :class:`~repro.api.session.Session`
(built from a spec, or restored from the previous run's snapshot) and puts
it behind a socket:

* **Accept** — each client connection is an asyncio reader task; frames are
  newline-delimited JSON with an optional binary payload (see
  :mod:`repro.service.protocol`).
* **Coalesce** — ingest batches land in a bounded buffer; a single pump
  task flushes it into ``estimator.update_batch`` whenever the backlog
  reaches the worker chunk size *or* a flush deadline expires, whichever
  comes first.  One partition pass per micro-batch routes the coalesced
  arrivals to their shards; with the process executor the shard workers then
  scatter into shared memory in parallel with everything below.
* **Backpressure** — when the buffer is at capacity, ingest handlers
  *await* space instead of acking, which stops reading those sockets; TCP
  flow control pushes the stall back to the writers.  Bounded end to end.
* **Serve live** — ``estimate`` answers from the shards' current tables
  (``live_estimate``) without draining in-flight batches: readers never
  wait on writers.
* **Drain / snapshot / restart** — SIGTERM (or ``shutdown``) stops intake,
  flushes the buffer, drains the shard workers, writes an atomic snapshot
  via :meth:`Session.save`, and exits; constructing the service with the
  same ``snapshot_path`` resumes from it.  Every *acknowledged* ingest is
  in the snapshot by construction.

Estimator access is serialized through a one-thread executor: the pump's
``update_batch`` (cheap routing — heavy scatters happen in the shard
worker processes) and queries interleave there without locking the event
loop or each other.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import contextlib
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import session as api_session
from repro.core.workers import WORKER_CHUNK_SIZE
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
    StructuredLogger,
)
from repro.resilience import failpoints
from repro.resilience.supervisor import RestartBudget, load_shard_state
from repro.resilience.wal import DEFAULT_SEGMENT_BYTES, ServiceWAL
from repro.service import protocol

__all__ = ["StreamingService", "ServiceThread"]


def _is_strict_int(value) -> bool:
    """True for real integers only — JSON booleans are ints to isinstance."""
    return isinstance(value, int) and not isinstance(value, bool)


def _all_int_keys(keys) -> bool:
    """True when every key is a genuine int (bool keys stay Python objects)."""
    return bool(keys) and all(_is_strict_int(key) for key in keys)

#: Default coalescing deadline: a micro-batch is flushed at the latest this
#: many seconds after its first arrival, even when under-full.
DEFAULT_FLUSH_INTERVAL = 0.05

#: Default buffer bound (keys, not batches): ingest acks stall once this
#: many arrivals are buffered but not yet handed to the estimator.
DEFAULT_MAX_BUFFERED_KEYS = 4 * WORKER_CHUNK_SIZE


class _IngestBuffer:
    """The bounded micro-batch buffer between connections and the pump.

    Each part carries the WAL marks (lane → seq) its append produced (or
    ``None`` without a WAL), so the pump can advance the processed-marks
    watermark once the part is applied.
    """

    __slots__ = ("parts", "total_keys", "accepted_keys", "accepted_batches")

    def __init__(self) -> None:
        self.parts: List[Tuple[Any, Optional[np.ndarray], Optional[Dict[int, int]]]] = []
        self.total_keys = 0
        self.accepted_keys = 0
        self.accepted_batches = 0

    def add(self, keys, counts, marks=None) -> int:
        n = len(keys)
        self.parts.append((keys, counts, marks))
        self.total_keys += n
        self.accepted_keys += n
        self.accepted_batches += 1
        return n

    def take(self) -> List[Tuple[Any, Optional[np.ndarray], Optional[Dict[int, int]]]]:
        parts, self.parts = self.parts, []
        self.total_keys = 0
        return parts


def _coalesce(parts):
    """Merge buffered (keys, counts, marks) parts into one update_batch call.

    All-ndarray int batches concatenate (the binary-ingest hot path);
    anything else falls back to one Python list.  Counts default to ones
    only where a part omitted them, so weighted and unweighted parts mix.
    WAL marks merge to the per-lane maximum (appends are in seq order, so
    the coalesced batch's marks are simply the newest of its parts').
    """
    marks: Dict[int, int] = {}
    for _, _, part_marks in parts:
        if part_marks:
            for lane, seq in part_marks.items():
                if seq > marks.get(lane, 0):
                    marks[lane] = seq
    if len(parts) == 1:
        return parts[0][0], parts[0][1], marks
    if all(isinstance(keys, np.ndarray) for keys, _, _ in parts):
        keys = np.concatenate([part_keys for part_keys, _, _ in parts])
    else:
        keys = []
        for part_keys, _, _ in parts:
            keys.extend(
                part_keys.tolist() if isinstance(part_keys, np.ndarray) else part_keys
            )
    if all(part_counts is None for _, part_counts, _ in parts):
        return keys, None, marks
    counts = np.concatenate(
        [
            part_counts
            if part_counts is not None
            else np.ones(len(part_keys), dtype=np.int64)
            for part_keys, part_counts, _ in parts
        ]
    )
    return keys, counts, marks


class StreamingService:
    """A long-running ingest/query daemon over one estimator session.

    Parameters
    ----------
    spec:
        Estimator spec (or dict) to build when no snapshot exists.  May be
        ``None`` if ``snapshot_path`` names an existing snapshot.
    snapshot_path:
        Where graceful shutdown writes the restart snapshot — and where
        the service resumes from when the file already exists at startup.
    unix_path / host, port:
        Listen endpoint: a Unix socket path, or a TCP host/port (pass
        ``port=0`` for an ephemeral port, read back from ``endpoint``).
    flush_interval:
        Micro-batch coalescing deadline in seconds.
    rotation_interval:
        Wall-clock pane rotation period in seconds for temporal estimators
        (``sliding_window`` / ``decayed`` specs built with
        ``pane_items=None``).  The tick rides the pump's existing flush
        timer — no extra task or polling loop — and runs on the estimator
        thread, so it always lands between micro-batches.  Monotonic: a
        pump stalled past several deadlines catches up with multiple
        ticks (capped at the ring size; beyond that every pane is already
        blank).  Requires an estimator exposing ``tick()``.
    max_buffered_keys:
        Backpressure bound on arrivals accepted but not yet applied.
    metrics_host / metrics_port:
        When ``metrics_port`` is given, a plain-HTTP listener additionally
        serves ``GET /metrics`` in Prometheus text format (pass ``0`` for
        an ephemeral port, read back from ``metrics_endpoint``).  The same
        exposition is always available in-protocol through the ``metrics``
        op.
    instrument:
        ``False`` swaps the registry for no-op metrics — the baseline the
        ≤5% overhead gate (``benchmarks/test_obs_overhead.py``) compares
        against.
    log:
        Optional :class:`~repro.obs.StructuredLogger` for JSON-lines
        lifecycle events (start/stop/failure, per-stage shutdown timings).
        Defaults to a disabled logger.
    wal_dir:
        Directory for the write-ahead log.  When set, every ingest batch
        is appended (and OS-flushed) *before* it is acknowledged, and
        startup replays whatever the snapshot does not cover — every
        acked key then survives SIGKILL, not just graceful shutdown.
        For key-partitioned shm-sharded estimators the log is split into
        per-shard lanes, which also enables shard supervision (see
        ``supervise``).
    wal_sync:
        ``"os"`` (default) flushes each record to the page cache —
        survives process death; ``"always"`` additionally fsyncs per
        record — survives machine crashes, at a syscall per batch.
    wal_segment_bytes:
        WAL segment rotation threshold.
    dedup_window:
        How many recent ingest ``request_id``\\ s the service remembers.
        A retried (already applied) request inside the window is re-acked
        without being re-counted; the window is rebuilt from the WAL on
        restart.
    supervise:
        With a WAL and a key-partitioned shm-sharded estimator, a dead
        shard worker no longer parks the service: queries answer
        ``degraded: true`` from the surviving shards while a supervisor
        rebuilds the shard from spec + last snapshot + its WAL lane.
        The circuit breaker below bounds how hard it tries.
    max_restarts / restart_window:
        Per-shard circuit breaker: more than ``max_restarts`` restart
        attempts within ``restart_window`` seconds parks the service
        (a shard that keeps dying is a bug, not a blip).
    """

    def __init__(
        self,
        spec=None,
        *,
        snapshot_path: Optional[str] = None,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        rotation_interval: Optional[float] = None,
        max_buffered_keys: int = DEFAULT_MAX_BUFFERED_KEYS,
        metrics_host: Optional[str] = None,
        metrics_port: Optional[int] = None,
        instrument: bool = True,
        log: Optional[StructuredLogger] = None,
        prefix=None,
        featurizer=None,
        wal_dir: Optional[str] = None,
        wal_sync: str = "os",
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        dedup_window: int = 65536,
        supervise: bool = True,
        max_restarts: int = 5,
        restart_window: float = 60.0,
    ) -> None:
        if unix_path is None and host is None:
            raise ValueError("pass unix_path=... or host=/port= to listen on")
        if unix_path is not None and host is not None:
            raise ValueError("pass either unix_path or host/port, not both")
        if spec is None and not (snapshot_path and os.path.exists(snapshot_path)):
            raise ValueError(
                "no spec and no existing snapshot to restore — nothing to serve"
            )
        self._spec = spec
        self._prefix = prefix
        self._featurizer = featurizer
        self.snapshot_path = snapshot_path
        self._unix_path = unix_path
        self._host = host
        self._port = port
        self.flush_interval = float(flush_interval)
        if rotation_interval is not None and not rotation_interval > 0:
            raise ValueError(
                f"rotation_interval must be positive, got {rotation_interval!r}"
            )
        self.rotation_interval = (
            float(rotation_interval) if rotation_interval is not None else None
        )
        self.max_buffered_keys = int(max_buffered_keys)
        self.restored = False

        self.session: Optional[api_session.Session] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._stopped_future: Optional[asyncio.Future] = None
        self._stop_task: Optional[asyncio.Task] = None
        # One thread for ALL estimator access: routing-side update_batch,
        # drains, live queries, snapshots.  Serializing them here (instead
        # of locking inside the estimator) keeps the estimator single-
        # threaded by construction; real parallelism lives in the shard
        # worker processes behind it.
        self._estimator_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-estimator"
        )
        self._buffer = _IngestBuffer()
        self._data_event = asyncio.Event()  # buffer became non-empty / stopping
        self._chunk_event = asyncio.Event()  # buffer reached the chunk target
        self._space_event = asyncio.Event()  # buffer dropped below the bound
        self._applied_event = asyncio.Event()  # pump finished one apply
        self._space_event.set()
        self._stopping = False
        self._failure: Optional[str] = None
        self._started_at = time.monotonic()
        self._applied_keys = 0
        self._applied_batches = 0
        self._connections = 0
        self._rotations = 0  # service-driven ticks (count-based rotations live in the estimator)
        self._rotation_stamps: List[float] = []  # monotonic times of recent ticks
        self._next_rotation: Optional[float] = None
        self._hot_swaps = 0
        #: True from the moment the pump takes a micro-batch out of the
        #: buffer until its apply has completed — the barrier in
        #: :meth:`_wait_applied` must cover this window, or a snapshot can
        #: race a mid-apply batch (and miss it if the apply then fails).
        self._pump_busy = False
        #: True once the pump task has exited on an error path — recovery
        #: must never clear ``_failure`` then, or the service would accept
        #: ingests nobody applies.
        self._pump_broken = False
        self._metrics_host = metrics_host
        self._metrics_port = metrics_port
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        # --- resilience state (active only with wal_dir) -------------------
        self.wal_dir = wal_dir
        self._wal_sync = wal_sync
        self._wal_segment_bytes = int(wal_segment_bytes)
        self._wal: Optional[ServiceWAL] = None
        self._supervise = bool(supervise)
        self._supervising = False  # set in _setup_resilience when eligible
        self._max_restarts = int(max_restarts)
        self._restart_window = float(restart_window)
        self._processed_marks: Dict[int, int] = {}
        self._dedup: "collections.OrderedDict[str, int]" = collections.OrderedDict()
        self._dedup_window = int(dedup_window)
        self._dedup_hits = 0
        self._degraded: Dict[int, Dict[str, Any]] = {}
        self._budgets: Dict[int, RestartBudget] = {}
        self._worker_restarts = 0
        self._replayed_batches = 0
        self._degraded_queries = 0
        failpoints.arm_from_env()
        self.log = log if log is not None else StructuredLogger("repro.service")
        self.metrics = MetricsRegistry(enabled=instrument)
        self._init_metrics()

    def _init_metrics(self) -> None:
        metrics = self.metrics
        self._m_requests = metrics.counter(
            "repro_service_requests_total", "Requests handled, by op.", labels=("op",)
        )
        self._m_request_errors = metrics.counter(
            "repro_service_request_errors_total",
            "Requests answered with ok=false, by op.",
            labels=("op",),
        )
        self._m_request_seconds = metrics.histogram(
            "repro_service_request_seconds",
            "Request handling latency, by op.",
            labels=("op",),
        )
        self._m_ingest_keys = metrics.counter(
            "repro_service_ingest_keys_total", "Arrivals accepted into the buffer."
        )
        self._m_ingest_batches = metrics.counter(
            "repro_service_ingest_batches_total", "Ingest requests accepted."
        )
        self._m_ingest_bytes = metrics.counter(
            "repro_service_ingest_bytes_total",
            "Wire bytes of accepted ingest requests (frame + binary payload).",
        )
        self._m_applied_keys = metrics.counter(
            "repro_service_applied_keys_total",
            "Arrivals the pump has handed to the estimator.",
        )
        self._m_applied_batches = metrics.counter(
            "repro_service_applied_batches_total",
            "Coalesced micro-batches applied by the pump.",
        )
        self._m_batch_keys = metrics.histogram(
            "repro_service_coalesced_batch_keys",
            "Keys per coalesced micro-batch.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_buffered_keys = metrics.gauge(
            "repro_service_buffered_keys",
            "Arrivals accepted but not yet handed to the estimator.",
        )
        self._m_stall_seconds = metrics.counter(
            "repro_service_backpressure_stall_seconds_total",
            "Total time ingest acks were withheld waiting for buffer space.",
        )
        self._m_stalls = metrics.counter(
            "repro_service_backpressure_stalls_total",
            "Ingest requests that hit the backpressure bound.",
        )
        self._m_connections = metrics.gauge(
            "repro_service_connections", "Open client connections."
        )
        self._m_failure = metrics.gauge(
            "repro_service_failure",
            "1 once the service is parked on an unrecoverable failure.",
        )
        self._m_uptime = metrics.gauge(
            "repro_service_uptime_seconds", "Seconds since service start."
        )
        self._m_rotations = metrics.counter(
            "repro_service_window_rotations_total",
            "Pane rotations driven by the service's rotation_interval timer.",
        )
        self._m_hot_swaps = metrics.counter(
            "repro_service_hot_swaps_total",
            "Live estimator replacements applied between micro-batches.",
        )
        self._m_window_head_fill = metrics.gauge(
            "repro_service_window_head_fill",
            "Arrivals absorbed by the head pane since its last rotation.",
        )
        self._m_window_pane_arrivals = metrics.gauge(
            "repro_service_window_pane_arrivals",
            "Arrivals held per live pane, youngest first.",
            labels=("age",),
        )
        self._m_window_pane_age = metrics.gauge(
            "repro_service_window_pane_age_seconds",
            "Seconds each live pane has been filling (tick-driven services).",
            labels=("age",),
        )
        self._m_wal_appended = metrics.counter(
            "repro_service_wal_appended_batches_total",
            "Ingest batches appended to the write-ahead log before acking.",
        )
        self._m_wal_replayed = metrics.counter(
            "repro_service_wal_replayed_batches_total",
            "WAL records re-applied (startup recovery + shard rebuilds).",
        )
        self._m_worker_restarts = metrics.counter(
            "repro_service_worker_restarts_total",
            "Shard workers revived by the supervisor.",
        )
        self._m_degraded_queries = metrics.counter(
            "repro_service_degraded_queries_total",
            "Queries answered from surviving shards while one rebuilds.",
        )
        self._m_down_shards = metrics.gauge(
            "repro_service_down_shards",
            "Shards currently dead or rebuilding.",
        )
        self._m_dedup_hits = metrics.counter(
            "repro_service_dedup_hits_total",
            "Retried ingests acknowledged from the idempotency window.",
        )
        self._m_recovery_seconds = metrics.histogram(
            "repro_service_recovery_seconds",
            "Wall-clock from worker death detection to shard recovery.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self):
        """The bound endpoint: a Unix socket path or a ``(host, port)``."""
        if self._unix_path is not None:
            return self._unix_path
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[:2]
        return (self._host, self._port)

    @property
    def metrics_endpoint(self) -> Optional[Tuple[str, int]]:
        """The bound ``GET /metrics`` HTTP endpoint, or ``None``."""
        if self._metrics_server is not None and self._metrics_server.sockets:
            return self._metrics_server.sockets[0].getsockname()[:2]
        if self._metrics_port is None:
            return None
        return (self._metrics_host or "127.0.0.1", self._metrics_port)

    def _open_session(self) -> api_session.Session:
        if self.snapshot_path and os.path.exists(self.snapshot_path):
            session = api_session.load(
                self.snapshot_path,
                options=api_session.Options(metrics=self.metrics),
            )
            self.restored = True
            return session
        return api_session.open(
            self._spec,
            options=api_session.Options(
                prefix=self._prefix,
                featurizer=self._featurizer,
                metrics=self.metrics,
            ),
        )

    def _remember_request(self, rid: str, count: int) -> None:
        dedup = self._dedup
        dedup[rid] = count
        dedup.move_to_end(rid)
        while len(dedup) > self._dedup_window:
            dedup.popitem(last=False)

    def _setup_resilience(self) -> None:
        """Estimator-thread body: open the WAL, replay, enable supervision.

        Runs before the socket accepts and before the pump starts, so the
        startup replay interleaves with nothing.
        """
        estimator = self.session.estimator
        if getattr(estimator, "storage_backend", "dense") == "mmap":
            raise ValueError(
                "wal_dir cannot be combined with a live mmap-backed "
                "estimator: its snapshots alias the live tables, so "
                "replaying the log over one would double-count records"
            )
        num_lanes, router = 1, None
        sharded = (
            getattr(estimator, "executor", None) == "process"
            and getattr(estimator, "mode", None) == "key-partition"
            and hasattr(estimator, "shard_of_keys")
        )
        if sharded:
            num_lanes = estimator.num_shards
            router = estimator.shard_of_keys
        self._wal = ServiceWAL(
            self.wal_dir,
            num_lanes=num_lanes,
            router=router,
            segment_bytes=self._wal_segment_bytes,
            sync=self._wal_sync,
        )
        # The snapshot records what it covers: its wal marks travel inside
        # the snapshot file, written atomically with the counters.  Advance
        # each lane's checkpoint to them, so a crash *between* snapshot and
        # checkpoint never replays records the snapshot already holds.
        snapshot_marks = (getattr(self.session, "extra_state", None) or {}).get(
            "wal_marks"
        )
        if self.restored and isinstance(snapshot_marks, dict):
            self._wal.checkpoint(
                {int(lane): int(seq) for lane, seq in snapshot_marks.items()}
            )
        replayed = 0
        for _, record in self._wal.replay():
            estimator.update_batch(record.keys, record.counts)
            replayed += 1
            if record.request_id is not None:
                self._remember_request(record.request_id, len(record))
        if replayed:
            drain = getattr(estimator, "drain", None)
            if drain is not None:
                drain()
            self._replayed_batches += replayed
            self._m_wal_replayed.inc(replayed)
            self.log.info("wal_replayed", records=replayed)
        self._processed_marks = self._wal.positions()
        if sharded and self._supervise:
            estimator.enable_supervision()
            self._supervising = True

    async def start(self) -> "StreamingService":
        """Open (or restore) the session, bind the socket, start the pump."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._stopped_future = self._loop.create_future()
        self.session = await self._loop.run_in_executor(
            self._estimator_executor, self._open_session
        )
        warm_up = getattr(self.session.estimator, "warm_up", None)
        if warm_up is not None:
            await self._loop.run_in_executor(self._estimator_executor, warm_up)
        if self.wal_dir is not None:
            try:
                await self._loop.run_in_executor(
                    self._estimator_executor, self._setup_resilience
                )
            except BaseException:
                with contextlib.suppress(Exception):
                    await self._loop.run_in_executor(
                        self._estimator_executor, self.session.close
                    )
                self.session = None
                raise
        if self.rotation_interval is not None:
            if getattr(self.session.estimator, "tick", None) is None:
                kind = self.session.kind
                await self._loop.run_in_executor(
                    self._estimator_executor, self.session.close
                )
                self.session = None
                raise RuntimeError(
                    f"rotation_interval requires an estimator with tick() — "
                    f"kind {kind!r} has none (use a sliding_window/decayed spec)"
                )
            self._next_rotation = time.monotonic() + self.rotation_interval
        # The StreamReader's default 64 KiB limit would contradict
        # MAX_FRAME_BYTES: readline() on any larger JSON frame raises
        # before the handler ever sees it.  The +1 leaves room for the
        # newline terminator of a maximum-size frame.
        frame_limit = protocol.MAX_FRAME_BYTES + 1
        if self._unix_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._unix_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self._unix_path, limit=frame_limit
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self._host,
                port=self._port or 0,
                limit=frame_limit,
            )
        if self._metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http,
                host=self._metrics_host or "127.0.0.1",
                port=self._metrics_port,
            )
        self._pump_task = asyncio.ensure_future(self._pump())
        self.log.info(
            "service_started",
            endpoint=str(self.endpoint),
            kind=self.session.kind,
            restored=self.restored,
            metrics_endpoint=(
                str(self.metrics_endpoint) if self._metrics_server else None
            ),
        )
        return self

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain-snapshot-stop."""
        assert self._loop is not None, "call start() first"
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self.request_stop)

    def request_stop(self) -> None:
        """Schedule a graceful stop (signal-handler / cross-task safe)."""
        if self._loop is None or self._stop_task is not None:
            return
        self._stop_task = self._loop.create_task(self.stop())

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a signal routed to it) completes."""
        assert self._stopped_future is not None, "call start() first"
        await self._stopped_future

    async def stop(self, *, drain: bool = True, snapshot: bool = True) -> None:
        """Graceful shutdown: stop intake → flush → drain → snapshot → exit.

        Idempotent (a second call awaits the first).  With ``drain`` every
        buffered batch is applied and the shard workers are drained before
        the snapshot is written, so the snapshot contains every
        acknowledged ingest; ``drain=False`` abandons the backlog (the
        snapshot then reflects only applied batches).  ``snapshot=False``
        (or no ``snapshot_path``) skips the save.
        """
        if self._stopped_future is None:
            return
        if self._stopping:
            await asyncio.shield(self._stopped_future)
            return
        self._stopping = True
        self.log.info("service_stopping", drain=drain, snapshot=snapshot)
        # Wake everything that might be waiting on buffer state.
        self._data_event.set()
        self._chunk_event.set()
        self._space_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for entry in list(self._degraded.values()):
            task = entry.get("task")
            if task is not None and not task.done():
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        if self._pump_task is not None:
            if drain:
                await self._pump_task
            else:
                self._pump_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._pump_task
        loop = asyncio.get_running_loop()
        if self.session is not None:
            if drain and self._failure is None:
                try:
                    with self.log.stage("shutdown_drain"):
                        await loop.run_in_executor(
                            self._estimator_executor, self.session.drain
                        )
                except Exception as error:
                    self._fail(f"shutdown drain failed: {error}")
            if (
                snapshot
                and self.snapshot_path
                and self._failure is None
                and not self._degraded
            ):
                # A parked (failed) service skips the snapshot: save() would
                # re-drain the broken pool, and overwriting the previous good
                # snapshot with a partial one would make restart worse.  A
                # *degraded* one skips it too — a survivors-only snapshot
                # would checkpoint-truncate WAL records the down shard still
                # needs; the WAL carries the delta to the next clean start.
                with self.log.stage("shutdown_snapshot", path=self.snapshot_path):
                    marks = dict(self._processed_marks) if self._wal else None
                    await loop.run_in_executor(
                        self._estimator_executor, self._save_snapshot_sync, marks
                    )
            with contextlib.suppress(Exception):
                await loop.run_in_executor(
                    self._estimator_executor, self.session.close
                )
        self._estimator_executor.shutdown(wait=True)
        if self._wal is not None:
            with contextlib.suppress(Exception):
                self._wal.close()
        if self._unix_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._unix_path)
        self.log.info(
            "service_stopped",
            applied_keys=self._applied_keys,
            failure=self._failure,
        )
        if not self._stopped_future.done():
            self._stopped_future.set_result(None)

    # ------------------------------------------------------------------
    # the micro-batching pump
    # ------------------------------------------------------------------
    def _apply(self, keys, counts) -> None:
        """Estimator-thread body: one coalesced update_batch call."""
        self.session.estimator.update_batch(keys, counts)

    def _tick(self, ticks: int) -> None:
        """Estimator-thread body: advance the pane ring ``ticks`` times."""
        tick = self.session.estimator.tick
        for _ in range(ticks):
            tick()

    def _window_state(self) -> Optional[Dict[str, Any]]:
        """The estimator's pane-ring state, or ``None`` for flat kinds."""
        if self.session is None:
            return None
        state = getattr(self.session.estimator, "window_state", None)
        return state() if state is not None else None

    def _pane_ages(self, now: float, num_panes: int) -> List[float]:
        """Seconds each live pane has been filling, youngest first.

        Anchored to this service's tick stamps: the pane of age ``a``
        became the head at the ``(a+1)``-th most recent tick; panes that
        pre-date every recorded tick fall back to the service start.
        Only meaningful for tick-driven windows — count-based rotations
        happen inside the estimator and leave no timestamp here.
        """
        stamps = self._rotation_stamps
        ages = []
        for age in range(num_panes):
            if age < len(stamps):
                anchor = stamps[-(age + 1)]
            else:
                anchor = self._started_at
            ages.append(round(now - anchor, 3))
        return ages

    async def _maybe_rotate(self) -> bool:
        """Rotate the pane ring if the wall-clock deadline has passed.

        Runs on the estimator thread, so ticks serialize between
        micro-batches.  Monotonic catch-up: a pump stalled through ``n``
        deadlines issues ``min(n, num_panes)`` ticks — past the ring size
        every pane is already blank, so further ticks are redundant.
        Returns ``False`` when a tick raised (the service is parked).
        """
        if (
            self._next_rotation is None
            or self._failure is not None
            or self._stopping
        ):
            return True
        now = time.monotonic()
        if now < self._next_rotation:
            return True
        due = 1 + int((now - self._next_rotation) // self.rotation_interval)
        state = self._window_state()
        num_panes = int(state["num_panes"]) if state else due
        ticks = min(due, num_panes)
        try:
            await self._loop.run_in_executor(
                self._estimator_executor, self._tick, ticks
            )
        except BaseException as error:  # noqa: BLE001 — park, don't die
            self._fail(f"pane rotation failed: {error}")
            return False
        self._rotations += ticks
        self._m_rotations.inc(ticks)
        self._rotation_stamps.extend([now] * ticks)
        del self._rotation_stamps[:-num_panes]
        # Advance by whole periods from the previous deadline, not from
        # `now`: the schedule stays phase-locked instead of drifting by
        # the pump's scheduling latency every tick.
        self._next_rotation += due * self.rotation_interval
        self.log.info(
            "window_rotated", ticks=ticks, total_rotations=self._rotations
        )
        return True

    async def _pump(self) -> None:
        """Single consumer of the ingest buffer.

        Waits for data, then gives the buffer up to ``flush_interval`` to
        reach the worker chunk size (the ``_chunk_event`` short-circuits
        the wait when it does), applies the coalesced batch on the
        estimator thread, and repeats.  A failure (e.g. a shard worker
        died) parks the service in an erroring state instead of hanging
        its clients.
        """
        assert self._loop is not None
        while True:
            if not await self._maybe_rotate():
                self._pump_broken = True
                break  # rotation failed: park, same as a failed apply
            self._check_health()
            if not self._buffer.parts:
                if self._stopping:
                    break
                self._data_event.clear()
                if not self._buffer.parts and not self._stopping:
                    if self._next_rotation is None and not self._supervising:
                        await self._data_event.wait()
                    else:
                        # The idle wait doubles as the rotation timer (wake
                        # at the pane deadline instead of adding a second
                        # polling task) and, when supervising, as the
                        # worker-liveness poll: an idle service still
                        # notices a dead shard worker within half a second.
                        delay = 0.5 if self._supervising else float("inf")
                        if self._next_rotation is not None:
                            delay = min(
                                delay,
                                max(0.0, self._next_rotation - time.monotonic()),
                            )
                        with contextlib.suppress(asyncio.TimeoutError):
                            await asyncio.wait_for(self._data_event.wait(), delay)
                continue
            if self._buffer.total_keys < WORKER_CHUNK_SIZE and not self._stopping:
                self._chunk_event.clear()
                if self._buffer.total_keys < WORKER_CHUNK_SIZE:
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            self._chunk_event.wait(), self.flush_interval
                        )
            # The in-flight window opens BEFORE the buffer is emptied:
            # between take() and the end of _apply the batch is in neither
            # the buffer nor the tables, and the _wait_applied barrier must
            # keep waiting through it.
            self._pump_busy = True
            parts = self._buffer.take()
            self._m_buffered_keys.set(0)
            self._space_event.set()
            keys, counts, marks = _coalesce(parts)
            self._m_batch_keys.observe(len(keys))
            try:
                await self._loop.run_in_executor(
                    self._estimator_executor, self._apply, keys, counts
                )
            except BaseException as error:  # noqa: BLE001 — park, don't die
                self._pump_busy = False
                self._pump_broken = True
                self._fail(f"ingestion failed: {error}")
                break
            self._applied_keys += len(keys)
            self._applied_batches += 1
            self._m_applied_keys.inc(len(keys))
            self._m_applied_batches.inc()
            # Advance the per-lane watermark: everything at or below these
            # seqs is now either in the shard tables or (for a down shard)
            # consumed from the buffer — exactly the records a rebuild must
            # replay on top of the last snapshot.
            for lane, seq in marks.items():
                if seq > self._processed_marks.get(lane, 0):
                    self._processed_marks[lane] = seq
            self._check_health()
            self._pump_busy = False
            self._applied_event.set()

    def _fail(self, message: str) -> None:
        """Park the service in an erroring state and wake every waiter.

        Connections stay open: subsequent requests get ``ok: false`` with
        this message — a dead shard worker must surface to clients as an
        error response, never as a hang.
        """
        if self._failure is None:
            self._failure = message
            self._m_failure.set(1)
            self.log.error("service_failure", error=message)
        self._space_event.set()
        self._applied_event.set()

    async def _wait_applied(self) -> None:
        """Barrier: buffer empty AND the pump idle (or the service failed).

        Checking the buffer alone is not enough: the pump ``take()``s the
        buffer *before* ``_apply`` runs, so an empty buffer can coexist
        with an acked micro-batch that is mid-apply — and if that apply
        then fails, a snapshot taken past the barrier would be missing
        acked keys.  ``_pump_busy`` covers exactly that window.
        """
        while (
            self._buffer.parts or self._buffer.total_keys or self._pump_busy
        ) and self._failure is None:
            self._applied_event.clear()
            if (
                self._buffer.parts or self._pump_busy
            ) and self._failure is None:
                await self._applied_event.wait()
        if self._failure is not None:
            raise RuntimeError(self._failure)

    # ------------------------------------------------------------------
    # shard supervision
    # ------------------------------------------------------------------
    def _check_health(self) -> None:
        """Notice newly-dead shard workers and launch their supervisors.

        Event-loop side and cheap (one liveness probe per shard); runs on
        every pump iteration and on the idle tick.
        """
        if not self._supervising or self._stopping or self.session is None:
            return
        estimator = self.session.estimator
        estimator.check_workers()
        # Shards can also join the down set through the submit/drain paths
        # (WorkerDeadError caught inside the estimator), so supervise from
        # the authoritative down set, not just this probe's findings.
        for shard_index in estimator.down_shards:
            if shard_index not in self._degraded:
                self._start_supervise(shard_index)

    def _start_supervise(self, shard_index: int) -> None:
        if shard_index in self._degraded:
            return
        entry: Dict[str, Any] = {"since": time.monotonic(), "task": None}
        self._degraded[shard_index] = entry
        self._m_down_shards.set(len(self._degraded))
        self.log.error("shard_worker_died", shard=shard_index)
        entry["task"] = self._loop.create_task(self._supervise_shard(shard_index))

    async def _supervise_shard(self, shard_index: int) -> None:
        """Rebuild one dead shard: backoff → restore → revive → replay.

        Runs as its own task so ingest and queries keep flowing (degraded)
        throughout; the rebuild itself serializes on the estimator thread,
        where it cannot interleave with applies.
        """
        budget = self._budgets.setdefault(
            shard_index,
            RestartBudget(
                max_restarts=self._max_restarts,
                window_seconds=self._restart_window,
            ),
        )
        detected = time.monotonic()
        while not self._stopping:
            if not budget.allow():
                self._degraded.pop(shard_index, None)
                self._m_down_shards.set(len(self._degraded))
                self._fail(
                    f"shard {shard_index} exceeded its restart budget "
                    f"({budget.max_restarts} in {budget.window_seconds:g}s); "
                    "parking the service"
                )
                return
            await asyncio.sleep(budget.next_delay())
            if self._stopping:
                return
            budget.record_attempt()
            try:
                await self._loop.run_in_executor(
                    self._estimator_executor, self._rebuild_shard_sync, shard_index
                )
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 — retry under budget
                self.log.error(
                    "shard_rebuild_failed", shard=shard_index, error=str(error)
                )
                continue
            budget.record_success()
            elapsed = time.monotonic() - detected
            self._worker_restarts += 1
            self._m_worker_restarts.inc()
            self._m_recovery_seconds.observe(elapsed)
            self._degraded.pop(shard_index, None)
            self._m_down_shards.set(len(self._degraded))
            self._recover_if_healthy()
            self.log.info(
                "shard_recovered",
                shard=shard_index,
                recovery_seconds=round(elapsed, 3),
                restarts=self._worker_restarts,
            )
            return

    def _rebuild_shard_sync(self, shard_index: int) -> None:
        """Estimator-thread body: restore + revive + WAL-replay one shard.

        Replay is bounded to the records the pump has already consumed
        (``_processed_marks``): anything newer is still in the ingest
        buffer and will be applied by the pump after the rebuild, exactly
        once.  The estimator thread is busy with *us*, so the watermark
        cannot advance mid-rebuild.
        """
        estimator = self.session.estimator
        restored = (
            load_shard_state(self.snapshot_path, shard_index)
            if self.snapshot_path
            else None
        )
        upto = self._processed_marks.get(shard_index, 0)
        records = list(self._wal.replay_lane(shard_index, upto=upto))
        estimator.rebuild_shard(shard_index, restored=restored, records=records)
        if records:
            self._replayed_batches += len(records)
            self._m_wal_replayed.inc(len(records))

    def _recover_if_healthy(self) -> None:
        """Un-park the service once every shard is back (satellite fix:
        a recovered service must not scrape as failed forever)."""
        if self._degraded or self._failure is None:
            return
        if self._pump_broken:
            return  # the pump is gone; clearing the flag would be a lie
        self._failure = None
        self._m_failure.set(0)
        self.log.info("service_recovered")

    def _degraded_fields(self, *, count: bool = True) -> Dict[str, Any]:
        """Extra response fields while shards are rebuilding (else empty)."""
        if not self._degraded:
            return {}
        if count:
            self._degraded_queries += 1
            self._m_degraded_queries.inc()
        oldest = min(entry["since"] for entry in self._degraded.values())
        return {
            "degraded": True,
            "down_shards": sorted(self._degraded),
            "staleness_seconds": round(time.monotonic() - oldest, 3),
        }

    def _save_snapshot_sync(self, marks: Optional[Dict[int, int]]) -> int:
        """Estimator-thread body: snapshot, then checkpoint the WAL.

        One executor job for drain + health check + serialize + write +
        checkpoint, so a shard rebuild can never interleave between the
        save and the truncation that claims coverage for it.  The marks
        land *inside* the snapshot (``extra_state``): the snapshot itself
        is the authoritative record of what it covers — see
        ``_setup_resilience``.

        Ordering matters: the health check runs *after* the drain.  A
        worker that died mid-drain leaves its table missing acked records;
        writing that table and then truncating the WAL would lose them.
        After a clean drain nothing mutates the tables (the pump is queued
        behind this job, the workers are idle), so serializing them is
        race-free even if a worker dies during it.
        """
        if self._wal is None:
            return self.session.save(self.snapshot_path)
        estimator = self.session.estimator
        self.session.drain()
        check = getattr(estimator, "check_workers", None)
        if check is not None:
            check()
        down = getattr(estimator, "down_shards", None)
        if down:
            raise RuntimeError(
                f"snapshot refused: shard(s) {sorted(down)} went down during "
                "the pre-snapshot drain"
            )
        blob = self.session.snapshot(extra_state={"wal_marks": marks})
        api_session.atomic_write(self.snapshot_path, blob)
        if marks is not None:
            self._wal.checkpoint(marks)
        return len(blob)

    # ------------------------------------------------------------------
    # live re-optimization
    # ------------------------------------------------------------------
    async def hot_swap(self, spec, estimator, *, close_old: bool = True):
        """Replace the live estimator between micro-batches.

        The swap runs on the single estimator thread, so it serializes
        behind any in-flight ``_apply`` — no micro-batch is ever split
        across the old and new estimator.  Buffered-but-unapplied
        arrivals land in the new estimator (acked keys are applied, never
        lost; whether a given key counts toward the old or new tables
        depends only on which side of the swap its micro-batch ran).

        This is the ``swap(spec, estimator, close_old=)`` protocol that
        :meth:`repro.temporal.ReOptimizer.reoptimize` targets.  Returns
        the old estimator (closed when ``close_old``).
        """
        if self.session is None:
            raise RuntimeError("service not started")
        if self._failure is not None:
            raise RuntimeError(self._failure)
        if self._next_rotation is not None and getattr(estimator, "tick", None) is None:
            raise ValueError(
                "this service rotates panes on a timer; the replacement "
                "estimator must expose tick()"
            )
        warm_up = getattr(estimator, "warm_up", None)
        if warm_up is not None:
            # Warm the incoming estimator on the default executor so the
            # live one keeps serving while pools spin up.
            await self._loop.run_in_executor(None, warm_up)

        def _swap():
            return self.session.hot_swap(spec, estimator, close_old=close_old)

        old = await self._loop.run_in_executor(self._estimator_executor, _swap)
        self._hot_swaps += 1
        self._m_hot_swaps.inc()
        self.log.info(
            "estimator_hot_swapped",
            kind=self.session.kind,
            close_old=close_old,
            hot_swaps=self._hot_swaps,
        )
        return old

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            failpoints.fire("service.accept")
        except failpoints.FailPointError:
            # Chaos: refuse this connection the way an overloaded or
            # restarting listener would — close without a byte.
            with contextlib.suppress(Exception):
                writer.close()
            return
        self._connections += 1
        self._m_connections.inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # The frame overran the reader's limit (it admits any
                    # frame up to MAX_FRAME_BYTES, so this one is over the
                    # protocol bound).  readline() has already discarded
                    # buffered bytes, so framing is lost: answer with a
                    # protocol error, then drop the connection.
                    line = None
                if line is None or len(line) > protocol.MAX_FRAME_BYTES:
                    if line is None or line:
                        response = {
                            "ok": False,
                            "error": (
                                f"frame exceeds {protocol.MAX_FRAME_BYTES} "
                                "bytes (use a binary ingest payload for "
                                "large batches)"
                            ),
                        }
                        self._m_request_errors.labels(op="invalid").inc()
                        writer.write(protocol.encode_frame(response))
                        with contextlib.suppress(
                            ConnectionResetError, BrokenPipeError
                        ):
                            await writer.drain()
                    break
                if not line:
                    break
                start = time.perf_counter()
                op = "invalid"
                try:
                    op, response = await self._dispatch(reader, line)
                except protocol.ProtocolError as error:
                    response = {"ok": False, "error": str(error)}
                except Exception as error:  # noqa: BLE001 — per-request fault wall
                    response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                self._m_requests.labels(op=op).inc()
                self._m_request_seconds.labels(op=op).observe(
                    time.perf_counter() - start
                )
                if not response.get("ok"):
                    self._m_request_errors.labels(op=op).inc()
                try:
                    # Chaos: the request was fully processed but the
                    # response never reaches the client — the retry/
                    # idempotency path this exercises must not double-count.
                    failpoints.fire("service.drop_response")
                except failpoints.FailPointError:
                    break
                writer.write(protocol.encode_frame(response))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if op == "ingest" and response.get("ok"):
                    # Chaos site for the crash matrix: fires strictly after
                    # the ack left the process, so a kill here tests
                    # "acked but not yet applied" recovery.
                    failpoints.fire("service.ingest.acked")
                if response.get("bye"):
                    break
        finally:
            self._connections -= 1
            self._m_connections.dec()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, reader: asyncio.StreamReader, line: bytes
    ) -> Tuple[str, Dict[str, Any]]:
        message = protocol.decode_frame(line)
        op = message.get("op")
        label = op if isinstance(op, str) else "invalid"
        try:
            if op == "ingest":
                return label, await self._op_ingest(reader, message, len(line))
            if op == "estimate":
                return label, await self._op_estimate(message)
            if op == "top_k":
                return label, await self._op_top_k(message)
            if op == "flush":
                return label, await self._op_flush()
            if op == "stats":
                return label, self._op_stats()
            if op == "metrics":
                return label, self._op_metrics()
            if op == "snapshot":
                return label, await self._op_snapshot()
            if op == "ping":
                return label, {"ok": True, "op": "ping"}
            if op == "shutdown":
                self.request_stop()
                return label, {"ok": True, "op": "shutdown", "bye": True}
            raise protocol.ProtocolError(f"unknown op {op!r}")
        except protocol.ProtocolError as error:
            return label, {"ok": False, "error": str(error)}
        except Exception as error:  # noqa: BLE001 — per-request fault wall
            return label, {"ok": False, "error": f"{type(error).__name__}: {error}"}

    async def _read_ingest_arrays(self, reader, message):
        binary = message.get("binary")
        if binary is not None:
            nbytes = protocol.payload_nbytes(binary)
            payload = await reader.readexactly(nbytes)
            keys, counts = protocol.arrays_from_payload(binary, payload)
            return keys, counts, nbytes
        keys = message.get("keys")
        if not isinstance(keys, list):
            raise protocol.ProtocolError("ingest needs 'keys' (list) or 'binary'")
        counts = message.get("counts")
        if counts is not None:
            if not isinstance(counts, list) or len(counts) != len(keys):
                raise protocol.ProtocolError("counts must align one-to-one with keys")
            if any(isinstance(count, bool) for count in counts):
                raise protocol.ProtocolError(
                    "counts must be integers (JSON true/false is not a count)"
                )
            counts = np.asarray(counts, dtype=np.int64)
        if _all_int_keys(keys):
            return np.asarray(keys, dtype=np.int64), counts, 0
        return keys, counts, 0

    async def _op_ingest(self, reader, message, frame_nbytes: int) -> Dict[str, Any]:
        # The payload must leave the socket even if the batch is refused,
        # or the stream desynchronizes — read before any rejection.
        keys, counts, payload_nbytes = await self._read_ingest_arrays(reader, message)
        rid = message.get("request_id")
        if rid is not None and not isinstance(rid, str):
            raise protocol.ProtocolError("request_id must be a string")
        if self._failure is not None:
            raise RuntimeError(self._failure)
        if self._stopping:
            raise RuntimeError("service is shutting down")
        if rid is not None and rid in self._dedup:
            # A retransmit of a batch that was already accepted (the client
            # lost our ack, not the batch): re-ack without re-counting.
            self._dedup_hits += 1
            self._m_dedup_hits.inc()
            return {
                "ok": True,
                "op": "ingest",
                "ingested": self._dedup[rid],
                "duplicate": True,
                "seq": self._buffer.accepted_batches,
            }
        if self._buffer.total_keys >= self.max_buffered_keys:
            # Bounded backpressure: hold the ack (and stop reading this
            # socket) until the pump frees buffer space.
            stall_start = time.perf_counter()
            self._m_stalls.inc()
            while self._buffer.total_keys >= self.max_buffered_keys:
                self._space_event.clear()
                if self._buffer.total_keys < self.max_buffered_keys:
                    break
                await self._space_event.wait()
                if self._failure is not None:
                    self._m_stall_seconds.inc(time.perf_counter() - stall_start)
                    raise RuntimeError(self._failure)
                if self._stopping:
                    self._m_stall_seconds.inc(time.perf_counter() - stall_start)
                    raise RuntimeError("service is shutting down")
            self._m_stall_seconds.inc(time.perf_counter() - stall_start)
        if rid is not None and rid in self._dedup:
            # Re-check after the backpressure await: the original and a
            # retransmit can race through the first check on two
            # connections, and only one may count.
            self._dedup_hits += 1
            self._m_dedup_hits.inc()
            return {
                "ok": True,
                "op": "ingest",
                "ingested": self._dedup[rid],
                "duplicate": True,
                "seq": self._buffer.accepted_batches,
            }
        marks = None
        if self._wal is not None:
            # Durability point — ON the ack path, deliberately: the append
            # (an OS-buffered write, no fsync by default) completes before
            # the ack is sent, and nothing awaits between it and the
            # buffer.add below, so WAL contents and buffered batches never
            # disagree about what was acknowledged.
            marks = self._wal.append_batch(keys, counts, rid)
            self._m_wal_appended.inc()
        n = self._buffer.add(keys, counts, marks)
        if rid is not None:
            self._remember_request(rid, n)
        self._m_ingest_keys.inc(n)
        self._m_ingest_batches.inc()
        self._m_ingest_bytes.inc(frame_nbytes + payload_nbytes)
        self._m_buffered_keys.set(self._buffer.total_keys)
        self._data_event.set()
        if self._buffer.total_keys >= WORKER_CHUNK_SIZE:
            self._chunk_event.set()
        return {
            "ok": True,
            "op": "ingest",
            "ingested": n,
            "seq": self._buffer.accepted_batches,
        }

    def _live_estimate(self, keys) -> np.ndarray:
        estimator = self.session.estimator
        live = getattr(estimator, "live_estimate", None)
        if live is not None:
            return live(keys)
        return self.session.estimate(keys)

    async def _op_estimate(self, message) -> Dict[str, Any]:
        if self._failure is not None:
            raise RuntimeError(self._failure)
        keys = message.get("keys")
        if not isinstance(keys, list) or not keys:
            raise protocol.ProtocolError("estimate needs a non-empty 'keys' list")
        if _all_int_keys(keys):
            keys = np.asarray(keys, dtype=np.int64)
        estimates = await self._loop.run_in_executor(
            self._estimator_executor, self._live_estimate, keys
        )
        return {
            "ok": True,
            "op": "estimate",
            "estimates": np.asarray(estimates, dtype=np.float64).tolist(),
            **self._degraded_fields(),
        }

    def _top_k_sync(self, k: int, candidates) -> List[List[Any]]:
        estimator = self.session.estimator
        if candidates is None:
            tracker = getattr(estimator, "heavy_hitters", None)
            if tracker is None:
                raise protocol.ProtocolError(
                    f"kind {self.session.kind!r} keeps no per-key tracking; "
                    "pass 'candidates' to rank"
                )
            ranked = sorted(tracker(0.0), key=lambda pair: -pair[1])[:k]
            return [[key, float(count)] for key, count in ranked]
        keys = candidates
        if _all_int_keys(keys):
            keys = np.asarray(keys, dtype=np.int64)
        estimates = np.asarray(self._live_estimate(keys), dtype=np.float64)
        order = np.argsort(-estimates, kind="stable")[:k]
        return [[candidates[int(i)], float(estimates[int(i)])] for i in order]

    async def _op_top_k(self, message) -> Dict[str, Any]:
        if self._failure is not None:
            raise RuntimeError(self._failure)
        k = message.get("k")
        if not _is_strict_int(k) or k <= 0:
            raise protocol.ProtocolError("top_k needs a positive integer 'k'")
        candidates = message.get("candidates")
        if candidates is not None and (
            not isinstance(candidates, list) or not candidates
        ):
            raise protocol.ProtocolError("'candidates' must be a non-empty list")
        top = await self._loop.run_in_executor(
            self._estimator_executor, self._top_k_sync, k, candidates
        )
        return {"ok": True, "op": "top_k", "top": top, **self._degraded_fields()}

    async def _op_flush(self) -> Dict[str, Any]:
        await self._wait_applied()
        try:
            await self._loop.run_in_executor(
                self._estimator_executor, self.session.drain
            )
        except BaseException as error:
            # A drain failure (e.g. a shard worker died between micro-
            # batches) is permanent: park the service so every later
            # request errors out too, instead of hanging or lying.
            self._fail(f"drain failed: {error}")
            raise
        if self._failure is not None:
            raise RuntimeError(self._failure)
        return {
            "ok": True,
            "op": "flush",
            "applied_keys": self._applied_keys,
            "applied_batches": self._applied_batches,
            **self._degraded_fields(count=False),
        }

    def _op_stats(self) -> Dict[str, Any]:
        stats = {
            "ok": True,
            "op": "stats",
            "kind": self.session.kind,
            "restored": self.restored,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "connections": self._connections,
            "accepted_keys": self._buffer.accepted_keys,
            "accepted_batches": self._buffer.accepted_batches,
            "applied_keys": self._applied_keys,
            "applied_batches": self._applied_batches,
            "buffered_keys": self._buffer.total_keys,
            "hot_swaps": self._hot_swaps,
            "failure": self._failure,
        }
        # Runtime placement: which kernel backend executes the hot paths and
        # where the counters live.  Sharded estimators forward both from
        # their workers, so stats reports what is actually running.
        kernel_backend = getattr(self.session.estimator, "kernel_backend", None)
        if kernel_backend is not None:
            stats["kernel_backend"] = kernel_backend
        storage_backend = getattr(self.session.estimator, "storage_backend", None)
        if storage_backend is not None:
            stats["storage_backend"] = storage_backend
        if self._wal is not None:
            stats["wal"] = self._wal.stats()
            stats["replayed_batches"] = self._replayed_batches
            stats["dedup_hits"] = self._dedup_hits
        if self._supervising:
            stats["supervised"] = True
            stats["worker_restarts"] = self._worker_restarts
            stats["degraded_queries"] = self._degraded_queries
            stats.update(self._degraded_fields(count=False))
        window = self._window_state()
        if window is not None:
            now = time.monotonic()
            window["rotation_interval"] = self.rotation_interval
            window["service_rotations"] = self._rotations
            if self.rotation_interval is not None:
                window["pane_age_seconds"] = self._pane_ages(
                    now, int(window["num_panes"])
                )
                if self._next_rotation is not None:
                    window["next_rotation_seconds"] = round(
                        max(0.0, self._next_rotation - now), 3
                    )
        stats["window"] = window
        return stats

    def _refresh_gauges(self) -> None:
        """Bring point-in-time gauges up to date before an exposition."""
        self._m_uptime.set(round(time.monotonic() - self._started_at, 3))
        self._m_buffered_keys.set(self._buffer.total_keys)
        self._m_connections.set(self._connections)
        self._m_failure.set(0 if self._failure is None else 1)
        self._m_down_shards.set(len(self._degraded))
        window = self._window_state()
        if window is not None:
            self._m_window_head_fill.set(int(window["head_fill"]))
            now = time.monotonic()
            ages = (
                self._pane_ages(now, int(window["num_panes"]))
                if self.rotation_interval is not None
                else None
            )
            for age, arrivals in enumerate(window["pane_arrivals"]):
                self._m_window_pane_arrivals.labels(age=str(age)).set(int(arrivals))
                if ages is not None:
                    self._m_window_pane_age.labels(age=str(age)).set(ages[age])
        if self.session is not None:
            sync = getattr(self.session.estimator, "sync_metrics", None)
            if sync is not None:
                sync()

    def _op_metrics(self) -> Dict[str, Any]:
        self._refresh_gauges()
        return {
            "ok": True,
            "op": "metrics",
            "content_type": EXPOSITION_CONTENT_TYPE,
            "text": self.metrics.exposition(),
            "samples": self.metrics.samples(),
        }

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0 responder for Prometheus scrapes of /metrics."""
        try:
            request_line = await reader.readline()
            while True:  # drain request headers up to the blank line
                header = await reader.readline()
                if header in (b"", b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) >= 2 and parts[0] == "GET" and (
                parts[1] == "/metrics" or parts[1].startswith("/metrics?")
            ):
                self._refresh_gauges()
                body = self.metrics.exposition().encode("utf-8")
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    f"Content-Type: {EXPOSITION_CONTENT_TYPE}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                )
            else:
                body = b"not found\n"
                head = (
                    "HTTP/1.0 404 Not Found\r\n"
                    "Content-Type: text/plain\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _op_snapshot(self) -> Dict[str, Any]:
        if not self.snapshot_path:
            raise protocol.ProtocolError(
                "the service was started without a snapshot_path"
            )
        if self._degraded:
            # A survivors-only snapshot would be a silent undercount *and*
            # its checkpoint would truncate the WAL records the down shard
            # still needs — refuse until the rebuild lands.
            raise RuntimeError(
                "snapshot refused while degraded (shard rebuild in "
                f"progress: {sorted(self._degraded)})"
            )
        await self._wait_applied()
        marks = dict(self._processed_marks) if self._wal is not None else None
        nbytes = await self._loop.run_in_executor(
            self._estimator_executor, self._save_snapshot_sync, marks
        )
        # The save serializes behind any in-flight apply on the estimator
        # thread; if that apply failed while we queued, the file on disk is
        # missing acked keys — report the failure instead of a false ok.
        if self._failure is not None:
            raise RuntimeError(self._failure)
        return {
            "ok": True,
            "op": "snapshot",
            "path": self.snapshot_path,
            "bytes": nbytes,
        }


class ServiceThread:
    """Host a :class:`StreamingService` on a background thread.

    For tests, notebooks, and the bundled example: the calling thread gets
    a running endpoint without owning an event loop.  ``stop()`` performs
    the same graceful drain-snapshot-stop as SIGTERM on the daemon form.
    """

    def __init__(self, service: StreamingService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _main(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            try:
                await self.service.start()
            except BaseException as error:  # surfaced to start()'s caller
                self._startup_error = error
                self._started.set()
                return
            self._started.set()
            await self.service.serve_until_stopped()

        asyncio.run(body())

    def start(self, timeout: float = 60.0) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def stop(self, *, drain: bool = True, snapshot: bool = True, timeout: float = 60.0) -> None:
        """Graceful stop; idempotent and safe to call from any thread.

        A no-op when the service never (fully) started: after a failed or
        timed-out ``start()`` there may be no loop, no running server, or a
        thread still wedged in startup — scheduling ``service.stop()`` there
        would hang or raise, and there is nothing to drain anyway.
        """
        if self._thread is None or not self._thread.is_alive():
            return
        if (
            not self._started.is_set()
            or self._startup_error is not None
            or self._loop is None
        ):
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.service.stop(drain=drain, snapshot=snapshot), self._loop
            )
            future.result(timeout=timeout)
        except RuntimeError:
            # The loop shut down between the liveness check and the call —
            # the thread is already on its way out; just join it.
            pass
        self._thread.join(timeout=timeout)

    def hot_swap(self, spec, estimator, *, close_old: bool = True, timeout: float = 60.0):
        """Thread-safe :meth:`StreamingService.hot_swap` — the ``swap``
        target :class:`repro.temporal.ReOptimizer` calls from its
        background retraining thread.  Returns the old estimator."""
        if self._loop is None or not self._started.is_set():
            raise RuntimeError("service not started")
        future = asyncio.run_coroutine_threadsafe(
            self.service.hot_swap(spec, estimator, close_old=close_old),
            self._loop,
        )
        return future.result(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
