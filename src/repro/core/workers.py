"""Persistent per-shard worker processes behind the process executor.

The sharded estimator's ``executor="process"`` (``repro.core.sharding``)
runs ONE long-lived worker per shard, so no state ever round-trips through
serialization:

* at spawn, the worker builds the shard estimator from its declarative spec
  (identical hashes — the spec carries an explicit seed) and *adopts* the
  parent's shared-memory counter table (:meth:`StorageBacked.adopt_storage`);
* each task is then just ``(keys, counts)`` — the worker scatters directly
  into shared memory and nothing returns.  The return leg is zero-copy by
  construction, and the parent's resident shard objects read the same
  physical pages, so queries observe worker progress live.

Backpressure is the task queue's ``maxsize``; draining is ack-counting (a
shared counter per worker, with a condition variable the worker notifies on
every ack, so the parent sleeps between acks instead of polling).  Failures
raise a per-worker event *and* enqueue a message, so the parent fails fast
without trusting ``Queue.empty()`` (documented as unreliable).  Workers are
daemons: an abandoned pool cannot outlive the parent.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from typing import Any, Dict, List, Sequence

__all__ = ["ShardWorkerPool", "WorkerDeadError", "WORKER_CHUNK_SIZE"]

#: Chunk size of the in-worker ingestion loop.  Callers ship *large*
#: sub-batches (few tasks amortize the submit/pickle overhead), but
#: vectorized ingestion is fastest when its scatter/gather temporaries stay
#: cache-resident, so the worker re-chunks locally — same sweet spot as
#: ``repro.core.pipeline.DEFAULT_REPLAY_BATCH_SIZE``.
WORKER_CHUNK_SIZE = 65536

#: Upper bound of one condition wait in the drain loops.  Not a poll
#: interval — the worker's ack notification wakes the parent immediately;
#: this only bounds how long a *dead* worker can go unnoticed.
_LIVENESS_CHECK_SECONDS = 0.1

#: How long ``_raise_errors`` waits for a failure *message* once a failure
#: *event* is already set (the event and the queue entry are raised by the
#: worker back to back, but the queue feeder thread may lag the event).
_ERROR_MESSAGE_GRACE_SECONDS = 1.0


from repro.errors import WorkerDeadError as _WorkerDeadErrorBase


class WorkerDeadError(_WorkerDeadErrorBase):
    """One specific shard worker is dead or failed.

    Carries the shard index so a supervised caller can mark *that* shard
    down and keep the survivors serving, instead of treating any worker
    trouble as a pool-wide failure.
    """

    def __init__(self, shard_index: int, message: str) -> None:
        super().__init__(message)
        self.shard_index = shard_index


def _worker_main(
    spec_dict,
    manifest,
    tasks,
    acked,
    ack_cond,
    ready,
    failed,
    errors,
    scatter_seconds,
    shard_index=None,
) -> None:
    """Worker process body: build once, adopt shared storage, ingest forever.

    Every dequeued task is acknowledged (even after an error) so the
    parent's drain accounting never hangs; failures set the shared
    ``failed`` event (checked synchronously by ``submit``/``join``) and
    travel as messages through the ``errors`` queue.  Per-task scatter time
    accumulates into the shared ``scatter_seconds`` (written under the ack
    condition's lock, alongside the ack it accounts for) so the parent can
    report where ingestion wall-clock actually goes.
    """
    estimator = None
    label = "shard worker" if shard_index is None else f"shard worker {shard_index}"
    try:
        from repro.api.registry import build
        from repro.resilience import failpoints

        # Chaos tests arm injection sites in workers through the
        # environment (works under every multiprocessing start method).
        failpoints.arm_from_env()

        blank = dict(spec_dict)
        # The blank twin needs no backend of its own — its array is replaced
        # by the attached view immediately (building it shm-backed would
        # leak one segment per worker).
        blank.pop("storage", None)
        blank.pop("storage_path", None)
        estimator = build(blank)
        estimator.adopt_storage(manifest)
    except BaseException as error:  # surfaced parent-side
        errors.put(f"{label} failed to start: {error!r}")
        failed.set()
        estimator = None
    finally:
        ready.set()
    from repro.resilience import failpoints

    while True:
        job = tasks.get()
        elapsed = 0.0
        try:
            if job is None:
                break
            if estimator is None:
                continue  # init failed; keep acking so the parent can drain
            failpoints.fire("worker.ingest")
            keys, counts = job
            scatter_start = time.perf_counter()
            for start in range(0, len(keys), WORKER_CHUNK_SIZE):
                estimator.update_batch(
                    keys[start : start + WORKER_CHUNK_SIZE],
                    counts[start : start + WORKER_CHUNK_SIZE],
                )
            elapsed = time.perf_counter() - scatter_start
        except BaseException as error:
            errors.put(f"{label} batch failed: {error!r}")
            failed.set()
        finally:
            with ack_cond:
                acked.value += 1
                scatter_seconds.value += elapsed
                ack_cond.notify_all()
    if estimator is not None:
        try:
            # Shutdown path: release the attached table without copying it
            # into a dense array this process is about to discard.
            estimator.close(detach=False)
        except TypeError:
            estimator.close()
        except Exception:
            pass


class _ShardWorker:
    __slots__ = (
        "process",
        "tasks",
        "acked",
        "ack_cond",
        "ready",
        "failed",
        "submitted",
        "scatter_seconds",
    )

    def __init__(
        self, process, tasks, acked, ack_cond, ready, failed, scatter_seconds
    ) -> None:
        self.process = process
        self.tasks = tasks
        self.acked = acked
        self.ack_cond = ack_cond
        self.ready = ready
        self.failed = failed
        self.submitted = 0
        self.scatter_seconds = scatter_seconds

    def drained(self) -> bool:
        return self.acked.value >= self.submitted


class ShardWorkerPool:
    """One persistent daemon process per shard, fed through bounded queues."""

    def __init__(
        self,
        spec_dict: Dict[str, Any],
        manifests: Sequence[Dict[str, Any]],
        max_pending: int = 4,
        supervised: bool = False,
    ) -> None:
        ctx = multiprocessing.get_context()
        self._ctx = ctx
        self._spec_dict = spec_dict
        self._max_pending = max_pending
        self._errors = ctx.Queue()
        self._workers: List[_ShardWorker] = []
        self._closed = False
        self._obs = None
        self._m_submitted = None
        self._m_acked = None
        self._m_scatter = None
        self._m_queue_wait = None
        self._m_deaths = None
        self._m_restarts = None
        #: Supervised pools localize failure: one dead worker raises
        #: :class:`WorkerDeadError` for *its* shard only, and the pool keeps
        #: accepting batches for the survivors while a supervisor revives
        #: it.  Unsupervised pools keep the original park-on-first-death
        #: fail-fast behavior.
        self.supervised = bool(supervised)
        self.restarts = 0
        for shard_index, manifest in enumerate(manifests):
            self._workers.append(self._spawn(manifest, shard_index))

    def _spawn(self, manifest: Dict[str, Any], shard_index: int) -> _ShardWorker:
        ctx = self._ctx
        tasks = ctx.Queue(maxsize=max(1, self._max_pending))
        # The ack counter is guarded by the condition's own lock (the
        # worker increments and notifies under it), so the Value itself
        # carries no lock of its own; ditto the scatter-time accumulator.
        ack_cond = ctx.Condition()
        acked = ctx.Value("q", 0, lock=False)
        scatter_seconds = ctx.Value("d", 0.0, lock=False)
        ready = ctx.Event()
        failed = ctx.Event()
        process = ctx.Process(
            target=_worker_main,
            args=(
                self._spec_dict,
                manifest,
                tasks,
                acked,
                ack_cond,
                ready,
                failed,
                self._errors,
                scatter_seconds,
                shard_index,
            ),
            daemon=True,
        )
        process.start()
        return _ShardWorker(
            process, tasks, acked, ack_cond, ready, failed, scatter_seconds
        )

    def revive(
        self, shard_index: int, manifest: Dict[str, Any], timeout: float = 30.0
    ) -> None:
        """Replace a dead worker with a fresh process attached to ``manifest``.

        The replacement starts from a *blank* shard adopted onto the given
        (parent-owned) storage — restoring counter state into that storage
        first is the supervisor's job, not the pool's.  Stale state of the
        old worker (queued tasks, failure event, unread error messages) is
        discarded; ack/submit accounting restarts from zero.
        """
        if self._closed:
            raise RuntimeError("shard worker pool is closed")
        old = self._workers[shard_index]
        if old.process.is_alive():
            old.process.terminate()
            old.process.join(timeout=5.0)
        try:
            if not old.drained():
                old.tasks.cancel_join_thread()
            old.tasks.close()
        except Exception:
            pass
        self.drain_errors()
        worker = self._spawn(manifest, shard_index)
        self._workers[shard_index] = worker
        if not worker.ready.wait(timeout):
            raise WorkerDeadError(
                shard_index,
                f"shard worker {shard_index} failed to start within the "
                f"revive deadline ({timeout:g}s)",
            )
        if worker.failed.is_set():
            messages = self.drain_errors()
            raise WorkerDeadError(
                shard_index,
                "; ".join(messages)
                or f"shard worker {shard_index} failed to start",
            )
        self.restarts += 1

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def failed(self) -> bool:
        """True once any worker has raised (init or batch failure)."""
        return any(worker.failed.is_set() for worker in self._workers)

    def instrument(self, metrics) -> "ShardWorkerPool":
        """Register pool metrics on a :class:`~repro.obs.MetricsRegistry`.

        Per-batch cost when instrumented is one ``perf_counter`` pair and a
        histogram observe in :meth:`submit`; the per-shard submitted/acked/
        scatter counters mirror the shared state lazily, in
        :meth:`sync_metrics`, so the workers' hot loop is untouched.
        """
        self._obs = metrics
        self._m_submitted = metrics.counter(
            "repro_pool_submitted_batches_total",
            "Batches submitted to each shard worker.",
            labels=("shard",),
        )
        self._m_acked = metrics.counter(
            "repro_pool_acked_batches_total",
            "Batches each shard worker has acknowledged (ingested).",
            labels=("shard",),
        )
        self._m_scatter = metrics.counter(
            "repro_pool_scatter_seconds_total",
            "In-worker scatter (update_batch) wall-clock per shard.",
            labels=("shard",),
        )
        self._m_queue_wait = metrics.histogram(
            "repro_pool_queue_wait_seconds",
            "Time submit() spent enqueueing one batch (blocks when the "
            "shard's bounded queue is full).",
        )
        self._m_deaths = metrics.counter(
            "repro_pool_worker_deaths_total",
            "Shard worker processes observed dead by the parent.",
        )
        self._m_restarts = metrics.counter(
            "repro_pool_worker_restarts_total",
            "Shard worker processes revived by a supervisor.",
        )
        return self

    def sync_metrics(self) -> None:
        """Mirror the shared per-worker state into the registry (if any)."""
        if self._obs is None:
            return
        for index, worker in enumerate(self._workers):
            shard = str(index)
            self._m_submitted.labels(shard=shard).inc_to(worker.submitted)
            self._m_acked.labels(shard=shard).inc_to(worker.acked.value)
            self._m_scatter.labels(shard=shard).inc_to(worker.scatter_seconds.value)
        self._m_deaths.inc_to(
            sum(1 for worker in self._workers if not worker.process.is_alive())
        )
        self._m_restarts.inc_to(self.restarts)

    def stats(self) -> Dict[str, Any]:
        """Point-in-time per-worker accounting (no registry required)."""
        return {
            "supervised": self.supervised,
            "restarts": self.restarts,
            "workers": [
                {
                    "shard": index,
                    "alive": worker.process.is_alive(),
                    "failed": worker.failed.is_set(),
                    "submitted": worker.submitted,
                    "acked": worker.acked.value,
                    "scatter_seconds": round(worker.scatter_seconds.value, 6),
                }
                for index, worker in enumerate(self._workers)
            ]
        }

    def wait_ready(self, timeout: float = 60.0) -> "ShardWorkerPool":
        """Block until every worker has built its shard and attached.

        ``timeout`` is ONE deadline shared by the whole pool, not a
        per-worker allowance — a 16-shard pool cannot stretch a 60 s
        timeout into 16 minutes.
        """
        deadline = time.monotonic() + timeout
        for index, worker in enumerate(self._workers):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.ready.wait(remaining):
                raise RuntimeError(
                    f"shard worker {index} failed to start within the pool's "
                    f"{timeout:g}s deadline"
                )
        # A failure event set during init means an error message is on its
        # way even if the queue's feeder thread has not delivered it yet.
        self._raise_errors(expect_failure=self.failed)
        return self

    def submit(self, shard_index: int, keys, counts) -> None:
        """Queue one (keys, counts) batch for a shard.

        Blocks when the shard's queue is full (bounded backlog); a worker
        that died or failed mid-stream raises instead of deadlocking the
        put.  Failure detection reads the workers' shared ``failed``
        events — synchronous and reliable, unlike ``Queue.empty()`` on the
        error queue (documented as approximate), which previously let a
        worker init failure go unnoticed for many batches.
        """
        if self._closed:
            raise RuntimeError("shard worker pool is closed")
        if not self.supervised and self.failed:
            # Fail fast: a worker that errored (e.g. died during init) keeps
            # acking-and-discarding; without this check a long ingestion
            # would silently drop every batch for that shard until the next
            # drain.  Supervised pools localize instead: the per-worker
            # checks below raise WorkerDeadError for the affected shard
            # only, so batches for healthy shards keep flowing while the
            # supervisor rebuilds the dead one.
            self._raise_errors(expect_failure=True)
        worker = self._workers[shard_index]
        wait_start = time.perf_counter() if self._obs is not None else 0.0
        while True:
            if not worker.process.is_alive():
                if self.supervised:
                    raise WorkerDeadError(
                        shard_index, f"shard worker {shard_index} died"
                    )
                self._raise_errors()
                raise WorkerDeadError(shard_index, f"shard worker {shard_index} died")
            if worker.failed.is_set():
                if self.supervised:
                    raise WorkerDeadError(
                        shard_index, f"shard worker {shard_index} failed"
                    )
                self._raise_errors(expect_failure=True)
            try:
                worker.tasks.put((keys, counts), timeout=0.05)
                break
            except queue_module.Full:
                continue
        worker.submitted += 1
        if self._obs is not None:
            self._m_queue_wait.observe(time.perf_counter() - wait_start)

    def join(self, exclude=frozenset()) -> None:
        """Block until every submitted batch has been ingested.

        Event-driven: each worker notifies its ack condition per batch, so
        the parent sleeps between acks instead of burning a core polling —
        the waits below only wake early to notice a dead worker.

        ``exclude`` names shard indices to skip — a supervised caller
        drains the *survivors* while a dead shard awaits rebuild.  With a
        non-empty exclude set, stale error messages from the excluded
        (dead) workers are discarded instead of raised.
        """
        for index, worker in enumerate(self._workers):
            if index in exclude:
                continue
            with worker.ack_cond:
                while not worker.drained():
                    if worker.failed.is_set():
                        break
                    if not worker.process.is_alive():
                        if not exclude:
                            self._raise_errors()
                        raise WorkerDeadError(
                            index,
                            f"shard worker {index} died with batches outstanding",
                        )
                    worker.ack_cond.wait(_LIVENESS_CHECK_SECONDS)
            if worker.failed.is_set():
                if exclude:
                    raise WorkerDeadError(index, f"shard worker {index} failed")
                self._raise_errors(expect_failure=True)
        if exclude:
            self.drain_errors()
        else:
            self._raise_errors()

    def drain_errors(self) -> List[str]:
        """Collect (without raising) any queued worker error messages.

        The supervised path uses this after a worker death is already
        attributed: the messages go to logs/metrics, and must not poison
        the next healthy operation the way :meth:`_raise_errors` would.
        """
        messages: List[str] = []
        while True:
            try:
                messages.append(self._errors.get_nowait())
            except queue_module.Empty:
                return messages

    def _raise_errors(self, expect_failure: bool = False) -> None:
        """Drain the error queue and raise its messages, if any.

        With ``expect_failure`` a failure event is known to be set, so an
        empty queue is a feeder-thread race, not a clean bill of health —
        wait briefly for the message before raising a generic error.
        """
        messages = []
        while True:
            try:
                messages.append(self._errors.get_nowait())
            except queue_module.Empty:
                break
        if not messages and expect_failure:
            try:
                messages.append(self._errors.get(timeout=_ERROR_MESSAGE_GRACE_SECONDS))
            except queue_module.Empty:
                messages.append("shard worker failed (no error message received)")
        if messages:
            raise RuntimeError("; ".join(messages))

    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers (idempotent).

        Queued batches finish first: each worker is drained by ack-counting
        (bounded by one pool-wide ``timeout`` deadline) before its shutdown
        sentinel is enqueued, so a full task queue no longer causes queued
        batches to be silently dropped.  Only workers still undrained at
        the deadline — or dead/failed ones — are terminated with work
        outstanding.  Never raises: close runs on error paths too; use
        :meth:`join` first for a drain that surfaces failures.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            with worker.ack_cond:
                while (
                    not worker.drained()
                    and worker.process.is_alive()
                    and not worker.failed.is_set()
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    worker.ack_cond.wait(min(_LIVENESS_CHECK_SECONDS, remaining))
        for worker in self._workers:
            # A drained worker's queue has room for the sentinel by
            # construction; the timeout only covers undrained stragglers.
            try:
                worker.tasks.put(None, timeout=max(0.1, deadline - time.monotonic()))
            except queue_module.Full:
                pass  # terminate below
        for worker in self._workers:
            worker.process.join(timeout=max(1.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                if not worker.process.is_alive() and not worker.drained():
                    # A dead worker can leave the queue's feeder thread
                    # blocked on a pipe nobody will ever read; joining that
                    # thread at interpreter exit would hang the parent.
                    # The undelivered batches are already lost with the
                    # worker — don't let them take the process down too.
                    worker.tasks.cancel_join_thread()
                worker.tasks.close()
            except Exception:
                pass
