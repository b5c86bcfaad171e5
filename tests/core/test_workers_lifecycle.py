"""Regression tests for the :class:`ShardWorkerPool` lifecycle fixes.

Four bugs, each fatal for a long-running service though mostly harmless in
batch replay:

1. ``close()`` promised "queued batches finish first", but with a full task
   queue the shutdown sentinel could not be enqueued and the worker was
   terminated — silently dropping every queued batch.  Fixed by an
   ack-counting drain (bounded by the close deadline) before the sentinel.
2. ``submit()``'s fail-fast check read ``multiprocessing.Queue.empty()`` on
   the error queue, which is documented as unreliable — a worker that died
   during init could swallow batches unnoticed.  Fixed by a per-worker
   shared ``Event`` raised by the worker on any failure.
3. ``wait_ready(timeout)`` applied the timeout per worker, so a 16-shard
   pool could stretch a 60 s timeout into ~16 minutes.  Fixed by one
   pool-wide deadline.
4. ``join()`` busy-polled the ack counter every millisecond, burning CPU
   for the whole duration of every drain.  Fixed by a condition variable
   the worker notifies per ack.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.core.sharding import ShardedEstimator
from repro.core.workers import ShardWorkerPool, _ShardWorker
from repro.sketches import CountMinSketch

SPEC = {"kind": "count_min", "total_buckets": 1 << 20, "depth": 4, "seed": 5}


def _slow_batch_size(target_seconds: float, cap: int = 6_000_000) -> int:
    """Calibrate how many keys keep a worker busy ~target_seconds here.

    The lifecycle bugs are timing-dependent (a full queue at close time, a
    drain long enough to observe polling), so the workload is sized from a
    measured probe instead of hard-coding counts that only stress one
    machine speed.
    """
    probe = np.random.default_rng(0).integers(0, 1 << 30, size=50_000)
    twin = CountMinSketch.from_total_buckets(
        SPEC["total_buckets"], depth=SPEC["depth"], seed=SPEC["seed"]
    )
    twin.update_batch(probe)  # warm-up: first-touch page faults dominate
    start = time.perf_counter()
    twin.update_batch(probe)
    per_key = max((time.perf_counter() - start) / len(probe), 1e-10)
    return int(min(cap, max(100_000, target_seconds / per_key)))


def _shm_pool(num_shards: int = 1):
    """A ShardedEstimator plus its (ready) persistent worker pool."""
    sharded = ShardedEstimator(
        SPEC, num_shards, mode="round-robin", executor="process"
    )
    pool = sharded._ensure_workers().wait_ready()
    return sharded, pool


def test_close_drains_queued_batches_under_full_queue():
    """Bug 1: close() with a full task queue must drain it, then exit clean.

    The worker is frozen with SIGSTOP while four batches fill its queue to
    capacity, and only resumed two seconds later — so the queue is *still
    full* for the whole of the pre-fix close()'s one-second sentinel
    window, deterministically.  The pre-fix close then hit ``queue.Full``,
    fell through to ``process.join(timeout)`` (burning the entire timeout,
    since the worker never receives a sentinel) and terminated the worker —
    dropping any batches still queued at that point.  The fixed close()
    drains by ack counting first, so it must (a) land every submitted
    count, (b) let the worker exit cleanly via its sentinel, and (c)
    return as soon as the drain completes, not at the deadline.
    """
    import os
    import signal

    small_n = 10_000
    small = np.random.default_rng(1).integers(0, 1 << 30, size=small_n)
    sharded, pool = _shm_pool()
    worker = pool._workers[0]
    resume = threading.Timer(2.0, os.kill, (worker.process.pid, signal.SIGCONT))
    try:
        os.kill(worker.process.pid, signal.SIGSTOP)
        # _MAX_PENDING_FACTOR == 4: the frozen worker's queue fills up.
        for _ in range(4):
            pool.submit(0, small, np.ones(small_n, dtype=np.int64))
        resume.start()
        start = time.perf_counter()
        pool.close(timeout=60.0)
        elapsed = time.perf_counter() - start
        # Every CMS row counts every arrival once.
        total = int(sharded.shards[0].counters().sum())
        assert total == SPEC["depth"] * 4 * small_n
        assert worker.process.exitcode == 0, (
            f"worker exited with {worker.process.exitcode} — close() "
            "terminated it instead of delivering the shutdown sentinel"
        )
        assert elapsed < 30.0, (
            f"close() took {elapsed:.1f}s — it burned the deadline in "
            "process.join instead of draining by ack counting"
        )
    finally:
        resume.cancel()
        sharded.close()


def test_submit_fails_fast_without_trusting_queue_empty():
    """Bug 2: a worker init failure must surface on the next submit even
    when ``Queue.empty()`` misreports (its documented behavior).

    The worker gets a manifest naming a nonexistent shm segment, so init
    fails.  The error queue's ``empty()`` is then pinned to ``True`` —
    exactly the unreliable answer the pre-fix check trusted, silently
    accepting (and discarding) every batch.  The fixed submit reads the
    worker's shared failure event instead and must raise.
    """
    shm_twin = CountMinSketch.from_total_buckets(
        1024, depth=2, seed=1, storage="shm"
    )
    manifest = dict(shm_twin.storage_manifest())
    manifest["name"] = "repro-test-no-such-segment"
    spec = {"kind": "count_min", "total_buckets": 1024, "depth": 2, "seed": 1}
    pool = ShardWorkerPool(spec, [manifest])
    try:
        assert pool._workers[0].failed.wait(30.0), "worker init should fail"
        pool._errors.empty = lambda: True  # the documented lie
        with pytest.raises(RuntimeError, match="failed to start"):
            pool.submit(0, np.arange(16), np.ones(16, dtype=np.int64))
    finally:
        pool.close(timeout=5.0)
        shm_twin.close()


def test_wait_ready_failure_also_raises_from_wait_ready():
    """Companion to the fail-fast fix: wait_ready surfaces the init error."""
    shm_twin = CountMinSketch.from_total_buckets(
        1024, depth=2, seed=1, storage="shm"
    )
    manifest = dict(shm_twin.storage_manifest())
    manifest["name"] = "repro-test-no-such-segment"
    spec = {"kind": "count_min", "total_buckets": 1024, "depth": 2, "seed": 1}
    pool = ShardWorkerPool(spec, [manifest])
    try:
        with pytest.raises(RuntimeError, match="failed to start"):
            pool.wait_ready(timeout=30.0)
    finally:
        pool.close(timeout=5.0)
        shm_twin.close()


class _StuckProcess:
    """Stands in for a worker process in the deadline test."""

    @staticmethod
    def is_alive() -> bool:
        return True


def _fake_pool(ready_events):
    """A pool skeleton whose workers expose the given ready events.

    wait_ready only touches ``worker.ready`` and the error queue, so the
    deadline semantics can be tested deterministically without spawning
    processes (threading.Event has the same wait(timeout) contract).
    """
    pool = ShardWorkerPool.__new__(ShardWorkerPool)
    pool._closed = True  # nothing real to close
    pool._errors = queue.Queue()
    pool._workers = [
        _ShardWorker(_StuckProcess(), None, None, None, event, threading.Event(), None)
        for event in ready_events
    ]
    return pool


def test_wait_ready_applies_one_pool_wide_deadline():
    """Bug 3: the timeout is a single deadline, not a per-worker allowance.

    Worker 0 becomes ready late (0.4 s in) and workers 1–3 never do.  The
    pre-fix code granted each subsequent worker a *fresh* 0.5 s wait after
    worker 0's late success (≥ 0.9 s total before raising); the fixed
    version shares one deadline and must raise at ~0.5 s.
    """
    events = [threading.Event() for _ in range(4)]
    timer = threading.Timer(0.4, events[0].set)
    timer.start()
    pool = _fake_pool(events)
    try:
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="deadline"):
            pool.wait_ready(timeout=0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.8, (
            f"wait_ready took {elapsed:.2f}s for a 0.5s deadline — the "
            "timeout is being granted per worker again"
        )
    finally:
        timer.cancel()


def test_join_does_not_busy_poll(monkeypatch):
    """Bug 4: join() must block on the ack condition, not spin on sleep.

    A drain lasting ~1 s is observed with ``time.sleep`` instrumented: the
    pre-fix loop called ``sleep(0.001)`` hundreds of times from the joining
    thread; the fixed join never calls ``time.sleep`` at all (it waits on
    the worker's ack condition).
    """
    n = _slow_batch_size(1.0)
    keys = np.random.default_rng(2).integers(0, 1 << 30, size=n)
    sharded, pool = _shm_pool()
    try:
        pool.submit(0, keys, np.ones(n, dtype=np.int64))
        joining_thread = threading.current_thread()
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            if threading.current_thread() is joining_thread:
                sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        pool.join()
        monkeypatch.undo()
        assert not sleeps, (
            f"join() called time.sleep {len(sleeps)} times — the ack drain "
            "is polling again"
        )
        assert int(sharded.shards[0].counters().sum()) == SPEC["depth"] * n
    finally:
        sharded.close()


def test_pool_close_is_idempotent_and_sharded_double_close():
    sharded, pool = _shm_pool()
    sharded.update_batch(np.arange(1000, dtype=np.int64))
    sharded.drain()
    pool.close()
    pool.close()  # second close is a no-op
    sharded.close()
    sharded.close()  # and the estimator close is idempotent too
    assert int(sharded.shards[0].counters().sum()) == SPEC["depth"] * 1000


def test_join_raises_when_worker_killed_mid_stream():
    """A killed worker surfaces as an error from join, never a hang.

    SIGSTOP freezes the worker *before* the batch is submitted, so the
    batch is outstanding by construction when SIGKILL lands — no timing
    games about whether the worker finished first.  join must notice the
    dead process and raise instead of waiting on an ack that will never
    come.
    """
    import os
    import signal

    n = 2_000  # small: the queue feeder must not wedge on a dead reader
    keys = np.random.default_rng(3).integers(0, 1 << 30, size=n)
    sharded, pool = _shm_pool()
    try:
        pid = pool._workers[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        pool.submit(0, keys, np.ones(n, dtype=np.int64))
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="died"):
            pool.join()
    finally:
        pool.close(timeout=1.0)
        sharded._worker_pool = None  # already closed; skip the drain
        sharded.close()
