"""Self-healing service: SIGKILL a shard worker, recover without data loss.

The chaos acceptance story: with a WAL and supervision, killing one shard
worker mid-ingest (under concurrent live queries) leaves a service that
answers degraded instead of erroring, restarts the worker under its
budget, replays that shard's WAL slice, and afterwards answers
bit-identically to a serial reference over every acknowledged key.  The
client side: retried ingests carry idempotency IDs, so an ack lost in
flight is re-acknowledged from the dedup window, never double-counted.
"""

import os
import signal
import socket as socket_module
import tempfile
import threading
import time
import uuid

import numpy as np
import pytest

import repro
from repro.resilience import RestartBudget, RetryPolicy, failpoints
from repro.service import ServiceThread, StreamingClient, StreamingService
from repro.service.client import ConnectionLost
from repro.service.protocol import ServiceError

CMS_INNER = {"kind": "count_min", "total_buckets": 1 << 14, "depth": 3, "seed": 9}


def _shm_spec(num_shards):
    return {
        "kind": "sharded",
        "inner": CMS_INNER,
        "num_shards": num_shards,
        "mode": "key-partition",
        "executor": "process",
    }


UNIVERSE = 5_000
POLICY = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=1.0)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.disarm_all()
    yield
    failpoints.disarm_all()


def _socket_path() -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:12]}.sock")


def _reference(streams):
    reference = repro.CountMinSketch.from_total_buckets(
        CMS_INNER["total_buckets"], depth=CMS_INNER["depth"], seed=CMS_INNER["seed"]
    )
    for stream in streams:
        reference.update_batch(stream)
    return reference


def _worker_process(service, shard_index):
    return service.session.estimator._worker_pool._workers[shard_index].process


def _writer(sock, stream, errors, batch=2_000, pause=0.002):
    try:
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            for start in range(0, len(stream), batch):
                client.ingest(stream[start : start + batch])
                time.sleep(pause)
    except BaseException as error:
        errors.append(error)


def test_sigkill_one_worker_midstream_selfheals(tmp_path):
    """The tentpole acceptance test: kill → degrade → restart → exact."""
    sock = _socket_path()
    rng = np.random.default_rng(1)
    streams = [
        rng.integers(0, UNIVERSE, size=24_000).astype(np.int64) for _ in range(3)
    ]
    queries = np.arange(64, dtype=np.int64)
    reference = _reference(streams)

    service = StreamingService(
        _shm_spec(4),
        unix_path=sock,
        snapshot_path=str(tmp_path / "service.snap"),
        wal_dir=str(tmp_path / "wal"),
    )
    with ServiceThread(service):
        errors = []
        writers = [
            threading.Thread(target=_writer, args=(sock, stream, errors))
            for stream in streams
        ]
        for writer in writers:
            writer.start()
        time.sleep(0.3)  # let ingest get going before the chaos
        os.kill(_worker_process(service, 1).pid, signal.SIGKILL)

        # Live queries during the outage + rebuild: every response is a
        # well-formed answer (possibly degraded), never an error or a hang.
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as reader:
            while any(writer.is_alive() for writer in writers):
                live = reader.estimate(queries)
                assert live.shape == (len(queries),)
                assert np.isfinite(live).all() and (live >= 0).all()
        for writer in writers:
            writer.join()
        assert not errors, errors

        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            for _ in range(200):  # wait out the rebuild
                stats = client.stats()
                if not stats.get("degraded") and stats["worker_restarts"] >= 1:
                    break
                time.sleep(0.05)
            assert stats["supervised"] is True
            assert stats["worker_restarts"] >= 1
            assert stats["failure"] is None

            flush = client.flush()
            assert flush["applied_keys"] == sum(len(s) for s in streams)
            # Post-recovery, estimates are bit-identical to a serial CMS
            # over the concatenated streams — acked keys survived the kill.
            drained = client.estimate(queries)
            assert (drained == reference.estimate_batch(queries)).all()

            samples = client.metrics()["samples"]
            assert samples["repro_service_worker_restarts_total"] >= 1
            assert samples["repro_service_failure"] == 0
            assert samples["repro_service_down_shards"] == 0
            assert samples["repro_service_wal_appended_batches_total"] > 0


def test_degraded_window_answers_from_survivors(tmp_path):
    """While a shard rebuilds, queries answer degraded; snapshots refuse."""
    sock = _socket_path()
    service = StreamingService(
        _shm_spec(2),
        unix_path=sock,
        snapshot_path=str(tmp_path / "service.snap"),
        wal_dir=str(tmp_path / "wal"),
    )
    with ServiceThread(service):
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            keys = np.arange(2_000, dtype=np.int64)
            client.ingest(keys)
            client.flush()
            # Stretch the pre-rebuild backoff so the degraded window is
            # wide enough to observe deterministically.
            service._budgets[1] = RestartBudget(
                max_restarts=5, window_seconds=60.0, base_delay=1.0, jitter=0.0
            )
            os.kill(_worker_process(service, 1).pid, signal.SIGKILL)

            from repro.service import protocol

            saw_degraded = False
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                response = client._request(
                    protocol.encode_frame(
                        {"op": "estimate", "keys": protocol.jsonable_keys([1, 2])}
                    )
                )
                if response.get("degraded"):
                    saw_degraded = True
                    assert response["down_shards"] == [1]
                    assert response["staleness_seconds"] >= 0
                    break
                time.sleep(0.01)
            assert saw_degraded, "never observed a degraded response"

            # A degraded snapshot would silently undercount — refused.
            with pytest.raises(ServiceError, match="degraded"):
                client.snapshot()
            # Degraded stats say so without counting as a degraded query.
            assert client.stats()["degraded"] is True

            for _ in range(200):
                stats = client.stats()
                if not stats.get("degraded"):
                    break
                time.sleep(0.05)
            assert stats.get("degraded") is None
            assert stats["worker_restarts"] >= 1
            assert stats["degraded_queries"] >= 1
            # Exact again after the rebuild replayed the WAL lane.
            reference = _reference([keys])
            assert (
                client.estimate(keys[:64])
                == reference.estimate_batch(keys[:64])
            ).all()


def test_process_shards_get_wal_lanes_and_supervision(tmp_path):
    """Shard detection keys on the process executor plus key-partition: a
    spec that never names a transport gets one WAL lane per shard and
    supervision."""
    spec = _shm_spec(3)
    assert "transport" not in spec
    sock = _socket_path()
    service = StreamingService(spec, unix_path=sock, wal_dir=str(tmp_path / "wal"))
    with ServiceThread(service):
        assert service._wal.num_lanes == 3
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            assert client.stats()["supervised"] is True


def test_retry_with_idempotency_never_double_counts(tmp_path):
    """A dropped ack triggers a client retry; the dedup window absorbs it."""
    sock = _socket_path()
    service = StreamingService(
        _shm_spec(2),
        unix_path=sock,
        snapshot_path=str(tmp_path / "service.snap"),
        wal_dir=str(tmp_path / "wal"),
    )
    with ServiceThread(service):
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            keys = np.arange(1_000, dtype=np.int64)
            # The service applies + WALs + acks the batch, then the
            # connection breaks before the ack reaches the client.
            failpoints.arm("service.drop_response", "raise")
            assert client.ingest(keys) == 1_000  # retried transparently
            flush = client.flush()
            assert flush["applied_keys"] == 1_000  # once, not twice
            reference = _reference([keys])
            assert (
                client.estimate(keys[:64])
                == reference.estimate_batch(keys[:64])
            ).all()
            stats = client.stats()
            assert stats["dedup_hits"] >= 1


def test_restart_budget_trips_and_parks_the_service(tmp_path, monkeypatch):
    """A shard that keeps dying opens the circuit breaker: park, don't loop."""
    sock = _socket_path()
    # Every spawned worker (initial and revived) kills itself on its first
    # ingest job — the shard can never be rebuilt.
    monkeypatch.setenv(failpoints.ENV_VAR, "worker.ingest=1*kill")
    service = StreamingService(
        _shm_spec(2),
        unix_path=sock,
        snapshot_path=str(tmp_path / "service.snap"),
        wal_dir=str(tmp_path / "wal"),
        max_restarts=2,
        restart_window=60.0,
    )
    failpoints.disarm_all()  # the ctor armed the parent from env; undo that
    with ServiceThread(service):
        with StreamingClient.connect(unix_path=sock) as client:
            client.ingest(np.arange(1_000, dtype=np.int64))
            deadline = time.monotonic() + 30.0
            failure = None
            while time.monotonic() < deadline:
                try:
                    stats = client.stats()
                except ServiceError:
                    break
                failure = stats.get("failure")
                if failure:
                    break
                time.sleep(0.05)
            assert failure and "restart budget" in failure
            # Parked: requests error, they do not hang.
            with pytest.raises(ServiceError, match="restart budget"):
                client.ingest(np.arange(8, dtype=np.int64))
    monkeypatch.delenv(failpoints.ENV_VAR)


def test_supervised_recovery_clears_parked_failure_and_gauge(tmp_path):
    """Satellite fix: a successful supervised restart un-parks the service
    and resets the ``repro_service_failure`` gauge."""
    sock = _socket_path()
    service = StreamingService(
        _shm_spec(2),
        unix_path=sock,
        snapshot_path=str(tmp_path / "service.snap"),
        wal_dir=str(tmp_path / "wal"),
    )
    with ServiceThread(service):
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            client.ingest(np.arange(2_000, dtype=np.int64))
            client.flush()
            # Simulate a transient park (e.g. a failed drain) racing a
            # worker death, then let the supervisor heal both.
            service._failure = "injected transient failure"
            service._m_failure.set(1)
            os.kill(_worker_process(service, 0).pid, signal.SIGKILL)
            for _ in range(200):
                samples = client.metrics()["samples"]
                stats = client.stats()
                if stats["failure"] is None and stats["worker_restarts"] >= 1:
                    break
                time.sleep(0.05)
            assert stats["failure"] is None
            assert samples["repro_service_failure"] == 0
            keys = np.arange(2_000, dtype=np.int64)
            reference = _reference([keys])
            assert (
                client.estimate(keys[:64])
                == reference.estimate_batch(keys[:64])
            ).all()


# ----------------------------------------------------------------------
# client lifecycle regressions (satellite)
# ----------------------------------------------------------------------
def test_client_double_close_is_idempotent(tmp_path):
    sock = _socket_path()
    with ServiceThread(StreamingService(CMS_INNER, unix_path=sock)):
        client = StreamingClient.connect(unix_path=sock)
        assert client.ping()
        client.close()
        client.close()  # must not raise
        with pytest.raises(ConnectionLost):
            client.ping()  # closed without a policy: no silent reconnect


def test_client_context_manager_closes(tmp_path):
    sock = _socket_path()
    with ServiceThread(StreamingService(CMS_INNER, unix_path=sock)):
        with StreamingClient.connect(unix_path=sock) as client:
            assert client.ping()
        assert client._sock is None


def test_client_close_after_connect_failure():
    missing = _socket_path()  # never created
    with pytest.raises(OSError):
        StreamingClient.connect(unix_path=missing)
    # With a retry policy the failure is ConnectionLost after retries...
    client = None
    try:
        client = StreamingClient.connect(
            unix_path=missing,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01),
        )
    except OSError:
        pass
    assert client is None  # connect() never leaks a half-built client


def test_client_reconnects_through_a_dropped_connection(tmp_path):
    sock = _socket_path()
    with ServiceThread(StreamingService(CMS_INNER, unix_path=sock)):
        with StreamingClient.connect(unix_path=sock, retry_policy=POLICY) as client:
            assert client.ping()
            # Sever the transport under the client; the next request must
            # transparently reconnect and succeed.
            client._sock.close()
            assert client.ping()
            client.close()
            client.close()  # idempotent even after a reconnect cycle
