"""End-to-end tests of the streaming ingestion service.

The acceptance story: several concurrent client streams ingest while live
``estimate`` queries are answered, then graceful drain → snapshot →
restart leaves a service that answers bit-identically (linear sketches).
Plus the lifecycle edges a daemon must survive: a shard worker dying
mid-stream surfaces to clients as an error response (never a hang),
double-close is idempotent, and SIGTERM during active ingest leaves a
restorable snapshot.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import uuid

import numpy as np
import pytest

import repro
from repro.service import ServiceThread, StreamingClient, StreamingService
from repro.service.protocol import ServiceError

CMS_INNER = {"kind": "count_min", "total_buckets": 1 << 14, "depth": 3, "seed": 9}
SHM_SPEC = {
    "kind": "sharded",
    "inner": CMS_INNER,
    "num_shards": 2,
    "mode": "round-robin",
    "executor": "process",
}
UNIVERSE = 5_000


def _socket_path() -> str:
    # AF_UNIX paths are capped at ~107 bytes; pytest tmp_path can exceed
    # that, so sockets live directly under the system temp directory.
    return os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:12]}.sock")


def _streams(num_clients: int, per_client: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, UNIVERSE, size=per_client).astype(np.int64)
        for _ in range(num_clients)
    ]


def _reference_cms(streams):
    reference = repro.CountMinSketch.from_total_buckets(
        CMS_INNER["total_buckets"], depth=CMS_INNER["depth"], seed=CMS_INNER["seed"]
    )
    for stream in streams:
        reference.update_batch(stream)
    return reference


def _run_writer(sock, stream, batch=4_000, errors=None):
    try:
        with StreamingClient.connect(unix_path=sock) as client:
            for start in range(0, len(stream), batch):
                client.ingest(stream[start : start + batch])
    except BaseException as error:  # collected, not swallowed
        (errors if errors is not None else []).append(error)


def test_concurrent_streams_with_live_queries_then_snapshot_restart(tmp_path):
    """The acceptance demo: 4 writers + live reads, then restart round-trip."""
    sock = _socket_path()
    snap = str(tmp_path / "service.snap")
    streams = _streams(4, 50_000)
    queries = np.arange(64, dtype=np.int64)
    reference = _reference_cms(streams)

    with ServiceThread(
        StreamingService(SHM_SPEC, unix_path=sock, snapshot_path=snap)
    ) as service:
        errors = []
        writers = [
            threading.Thread(target=_run_writer, args=(sock, stream, 4_000, errors))
            for stream in streams
        ]
        for writer in writers:
            writer.start()
        # Live reads while the writers stream: answers must be finite,
        # non-negative, and monotone non-decreasing (CMS counters only
        # grow; live_estimate reads the shards' current tables).
        with StreamingClient.connect(unix_path=sock) as reader:
            previous = np.zeros(len(queries))
            live_reads = 0
            while any(writer.is_alive() for writer in writers):
                live = reader.estimate(queries)
                assert live.shape == (len(queries),)
                assert (live >= previous).all()
                previous = live
                live_reads += 1
            assert live_reads > 0
        for writer in writers:
            writer.join()
        assert not errors, errors

        with StreamingClient.connect(unix_path=sock) as client:
            flush = client.flush()
            assert flush["applied_keys"] == sum(len(s) for s in streams)
            drained = client.estimate(queries)
            top = client.top_k(5, candidates=list(range(256)))
            stats = client.stats()
        # After the drain barrier the service answers exactly like one
        # serial CMS over the concatenated streams (linear sketch).
        assert (drained == reference.estimate_batch(queries)).all()
        expected_top = reference.estimate_batch(np.arange(256, dtype=np.int64))
        assert [estimate for _, estimate in top] == sorted(
            expected_top.tolist(), reverse=True
        )[:5]
        assert stats["accepted_keys"] == stats["applied_keys"]
        assert stats["buffered_keys"] == 0
    # context exit: graceful drain + snapshot + close

    assert os.path.exists(snap)
    # The snapshot alone rebuilds bit-identical state (counters, not just
    # estimates).
    with repro.load(snap) as restored:
        assert (
            restored.estimator.collapse().counters() == reference.counters()
        ).all()

    # And a restarted service resumes from it, answering identically and
    # accepting further ingest on top.
    with ServiceThread(
        StreamingService(SHM_SPEC, unix_path=sock, snapshot_path=snap)
    ):
        with StreamingClient.connect(unix_path=sock) as client:
            assert client.stats()["restored"] is True
            assert (
                client.estimate(queries) == reference.estimate_batch(queries)
            ).all()
            client.ingest(np.array([7, 7, 7], dtype=np.int64))
            client.flush()
            bumped = client.estimate(np.array([7], dtype=np.int64))
    reference.update_batch(np.array([7, 7, 7], dtype=np.int64))
    assert bumped[0] == reference.estimate_batch(np.array([7], dtype=np.int64))[0]


def test_weighted_and_string_key_ingest_paths():
    """JSON string keys and weighted binary batches hit the same tables."""
    sock = _socket_path()
    spec = {"kind": "count_min", "total_buckets": 4096, "depth": 2, "seed": 4}
    with ServiceThread(StreamingService(spec, unix_path=sock)):
        with StreamingClient.connect(unix_path=sock) as client:
            client.ingest(["alpha", "beta", "alpha"])
            client.ingest(np.array([10, 11], dtype=np.int64), counts=[5, 2])
            client.flush()
            strings = client.estimate(["alpha", "beta", "gamma"])
            ints = client.estimate([10, 11])
    reference = repro.CountMinSketch.from_total_buckets(4096, depth=2, seed=4)
    reference.update_batch(["alpha", "beta", "alpha"])
    reference.update_batch(np.array([10, 11], dtype=np.int64), np.array([5, 2]))
    assert (
        strings == reference.estimate_batch(["alpha", "beta", "gamma"])
    ).all()
    assert (ints == reference.estimate_batch([10, 11])).all()


def test_tcp_endpoint_and_ping():
    with ServiceThread(
        StreamingService(CMS_INNER, host="127.0.0.1", port=0)
    ) as service:
        host, port = service.service.endpoint
        with StreamingClient.connect(host=host, port=port) as client:
            assert client.ping()
            client.ingest(np.arange(100, dtype=np.int64))
            client.flush()
            assert client.estimate([1])[0] >= 1.0


def test_protocol_errors_keep_the_connection_alive():
    sock = _socket_path()
    with ServiceThread(StreamingService(CMS_INNER, unix_path=sock)):
        with StreamingClient.connect(unix_path=sock) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client._request(b'{"op":"frobnicate"}\n')
            with pytest.raises(ServiceError):
                client._request(b'{"op":"estimate","keys":[]}\n')
            with pytest.raises(ServiceError, match="snapshot_path"):
                client.snapshot()  # service has no snapshot path configured
            # The same connection still serves requests afterwards.
            assert client.ping()


def test_worker_death_surfaces_as_error_response_not_a_hang():
    """A dead shard worker must turn into ``ok: false``, within bounded time."""
    sock = _socket_path()
    spec = dict(SHM_SPEC, num_shards=1)
    with ServiceThread(StreamingService(spec, unix_path=sock)) as service:
        pool = service.service.session.estimator._worker_pool
        assert pool is not None
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 60.0
        batch = np.arange(1_000, dtype=np.int64)
        with StreamingClient.connect(unix_path=sock) as client:
            with pytest.raises(ServiceError):
                while time.monotonic() < deadline:
                    client.ingest(batch)
                    client.flush()
                pytest.fail("worker death never surfaced to the client")
            # The service is parked, not wedged: it still answers, with
            # errors for ingestion and live stats reporting the failure.
            assert client.stats()["failure"] is not None
            with pytest.raises(ServiceError):
                client.ingest(batch)
        service.stop()  # drains nothing, skips the snapshot, must not raise


def test_double_stop_and_double_close_are_idempotent():
    sock = _socket_path()
    service = ServiceThread(StreamingService(CMS_INNER, unix_path=sock)).start()
    client = StreamingClient.connect(unix_path=sock)
    client.ingest(np.arange(10, dtype=np.int64))
    client.close()
    client.close()
    service.stop()
    service.stop()
    assert not os.path.exists(sock)  # the socket file is cleaned up


@pytest.mark.parametrize("signal_during_ingest", [True])
def test_sigterm_during_active_ingest_leaves_restorable_snapshot(
    tmp_path, signal_during_ingest
):
    """SIGTERM mid-stream: drain, snapshot atomically, exit 0, restore."""
    sock = _socket_path()
    snap = str(tmp_path / "sigterm.snap")
    spec_json = __import__("json").dumps(SHM_SPEC)
    env = dict(os.environ, PYTHONPATH="src")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--spec",
            spec_json,
            "--unix",
            sock,
            "--snapshot",
            snap,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    try:
        assert "listening" in daemon.stdout.readline()
        rng = np.random.default_rng(3)
        acked_keys = 0
        client = StreamingClient.connect(unix_path=sock)
        batch = rng.integers(0, UNIVERSE, size=2_000).astype(np.int64)
        # Ensure real ingestion is underway before the signal...
        for _ in range(5):
            acked_keys += client.ingest(batch)
        daemon.send_signal(signal.SIGTERM)
        # ...and keep streaming across the SIGTERM until the service
        # refuses or the connection drops.  Only acknowledged batches
        # count: those are the service's durability promise.
        try:
            while True:
                acked_keys += client.ingest(batch)
        except (ServiceError, OSError):
            pass
        client.close()
        assert daemon.wait(timeout=120) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    assert os.path.exists(snap)
    with repro.load(snap) as restored:
        collapsed = restored.estimator.collapse()
        # One CMS row counts every arrival exactly once, so the row sum is
        # the total ingested weight — every acknowledged key must be there
        # (un-acked final sends may legitimately also have landed).
        total = int(collapsed.counters()[0].sum())
        assert total >= acked_keys > 0
        # And the restored session keeps serving.
        estimates = restored.estimate(np.arange(32, dtype=np.int64))
        assert estimates.shape == (32,)
        assert float(estimates.sum()) > 0.0
