"""Resilience gates: WAL ingest overhead and single-worker recovery time.

Two costs the self-healing machinery is allowed to charge:

1. **WAL overhead** — end-to-end ingest throughput with the write-ahead
   log on must stay within 10% of WAL-off throughput.  The WAL append is
   one buffered write + flush per acked batch on the ack path; if it ever
   grows a sync or a copy it does not need, this gate catches it.
2. **Recovery time** — after SIGKILLing one shard worker of a 4-shard
   service mid-stream, the supervisor must detect, restart, restore, and
   WAL-replay the shard in at most 5 seconds (wall clock from kill to the
   service reporting healthy).

Results land in ``benchmarks/results/BENCH_resilience.json``.

Run explicitly (benchmarks are opt-in):
``PYTHONPATH=src pytest benchmarks/test_resilience.py -s``
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
import uuid
from pathlib import Path

import numpy as np

from repro.service import ServiceThread, StreamingClient, StreamingService
from repro.sketches import CountMinSketch
from repro.streams.zipf import ZipfSampler

from conftest import benchmark_scale, save_result

TOTAL_BUCKETS = 1 << 16
DEPTH = 2
SEED = 31
NUM_SHARDS = 4
NUM_CLIENTS = 2
STREAM_LENGTH = 800_000  # total across clients, before scaling
ZIPF_SUPPORT = 50_000
CLIENT_BATCH = 32_768

#: Gate: WAL-on ingest must retain at least this fraction of WAL-off rate.
WAL_OVERHEAD_GATE = 0.90
#: Gate: one dead shard worker must be healthy again within this budget.
RECOVERY_SECONDS_GATE = 5.0


def _spec():
    return {
        "kind": "sharded",
        "inner": {
            "kind": "count_min",
            "total_buckets": TOTAL_BUCKETS,
            "depth": DEPTH,
            "seed": SEED,
        },
        "num_shards": NUM_SHARDS,
        "mode": "key-partition",
        "executor": "process",
    }


def _socket_path() -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:8]}.sock")


def _streams(total_length):
    per_client = total_length // NUM_CLIENTS
    rng = np.random.default_rng(23)
    return [
        ZipfSampler(ZIPF_SUPPORT, exponent=1.0, rng=rng)
        .sample(per_client)
        .astype(np.int64)
        for _ in range(NUM_CLIENTS)
    ]


def _writer(sock, stream, results, index):
    acked = 0
    with StreamingClient.connect(unix_path=sock) as client:
        for start in range(0, len(stream), CLIENT_BATCH):
            acked += client.ingest(stream[start : start + CLIENT_BATCH])
    results[index] = acked


def _ingest_rate(streams, wal_dir=None, tmp_dir=None):
    sock = _socket_path()
    kwargs = {}
    if wal_dir is not None:
        kwargs["wal_dir"] = wal_dir
        kwargs["snapshot_path"] = os.path.join(tmp_dir, "bench.snap")
    with ServiceThread(StreamingService(_spec(), unix_path=sock, **kwargs)):
        acked = [0] * NUM_CLIENTS
        writers = [
            threading.Thread(target=_writer, args=(sock, stream, acked, index))
            for index, stream in enumerate(streams)
        ]
        start = time.perf_counter()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        with StreamingClient.connect(unix_path=sock) as client:
            client.flush()
        elapsed = time.perf_counter() - start
    assert sum(acked) == sum(len(stream) for stream in streams)
    return sum(acked) / elapsed


def test_resilience_gates(tmp_path):
    total_length = max(100_000, int(STREAM_LENGTH * benchmark_scale()))
    streams = _streams(total_length)

    # --- 1. WAL ingest overhead -------------------------------------
    # Warm-up run first: the initial service pays one-time costs (worker
    # spawn, import, page faults) that would otherwise be billed to
    # whichever variant runs first.  Then alternate off/on runs and take
    # the best of each — machine-level noise (thermal drift, CI neighbors)
    # swings individual runs far more than the WAL does, and best-of
    # compares the two variants at their common ceiling.
    _ingest_rate([stream[: CLIENT_BATCH * 2] for stream in streams])
    rates_off, rates_on = [], []
    for attempt in range(2):
        rates_off.append(_ingest_rate(streams))
        rates_on.append(
            _ingest_rate(
                streams,
                wal_dir=str(tmp_path / f"wal-bench-{attempt}"),
                tmp_dir=str(tmp_path),
            )
        )
    rate_off = max(rates_off)
    rate_on = max(rates_on)
    retained = rate_on / rate_off

    # --- 2. single-worker recovery at 4 shards ----------------------
    sock = _socket_path()
    service = StreamingService(
        _spec(),
        unix_path=sock,
        snapshot_path=str(tmp_path / "recovery.snap"),
        wal_dir=str(tmp_path / "wal-recovery"),
    )
    with ServiceThread(service):
        with StreamingClient.connect(unix_path=sock) as client:
            for stream in streams:
                for start in range(0, len(stream), CLIENT_BATCH):
                    client.ingest(stream[start : start + CLIENT_BATCH])
            client.flush()
            victim = service.session.estimator._worker_pool._workers[1].process
            killed_at = time.perf_counter()
            os.kill(victim.pid, signal.SIGKILL)
            recovery_seconds = None
            while time.perf_counter() - killed_at < 60.0:
                stats = client.stats()
                if not stats.get("degraded") and stats["worker_restarts"] >= 1:
                    recovery_seconds = time.perf_counter() - killed_at
                    break
                time.sleep(0.02)
            assert recovery_seconds is not None, "shard never recovered"
            # Recovered exactly: drained estimates match a serial sketch.
            queries = np.arange(256, dtype=np.int64)
            client.flush()
            drained = client.estimate(queries)
    reference = CountMinSketch.from_total_buckets(
        TOTAL_BUCKETS, depth=DEPTH, seed=SEED
    )
    for stream in streams:
        reference.update_batch(stream)
    assert (drained == reference.estimate_batch(queries)).all()

    cores = os.cpu_count() or 1
    gate_enforced = cores >= 2
    record = {
        "stream_length": total_length,
        "num_shards": NUM_SHARDS,
        "client_batch": CLIENT_BATCH,
        "ingest_elements_per_sec_wal_off": round(rate_off),
        "ingest_elements_per_sec_wal_on": round(rate_on),
        "wal_throughput_retained": round(retained, 4),
        "wal_overhead_percent": round((1.0 - retained) * 100.0, 2),
        "recovery_seconds": round(recovery_seconds, 3),
        "cpu_cores": cores,
        "gates": {
            "wal_overhead": f"retained >= {WAL_OVERHEAD_GATE} of WAL-off rate",
            "recovery": f"<= {RECOVERY_SECONDS_GATE} s, 1 worker of "
            f"{NUM_SHARDS} shards",
        },
        "gate_enforced": gate_enforced,
        "recovered_bit_identical_to_serial": True,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_resilience.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        "resilience gates",
        f"  ingest rate WAL off : {rate_off:>12,.0f} elements/s",
        f"  ingest rate WAL on  : {rate_on:>12,.0f} elements/s"
        f"  ({(1.0 - retained) * 100.0:.1f}% overhead)",
        f"  recovery (1/{NUM_SHARDS} workers SIGKILL): "
        f"{recovery_seconds:.3f} s",
    ]
    save_result("resilience", "\n".join(lines))

    if gate_enforced:
        assert retained >= WAL_OVERHEAD_GATE, (
            f"WAL ingest overhead too high: retained {retained:.3f} "
            f"of WAL-off throughput (gate {WAL_OVERHEAD_GATE})"
        )
    assert recovery_seconds <= RECOVERY_SECONDS_GATE, (
        f"recovery took {recovery_seconds:.3f}s "
        f"(gate {RECOVERY_SECONDS_GATE}s)"
    )
