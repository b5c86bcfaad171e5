"""Service gate: sustained ingest throughput under concurrent live queries.

The acceptance property of the streaming ingestion service: with four
concurrent writer streams pushing binary key batches through the socket
while a reader continuously issues live ``estimate`` queries, the service
must sustain a healthy end-to-end ingest rate — socket framing, micro-batch
coalescing, shard routing, and shm worker scatters included — and the
drained result must stay bit-identical to a serial reference sketch.

The absolute rate is hardware-bound (the shard workers need real cores),
so on machines with fewer than 2 cores the numbers are recorded but the
rate gate is skipped, mirroring the other parallel-hardware gates.

Results land in ``benchmarks/results/BENCH_service.json``.

Run explicitly (benchmarks are opt-in):
``PYTHONPATH=src pytest benchmarks/test_service.py -s``
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

from repro.service import ServiceThread, StreamingClient, StreamingService
from repro.sketches import CountMinSketch
from repro.streams.zipf import ZipfSampler

from conftest import benchmark_scale, save_result

NUM_CLIENTS = 4
STREAM_LENGTH = 2_000_000  # total across clients, before scaling
ZIPF_SUPPORT = 100_000
TOTAL_BUCKETS = 1 << 18
DEPTH = 2
SEED = 31
CLIENT_BATCH = 65_536
#: Minimum sustained end-to-end ingest rate with live queries running.
#: Conservative on purpose: CI runners vary, and the gate exists to catch
#: order-of-magnitude regressions (e.g. JSON sneaking back into the hot
#: path), not to benchmark the hardware.
GATE_ELEMENTS_PER_SEC = 100_000

SPEC = {
    "kind": "sharded",
    "inner": {
        "kind": "count_min",
        "total_buckets": TOTAL_BUCKETS,
        "depth": DEPTH,
        "seed": SEED,
    },
    "num_shards": 2,
    "mode": "round-robin",
    "executor": "process",
}


def _writer(sock, stream, results, index):
    acked = 0
    with StreamingClient.connect(unix_path=sock) as client:
        for start in range(0, len(stream), CLIENT_BATCH):
            acked += client.ingest(stream[start : start + CLIENT_BATCH])
    results[index] = acked


def test_service_sustained_ingest_with_concurrent_queries():
    total_length = max(200_000, int(STREAM_LENGTH * benchmark_scale()))
    per_client = total_length // NUM_CLIENTS
    rng = np.random.default_rng(23)
    streams = [
        ZipfSampler(ZIPF_SUPPORT, exponent=1.0, rng=rng)
        .sample(per_client)
        .astype(np.int64)
        for _ in range(NUM_CLIENTS)
    ]
    queries = np.arange(256, dtype=np.int64)
    sock = os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:8]}.sock")

    with ServiceThread(StreamingService(SPEC, unix_path=sock)) as service:
        acked = [0] * NUM_CLIENTS
        writers = [
            threading.Thread(target=_writer, args=(sock, stream, acked, index))
            for index, stream in enumerate(streams)
        ]
        query_count = 0
        start = time.perf_counter()
        for writer in writers:
            writer.start()
        with StreamingClient.connect(unix_path=sock) as reader:
            while any(writer.is_alive() for writer in writers):
                reader.estimate(queries)
                query_count += 1
            for writer in writers:
                writer.join()
            reader.flush()
            ingest_elapsed = time.perf_counter() - start
            drained = reader.estimate(queries)
        service.stop()

    assert sum(acked) == NUM_CLIENTS * per_client
    rate = sum(acked) / ingest_elapsed

    reference = CountMinSketch.from_total_buckets(TOTAL_BUCKETS, depth=DEPTH, seed=SEED)
    for stream in streams:
        reference.update_batch(stream)
    assert (drained == reference.estimate_batch(queries)).all()

    cores = os.cpu_count() or 1
    record = {
        "num_clients": NUM_CLIENTS,
        "stream_length": sum(acked),
        "client_batch": CLIENT_BATCH,
        "num_shards": SPEC["num_shards"],
        "total_buckets": TOTAL_BUCKETS,
        "depth": DEPTH,
        "cpu_cores": cores,
        "ingest_elements_per_sec": round(rate),
        "concurrent_live_queries": query_count,
        "live_queries_per_sec": round(query_count / ingest_elapsed, 1),
        "gate": f">={GATE_ELEMENTS_PER_SEC} elements/sec sustained with "
        "concurrent live queries",
        "gate_enforced": cores >= 2,
        "drained_bit_identical_to_serial": True,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_service.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        f"Streaming service ({NUM_CLIENTS} concurrent writers, "
        f"{SPEC['num_shards']} shm shards, live reads throughout)",
        f"  ingested                 : {sum(acked):>12,} arrivals",
        f"  sustained ingest rate    : {rate:>12,.0f} elements/sec",
        f"  live queries served      : {query_count:>12,} "
        f"({query_count / ingest_elapsed:,.1f}/sec)",
        f"  drained state            : bit-identical to serial reference",
    ]
    save_result("service", "\n".join(lines))
    if cores < 2:
        pytest.skip(
            f"only {cores} CPU core(s): the service rate gate needs >= 2; "
            f"measured {rate:,.0f} el/s (recorded in BENCH_service.json)"
        )
    assert rate >= GATE_ELEMENTS_PER_SEC
