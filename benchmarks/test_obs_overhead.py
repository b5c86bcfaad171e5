"""Observability gate: instrumentation must cost ≤5% of ingest throughput.

The metrics registry is threaded through every runtime layer (service →
session → sharded estimator → worker pool), all at batch granularity.  This
gate runs the same sustained socket-ingest workload twice — once with
``instrument=False`` (null metrics) and once with the full registry live —
interleaved over several repeats to ride out machine noise, and asserts the
instrumented rate stays within 5% of the plain one.

Results land in ``benchmarks/results/BENCH_obs.json``.

Run explicitly (benchmarks are opt-in):
``PYTHONPATH=src pytest benchmarks/test_obs_overhead.py -s``
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
from repro.streams.zipf import ZipfSampler

from conftest import benchmark_scale, save_result

NUM_CLIENTS = 2
STREAM_LENGTH = 1_000_000  # total across clients, before scaling
ZIPF_SUPPORT = 100_000
CLIENT_BATCH = 65_536
REPEATS = 3
#: The gate: instrumented ingest must retain at least this fraction of the
#: un-instrumented rate (i.e. ≤5% overhead).
MIN_RATE_RATIO = 0.95

SPEC = {
    "kind": "sharded",
    "inner": {"kind": "count_min", "total_buckets": 1 << 18, "depth": 2, "seed": 31},
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


def _run_once(streams, instrument: bool) -> float:
    """One full service lifecycle; returns the ingest rate (elements/sec)."""
    sock = os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:8]}.sock")
    with ServiceThread(
        StreamingService(SPEC, unix_path=sock, instrument=instrument)
    ) as service:
        acked = [0] * len(streams)
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
        service.stop()
    assert sum(acked) == sum(len(stream) for stream in streams)
    return sum(acked) / elapsed


def test_instrumentation_overhead_gate():
    total_length = max(200_000, int(STREAM_LENGTH * benchmark_scale()))
    per_client = total_length // NUM_CLIENTS
    rng = np.random.default_rng(29)
    streams = [
        ZipfSampler(ZIPF_SUPPORT, exponent=1.0, rng=rng)
        .sample(per_client)
        .astype(np.int64)
        for _ in range(NUM_CLIENTS)
    ]

    # Interleave plain/instrumented repeats so drift (thermal, noisy
    # neighbors) hits both arms equally; compare best-of to measure the
    # code's cost rather than the machine's mood.
    plain_rates, instrumented_rates = [], []
    for _ in range(REPEATS):
        plain_rates.append(_run_once(streams, instrument=False))
        instrumented_rates.append(_run_once(streams, instrument=True))
    plain = max(plain_rates)
    instrumented = max(instrumented_rates)
    overhead_pct = (1.0 - instrumented / plain) * 100.0

    cores = os.cpu_count() or 1
    record = {
        "workload": "sustained socket ingest, 2 writers, 2 shm shards",
        "stream_length": total_length,
        "client_batch": CLIENT_BATCH,
        "repeats": REPEATS,
        "cpu_cores": cores,
        "plain_elements_per_sec": round(plain),
        "instrumented_elements_per_sec": round(instrumented),
        "overhead_pct": round(overhead_pct, 2),
        "gate": f"instrumented rate >= {MIN_RATE_RATIO:.0%} of plain rate",
        "gate_enforced": cores >= 2,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_obs.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        "Metrics instrumentation overhead (sustained socket ingest)",
        f"  plain (instrument=False) : {plain:>12,.0f} elements/sec",
        f"  instrumented             : {instrumented:>12,.0f} elements/sec",
        f"  overhead                 : {overhead_pct:>11.2f}%  (gate: <= 5%)",
    ]
    save_result("obs_overhead", "\n".join(lines))
    if cores < 2:
        pytest.skip(
            f"only {cores} CPU core(s): the overhead gate needs >= 2; "
            f"measured {overhead_pct:.2f}% (recorded in BENCH_obs.json)"
        )
    assert instrumented >= MIN_RATE_RATIO * plain, (
        f"instrumentation costs {overhead_pct:.2f}% of ingest throughput "
        f"(plain {plain:,.0f} el/s vs instrumented {instrumented:,.0f} el/s)"
    )
