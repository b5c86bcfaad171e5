"""Streaming ingestion service: concurrent writers, live reads, restart.

The "millions of users" deployment shape on a laptop scale: a
:class:`~repro.service.StreamingService` serves one sharded, shm-backed
Count-Min session over a Unix socket while

1. four concurrent client streams ingest a Zipf workload,
2. a reader issues live ``estimate`` / ``top_k`` queries mid-stream,
3. the service drains, snapshots, and stops gracefully,
4. a second service instance restarts from the snapshot and answers
   bit-identically to a serial reference sketch.

Run: ``PYTHONPATH=src python examples/streaming_service.py``
"""

import os
import tempfile
import threading
import uuid

import numpy as np

import repro
from repro.service import ServiceThread, StreamingClient, StreamingService
from repro.streams.zipf import ZipfSampler

NUM_CLIENTS = 4
KEYS_PER_CLIENT = 100_000
SUPPORT = 20_000
SPEC = {
    "kind": "sharded",
    "inner": {"kind": "count_min", "total_buckets": 1 << 16, "depth": 3, "seed": 29},
    "num_shards": 2,
    "mode": "round-robin",
    "executor": "process",
}


def client_stream(seed: int) -> np.ndarray:
    sampler = ZipfSampler(SUPPORT, exponent=1.05, rng=np.random.default_rng(seed))
    return sampler.sample(KEYS_PER_CLIENT).astype(np.int64)


def run_writer(sock: str, stream: np.ndarray, batch: int = 8_192) -> None:
    with StreamingClient.connect(unix_path=sock) as client:
        for start in range(0, len(stream), batch):
            client.ingest(stream[start : start + batch])


def main() -> None:
    sock = os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:8]}.sock")
    snap = os.path.join(tempfile.gettempdir(), f"repro-{uuid.uuid4().hex[:8]}.snap")
    streams = [client_stream(seed) for seed in range(NUM_CLIENTS)]
    hot_keys = np.arange(10, dtype=np.int64)

    print(f"serving {SPEC['num_shards']}-shard shm Count-Min on {sock}")
    with ServiceThread(
        StreamingService(SPEC, unix_path=sock, snapshot_path=snap)
    ) as service:
        writers = [
            threading.Thread(target=run_writer, args=(sock, stream))
            for stream in streams
        ]
        for writer in writers:
            writer.start()

        with StreamingClient.connect(unix_path=sock) as reader:
            live_samples = 0
            while any(writer.is_alive() for writer in writers):
                live = reader.estimate(hot_keys)
                live_samples += 1
                if live_samples in (1, 5, 25):
                    print(
                        f"  live mid-ingest (sample {live_samples}): "
                        f"key 0 ≈ {live[0]:,.0f}"
                    )
            for writer in writers:
                writer.join()
            flush = reader.flush()
            print(
                f"  drained: {flush['applied_keys']:,} arrivals from "
                f"{NUM_CLIENTS} concurrent streams"
            )
            top = reader.top_k(5, candidates=list(range(100)))
            print(f"  top-5 of the first 100 keys: {top}")
            final = reader.estimate(hot_keys)
            stats = reader.stats()
        print(
            f"  stats: accepted={stats['accepted_keys']:,} "
            f"applied={stats['applied_keys']:,} buffered={stats['buffered_keys']}"
        )
        service.stop()  # graceful drain -> snapshot -> close (idempotent)
    print(f"snapshot written: {snap} ({os.path.getsize(snap):,} bytes)")

    reference = repro.CountMinSketch.from_total_buckets(
        SPEC["inner"]["total_buckets"],
        depth=SPEC["inner"]["depth"],
        seed=SPEC["inner"]["seed"],
    )
    for stream in streams:
        reference.update_batch(stream)
    assert (final == reference.estimate_batch(hot_keys)).all()

    with ServiceThread(StreamingService(SPEC, unix_path=sock, snapshot_path=snap)):
        with StreamingClient.connect(unix_path=sock) as client:
            assert client.stats()["restored"] is True
            restored = client.estimate(hot_keys)
    assert (restored == reference.estimate_batch(hot_keys)).all()
    print("restart from snapshot: estimates bit-identical to a serial sketch ✓")

    os.unlink(snap)


if __name__ == "__main__":
    main()
