"""Counter-storage backends: dense vs shm vs mmap, and shm-backed process shards.

Demonstrates the PR-4 storage subsystem end to end:

1. the same stream ingested on all three backends gives bit-identical
   estimates (``storage=`` is purely a placement decision);
2. an ``executor="process"`` sharded session: persistent worker processes
   scatter directly into shared-memory tables — nothing is serialized on
   the return leg — and collapse-mode queries still match the single-sketch
   run bit for bit;
3. mmap persistence: a live (zero-copy) snapshot records the table *path*;
   restoring reattaches the file and picks up exactly where the session
   left off — the crash-recovery story.

Run: ``PYTHONPATH=src python examples/storage_backends.py``
"""

import os
import tempfile

import numpy as np

import repro.api as api

STREAM_LENGTH = 200_000
UNIVERSE = 20_000


def main() -> None:
    rng = np.random.default_rng(11)
    keys = rng.zipf(1.3, size=STREAM_LENGTH).astype(np.int64) % UNIVERSE
    probe = np.unique(keys)[:2_000]
    base = {"kind": "count_min", "total_buckets": 16_384, "depth": 2, "seed": 7}

    # ------------------------------------------------------------------
    # 1. One stream, three backends, one answer.
    # ------------------------------------------------------------------
    table_path = os.path.join(tempfile.gettempdir(), "repro-example-table.bin")
    estimates = {}
    for backend in ("dense", "shm", "mmap"):
        spec = dict(base, storage=backend)
        if backend == "mmap":
            spec["storage_path"] = table_path
        with api.open(spec) as session:
            session.ingest(keys)
            estimates[backend] = session.estimate(probe)
            print(
                f"storage={backend:<6} -> mean estimate "
                f"{estimates[backend].mean():8.2f}  "
                f"(backend={session.estimator.storage_backend})"
            )
    assert np.array_equal(estimates["dense"], estimates["shm"])
    assert np.array_equal(estimates["dense"], estimates["mmap"])
    print("dense == shm == mmap, bit for bit.\n")

    # ------------------------------------------------------------------
    # 2. Sharded ingestion on the process executor (zero-copy return leg).
    # ------------------------------------------------------------------
    sharded_spec = {
        "kind": "sharded",
        "inner": base,
        "num_shards": 2,
        "mode": "round-robin",
        "executor": "process",
    }
    with api.open(sharded_spec) as session:
        session.ingest(keys)
        sharded_estimates = session.estimate(probe)
    assert np.array_equal(sharded_estimates, estimates["dense"])
    print(
        "2 persistent shm shard workers reproduced the single-sketch "
        "estimates bit for bit."
    )

    # ------------------------------------------------------------------
    # 3. mmap persistence: zero-copy snapshot, reattach, keep counting.
    # ------------------------------------------------------------------
    # Part 1 left its table on disk (that persistence is the backend's
    # point, and a fresh blank table refuses to clobber it) — start clean.
    os.unlink(table_path)
    with api.open(dict(base, storage="mmap", storage_path=table_path)) as session:
        session.ingest(keys)
        blob = session.snapshot()  # references the table file; O(1) size
        print(f"\nlive mmap snapshot: {len(blob)} bytes (table stays on disk)")
    restored = api.restore(blob)
    assert np.array_equal(restored.estimate(probe), estimates["dense"])
    restored.ingest(keys[:1_000])
    print("restored session reattached the table file and kept ingesting.")
    restored.close()
    os.unlink(table_path)


if __name__ == "__main__":
    main()
