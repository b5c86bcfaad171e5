"""Storage-backend gate: dense, shm and mmap tables are bit-identical.

Dense, shm and mmap counter tables produce byte-for-byte identical counters
and estimates on the same stream, both as single sketches and as the tables
of round-robin shards on the serial and the process executor (the process
executor's workers scatter into shm tables).  Always asserted.

Run explicitly (benchmarks are opt-in):
``PYTHONPATH=src pytest benchmarks/test_storage_backends.py -s``
"""

from __future__ import annotations

import numpy as np

from repro.core.sharding import ShardedEstimator
from repro.sketches import CountMinSketch
from repro.streams.zipf import ZipfSampler

ZIPF_SUPPORT = 100_000


def _zipf_stream(length: int) -> np.ndarray:
    sampler = ZipfSampler(ZIPF_SUPPORT, exponent=1.0, rng=np.random.default_rng(13))
    return sampler.sample(length).astype(np.int64)


def test_backends_bit_identical_end_to_end(tmp_path):
    """dense == shm == mmap, single-sketch and on serial and process shards."""
    keys = _zipf_stream(200_000)
    queries = np.unique(keys)[:5_000]

    dense = CountMinSketch.from_total_buckets(8192, depth=2, seed=3)
    dense.update_batch(keys)
    reference = dense.estimate_batch(queries)

    shm = CountMinSketch.from_total_buckets(8192, depth=2, seed=3, storage="shm")
    shm.update_batch(keys)
    mmap = CountMinSketch.from_total_buckets(
        8192, depth=2, seed=3, storage="mmap", storage_path=str(tmp_path / "t.bin")
    )
    mmap.update_batch(keys)
    try:
        assert (shm.counters() == dense.counters()).all()
        assert (mmap.counters() == dense.counters()).all()
        assert (shm.estimate_batch(queries) == reference).all()
        assert (mmap.estimate_batch(queries) == reference).all()
    finally:
        shm.close()
        mmap.close()

    spec = {"kind": "count_min", "total_buckets": 8192, "depth": 2, "seed": 3}
    for executor in ("serial", "process"):
        with ShardedEstimator(
            spec, 2, mode="round-robin", executor=executor
        ) as sharded:
            sharded.update_batch(keys)
            assert (sharded.collapse().counters() == dense.counters()).all()
            assert (sharded.estimate_batch(queries) == reference).all()
