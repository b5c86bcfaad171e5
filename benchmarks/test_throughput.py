"""Ingestion throughput: vectorized batch path vs element-at-a-time scalar.

Replays a 10^6-element Zipf stream (the scale of the paper's query-log
experiments) through the sketches and reports elements/sec for the scalar
``update`` loop and the chunked ``update_batch`` path.  The acceptance gates
are the Count-Min and trained opt-hash comparisons: the batch path must
ingest at least 10× more elements per second than the scalar path on the
same stream.  Two more rows hold the adaptive opt-hash estimator's
``update_batch`` and a cold-cache ``estimate_batch`` over unseen elements to
the same bound against their scalar loops, on the paper's synthetic
group-structured workload (elements carry features, and unseen ones route
through the learned classifier).

A second gate covers the sharded subsystem: 4 process shards ingesting a
10^7-element Zipf stream must beat single-shard batch ingestion by ≥ 2×
(parallel hashing across cores; each batch ships only the keys to the
persistent shard workers, which scatter into shared-memory tables).  Results
land in ``benchmarks/results/BENCH_shard.json``.

Run explicitly (benchmarks are opt-in): ``PYTHONPATH=src pytest benchmarks/test_throughput.py -s``
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.specs import OptHashSpec
from repro.core.estimator import OptHashEstimator
from repro.core.pipeline import DEFAULT_REPLAY_BATCH_SIZE, replay, train_opt_hash
from repro.core.scheme import OptHashScheme
from repro.core.sharding import ShardedEstimator
from repro.sketches import (
    AmsSketch,
    BloomFilter,
    CountMinSketch,
    CountSketch,
    IdealHeavyHitterOracle,
    LearnedCountMinSketch,
)
from repro.streams.stream import Element, StreamPrefix
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator
from repro.streams.zipf import ZipfSampler

from conftest import benchmark_scale, save_result

STREAM_LENGTH = 1_000_000
ZIPF_SUPPORT = 100_000
#: Scalar ingestion is measured on a prefix this long and reported as a rate;
#: replaying all 10^6 arrivals one Python call at a time would add minutes of
#: runtime without changing the measured elements/sec.
SCALAR_SAMPLE = 50_000


def _zipf_stream(length: int) -> np.ndarray:
    sampler = ZipfSampler(ZIPF_SUPPORT, exponent=1.0, rng=np.random.default_rng(7))
    return sampler.sample(length).astype(np.int64)


def _scalar_rate(sketch, keys: np.ndarray) -> float:
    start = time.perf_counter()
    for key in keys:
        sketch.update(Element(key=key))
    return len(keys) / (time.perf_counter() - start)


def _batch_rate(sketch, keys: np.ndarray) -> float:
    start = time.perf_counter()
    replay(sketch, keys, batch_size=DEFAULT_REPLAY_BATCH_SIZE)
    return len(keys) / (time.perf_counter() - start)


def test_count_min_batch_speedup_at_least_10x():
    """The acceptance gate: >= 10x elements/sec on a 10^6-element Zipf stream."""
    length = max(100_000, int(STREAM_LENGTH * benchmark_scale()))
    keys = _zipf_stream(length)

    scalar_sketch = CountMinSketch.from_total_buckets(8192, depth=2, seed=1)
    scalar_keys = keys[:SCALAR_SAMPLE]
    scalar_rate = _scalar_rate(scalar_sketch, scalar_keys)

    batch_sketch = CountMinSketch.from_total_buckets(8192, depth=2, seed=1)
    batch_rate = _batch_rate(batch_sketch, keys)

    # The two paths must agree exactly on the common prefix they both saw.
    reference = CountMinSketch.from_total_buckets(8192, depth=2, seed=1)
    reference.update_batch(scalar_keys)
    assert (reference.counters() == scalar_sketch.counters()).all()

    speedup = batch_rate / scalar_rate
    lines = [
        "Count-Min ingestion throughput (Zipf stream, depth=2, 8192 buckets)",
        f"  stream length        : {length:,} elements",
        f"  scalar update loop   : {scalar_rate:>12,.0f} elements/sec"
        f" (measured on {len(scalar_keys):,} arrivals)",
        f"  batch update_batch   : {batch_rate:>12,.0f} elements/sec"
        f" (chunks of {DEFAULT_REPLAY_BATCH_SIZE:,})",
        f"  speedup              : {speedup:>12,.0f}x (gate: >= 10x)",
    ]
    save_result("throughput_count_min", "\n".join(lines))
    assert speedup >= 10.0


#: Opt-hash gate training: the first arrivals of the Zipf stream form the
#: prefix; the scheme stores 500 of its IDs, sampled in proportion to
#: frequency, in 64 buckets (a few hundred stored IDs, as in the paper's
#: query-log memory budgets).
OPT_HASH_PREFIX = 20_000


def test_opt_hash_batch_speedup_at_least_10x():
    """Gate: a trained opt-hash estimator's ``update_batch`` ingests >= 10x
    the elements/sec of its scalar ``update`` loop, as Count-Min must."""
    length = max(100_000, int(STREAM_LENGTH * benchmark_scale()))
    keys = _zipf_stream(length)
    prefix = StreamPrefix(
        arrivals=[Element(key=key) for key in keys[:OPT_HASH_PREFIX].tolist()]
    )
    spec = OptHashSpec(
        num_buckets=64,
        solver="dp",
        classifier=None,
        max_stored_elements=500,
        seed=1,
    )
    scalar_estimator = train_opt_hash(prefix, spec).estimator
    batch_estimator = train_opt_hash(prefix, spec).estimator

    scalar_keys = keys[:SCALAR_SAMPLE]
    scalar_rate = _scalar_rate(scalar_estimator, scalar_keys)
    batch_rate = _batch_rate(batch_estimator, keys)

    # The two paths must agree exactly on the common prefix they both saw.
    reference = train_opt_hash(prefix, spec).estimator
    reference.update_batch(scalar_keys)
    assert (reference.bucket_totals == scalar_estimator.bucket_totals).all()

    speedup = batch_rate / scalar_rate
    lines = [
        "Opt-hash ingestion throughput (Zipf stream, 500 stored IDs, 64 buckets)",
        f"  stream length        : {length:,} elements",
        f"  scalar update loop   : {scalar_rate:>12,.0f} elements/sec"
        f" (measured on {len(scalar_keys):,} arrivals)",
        f"  batch update_batch   : {batch_rate:>12,.0f} elements/sec"
        f" (chunks of {DEFAULT_REPLAY_BATCH_SIZE:,})",
        f"  speedup              : {speedup:>12,.1f}x (gate: >= 10x)",
    ]
    save_result("throughput_opt_hash", "\n".join(lines))
    assert speedup >= 10.0


#: Feature-routed opt-hash rows: the synthetic workload of the paper's
#: Section 6 (9 groups, half of each group's elements eligible for the
#: prefix), BCD at lambda = 0.5 and a CART classifier for unseen elements.
SYNTHETIC_SPEC = dict(
    num_buckets=32,
    lam=0.5,
    solver="bcd",
    solver_options={"max_iterations": 5, "num_restarts": 1},
    classifier="cart",
    seed=0,
)
#: Cold point queries go out in batches of this many keys.
QUERY_BATCH = 1024


def _synthetic_workload():
    """The generator, its prefix, and a post-prefix stream 100x as long
    (about 5 x 10^5 arrivals at scale 1)."""
    generator = SyntheticGenerator(SyntheticConfig(num_groups=9, seed=1))
    multiplier = max(10, int(100 * benchmark_scale()))
    prefix, stream = generator.generate_prefix_and_stream(stream_multiplier=multiplier)
    return generator, prefix, stream


def test_adaptive_opt_hash_batch_speedup_at_least_10x():
    """Gate: the adaptive (Bloom-filter) opt-hash estimator's ``update_batch``
    ingests >= 10x the elements/sec of its scalar ``update`` loop."""
    _, prefix, stream = _synthetic_workload()
    spec = OptHashSpec(adaptive=True, **SYNTHETIC_SPEC)
    arrivals = stream.arrivals
    scalar_estimator = train_opt_hash(prefix, spec).estimator
    batch_estimator = train_opt_hash(prefix, spec).estimator

    scalar_sample = arrivals[:SCALAR_SAMPLE]
    start = time.perf_counter()
    for element in scalar_sample:
        scalar_estimator.update(element)
    scalar_rate = len(scalar_sample) / (time.perf_counter() - start)
    batch_rate = _batch_rate(batch_estimator, stream)

    # The two paths must agree exactly on the common prefix they both saw.
    reference = train_opt_hash(prefix, spec).estimator
    reference.update_batch(scalar_sample)
    assert reference.bucket_totals.tobytes() == scalar_estimator.bucket_totals.tobytes()
    assert reference.bucket_counts.tobytes() == scalar_estimator.bucket_counts.tobytes()

    speedup = batch_rate / scalar_rate
    lines = [
        "Adaptive opt-hash ingestion throughput (synthetic elements, 9 groups, 32 buckets, CART)",
        f"  stream length        : {len(arrivals):,} elements",
        f"  scalar update loop   : {scalar_rate:>12,.0f} elements/sec"
        f" (measured on {len(scalar_sample):,} arrivals)",
        f"  batch update_batch   : {batch_rate:>12,.0f} elements/sec"
        f" (chunks of {DEFAULT_REPLAY_BATCH_SIZE:,})",
        f"  speedup              : {speedup:>12,.1f}x (gate: >= 10x)",
    ]
    save_result("throughput_adaptive_opt_hash", "\n".join(lines))
    assert speedup >= 10.0


def test_cold_opt_hash_query_speedup_at_least_10x():
    """Gate: point queries for unseen elements on a cold prediction cache
    answer >= 10x more keys/sec through ``estimate_batch`` than through the
    scalar ``estimate`` loop, with identical answers."""
    generator, prefix, _ = _synthetic_workload()
    training = train_opt_hash(prefix, OptHashSpec(**SYNTHETIC_SPEC))
    stored = training.scheme.key_to_bucket
    unseen = [element for element in generator.universe if element.key not in stored]
    initial = dict(zip(training.stored_keys, training.stored_frequencies.tolist()))

    def cold_estimator():
        """A static estimator over a new scheme: empty prediction cache."""
        scheme = OptHashScheme(
            training.scheme.num_buckets, stored, classifier=training.classifier
        )
        return OptHashEstimator(scheme, initial_frequencies=initial)

    estimator = cold_estimator()
    start = time.perf_counter()
    scalar = [estimator.estimate(element) for element in unseen]
    scalar_rate = len(unseen) / (time.perf_counter() - start)

    estimator = cold_estimator()
    start = time.perf_counter()
    batch = np.concatenate(
        [
            estimator.estimate_batch(unseen[first : first + QUERY_BATCH])
            for first in range(0, len(unseen), QUERY_BATCH)
        ]
    )
    batch_rate = len(unseen) / (time.perf_counter() - start)
    assert batch.tobytes() == np.array(scalar).tobytes()

    speedup = batch_rate / scalar_rate
    lines = [
        "Cold opt-hash point queries (unseen synthetic elements, 9 groups, 32 buckets, CART)",
        f"  unseen elements      : {len(unseen):,}",
        f"  scalar estimate loop : {scalar_rate:>12,.0f} keys/sec",
        f"  batch estimate_batch : {batch_rate:>12,.0f} keys/sec"
        f" (batches of {QUERY_BATCH:,})",
        f"  speedup              : {speedup:>12,.1f}x (gate: >= 10x)",
    ]
    save_result("throughput_cold_opt_hash_queries", "\n".join(lines))
    assert speedup >= 10.0


def test_batch_throughput_across_sketches():
    """Record batch elements/sec for every vectorized sketch (no gate)."""
    length = max(100_000, int(STREAM_LENGTH * benchmark_scale()))
    keys = _zipf_stream(length)
    unique, counts = np.unique(keys, return_counts=True)
    frequencies = dict(zip(unique.tolist(), counts.tolist()))

    sketches = {
        "count-min (d=2)": CountMinSketch.from_total_buckets(8192, depth=2, seed=1),
        "count-min conservative (d=2)": CountMinSketch.from_total_buckets(
            8192, depth=2, seed=1, conservative=True
        ),
        "count-sketch (d=3)": CountSketch.from_total_buckets(8192, depth=3, seed=1),
        "learned-cms (ideal oracle)": LearnedCountMinSketch(
            8192,
            num_heavy_buckets=512,
            oracle=IdealHeavyHitterOracle.from_frequencies(frequencies, 512),
            depth=2,
            seed=1,
        ),
        "ams (64 estimators)": AmsSketch(64, 8, seed=1),
        "bloom filter (k=4)": BloomFilter(1 << 20, num_hashes=4, seed=1),
    }
    lines = [f"Batch ingestion throughput on {length:,} Zipf arrivals"]
    for name, sketch in sketches.items():
        ingest = sketch.add_batch if isinstance(sketch, BloomFilter) else None
        start = time.perf_counter()
        if ingest is not None:
            for chunk_start in range(0, length, DEFAULT_REPLAY_BATCH_SIZE):
                ingest(keys[chunk_start : chunk_start + DEFAULT_REPLAY_BATCH_SIZE])
        else:
            replay(sketch, keys)
        rate = length / (time.perf_counter() - start)
        lines.append(f"  {name:<32s}: {rate:>12,.0f} elements/sec")
        assert rate > 0
    save_result("throughput_all_sketches", "\n".join(lines))


# ----------------------------------------------------------------------
# sharded ingestion gate
# ----------------------------------------------------------------------
SHARD_STREAM_LENGTH = 10_000_000
NUM_SHARDS = 4
#: The sharded path feeds much larger chunks than the single-sketch replay:
#: each update_batch fans out to the worker pool, so fewer/bigger tasks
#: amortize the task submission and key-pickling overhead (workers re-chunk
#: locally to the cache-friendly size; see WORKER_CHUNK_SIZE).
SHARD_BATCH_SIZE = 1 << 21


def test_sharded_ingestion_speedup_at_least_2x():
    """Gate: 4 process shards ingest ≥ 2× faster than a single shard.

    Also asserts the merged shard state is bit-identical to the single
    sketch — the speedup must not come at the cost of exactness.  The
    speedup assertion needs real parallel hardware, so on machines with
    fewer than ``NUM_SHARDS`` cores the numbers are still measured and
    recorded, but the ≥ 2× gate is skipped (CI runners provide 4 vCPUs).
    """
    length = max(500_000, int(SHARD_STREAM_LENGTH * benchmark_scale()))
    keys = _zipf_stream(length)
    spec = {"kind": "count_min", "total_buckets": 8192, "depth": 2, "seed": 1}

    # The single shard runs at its own best configuration (the default
    # cache-friendly chunk size) so the gate measures a fair baseline.
    single = CountMinSketch.from_total_buckets(8192, depth=2, seed=1)
    start = time.perf_counter()
    replay(single, keys, batch_size=DEFAULT_REPLAY_BATCH_SIZE)
    single_rate = length / (time.perf_counter() - start)

    # Round-robin block splits: the cheapest partitioning (zero-copy views,
    # no routing pass) and still bit-identical for a linear sketch.  The
    # timer runs through collapse() because process-mode update_batch
    # returns before the workers finish; collapse drains and merges.
    with ShardedEstimator(
        spec, NUM_SHARDS, mode="round-robin", executor="process"
    ) as sharded:
        sharded.warm_up()
        start = time.perf_counter()
        replay(sharded, keys, batch_size=SHARD_BATCH_SIZE)
        merged = sharded.collapse()
        sharded_rate = length / (time.perf_counter() - start)

    assert (merged.counters() == single.counters()).all()

    speedup = sharded_rate / single_rate
    cores = os.cpu_count() or 1
    record = {
        "stream_length": length,
        "num_shards": NUM_SHARDS,
        "mode": "round-robin",
        "executor": "process",
        "cpu_cores": cores,
        "single_shard_elements_per_sec": round(single_rate),
        "sharded_elements_per_sec": round(sharded_rate),
        "speedup": round(speedup, 3),
        "gate": ">=2x with 4 process shards",
        "gate_enforced": cores >= NUM_SHARDS,
        "merged_bit_identical_to_serial": True,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_shard.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        f"Sharded ingestion ({NUM_SHARDS} process shards, round-robin)",
        f"  stream length        : {length:,} elements",
        f"  single shard         : {single_rate:>12,.0f} elements/sec",
        f"  sharded              : {sharded_rate:>12,.0f} elements/sec",
        f"  speedup              : {speedup:>12,.2f}x (gate: >= 2x)",
        f"  merged state         : bit-identical to serial ingestion",
    ]
    save_result("throughput_sharded", "\n".join(lines))
    if cores < NUM_SHARDS:
        pytest.skip(
            f"only {cores} CPU core(s): parallel speedup gate needs "
            f">= {NUM_SHARDS}; measured {speedup:.2f}x (recorded in BENCH_shard.json)"
        )
    assert speedup >= 2.0


# ----------------------------------------------------------------------
# query-path micro-regressions (PR-4 satellite)
# ----------------------------------------------------------------------
def test_estimate_batch_reuses_cached_index_buffers():
    """`estimate_batch` must not re-materialize its broadcast/scratch arrays.

    Guards the PR-4 micro-optimizations: the `_levels[:, None]` gather index
    is built once at construction, and `_positions` writes into a
    preallocated scratch buffer instead of `np.stack`-allocating per call.
    A regression here silently taxes every query batch.
    """
    from repro.kernels import get_backend

    # The buffers now live on the sketch's KernelPlan (relocated with the
    # NumPy reference kernels in PR 10); the guarantees are unchanged.
    sketch = CountMinSketch.from_total_buckets(8192, depth=3, seed=1, backend="numpy")
    keys = _zipf_stream(50_000)
    sketch.update_batch(keys)
    plan = sketch._plan

    # The cached gather index is a view of the cached levels array.
    levels_col_before = plan.levels_col
    assert levels_col_before.base is plan.levels

    # Repeated same-size queries reuse one per-thread scratch buffer (no
    # per-call np.stack allocation)...
    numpy_backend = get_backend("numpy")
    first = numpy_backend._positions(plan, keys[:4096])
    buffer_after_first = plan._scratch.buffer
    second = numpy_backend._positions(plan, keys[:4096])
    assert plan._scratch.buffer is buffer_after_first
    assert first.base is second.base is buffer_after_first
    # ... and querying does not rebuild the cached index either.
    sketch.estimate_batch(keys[:4096])
    assert plan.levels_col is levels_col_before

    # Correctness is untouched: batch estimates equal the scalar path.
    probe = keys[:256]
    batch = sketch.estimate_batch(probe)
    scalar = np.array([sketch.estimate(Element(key=key)) for key in probe])
    assert (batch == scalar).all()


def test_estimate_batch_faster_than_restack_baseline():
    """Record the measured query throughput of the cached-buffer path."""
    sketch = CountMinSketch.from_total_buckets(65536, depth=4, seed=1)
    keys = _zipf_stream(200_000)
    sketch.update_batch(keys)
    start = time.perf_counter()
    for chunk_start in range(0, len(keys), 8192):
        sketch.estimate_batch(keys[chunk_start : chunk_start + 8192])
    rate = len(keys) / (time.perf_counter() - start)
    save_result(
        "throughput_query_path",
        f"Count-Min estimate_batch (depth=4, 65,536 buckets, cached index "
        f"buffers): {rate:,.0f} queries/sec",
    )
    assert rate > 0
