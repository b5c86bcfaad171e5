"""Sharded-vs-serial equivalence for :class:`ShardedEstimator`.

The contract: replaying a stream through k shards and collapsing must give
exactly what one estimator ingesting the whole stream serially would hold —
for both partition modes, int and string keys, and weighted batches.  The
process executor runs persistent workers scattering into shared-memory
tables, so its cells are built from specs.
"""

import numpy as np
import pytest

from repro.api import OptHashSpec, ShardedSpec, build
from repro.core import (
    AdaptiveOptHashEstimator,
    OptHashEstimator,
    OptHashScheme,
    ShardedEstimator,
    replay_sharded,
)
from repro.core.pipeline import replay
from repro.sketches import CountMinSketch, CountSketch, ExactCounter
from repro.streams.stream import Element

STREAM_LENGTH = 12_000
UNIVERSE = 900
CMS_SPEC = {"kind": "count_min", "total_buckets": 2048, "depth": 3, "seed": 17}


def make_keys(string_keys: bool, seed: int = 5):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, UNIVERSE, size=STREAM_LENGTH)
    if string_keys:
        return [f"item:{value}" for value in keys.tolist()]
    return keys


def make_queries(keys):
    if isinstance(keys, np.ndarray):
        return np.unique(keys)
    return sorted(set(keys))


def chunked_replay(estimator, keys, chunk=2048):
    for start in range(0, len(keys), chunk):
        estimator.update_batch(keys[start : start + chunk])


@pytest.mark.parametrize("mode", ["key-partition", "round-robin"])
@pytest.mark.parametrize("num_shards", [1, 2, 7])
@pytest.mark.parametrize("string_keys", [False, True])
def test_sharded_cms_equals_serial(mode, num_shards, string_keys):
    keys = make_keys(string_keys)
    queries = make_queries(keys)
    factory = lambda: CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
    serial = factory()
    chunked_replay(serial, keys)
    with ShardedEstimator(factory, num_shards, mode=mode) as sharded:
        chunked_replay(sharded, keys)
        merged = sharded.collapse()
        assert (merged.counters() == serial.counters()).all()
        assert (
            sharded.estimate_batch(queries) == serial.estimate_batch(queries)
        ).all()


@pytest.mark.parametrize("mode", ["key-partition", "round-robin"])
def test_sharded_weighted_batches(mode):
    rng = np.random.default_rng(11)
    keys = rng.integers(0, UNIVERSE, size=4000)
    counts = rng.integers(0, 6, size=4000)
    factory = lambda: CountSketch(512, depth=3, seed=23)
    serial = factory()
    serial.update_batch(keys, counts)
    with ShardedEstimator(factory, 4, mode=mode) as sharded:
        sharded.update_batch(keys, counts)
        assert (sharded.collapse().counters() == serial.counters()).all()


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_executors_agree_bit_identically(executor):
    """Spec-built shards collapse to the serial sketch bit for bit on every
    executor, for both partition modes and for int and string keys."""
    for mode in ShardedEstimator.MODES:
        for string_keys in (False, True):
            keys = make_keys(string_keys)
            queries = make_queries(keys)
            serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
            chunked_replay(serial, keys)
            with ShardedEstimator(
                CMS_SPEC, 4, mode=mode, executor=executor
            ) as sharded:
                chunked_replay(sharded, keys)
                assert (sharded.collapse().counters() == serial.counters()).all()
                assert (
                    sharded.estimate_batch(queries) == serial.estimate_batch(queries)
                ).all()


def test_process_executor_with_string_keys():
    keys = make_keys(True)
    serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
    serial.update_batch(keys)
    with ShardedEstimator(CMS_SPEC, 2, executor="process") as sharded:
        sharded.update_batch(keys)
        assert (sharded.collapse().counters() == serial.counters()).all()


def test_fanout_queries_match_collapse_for_exact_counter():
    keys = make_keys(False)
    queries = make_queries(keys)
    truth = ExactCounter()
    truth.update_batch(keys)
    with ShardedEstimator(ExactCounter, 7, query_mode="fanout") as sharded:
        chunked_replay(sharded, keys)
        assert (
            sharded.estimate_batch(queries) == truth.estimate_batch(queries)
        ).all()
        assert sharded.estimate(Element(key=int(queries[0]))) == truth.estimate(
            Element(key=int(queries[0]))
        )


def test_fanout_requires_key_partition():
    with pytest.raises(ValueError, match="fanout"):
        ShardedEstimator(ExactCounter, 2, mode="round-robin", query_mode="fanout")


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ShardedEstimator(ExactCounter, 0)
    with pytest.raises(ValueError):
        ShardedEstimator(ExactCounter, 2, mode="hash-ring")
    with pytest.raises(ValueError):
        ShardedEstimator(ExactCounter, 2, executor="mpi")
    with pytest.raises(ValueError):
        ShardedEstimator(ExactCounter, 2, query_mode="scatter")


class TestOptHashSharding:
    """The paper's estimators run sharded through the same machinery."""

    def scheme_and_initial(self, keys):
        distinct = sorted({int(key) for key in np.asarray(keys).tolist()})
        stored = distinct[: len(distinct) // 2]
        scheme = OptHashScheme(
            num_buckets=16,
            key_to_bucket={key: key % 16 for key in stored},
        )
        initial = {key: float(1 + key % 5) for key in stored}
        return scheme, initial

    def test_static_opt_hash_sharded_equals_serial(self):
        keys = make_keys(False)
        scheme, initial = self.scheme_and_initial(keys)
        serial = OptHashEstimator(scheme, initial_frequencies=initial)
        replay(serial, keys)
        factory = lambda: OptHashEstimator(scheme, initial_frequencies=initial)
        with ShardedEstimator(factory, 4, executor="thread") as sharded:
            replay(sharded, keys)
            merged = sharded.collapse()
            assert (merged.bucket_totals == serial.bucket_totals).all()
            assert (merged.bucket_counts == serial.bucket_counts).all()
            queries = make_queries(keys)
            assert (
                merged.estimate_batch(queries) == serial.estimate_batch(queries)
            ).all()

    def test_adaptive_opt_hash_key_partition_equals_serial(self):
        keys = make_keys(False)
        scheme, initial = self.scheme_and_initial(keys)
        serial = AdaptiveOptHashEstimator(scheme, initial_frequencies=initial, seed=7)
        replay(serial, keys)
        factory = lambda: AdaptiveOptHashEstimator(
            scheme, initial_frequencies=initial, seed=7
        )
        with ShardedEstimator(factory, 4, mode="key-partition") as sharded:
            replay(sharded, keys)
            merged = sharded.collapse()
            assert (merged.bucket_totals == serial.bucket_totals).all()
            assert (merged.bucket_counts == serial.bucket_counts).all()
            assert (
                merged.bloom_filter._bits == serial.bloom_filter._bits
            ).all()

    def test_static_opt_hash_with_classifier_collapses(self):
        # collapse() builds its merge target from the factory, so the
        # identity-based classifier compatibility check must hold even
        # though deepcopy/serialization could not reproduce the object.
        from repro.ml import make_classifier

        keys = make_keys(False)
        scheme, initial = self.scheme_and_initial(keys)
        classifier = make_classifier("cart", random_state=0)
        classifier.fit(np.asarray([[0.0], [1.0]]), np.asarray([0, 1]))
        scheme.classifier = classifier
        serial = OptHashEstimator(scheme, initial_frequencies=initial)
        replay(serial, keys)
        factory = lambda: OptHashEstimator(scheme, initial_frequencies=initial)
        with ShardedEstimator(factory, 3) as sharded:
            replay(sharded, keys)
            merged = sharded.collapse()
            assert (merged.bucket_totals == serial.bucket_totals).all()
            # Queries for stored keys resolve through the exact hash table.
            stored = list(scheme.key_to_bucket)[:50]
            assert (
                merged.estimate_batch(stored) == serial.estimate_batch(stored)
            ).all()

    def test_spec_built_adaptive_shards_keep_every_spec_field(self, toy_prefix):
        # Trained shards are built from the spec, so a pinned kernel
        # backend (and the Bloom sizing) must reach every one of them.
        inner = OptHashSpec(
            adaptive=True, num_buckets=2, lam=1.0, solver="dp", backend="numpy", seed=0
        )
        plain = build(inner, prefix=toy_prefix)
        assert plain.kernel_backend == "numpy"
        with build(ShardedSpec(inner, num_shards=2), prefix=toy_prefix) as sharded:
            for shard in sharded.shards:
                assert shard.describe() == plain.describe()

    def test_sharded_replay_helper_collapses(self):
        keys = make_keys(False)
        factory = lambda: CountMinSketch.from_total_buckets(1024, depth=2, seed=9)
        serial = factory()
        replay(serial, keys)
        merged = replay_sharded(factory, keys, num_shards=3, executor="serial")
        assert isinstance(merged, CountMinSketch)
        assert (merged.counters() == serial.counters()).all()

    def test_sharded_replay_helper_live_estimator(self):
        keys = make_keys(False)
        factory = lambda: CountMinSketch.from_total_buckets(1024, depth=2, seed=9)
        serial = factory()
        replay(serial, keys)
        sharded = replay_sharded(factory, keys, num_shards=3, collapse=False)
        try:
            assert isinstance(sharded, ShardedEstimator)
            queries = make_queries(keys)
            assert (
                sharded.estimate_batch(queries) == serial.estimate_batch(queries)
            ).all()
            # Still live: keep streaming, stays equivalent.
            more = np.arange(100)
            serial.update_batch(more)
            sharded.update_batch(more)
            assert (sharded.collapse().counters() == serial.counters()).all()
        finally:
            sharded.close()


def test_sharded_merge_shard_wise():
    keys = make_keys(False)
    factory = lambda: CountMinSketch.from_total_buckets(1024, depth=2, seed=9)
    serial = factory()
    serial.update_batch(keys)
    first = ShardedEstimator(factory, 3)
    second = ShardedEstimator(factory, 3)
    first.update_batch(keys[:6000])
    second.update_batch(keys[6000:])
    first.merge(second)
    assert (first.collapse().counters() == serial.counters()).all()


def test_size_bytes_sums_over_shards():
    factory = lambda: CountMinSketch.from_total_buckets(1024, depth=2, seed=9)
    with ShardedEstimator(factory, 5) as sharded:
        assert sharded.size_bytes == 5 * factory().size_bytes


# ----------------------------------------------------------------------
# process executor (persistent worker pool + shared-memory tables)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["key-partition", "round-robin"])
@pytest.mark.parametrize("string_keys", [False, True])
def test_shm_transport_equals_serial(mode, string_keys):
    """Persistent shm workers must reproduce serial ingestion bit for bit."""
    keys = make_keys(string_keys)
    queries = make_queries(keys)
    serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
    chunked_replay(serial, keys)
    with ShardedEstimator(CMS_SPEC, 2, mode=mode, executor="process") as sharded:
        chunked_replay(sharded, keys)
        assert (sharded.collapse().counters() == serial.counters()).all()
        assert (
            sharded.estimate_batch(queries) == serial.estimate_batch(queries)
        ).all()
        # live_estimate reads the shared tables directly; after the drain
        # the collapse() above implies, it is exact.
        assert (
            sharded.live_estimate(queries[:20]) == serial.estimate_batch(queries[:20])
        ).all()


def test_shm_transport_weighted_batches():
    rng = np.random.default_rng(11)
    keys = rng.integers(0, UNIVERSE, size=4000)
    counts = rng.integers(0, 6, size=4000)
    serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
    serial.update_batch(keys, counts)
    with ShardedEstimator(CMS_SPEC, 3, executor="process") as sharded:
        sharded.update_batch(keys, counts)
        assert (sharded.collapse().counters() == serial.counters()).all()


def test_shm_transport_parent_reads_worker_writes_live():
    """The zero-copy property itself: resident shard tables fill up without
    any drain/merge having copied state back."""
    keys = make_keys(False)
    with ShardedEstimator(CMS_SPEC, 2, executor="process") as sharded:
        sharded.warm_up()
        assert all(shard.counters().sum() == 0 for shard in sharded.shards)
        sharded.update_batch(keys)
        sharded._worker_pool.join()  # wait, but never ship state back
        total = sum(int(shard.counters().sum()) for shard in sharded.shards)
        assert total == len(keys) * 3  # depth increments per arrival


def test_shm_transport_requires_process_executor_and_specs():
    # Only the process executor moves shard tables into shared memory.
    with ShardedEstimator(CMS_SPEC, 2, executor="thread") as sharded:
        assert sharded.storage_backend == "dense"
    with ShardedEstimator(CMS_SPEC, 2, executor="process") as sharded:
        assert sharded.storage_backend == "shm"
    factory = lambda: CountMinSketch.from_total_buckets(512, depth=2, seed=1)
    with pytest.raises(ValueError, match="spec-built"):
        ShardedEstimator(factory, 2, executor="process")
    with pytest.raises(ValueError, match="serial or thread"):
        ShardedEstimator({"kind": "exact_counter"}, 2, executor="process")
    with pytest.raises(ValueError, match="mmap"):
        ShardedEstimator({**CMS_SPEC, "storage": "mmap"}, 2, executor="process")


def test_shm_transport_serializes_and_restores():
    keys = make_keys(False)
    serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
    serial.update_batch(keys)
    with ShardedEstimator(CMS_SPEC, 2, executor="process") as sharded:
        sharded.update_batch(keys)
        blob = sharded.to_bytes()
    revived = ShardedEstimator.from_bytes(blob)
    try:
        assert revived.executor == "process"
        assert revived.storage_backend == "shm"
        queries = make_queries(keys)
        assert (
            revived.estimate_batch(queries) == serial.estimate_batch(queries)
        ).all()
        # The revived estimator must keep ingesting through fresh workers.
        revived.update_batch(keys[:500])
        serial.update_batch(keys[:500])
        assert (revived.collapse().counters() == serial.counters()).all()
    finally:
        revived.close()


def test_close_is_idempotent_and_releases_backends():
    keys = make_keys(False)[:4000]
    sharded = ShardedEstimator(CMS_SPEC, 2, executor="process")
    sharded.update_batch(keys)
    expected = sharded.estimate_batch(make_queries(keys)).copy()
    segment_names = [shard.storage_manifest()["name"] for shard in sharded.shards]
    sharded.close()
    sharded.close()  # idempotent
    with sharded:  # __exit__ after close must also be a no-op
        pass
    # Segments are unlinked; shards detached into dense copies keep answering.
    from repro.core.storage import attach, StorageError

    for name in segment_names:
        with pytest.raises(StorageError):
            attach({"backend": "shm", "name": name, "shape": [3, 682], "dtype": "<i8"})
    assert all(shard.storage_backend == "dense" for shard in sharded.shards)
    assert (sharded.estimate_batch(make_queries(keys)) == expected).all()


def test_spec_built_shm_transport_through_build():
    import repro.api as api

    keys = make_keys(False)[:6000]
    spec = {
        "kind": "sharded",
        "inner": CMS_SPEC,
        "num_shards": 2,
        "executor": "process",
    }
    serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
    serial.update_batch(keys)
    estimator = api.build(spec)
    try:
        assert estimator.storage_backend == "shm"
        assert estimator.describe()["params"]["executor"] == "process"
        assert "transport" not in estimator.describe()["params"]
        estimator.update_batch(keys)
        assert (
            estimator.collapse().counters() == serial.counters()
        ).all()
    finally:
        estimator.close()


def test_legacy_shm_transport_buffer_restores_bit_identically():
    """Buffers whose spec still names ``"transport": "shm"`` (written before
    the process executor became the only process path) restore onto it with
    identical counters."""
    from repro.sketches.serialization import pack, unpack

    keys = make_keys(False)
    with ShardedEstimator(CMS_SPEC, 2, executor="process") as sharded:
        sharded.update_batch(keys)
        _, state, arrays = unpack(sharded.to_bytes(), expect_tag="sharded")
        expected = [shard.counters().copy() for shard in sharded.shards]
    state["spec"]["transport"] = "shm"
    revived = ShardedEstimator.from_bytes(pack("sharded", state, arrays))
    try:
        assert revived.executor == "process"
        assert "transport" not in revived.spec().to_dict()
        for shard, counters in zip(revived.shards, expected):
            assert np.array_equal(shard.counters(), counters)
    finally:
        revived.close()


def test_legacy_serialization_transport_buffer_restores_onto_shm():
    """A buffer saved by the serialization transport (``executor="process"``
    over dense shard tables) restores onto shm tables the workers can
    attach, and keeps ingesting bit-identically."""
    from repro.sketches.serialization import pack, unpack

    keys = make_keys(False)
    with ShardedEstimator(CMS_SPEC, 2, executor="serial") as sharded:
        sharded.update_batch(keys)
        _, state, arrays = unpack(sharded.to_bytes(), expect_tag="sharded")
    state["spec"]["executor"] = "process"
    revived = ShardedEstimator.from_bytes(pack("sharded", state, arrays))
    try:
        assert revived.storage_backend == "shm"
        revived.update_batch(keys)
        serial = CountMinSketch.from_total_buckets(2048, depth=3, seed=17)
        serial.update_batch(keys)
        serial.update_batch(keys)
        assert (revived.collapse().counters() == serial.counters()).all()
    finally:
        revived.close()
