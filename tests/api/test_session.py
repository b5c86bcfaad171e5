"""Session facade: ingest / estimate / merge / snapshot / restore.

Acceptance criterion: ``Session.snapshot()`` / ``restore`` round-trips
bit-identically for linear sketches — including sharded ones, whose layout
(executor pool and all) rebuilds from the embedded spec.
"""

import numpy as np
import pytest

import repro
import repro.api as api
from repro.api import OptHashSpec, ShardedSpec, SketchSpec
from repro.core.pipeline import replay_sharded
from repro.core.sharding import ShardedEstimator
from repro.sketches import CountMinSketch, SerializationError, loads
from repro.sketches.serialization import pack
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator
from repro.streams.zipf import ZipfSampler

CMS_SPEC = {"kind": "count_min", "total_buckets": 1024, "depth": 2, "seed": 9}


@pytest.fixture(scope="module")
def keys():
    return ZipfSampler(2000, rng=np.random.default_rng(1)).sample(100_000)


class TestSessionBasics:
    def test_ingest_matches_direct_update_batch(self, keys):
        session = api.open(CMS_SPEC)
        assert session.ingest(keys) == len(keys)
        direct = api.build(CMS_SPEC)
        direct.update_batch(keys)
        assert np.array_equal(session.estimator.counters(), direct.counters())
        probe = np.arange(50)
        assert np.array_equal(session.estimate(probe), direct.estimate_batch(probe))

    def test_weighted_ingest(self):
        session = api.open(CMS_SPEC)
        session.ingest(["a", "b"], counts=[3, 5])
        assert session.estimate_key("a") >= 3.0
        assert session.estimate_key("b") >= 5.0

    def test_ingest_accepts_streams(self):
        generator = SyntheticGenerator(
            SyntheticConfig(num_groups=3, fraction_seen=0.5, seed=0)
        )
        _, stream = generator.generate_prefix_and_stream(stream_multiplier=2)
        session = api.open(CMS_SPEC)
        n = session.ingest(stream)
        assert n == len(stream)

    def test_merge_of_split_sessions_equals_single(self, keys):
        split = len(keys) // 2
        left, right = api.open(CMS_SPEC), api.open(CMS_SPEC)
        left.ingest(keys[:split])
        right.ingest(keys[split:])
        left.merge(right)
        single = api.open(CMS_SPEC)
        single.ingest(keys)
        assert np.array_equal(
            left.estimator.counters(), single.estimator.counters()
        )

    def test_describe_includes_spec(self):
        session = api.open(CMS_SPEC)
        info = session.describe()
        assert info["kind"] == "count_min"
        assert info["spec"]["total_buckets"] == 1024

    def test_repro_top_level_aliases(self):
        session = repro.open(repro.SketchSpec("count_min", width=16, seed=0))
        assert isinstance(session, repro.Session)

    def test_protocol_gaps_raise_typed_errors(self):
        """bloom/ams build fine but fail Session ops with SpecError, not
        AttributeError — the facade's typed-error contract."""
        bloom = api.open({"kind": "bloom", "num_bits": 64, "seed": 0})
        with pytest.raises(api.SpecError, match="native API"):
            bloom.ingest(["a"])
        ams = api.open({"kind": "ams", "num_estimators": 8, "means_groups": 2, "seed": 0})
        ams.ingest([1, 2, 3])  # AMS does ingest batches
        with pytest.raises(api.SpecError, match="estimate"):
            ams.estimate([1])
        with pytest.raises(ValueError, match="cannot be sharded"):
            ShardedEstimator({"kind": "bloom", "num_bits": 64, "seed": 0}, num_shards=2)


class TestSnapshotRestore:
    @pytest.mark.parametrize(
        "spec_dict",
        [
            CMS_SPEC,
            {"kind": "count_sketch", "total_buckets": 512, "depth": 3, "seed": 2},
            {"kind": "exact_counter"},
            {"kind": "misra_gries", "num_counters": 64},
        ],
    )
    def test_round_trip_preserves_estimates(self, spec_dict, keys):
        session = api.open(spec_dict)
        session.ingest(keys[:20_000])
        restored = api.restore(session.snapshot())
        assert restored.spec == session.spec
        probe = np.arange(200)
        assert np.array_equal(session.estimate(probe), restored.estimate(probe))

    def test_linear_sketch_round_trip_is_bit_identical(self, keys):
        session = api.open(CMS_SPEC)
        session.ingest(keys)
        restored = api.restore(session.snapshot())
        assert np.array_equal(
            session.estimator.counters(), restored.estimator.counters()
        )
        # And the restored session keeps ingesting in lockstep.
        session.ingest(keys[:100])
        restored.ingest(keys[:100])
        assert np.array_equal(
            session.estimator.counters(), restored.estimator.counters()
        )

    def test_loads_understands_session_buffers(self, keys):
        session = api.open(CMS_SPEC)
        session.ingest(keys[:1000])
        rehydrated = loads(session.snapshot())
        assert isinstance(rehydrated, api.Session)
        assert rehydrated.kind == "count_min"

    def test_restore_rejects_mismatched_estimator_kind(self):
        bloom_bytes = api.build(
            {"kind": "bloom", "num_bits": 64, "num_hashes": 2, "seed": 0}
        ).to_bytes()
        forged = pack(
            "session",
            {"spec": CMS_SPEC},
            {"estimator": np.frombuffer(bloom_bytes, dtype=np.uint8)},
        )
        with pytest.raises(SerializationError, match="expected kind"):
            api.restore(forged)

    def test_snapshot_unavailable_for_opt_hash(self):
        generator = SyntheticGenerator(
            SyntheticConfig(num_groups=3, fraction_seen=0.5, seed=0)
        )
        prefix = generator.generate_prefix(200)
        session = api.open(
            OptHashSpec(num_buckets=4, solver="bcd", classifier=None, seed=0),
            options=repro.Options(prefix=prefix),
        )
        with pytest.raises(SerializationError):
            session.snapshot()


class TestShardedSessions:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_sharded_session_matches_unsharded(self, executor, keys):
        int_keys = keys[:30_000]
        for mode in ShardedSpec.MODES:
            for stream in (int_keys, [f"q{key}" for key in int_keys.tolist()]):
                spec = ShardedSpec(
                    SketchSpec("count_min", total_buckets=1024, depth=2, seed=9),
                    num_shards=2,
                    mode=mode,
                    executor=executor,
                )
                with api.open(spec) as session:
                    session.ingest(stream)
                    single = api.open(CMS_SPEC)
                    single.ingest(stream)
                    probe = stream[:300]
                    assert np.array_equal(
                        session.estimate(probe), single.estimate(probe)
                    )

    def test_sharded_snapshot_round_trip(self, keys):
        spec = ShardedSpec(
            SketchSpec("count_min", total_buckets=1024, depth=2, seed=9),
            num_shards=3,
            mode="round-robin",
        )
        with api.open(spec) as session:
            session.ingest(keys[:30_000])
            blob = session.snapshot()
        restored = api.restore(blob)
        try:
            assert isinstance(restored.estimator, ShardedEstimator)
            # Per-shard state is preserved exactly, not just the collapse.
            single = api.open(CMS_SPEC)
            single.ingest(keys[:30_000])
            assert np.array_equal(
                restored.estimator.collapse().counters(),
                single.estimator.counters(),
            )
            # Round-robin rotation state survives: continued ingestion stays
            # bit-identical to an uninterrupted sharded run.
            uninterrupted = api.build(spec)
            uninterrupted.update_batch(keys[:30_000])
            restored.ingest(keys[30_000:60_000])
            uninterrupted.update_batch(keys[30_000:60_000])
            for mine, theirs in zip(restored.estimator.shards, uninterrupted.shards):
                assert np.array_equal(mine.counters(), theirs.counters())
            uninterrupted.close()
        finally:
            restored.close()

    def test_sharded_estimator_accepts_spec_dict_directly(self, keys):
        sharded = ShardedEstimator(
            {"kind": "count_min", "total_buckets": 512, "depth": 1, "seed": 4},
            num_shards=2,
        )
        sharded.update_batch(keys[:5000])
        single = CountMinSketch.from_total_buckets(512, depth=1, seed=4)
        single.update_batch(keys[:5000])
        assert np.array_equal(sharded.collapse().counters(), single.counters())

    def test_callable_factory_compat_shim(self, keys):
        sharded = ShardedEstimator(
            lambda: CountMinSketch.from_total_buckets(512, depth=1, seed=4),
            num_shards=2,
        )
        sharded.update_batch(keys[:5000])
        assert sharded.estimator_spec is None
        with pytest.raises(SerializationError, match="spec-built"):
            sharded.to_bytes()

    def test_unseeded_spec_factory_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ShardedEstimator(
                {"kind": "count_min", "total_buckets": 512, "depth": 1},
                num_shards=2,
            )

    def test_replay_sharded_accepts_specs(self, keys):
        merged = replay_sharded(
            {"kind": "count_min", "total_buckets": 512, "depth": 1, "seed": 4},
            keys[:20_000],
            num_shards=4,
        )
        single = CountMinSketch.from_total_buckets(512, depth=1, seed=4)
        single.update_batch(keys[:20_000])
        assert np.array_equal(merged.counters(), single.counters())


class TestStorageBackedSessions:
    """PR-4: storage= travels through open / snapshot / restore."""

    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_snapshot_restore_preserves_backend(self, backend, keys):
        import os

        spec = {**CMS_SPEC, "storage": backend}
        with api.open(spec) as session:
            session.ingest(keys[:20_000])
            blob = session.snapshot(embed=True)
            expected = session.estimate(np.arange(200)).copy()
            source_path = session.estimator.storage_path
        restored = api.restore(blob)
        assert restored.estimator.storage_backend == backend
        assert np.array_equal(restored.estimate(np.arange(200)), expected)
        path = restored.estimator.storage_path
        restored.close()
        for table_file in (source_path, path):
            if table_file:
                os.unlink(table_file)

    def test_mmap_snapshot_is_zero_copy_by_default(self, keys, tmp_path):
        spec = {**CMS_SPEC, "storage": "mmap", "storage_path": str(tmp_path / "t.bin")}
        with api.open(spec) as session:
            session.ingest(keys[:20_000])
            live_blob = session.snapshot()
            embedded_blob = session.snapshot(embed=True)
            expected = session.estimate(np.arange(200)).copy()
            # Live snapshot references the file instead of copying the
            # 8 KB (1024 x int64) table.
            assert len(embedded_blob) - len(live_blob) > 7_000
        restored = api.restore(live_blob)
        assert restored.estimator.storage_path == str(tmp_path / "t.bin")
        assert np.array_equal(restored.estimate(np.arange(200)), expected)
        restored.close()

    def test_zero_copy_snapshot_rejected_for_dense(self, keys):
        with api.open(CMS_SPEC) as session:
            session.ingest(keys[:1000])
            with pytest.raises(SerializationError, match="mmap"):
                session.snapshot(embed=False)

    def test_shm_transport_session_round_trip(self, keys):
        spec = {
            "kind": "sharded",
            "inner": {"kind": "count_min", "total_buckets": 1024, "depth": 2, "seed": 9},
            "num_shards": 2,
            "executor": "process",
        }
        single = api.open({"kind": "count_min", "total_buckets": 1024, "depth": 2, "seed": 9})
        single.ingest(keys[:30_000])
        with api.open(spec) as session:
            session.ingest(keys[:30_000])
            probe = np.arange(300)
            assert np.array_equal(session.estimate(probe), single.estimate(probe))
            blob = session.snapshot()
        restored = api.restore(blob)
        try:
            assert restored.estimator.executor == "process"
            assert restored.estimator.storage_backend == "shm"
            assert np.array_equal(restored.estimate(probe), single.estimate(probe))
        finally:
            restored.close()
