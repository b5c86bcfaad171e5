"""Batch replay through the core opt-hash stack and the stream helpers."""

import numpy as np
import pytest

from repro.api.specs import OptHashSpec
from repro.core.pipeline import replay, train_opt_hash
from repro.streams.stream import Element, FrequencyVector, Stream
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


@pytest.fixture(scope="module")
def prefix_and_stream():
    generator = SyntheticGenerator(
        SyntheticConfig(num_groups=5, fraction_seen=0.5, seed=3)
    )
    return generator.generate_prefix_and_stream(
        prefix_length=400, stream_multiplier=5
    )


def _train(prefix, adaptive):
    spec = OptHashSpec(
        num_buckets=8,
        lam=0.5,
        solver="bcd",
        classifier="cart",
        adaptive=adaptive,
        expected_distinct=2000,
        seed=11,
    )
    return train_opt_hash(prefix, spec).estimator


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
def test_opt_hash_batch_replay_bit_identical(prefix_and_stream, adaptive):
    prefix, stream = prefix_and_stream
    scalar = _train(prefix, adaptive)
    batch = _train(prefix, adaptive)
    for element in stream:
        scalar.update(element)
    processed = replay(batch, stream, batch_size=333)
    assert processed == len(stream)
    assert (scalar.bucket_totals == batch.bucket_totals).all()
    assert (scalar.bucket_counts == batch.bucket_counts).all()
    probes = stream.distinct_elements()
    scalar_estimates = [scalar.estimate(element) for element in probes]
    assert batch.estimate_batch(probes).tolist() == scalar_estimates


def test_replay_accepts_raw_key_arrays():
    sketches = pytest.importorskip("repro.sketches")
    keys = np.random.default_rng(0).integers(0, 50, size=1000)
    scalar = sketches.CountMinSketch(32, 2, seed=1)
    batch = sketches.CountMinSketch(32, 2, seed=1)
    for key in keys:
        scalar.update(Element(key=int(key)))
    assert replay(batch, keys, batch_size=128) == len(keys)
    assert (scalar.counters() == batch.counters()).all()


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
def test_zero_count_batch_entries_are_noops(prefix_and_stream, adaptive):
    """A zero-count arrival must not touch counters or the Bloom filter."""
    prefix, stream = prefix_and_stream
    untouched = _train(prefix, adaptive)
    zeroed = _train(prefix, adaptive)
    unseen_key = max(e.key for e in stream.distinct_elements()) + 1000
    zeroed.update_batch([unseen_key, stream[0].key], np.array([0, 0]))
    assert (untouched.bucket_totals == zeroed.bucket_totals).all()
    assert (untouched.bucket_counts == zeroed.bucket_counts).all()
    if adaptive:
        # The Bloom filter must not have learned the zero-count key.
        assert zeroed.estimate_batch([unseen_key]).tolist() == [0.0]


def test_update_many_delegates_to_batch_path(prefix_and_stream):
    from repro.sketches import CountMinSketch

    prefix, _ = prefix_and_stream
    one_by_one = CountMinSketch(64, 2, seed=0)
    many = CountMinSketch(64, 2, seed=0)
    for element in prefix:
        one_by_one.update(element)
    many.update_many(prefix)
    assert (one_by_one.counters() == many.counters()).all()


def test_replay_rejects_bad_batch_size():
    from repro.sketches import ExactCounter

    with pytest.raises(ValueError):
        replay(ExactCounter(), [1, 2, 3], batch_size=0)


class TestStreamKeyBatches:
    def test_key_array_integer_fast_path(self):
        stream = Stream(arrivals=[Element(key=i % 7) for i in range(50)])
        keys = stream.key_array()
        assert keys.dtype.kind == "i"
        assert keys.tolist() == [i % 7 for i in range(50)]

    def test_key_array_object_path_for_strings(self):
        stream = Stream(arrivals=[Element(key=f"q{i}") for i in range(10)])
        keys = stream.key_array()
        assert keys.dtype == object
        assert keys.tolist() == [f"q{i}" for i in range(10)]

    def test_key_array_cache_invalidated_on_mutation(self):
        stream = Stream(arrivals=[Element(key=1)])
        assert stream.key_array().tolist() == [1]
        stream.append(Element(key=2))
        assert stream.key_array().tolist() == [1, 2]
        stream.extend([Element(key=3)])
        assert stream.key_array().tolist() == [1, 2, 3]

    def test_iter_key_batches_covers_stream_in_order(self):
        stream = Stream(arrivals=[Element(key=i) for i in range(10)])
        chunks = list(stream.iter_key_batches(batch_size=4))
        assert [chunk.tolist() for chunk in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        with pytest.raises(ValueError):
            list(stream.iter_key_batches(batch_size=0))


class TestFrequencyVectorBatch:
    def test_increment_batch_matches_scalar(self):
        scalar, batch = FrequencyVector(), FrequencyVector()
        keys = ["a", "b", "a", "c", "a"]
        for key in keys:
            scalar.increment(key)
        batch.increment_batch(keys)
        assert scalar.as_dict() == batch.as_dict()

    def test_increment_batch_with_counts(self):
        freq = FrequencyVector()
        freq.increment_batch(["a", "b"], [2, 5])
        assert freq["a"] == 2 and freq["b"] == 5
        with pytest.raises(ValueError):
            freq.increment_batch(["a"], [-1])
        with pytest.raises(ValueError):
            freq.increment_batch(["a", "b"], [1])

    def test_counts_for_aligned_lookup(self):
        freq = FrequencyVector({"a": 3, "b": 1})
        assert freq.counts_for(["b", "missing", "a"]).tolist() == [1.0, 0.0, 3.0]
