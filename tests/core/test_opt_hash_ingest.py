"""Opt-hash ingest: the batched ``h_S`` lookup against ``dict.get``.

``OptHashScheme.stored_buckets`` resolves a whole key batch at once (one
``searchsorted`` over the sorted stored keys when both sides are integers,
``dict.get`` otherwise) and ``OptHashEstimator.update_batch`` scatters the
hits with one ``bincount``.  These properties pin both to the scalar
definitions: the lookup must equal ``key_to_bucket.get(key, -1)`` key by
key, and batch ingestion must equal a scalar replay of ``update`` bit for
bit, across key dtypes and schemes the integer index has to refuse.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import OptHashEstimator
from repro.core.scheme import OptHashScheme
from repro.streams.stream import Element

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
NUM_BUCKETS = 5

int64_keys = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
buckets = st.integers(min_value=0, max_value=NUM_BUCKETS - 1)
small_counts = st.integers(min_value=0, max_value=3)
#: Per-entry counts large enough to overflow a float32 sum, small enough
#: that a batch's per-bucket sum stays below 2^53 (exact in float64).
large_counts = st.integers(min_value=0, max_value=2**40)


def _scheme(table):
    return OptHashScheme(num_buckets=NUM_BUCKETS, key_to_bucket=table)


def _estimator(table, seed_counts):
    """A static estimator seeded with integer prefix counts, as training does."""
    initial = {key: float(count) for key, count in zip(table, seed_counts)}
    return OptHashEstimator(_scheme(table), initial_frequencies=initial)


def _scalar_replay(estimator, keys, counts):
    """``update(Element(key))`` repeated ``count`` times, in arrival order."""
    for key, count in zip(keys, counts):
        element = key if isinstance(key, Element) else Element(key=key)
        for _ in range(int(count)):
            estimator.update(element)


def _exact_totals(estimator, keys, counts):
    """What a scalar replay of ``count`` unit updates leaves, in exact integer
    arithmetic: every intermediate total is an integer below 2^53, so each
    float ``+= 1.0`` is exact and the replay equals this sum."""
    table = estimator.scheme.key_to_bucket
    totals = [int(value) for value in estimator.bucket_totals]
    for key, count in zip(keys, counts):
        bucket = table.get(key.key if isinstance(key, Element) else key)
        if bucket is not None:
            totals[bucket] += int(count)
    return np.array([float(total) for total in totals])


def _assert_batch_equals_scalar(table, seed_counts, keys, counts):
    scalar = _estimator(table, seed_counts)
    batch = _estimator(table, seed_counts)
    _scalar_replay(scalar, keys, counts)
    batch.update_batch(keys, counts)
    assert batch.bucket_totals.tobytes() == scalar.bucket_totals.tobytes()
    assert batch.bucket_counts.tobytes() == scalar.bucket_counts.tobytes()


def _assert_lookup_equals_dict(scheme, keys):
    looked_up = scheme.stored_buckets(keys)
    assert looked_up.dtype == np.int64
    expected = [scheme.key_to_bucket.get(key, -1) for key in keys]
    assert looked_up.tolist() == expected


@st.composite
def int_tables(draw, keys=int64_keys, min_size=1):
    stored = draw(st.lists(keys, min_size=min_size, max_size=12, unique=True))
    table = {key: draw(buckets) for key in stored}
    seed_counts = draw(st.lists(small_counts, min_size=len(table), max_size=len(table)))
    return table, seed_counts


@st.composite
def int_batches(draw, table, keys=int64_keys):
    """Arrivals mixing stored keys with arbitrary (mostly missing) ones."""
    return draw(st.lists(st.one_of(st.sampled_from(sorted(table)), keys), max_size=40))


class TestIntegerIndex:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_int64_batches_match_scalar_replay(self, data):
        table, seed_counts = data.draw(int_tables())
        keys = np.array(data.draw(int_batches(table)), dtype=np.int64)
        counts = data.draw(
            st.lists(small_counts, min_size=len(keys), max_size=len(keys))
        )
        assert _scheme(table)._int_index is not None
        _assert_lookup_equals_dict(_scheme(table), keys)
        _assert_batch_equals_scalar(table, seed_counts, keys, counts)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_large_counts_sum_exactly(self, data):
        table, seed_counts = data.draw(int_tables())
        keys = np.array(data.draw(int_batches(table)), dtype=np.int64)
        counts = np.array(
            data.draw(st.lists(large_counts, min_size=len(keys), max_size=len(keys))),
            dtype=np.int64,
        )
        batch = _estimator(table, seed_counts)
        expected = _exact_totals(batch, keys, counts)
        batch.update_batch(keys, counts)
        assert batch.bucket_totals.tobytes() == expected.tobytes()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_uint64_values_above_int64_never_wrap(self, data):
        # Negative stored keys are exactly what a wrapping uint64 -> int64
        # cast of the high arrivals would produce.
        table, seed_counts = data.draw(
            int_tables(keys=st.integers(min_value=INT64_MIN, max_value=-1))
        )
        wrapped = [key + 2**64 for key in table]
        extra = st.integers(min_value=0, max_value=2**64 - 1)
        values = data.draw(st.lists(st.one_of(st.sampled_from(wrapped), extra), max_size=40))
        keys = np.array(values, dtype=np.uint64)
        counts = data.draw(st.lists(small_counts, min_size=len(keys), max_size=len(keys)))
        _assert_lookup_equals_dict(_scheme(table), keys)
        assert (_scheme(table).stored_buckets(keys[keys >= 2**63]) == -1).all()
        _assert_batch_equals_scalar(table, seed_counts, keys, counts)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_python_int_lists_and_element_lists(self, data):
        table, seed_counts = data.draw(int_tables())
        keys = data.draw(int_batches(table))
        counts = data.draw(st.lists(small_counts, min_size=len(keys), max_size=len(keys)))
        _assert_lookup_equals_dict(_scheme(table), keys)
        _assert_batch_equals_scalar(table, seed_counts, keys, counts)
        elements = [Element(key=key) for key in keys]
        _assert_batch_equals_scalar(table, seed_counts, elements, counts)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_narrow_integer_dtypes_cast_safely(self, data):
        int16_keys = st.integers(min_value=-(2**15), max_value=2**15 - 1)
        table, seed_counts = data.draw(int_tables(keys=int16_keys))
        values = data.draw(int_batches(table, keys=int16_keys))
        for dtype in (np.int16, np.int32):
            keys = np.array(values, dtype=dtype)
            _assert_lookup_equals_dict(_scheme(table), keys)
            _assert_batch_equals_scalar(table, seed_counts, keys, [1] * len(keys))

    def test_empty_batch_is_a_noop(self):
        table = {3: 1, -7: 4}
        estimator = _estimator(table, [2, 5])
        before = estimator.bucket_totals
        estimator.update_batch(np.zeros(0, dtype=np.int64))
        estimator.update_batch([])
        assert estimator.bucket_totals.tobytes() == before.tobytes()
        assert _scheme(table).stored_buckets(np.zeros(0, dtype=np.int64)).shape == (0,)


class TestDictPath:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_string_batches_match_scalar_replay(self, data):
        words = st.text(alphabet="abcq", max_size=4)
        stored = data.draw(st.lists(words, min_size=1, max_size=10, unique=True))
        table = {key: data.draw(buckets) for key in stored}
        seed_counts = [1] * len(table)
        keys = data.draw(st.lists(st.one_of(st.sampled_from(stored), words), max_size=40))
        counts = data.draw(st.lists(small_counts, min_size=len(keys), max_size=len(keys)))
        object_keys = np.empty(len(keys), dtype=object)
        object_keys[:] = keys
        assert _scheme(table)._int_index is None
        for batch in (keys, object_keys):
            _assert_lookup_equals_dict(_scheme(table), batch)
            _assert_batch_equals_scalar(table, seed_counts, batch, counts)

    @pytest.mark.parametrize(
        "table",
        [
            {1: 0, "1": 1, 7: 2},  # mixed int and str keys
            {1.0: 3, 4: 1},  # a stored float that int arrival 1 hits
            {True: 2, 9: 0},  # a stored bool that int arrival 1 hits
            {2**63: 4, 5: 1},  # a stored int above the int64 range
            {np.uint64(2**64 - 1): 4, 5: 1},  # a NumPy integer above it
        ],
        ids=["mixed", "float", "bool", "above-int64", "uint64-above-int64"],
    )
    def test_integer_index_refuses_tables_it_cannot_mirror(self, table):
        scheme = _scheme(table)
        assert scheme._int_index is None
        arrivals = np.array([1, 1, 5, 7, 9, 4, -1, 0, INT64_MAX], dtype=np.int64)
        counts = [1, 2, 3, 1, 0, 2, 1, 1, 1]
        _assert_lookup_equals_dict(scheme, arrivals)
        _assert_batch_equals_scalar(table, [1] * len(table), arrivals, counts)
        _assert_batch_equals_scalar(table, [1] * len(table), arrivals.tolist(), counts)
        high = np.array([2**63, 2**64 - 1, 5], dtype=np.uint64)
        _assert_lookup_equals_dict(scheme, high)
        _assert_batch_equals_scalar(table, [1] * len(table), high, [2, 1, 1])

    def test_numpy_integer_keys_use_the_index(self):
        table = {np.int64(-3): 1, np.uint32(8): 2, 11: 0}
        scheme = _scheme(table)
        assert scheme._int_index is not None
        keys = np.array([-3, 8, 11, 12, -3], dtype=np.int64)
        _assert_lookup_equals_dict(scheme, keys)
        _assert_batch_equals_scalar(table, [1, 2, 3], keys, [1, 1, 2, 1, 0])

    def test_empty_table_stores_nothing(self):
        scheme = _scheme({})
        keys = np.array([0, 1, 2], dtype=np.int64)
        assert scheme.stored_buckets(keys).tolist() == [-1, -1, -1]
        estimator = OptHashEstimator(scheme)
        estimator.update_batch(keys, [4, 5, 6])
        assert estimator.bucket_totals.tolist() == [0.0] * NUM_BUCKETS

