"""Bit-identity of the kernel backends.

Both compute backends (the NumPy reference and the ctypes-driven C one)
implement the exact integer recurrences of :mod:`repro.sketches.hashing`, so
two sketches that differ only in ``backend=`` must hold byte-identical state
and return byte-identical answers — across sketch kinds, hash schemes, key
types, weighted batches, merges, serialization, storage backends, and
sharded layouts.  The native comparisons are skipped where no C compiler
exists (CI runs dedicated legs with and without it).  The restore-fallback
tests also cover the retired ``numba`` name, which old buffers may carry.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import kernels
from repro.errors import KernelError
from repro.sketches import AmsSketch, BloomFilter, CountMinSketch, CountSketch
from repro.sketches.serialization import pack, unpack

SCHEMES = ("universal", "tabulation")

COMPILED = [name for name in kernels.available_backends() if name != "numpy"]

requires_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend available (no cc)"
)


def compiled_params():
    return COMPILED or [
        pytest.param(
            "native", marks=pytest.mark.skip(reason="no compiled backend")
        )
    ]


def int_keys(num=4000, support=500, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**62), 2**62, size=num, dtype=np.int64)
    # Skew toward a small hot set so estimates exercise real collisions.
    hot = rng.integers(0, support, size=num, dtype=np.int64)
    use_hot = rng.random(num) < 0.8
    return np.where(use_hot, hot, keys)


def str_keys(num=2000, support=300, seed=1):
    ranks = np.random.default_rng(seed).integers(0, support, size=num)
    return [f"query {int(r)} text" for r in ranks]


def weights(num, seed=2):
    return np.random.default_rng(seed).integers(0, 9, size=num).astype(np.int64)


def probe(keys):
    if isinstance(keys, np.ndarray):
        return np.concatenate([np.unique(keys), [10**9, -(10**9)]])
    return sorted(set(keys)) + ["never seen a", "never seen b"]


def make_pair(factory, backend):
    """The same sketch twice: NumPy reference vs the backend under test."""
    return factory(backend="numpy"), factory(backend=backend)


def table_of(sketch):
    for attr in ("_table", "_counters", "_bits"):
        if hasattr(sketch, attr):
            return np.asarray(getattr(sketch, attr))
    raise AssertionError(f"no state array on {type(sketch).__name__}")


# ----------------------------------------------------------------------
# core matrix: backend x sketch x scheme x key type x weighted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("key_kind", ("int", "str"))
@pytest.mark.parametrize("weighted", (False, True))
class TestIngestQueryIdentity:
    def keys(self, key_kind):
        return int_keys() if key_kind == "int" else str_keys()

    def run_pair(self, factory, backend, key_kind, weighted):
        keys = self.keys(key_kind)
        counts = weights(len(keys)) if weighted else None
        ref, fast = make_pair(factory, backend)
        assert fast.kernel_backend == backend
        for sketch in (ref, fast):
            sketch.update_batch(keys, counts)
        np.testing.assert_array_equal(table_of(ref), table_of(fast))
        return ref, fast, keys

    def test_count_min(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountMinSketch(width=256, depth=4, seed=11, hash_scheme=scheme, **kw)

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_min_conservative(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountMinSketch(
                width=256, depth=4, seed=3, hash_scheme=scheme, conservative=True, **kw
            )

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_sketch(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountSketch(width=256, depth=5, seed=7, hash_scheme=scheme, **kw)

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_sketch_even_depth_median(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountSketch(width=128, depth=4, seed=9, hash_scheme=scheme, **kw)

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_ams(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return AmsSketch(num_estimators=64, seed=5, hash_scheme=scheme, **kw)

        ref, fast, _ = self.run_pair(factory, backend, key_kind, weighted)
        assert ref.estimate_second_moment() == fast.estimate_second_moment()


@pytest.mark.parametrize("backend", compiled_params())
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("key_kind", ("int", "str"))
class TestBloomIdentity:
    def test_add_contains_observe(self, backend, scheme, key_kind):
        keys = int_keys(1500) if key_kind == "int" else str_keys(1500)

        def factory(**kw):
            return BloomFilter(
                num_bits=4096, num_hashes=4, seed=13, hash_scheme=scheme, **kw
            )

        ref, fast = make_pair(factory, backend)
        half = len(keys) // 2
        ref_new = ref.observe_batch(keys[:half])
        fast_new = fast.observe_batch(keys[:half])
        np.testing.assert_array_equal(ref_new, fast_new)
        ref.add_batch(keys[half:])
        fast.add_batch(keys[half:])
        np.testing.assert_array_equal(ref._bits, fast._bits)
        assert ref.num_inserted == fast.num_inserted
        np.testing.assert_array_equal(
            ref.contains_batch(probe(keys)), fast.contains_batch(probe(keys))
        )


# ----------------------------------------------------------------------
# non-power-of-two table widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
@pytest.mark.parametrize("width", (1, 3, 257, 2730, 999983))
class TestOddWidthIdentity:
    """Widths that are not powers of two.

    Regression for the fastmod reciprocal: a ceil(log2) shift makes the
    precomputed magic overflow 64 bits for every non-power-of-two width,
    which shorts the quotient so badly the fixup loop effectively hangs.
    The floor(log2) shift keeps magic in range for all widths, including
    the degenerate width-1 table.
    """

    def test_count_min(self, backend, width):
        keys = int_keys(2000)
        ref, fast = make_pair(
            lambda **kw: CountMinSketch(width=width, depth=3, seed=17, **kw),
            backend,
        )
        for sketch in (ref, fast):
            sketch.update_batch(keys)
        np.testing.assert_array_equal(ref._table, fast._table)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_sketch(self, backend, width):
        keys = int_keys(2000)
        ref, fast = make_pair(
            lambda **kw: CountSketch(width=width, depth=3, seed=19, **kw),
            backend,
        )
        for sketch in (ref, fast):
            sketch.update_batch(keys)
        np.testing.assert_array_equal(ref._table, fast._table)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_bloom(self, backend, width):
        keys = int_keys(1000)
        ref, fast = make_pair(
            lambda **kw: BloomFilter(num_bits=width, num_hashes=3, seed=23, **kw),
            backend,
        )
        ref.add_batch(keys)
        fast.add_batch(keys)
        np.testing.assert_array_equal(ref._bits, fast._bits)
        np.testing.assert_array_equal(
            ref.contains_batch(probe(keys)), fast.contains_batch(probe(keys))
        )


# ----------------------------------------------------------------------
# hypothesis: adversarial key/weight patterns
# ----------------------------------------------------------------------
any_int_key = st.integers(min_value=-(2**63), max_value=2**64 - 1)
any_str_key = st.text(max_size=12)


@requires_compiled
class TestHypothesisIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(any_int_key, min_size=1, max_size=60),
        counts=st.none() | st.just("draw"),
        data=st.data(),
    )
    def test_cms_int_keys(self, keys, counts, data):
        if counts == "draw":
            counts = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=10**6),
                    min_size=len(keys),
                    max_size=len(keys),
                )
            )
        for backend in COMPILED:
            ref, fast = make_pair(
                lambda **kw: CountMinSketch(width=32, depth=3, seed=1, **kw), backend
            )
            ref.update_batch(keys, counts)
            fast.update_batch(keys, counts)
            np.testing.assert_array_equal(ref._table, fast._table)
            np.testing.assert_array_equal(
                ref.estimate_batch(keys), fast.estimate_batch(keys)
            )

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(any_str_key, min_size=1, max_size=40))
    def test_count_sketch_str_keys(self, keys):
        for backend in COMPILED:
            ref, fast = make_pair(
                lambda **kw: CountSketch(width=32, depth=4, seed=2, **kw), backend
            )
            ref.update_batch(keys)
            fast.update_batch(keys)
            np.testing.assert_array_equal(ref._table, fast._table)
            np.testing.assert_array_equal(
                ref.estimate_batch(keys), fast.estimate_batch(keys)
            )

    @settings(max_examples=25, deadline=None)
    @given(keys=st.lists(any_int_key, min_size=1, max_size=50))
    def test_bloom_observe_first_occurrence(self, keys):
        for backend in COMPILED:
            ref, fast = make_pair(
                lambda **kw: BloomFilter(num_bits=64, num_hashes=3, seed=3, **kw),
                backend,
            )
            np.testing.assert_array_equal(
                ref.observe_batch(keys), fast.observe_batch(keys)
            )
            np.testing.assert_array_equal(ref._bits, fast._bits)


# ----------------------------------------------------------------------
# merge / serialization / storage / sharding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
class TestStateIdentity:
    def test_merge_matches_numpy(self, backend):
        def halves(be):
            a = CountMinSketch(width=128, depth=4, seed=21, backend=be)
            b = CountMinSketch(width=128, depth=4, seed=21, backend=be)
            a.update_batch(int_keys(seed=4))
            b.update_batch(int_keys(seed=5))
            return a.merge(b)

        np.testing.assert_array_equal(halves("numpy")._table, halves(backend)._table)

    def test_serialized_state_is_backend_independent(self, backend):
        """Modulo the recorded backend name, the wire bytes are identical."""
        def blob(be):
            sketch = CountSketch(width=64, depth=3, seed=8, backend=be)
            sketch.update_batch(str_keys(800))
            return sketch.to_bytes()

        tag_a, state_a, arrays_a = unpack(blob("numpy"))
        tag_b, state_b, arrays_b = unpack(blob(backend))
        assert tag_a == tag_b
        assert state_a.pop("backend") == "numpy"
        assert state_b.pop("backend") == backend
        assert state_a == state_b
        assert sorted(arrays_a) == sorted(arrays_b)
        for name in arrays_a:
            np.testing.assert_array_equal(arrays_a[name], arrays_b[name])

    def test_roundtrip_preserves_backend(self, backend):
        sketch = CountMinSketch(width=64, depth=3, seed=2, backend=backend)
        sketch.update_batch(int_keys(1000))
        twin = CountMinSketch.from_bytes(sketch.to_bytes())
        assert twin.backend == backend
        assert twin.kernel_backend == backend
        np.testing.assert_array_equal(sketch._table, twin._table)

    def test_auto_backend_not_serialized(self, backend):
        sketch = CountMinSketch(width=8, depth=2, seed=1)  # backend="auto"
        _, state, _ = unpack(sketch.to_bytes())
        assert "backend" not in state

    @pytest.mark.parametrize("storage", ("shm", "mmap"))
    def test_storage_backends_identical(self, backend, storage, tmp_path):
        def factory(**kw):
            extra = {"storage_path": str(tmp_path / f"{kw['backend']}.bin")}
            if storage != "mmap":
                extra = {}
            return CountMinSketch(
                width=128, depth=3, seed=6, storage=storage, **extra, **kw
            )

        ref, fast = make_pair(factory, backend)
        try:
            keys = int_keys(2000)
            ref.update_batch(keys)
            fast.update_batch(keys)
            np.testing.assert_array_equal(
                np.asarray(ref._table), np.asarray(fast._table)
            )
        finally:
            for sketch in (ref, fast):
                close = getattr(sketch, "close", None)
                if close is not None:
                    close()

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_sharded_identical(self, backend, executor):
        def build(be):
            spec = repro.ShardedSpec(
                repro.SketchSpec(
                    "count_min", width=64, depth=3, seed=9, backend=be
                ),
                num_shards=3,
                executor=executor,
            )
            est = repro.build(spec)
            est.update_batch(int_keys(2000))
            return est

        ref, fast = build("numpy"), build(backend)
        try:
            assert fast.kernel_backend == backend
            keys = probe(int_keys(2000))
            np.testing.assert_array_equal(
                ref.estimate_batch(keys), fast.estimate_batch(keys)
            )
        finally:
            ref.close()
            fast.close()

    def test_session_snapshot_roundtrip(self, backend):
        spec = {"kind": "count_min", "width": 64, "depth": 3, "seed": 4}
        with repro.open(spec, options=repro.Options(backend=backend)) as session:
            session.ingest(int_keys(1500))
            blob = session.snapshot()
            reference = session.estimate(probe(int_keys(1500)))
        twin = repro.restore(blob)
        assert twin.describe()["kernel_backend"] == backend
        np.testing.assert_array_equal(
            reference, twin.estimate(probe(int_keys(1500)))
        )


# ----------------------------------------------------------------------
# fallback: restoring a snapshot whose backend this machine cannot provide
# ----------------------------------------------------------------------
def repinned(blob, backend, nested=None):
    """``blob`` re-packed as if written with ``backend=`` pinned.

    ``nested`` names the array holding an inner serialized estimator (a
    session buffer's ``"estimator"``), whose own pin is rewritten too.
    """
    tag, state, arrays = unpack(blob)
    if nested is None:
        state["backend"] = backend
    else:
        state["spec"]["backend"] = backend
        inner = repinned(arrays[nested].tobytes(), backend)
        arrays[nested] = np.frombuffer(inner, dtype=np.uint8)
    return pack(tag, state, arrays)


@pytest.mark.parametrize("backend", compiled_params() + ["numba"])
class TestRestoreFallback:
    """A compiled backend masked at restore time, and the retired ``numba``.

    A retired name cannot be constructed any more, so its buffers are
    numpy-pinned originals re-packed under that name — what old buffers
    hold.  A live backend writes its own.
    """

    @staticmethod
    def writer(backend):
        return backend if backend in kernels.BACKEND_NAMES else "numpy"

    @staticmethod
    def make_unavailable(backend, monkeypatch):
        if backend in kernels.BACKEND_NAMES:
            monkeypatch.setenv("REPRO_KERNELS_DISABLE", "all-compiled")

    def test_restore_without_compiled_backend_warns_and_matches(
        self, backend, monkeypatch
    ):
        sketch = CountMinSketch(
            width=64, depth=3, seed=12, backend=self.writer(backend)
        )
        sketch.update_batch(int_keys(1200))
        blob = repinned(sketch.to_bytes(), backend)
        reference = sketch.estimate_batch(probe(int_keys(1200)))

        self.make_unavailable(backend, monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            twin = CountMinSketch.from_bytes(blob)
        assert twin.kernel_backend == kernels.default_backend() != backend
        assert twin.backend == backend  # the pin survives for re-serialization
        assert unpack(twin.to_bytes())[1]["backend"] == backend
        np.testing.assert_array_equal(sketch._table, twin._table)
        np.testing.assert_array_equal(
            reference, twin.estimate_batch(probe(int_keys(1200)))
        )

    def test_session_snapshot_restore_warns_and_matches(self, backend, monkeypatch):
        spec = {"kind": "count_min", "width": 64, "depth": 3, "seed": 4}
        options = repro.Options(backend=self.writer(backend))
        with repro.open(spec, options=options) as session:
            session.ingest(int_keys(1500))
            blob = repinned(session.snapshot(), backend, nested="estimator")
            reference = session.estimate(probe(int_keys(1500)))
            table = session.estimator.counters()

        self.make_unavailable(backend, monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            twin = repro.restore(blob)
        assert twin.spec.params["backend"] == backend
        assert twin.describe()["kernel_backend"] == kernels.default_backend()
        np.testing.assert_array_equal(table, twin.estimator.counters())
        np.testing.assert_array_equal(
            reference, twin.estimate(probe(int_keys(1500)))
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            again = repro.restore(twin.snapshot())
        assert again.estimator.backend == backend

    def test_explicit_construction_still_raises(self, backend, monkeypatch):
        self.make_unavailable(backend, monkeypatch)
        with pytest.raises(KernelError, match="unavailable"):
            CountMinSketch(width=8, depth=2, seed=1, backend=backend)

    def test_auto_degrades_silently(self, backend, monkeypatch):
        self.make_unavailable(backend, monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch = CountMinSketch(width=8, depth=2, seed=1, backend="auto")
        assert sketch.kernel_backend == kernels.default_backend() != backend


# ----------------------------------------------------------------------
# dispatch API surface
# ----------------------------------------------------------------------
class TestDispatchApi:
    def test_numpy_always_available(self):
        assert kernels.backend_available("numpy")
        assert kernels.get_backend("numpy").name == "numpy"
        assert kernels.resolve_backend("auto") in kernels.BACKEND_NAMES

    def test_backend_names(self):
        assert kernels.BACKEND_NAMES == ("native", "numpy")
        assert kernels.RETIRED_BACKEND_NAMES == ("numba",)

    def test_retired_backend_parses_but_never_resolves(self):
        repro.SketchSpec("count_min", width=8, depth=2, backend="numba").validate()
        assert not kernels.backend_available("numba")
        assert "numba" not in kernels.available_backends()
        assert "retired" in kernels.unavailable_reason("numba")
        with pytest.raises(KernelError, match="retired"):
            kernels.resolve_backend("numba")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown"):
            kernels.resolve_backend("fortran")
        with pytest.raises(repro.SpecError):
            repro.SketchSpec("count_min", width=8, depth=2, backend="fortran").validate()

    def test_spec_with_backend_drills_through_wrappers(self):
        spec = repro.ShardedSpec(
            repro.SketchSpec("count_min", width=16, depth=2, seed=1),
            num_shards=2,
        )
        pinned = repro.api.spec_with_backend(spec, "numpy")
        assert pinned.inner.params["backend"] == "numpy"

    def test_spec_with_backend_rejects_nonkernel_kinds(self):
        with pytest.raises(repro.SpecError, match="backend"):
            repro.api.spec_with_backend(repro.SketchSpec("exact_counter"), "numpy")

    def test_describe_reports_resolved_backend(self):
        sketch = CountMinSketch(width=8, depth=2, seed=1, backend="numpy")
        info = sketch.describe()
        assert info["kernel_backend"] == "numpy"
        assert info["storage_backend"] == "dense"
        assert info["params"]["backend"] == "numpy"
