"""Sliding-window semantics: rotation and expiry must be *exact*.

The fence around the temporal layer is bit-identity: a windowed sketch
after any interleaving of ingests and rotations must answer exactly like
a fresh base sketch fed only the in-window arrivals.  Hypothesis drives
that property per base sketch (CMS, Count Sketch, AMS, exact counter),
through merge of two windowed sketches, and through serialization and
the shm storage backend.  The ``ExactCounter`` suite doubles as the
oracle: exact in-window counts under rotation, no approximation to hide
behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import SketchSpec, SpecError, WindowedSpec, build, spec_from_dict
from repro.sketches.base import IncompatibleSketchError
from repro.sketches.serialization import SerializationError, loads
from repro.streams.stream import Element
from repro.temporal import DecayedSketch, SlidingWindowSketch

BASE_SPECS = {
    "count_min": {"kind": "count_min", "total_buckets": 256, "depth": 2, "seed": 5},
    "count_sketch": {"kind": "count_sketch", "width": 64, "depth": 3, "seed": 5},
    "ams": {"kind": "ams", "num_estimators": 32, "means_groups": 4, "seed": 5},
    "exact_counter": {"kind": "exact_counter"},
}

key_lists = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=120)


def windowed(base: str, **kwargs) -> SlidingWindowSketch:
    return build(WindowedSpec(spec_from_dict(BASE_SPECS[base]), **kwargs))


def in_window_suffix(keys, counts, num_panes, pane_items):
    """The weighted arrivals a fully-rotated rebuild would keep.

    With count-based rotation the window holds the head's current fill
    plus ``num_panes - 1`` full panes of ``pane_items`` arrivals each.
    """
    total = int(np.sum(counts))
    head_fill = total % pane_items
    keep = head_fill + (num_panes - 1) * pane_items
    if keep >= total:
        return list(keys), list(counts)
    kept_keys, kept_counts = [], []
    remaining = keep
    for key, count in zip(reversed(keys), reversed(counts)):
        take = min(int(count), remaining)
        if take:
            kept_keys.append(key)
            kept_counts.append(take)
            remaining -= take
        if remaining == 0:
            break
    return list(reversed(kept_keys)), list(reversed(kept_counts))


# ----------------------------------------------------------------------
# the ExactCounter oracle
# ----------------------------------------------------------------------
class TestExactOracle:
    def test_exact_in_window_counts_under_rotation(self):
        """Acceptance: the window over an exact counter IS the exact
        in-window count, through arbitrary count-based rotations."""
        sketch = windowed("exact_counter", num_panes=3, pane_items=10)
        rng = np.random.default_rng(0)
        history = []
        for _ in range(40):
            batch = rng.integers(0, 12, size=rng.integers(1, 9))
            sketch.update_batch(batch)
            history.extend(int(k) for k in batch)
            # oracle: the last head_fill + 2*10 arrivals, exactly
            state = sketch.window_state()
            keep = state["head_fill"] + (sketch.num_panes - 1) * 10
            window = history[-keep:] if keep else []
            probe = np.arange(12)
            expected = np.array([window.count(int(k)) for k in probe], dtype=float)
            got = sketch.estimate_batch(probe)
            np.testing.assert_array_equal(got, expected)

    def test_tick_expiry_is_total(self):
        sketch = windowed("exact_counter", num_panes=4)
        sketch.update_batch(["a"] * 9 + ["b"])
        assert sketch.estimate_batch(["a", "b"]).tolist() == [9.0, 1.0]
        for _ in range(sketch.num_panes):
            sketch.tick()
        assert sketch.estimate_batch(["a", "b"]).tolist() == [0.0, 0.0]
        assert sketch.rotations == 4

    def test_partial_expiry_drops_oldest_pane_only(self):
        sketch = windowed("exact_counter", num_panes=3)
        sketch.update_batch(["old"] * 5)
        sketch.tick()
        sketch.update_batch(["mid"] * 3)
        sketch.tick()
        sketch.update_batch(["new"] * 2)
        assert sketch.estimate_batch(["old", "mid", "new"]).tolist() == [5.0, 3.0, 2.0]
        sketch.tick()  # "old" pane expires
        assert sketch.estimate_batch(["old", "mid", "new"]).tolist() == [0.0, 3.0, 2.0]


# ----------------------------------------------------------------------
# bit-identity per base sketch (hypothesis)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base", sorted(BASE_SPECS))
class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(keys=key_lists, data=st.data())
    def test_count_rotation_matches_in_window_rebuild(self, base, keys, data):
        counts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=7),
                min_size=len(keys),
                max_size=len(keys),
            )
        )
        num_panes = data.draw(st.integers(min_value=2, max_value=5))
        pane_items = data.draw(st.integers(min_value=1, max_value=30))
        sketch = windowed(base, num_panes=num_panes, pane_items=pane_items)
        chunk = data.draw(st.integers(min_value=1, max_value=len(keys)))
        for start in range(0, len(keys), chunk):
            sketch.update_batch(
                keys[start : start + chunk], counts[start : start + chunk]
            )
        kept_keys, kept_counts = in_window_suffix(keys, counts, num_panes, pane_items)
        reference = build(spec_from_dict(BASE_SPECS[base]))
        if kept_keys:
            reference.update_batch(kept_keys, kept_counts)
        probe = sorted(set(keys)) + [999]
        if base == "ams":
            assert sketch.estimate_second_moment() == pytest.approx(
                reference.estimate_second_moment()
            )
        else:
            np.testing.assert_array_equal(
                sketch.estimate_batch(probe), reference.estimate_batch(probe)
            )

    @settings(max_examples=20, deadline=None)
    @given(first=key_lists, second=key_lists, ticks=st.integers(0, 3))
    def test_merge_matches_concatenated_window(self, base, first, second, ticks):
        """Two tick-aligned windows merge into the window of the union."""
        left = windowed(base, num_panes=3)
        right = windowed(base, num_panes=3)
        both = windowed(base, num_panes=3)
        left.update_batch(first)
        right.update_batch(second)
        both.update_batch(first)
        both.update_batch(second)
        for _ in range(ticks):
            left.tick(), right.tick(), both.tick()
        left.merge(right)
        probe = sorted(set(first) | set(second)) + [999]
        if base == "ams":
            assert left.estimate_second_moment() == pytest.approx(
                both.estimate_second_moment()
            )
        else:
            np.testing.assert_array_equal(
                left.estimate_batch(probe), both.estimate_batch(probe)
            )

    @settings(max_examples=20, deadline=None)
    @given(keys=key_lists, ticks=st.integers(0, 4))
    def test_serialization_round_trip(self, base, keys, ticks):
        sketch = windowed(base, num_panes=3)
        sketch.update_batch(keys)
        for _ in range(ticks):
            sketch.tick()
        restored = loads(sketch.to_bytes())
        assert type(restored) is SlidingWindowSketch
        assert restored.rotations == sketch.rotations
        probe = sorted(set(keys)) + [999]
        if base == "ams":
            assert restored.estimate_second_moment() == pytest.approx(
                sketch.estimate_second_moment()
            )
        else:
            np.testing.assert_array_equal(
                restored.estimate_batch(probe), sketch.estimate_batch(probe)
            )
        # the restored ring keeps rotating and merging like the original
        restored.update_batch(keys)
        sketch.update_batch(keys)
        restored.tick(), sketch.tick()
        if base != "ams":
            np.testing.assert_array_equal(
                restored.estimate_batch(probe), sketch.estimate_batch(probe)
            )


# ----------------------------------------------------------------------
# storage backends
# ----------------------------------------------------------------------
class TestShmBackedPanes:
    SHM_INNER = {
        "kind": "count_min",
        "total_buckets": 256,
        "depth": 2,
        "seed": 3,
        "storage": "shm",
    }

    def test_shm_window_matches_dense_and_round_trips(self):
        shm = build(WindowedSpec(spec_from_dict(self.SHM_INNER), num_panes=3))
        dense_inner = {k: v for k, v in self.SHM_INNER.items() if k != "storage"}
        dense = build(WindowedSpec(spec_from_dict(dense_inner), num_panes=3))
        try:
            rng = np.random.default_rng(1)
            for _ in range(5):
                batch = rng.integers(0, 50, size=200)
                shm.update_batch(batch)
                dense.update_batch(batch)
                shm.tick(), dense.tick()
            probe = np.arange(50)
            # seed=3 on both: the shm ring is bit-identical to the dense one
            np.testing.assert_array_equal(
                shm.estimate_batch(probe), dense.estimate_batch(probe)
            )
            restored = loads(shm.to_bytes())
            np.testing.assert_array_equal(
                restored.estimate_batch(probe), dense.estimate_batch(probe)
            )
            assert restored.rotations == shm.rotations
        finally:
            shm.close()

    def test_rotation_releases_expired_shm_panes(self):
        sketch = build(WindowedSpec(spec_from_dict(self.SHM_INNER), num_panes=2))
        try:
            sketch.update_batch(np.arange(100))
            sketch.estimate_batch(np.arange(4))  # materialize a merged cache
            for _ in range(6):  # rotations discard old panes AND stale caches
                sketch.tick()
            assert sketch.estimate_batch(np.arange(4)).tolist() == [0.0] * 4
        finally:
            sketch.close()


# ----------------------------------------------------------------------
# spec and API surface
# ----------------------------------------------------------------------
class TestWindowedSpec:
    def test_round_trips_through_dict(self):
        spec = WindowedSpec(
            SketchSpec("count_min", total_buckets=64, depth=1, seed=2),
            num_panes=4,
            pane_items=100,
        )
        clone = spec_from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.kind == "sliding_window"

    def test_decay_selects_the_decayed_kind(self):
        spec = WindowedSpec(SketchSpec("exact_counter"), num_panes=3, decay=0.5)
        assert spec.kind == "decayed"
        assert type(build(spec)) is DecayedSketch

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_panes": 1},
            {"num_panes": 0},
            {"pane_items": 0},
            {"pane_items": -5},
            {"decay": 0.0},
            {"decay": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(SpecError):
            WindowedSpec(SketchSpec("exact_counter"), **kwargs).validate()

    def test_rejects_nested_windows(self):
        inner = WindowedSpec(SketchSpec("exact_counter"), num_panes=2)
        with pytest.raises(SpecError):
            WindowedSpec(inner, num_panes=2).validate()

    def test_session_open_snapshot_restore(self, tmp_path):
        spec = WindowedSpec(
            SketchSpec("count_min", total_buckets=128, depth=2, seed=8), num_panes=3
        )
        path = str(tmp_path / "window.snap")
        with repro.open(spec) as session:
            session.ingest(list(range(30)))
            session.estimator.tick()
            session.ingest(list(range(10)))
            expected = session.estimate(list(range(30)))
            session.save(path)
        with repro.load(path) as restored:
            assert restored.kind == "sliding_window"
            np.testing.assert_array_equal(
                restored.estimate(list(range(30))), expected
            )

    def test_describe_names_the_ring(self):
        sketch = windowed("count_min", num_panes=3, pane_items=7)
        description = sketch.describe()
        assert description["kind"] == "sliding_window"
        assert description["params"]["num_panes"] == 3
        assert description["params"]["pane_items"] == 7


# ----------------------------------------------------------------------
# alignment and failure edges
# ----------------------------------------------------------------------
class TestEdges:
    def test_merge_rejects_pane_misalignment(self):
        left = windowed("exact_counter", num_panes=3)
        right = windowed("exact_counter", num_panes=3)
        right.tick()
        with pytest.raises(IncompatibleSketchError):
            left.merge(right)

    def test_merge_rejects_differing_rings(self):
        left = windowed("exact_counter", num_panes=3)
        right = windowed("exact_counter", num_panes=4)
        with pytest.raises(IncompatibleSketchError):
            left.merge(right)

    def test_opt_hash_window_is_not_serializable(self, toy_prefix):
        spec = WindowedSpec(
            repro.OptHashSpec(num_buckets=3, solver="bcd", classifier="cart", seed=1),
            num_panes=2,
        )
        sketch = build(spec, prefix=toy_prefix)
        sketch.update_batch(toy_prefix.arrivals)
        assert sketch.estimate_batch([toy_prefix.arrivals[0]])[0] > 0
        with pytest.raises(SerializationError):
            sketch.to_bytes()

    def test_opt_hash_window_expires_like_any_other(self, toy_prefix):
        spec = WindowedSpec(
            repro.OptHashSpec(num_buckets=3, solver="bcd", classifier="cart", seed=1),
            num_panes=2,
        )
        sketch = build(spec, prefix=toy_prefix)
        sketch.update_batch(toy_prefix.arrivals)
        probe = [toy_prefix.arrivals[0]]
        assert sketch.estimate_batch(probe)[0] > 0
        sketch.tick()
        sketch.tick()
        assert sketch.estimate_batch(probe)[0] == 0.0

    def test_adaptive_opt_hash_panes_keep_the_pinned_backend(self, toy_prefix):
        inner = repro.OptHashSpec(
            adaptive=True, num_buckets=3, solver="bcd", backend="numpy", seed=1
        )
        sketch = build(WindowedSpec(inner, num_panes=2), prefix=toy_prefix)
        assert sketch.kernel_backend == "numpy"
        sketch.tick()
        assert sketch.pane_at_age(0).describe()["params"]["backend"] == "numpy"

    def test_window_state_reports_pane_arrivals_youngest_first(self):
        sketch = windowed("exact_counter", num_panes=3)
        sketch.update_batch(["a"] * 4)
        sketch.tick()
        sketch.update_batch(["b"] * 2)
        state = sketch.window_state()
        assert state["pane_arrivals"][:2] == [2, 4]
        assert state["rotations"] == 1
        assert state["head_fill"] == 2
