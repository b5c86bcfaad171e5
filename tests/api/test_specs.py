"""Spec layer: lossless JSON round-trips, strict validation, typed errors.

The load-bearing property (a satellite of the api_redesign issue): for every
spec, ``build(from_dict(to_dict(spec)))`` is merge-compatible with
``build(spec)`` — the dict form loses nothing that matters for shard /
snapshot correctness — and every malformed spec raises :class:`SpecError`,
never a bare KeyError/TypeError from inside a constructor.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.api import (
    OptHashSpec,
    ShardedSpec,
    SketchSpec,
    SpecError,
    WindowedSpec,
    spec_from_dict,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
SCHEMES = st.sampled_from(["universal", "tabulation"])


@st.composite
def sketch_specs(draw) -> SketchSpec:
    """A valid spec of a random sketch kind with small parameters."""
    kind = draw(
        st.sampled_from(
            [
                "count_min",
                "count_sketch",
                "bloom",
                "ams",
                "misra_gries",
                "space_saving",
                "exact_counter",
                "learned_cms",
            ]
        )
    )
    if kind in ("count_min", "count_sketch"):
        params = {
            "depth": draw(st.integers(1, 3)),
            "seed": draw(SEEDS),
            "hash_scheme": draw(SCHEMES),
        }
        if draw(st.booleans()):
            params["width"] = draw(st.integers(1, 64))
        else:
            params["total_buckets"] = draw(st.integers(params["depth"], 128))
        if kind == "count_min":
            params["conservative"] = draw(st.booleans())
        return SketchSpec(kind, **params)
    if kind == "bloom":
        return SketchSpec(
            kind,
            num_bits=draw(st.integers(8, 512)),
            num_hashes=draw(st.integers(1, 4)),
            seed=draw(SEEDS),
            hash_scheme=draw(SCHEMES),
        )
    if kind == "ams":
        groups = draw(st.integers(1, 4))
        return SketchSpec(
            kind,
            num_estimators=groups * draw(st.integers(1, 8)),
            means_groups=groups,
            seed=draw(SEEDS),
        )
    if kind in ("misra_gries", "space_saving"):
        return SketchSpec(kind, num_counters=draw(st.integers(1, 32)))
    if kind == "learned_cms":
        num_heavy = draw(st.integers(0, 4))
        depth = draw(st.integers(1, 2))
        return SketchSpec(
            kind,
            total_buckets=draw(st.integers(2 * num_heavy + depth, 128)),
            num_heavy_buckets=num_heavy,
            heavy_keys=draw(
                st.lists(st.integers(0, 30), max_size=8, unique=True)
            ),
            depth=depth,
            seed=draw(SEEDS),
        )
    return SketchSpec("exact_counter")


def json_roundtrip(spec):
    """to_dict → JSON text → dict → spec, the full wire trip."""
    return spec_from_dict(json.loads(json.dumps(spec.to_dict())))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=sketch_specs())
    def test_to_dict_is_lossless_and_json_safe(self, spec):
        assert json_roundtrip(spec) == spec
        assert json_roundtrip(spec).to_dict() == spec.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(spec=sketch_specs(), data=st.data())
    def test_build_from_roundtripped_dict_is_merge_compatible(self, spec, data):
        original = api.build(spec)
        twin = api.build(json_roundtrip(spec))
        keys = data.draw(
            st.lists(st.integers(0, 40), min_size=0, max_size=25), label="keys"
        )
        if hasattr(original, "update_batch"):
            original.update_batch(keys)
            twin.update_batch(keys[: len(keys) // 2])
        else:  # bloom: membership API
            for key in keys:
                original.add(key)
        # The satellite property: merge must accept the rebuilt twin.
        original.merge(twin)

    @settings(max_examples=25, deadline=None)
    @given(
        spec=sketch_specs().filter(
            # Conservative-update CMS is deliberately not linear: its merge
            # upper-bounds a serial run instead of reproducing it.
            lambda s: s.kind in ("count_min", "count_sketch", "ams")
            and not s.params.get("conservative", False)
        ),
        data=st.data(),
    )
    def test_linear_kinds_merge_bit_identically(self, spec, data):
        keys = data.draw(st.lists(st.integers(0, 40), max_size=40), label="keys")
        split = len(keys) // 2
        left, right = api.build(spec), api.build(json_roundtrip(spec))
        left.update_batch(keys[:split])
        right.update_batch(keys[split:])
        merged = left.merge(right)
        single = api.build(spec)
        single.update_batch(keys)
        if spec.kind == "ams":
            assert merged.estimate_second_moment() == single.estimate_second_moment()
        else:
            assert np.array_equal(merged.counters(), single.counters())

    @settings(max_examples=30, deadline=None)
    @given(
        inner=sketch_specs().filter(lambda s: s.kind != "bloom"),
        num_shards=st.integers(1, 4),
        mode=st.sampled_from(["key-partition", "round-robin"]),
    )
    def test_sharded_spec_roundtrip(self, inner, num_shards, mode):
        spec = ShardedSpec(inner, num_shards=num_shards, mode=mode)
        assert json_roundtrip(spec) == spec
        assert isinstance(json_roundtrip(spec), ShardedSpec)

    def test_opt_hash_roundtrip(self):
        spec = OptHashSpec(
            num_buckets=8,
            lam=0.25,
            solver="dp",
            solver_options={"center": "median"},
            classifier="rf",
            classifier_options={"n_estimators": 3},
            max_stored_elements=20,
            seed=5,
        )
        assert json_roundtrip(spec) == spec
        adaptive = OptHashSpec(adaptive=True, num_buckets=8, bloom_bits=256, seed=1)
        back = json_roundtrip(adaptive)
        assert isinstance(back, OptHashSpec) and back.adaptive
        assert back.kind == "adaptive_opt_hash"

    def test_numpy_scalars_coerce_to_json_types(self):
        spec = SketchSpec(
            "count_min", width=np.int64(8), depth=np.int32(2), seed=np.int64(3)
        )
        assert json.dumps(spec.to_dict())  # would raise on raw numpy scalars
        assert spec.params["width"] == 8 and isinstance(spec.params["width"], int)


INVALID_SPECS = [
    lambda: SketchSpec("no_such_kind", x=1),
    lambda: SketchSpec("count_min"),  # needs width or total_buckets
    lambda: SketchSpec("count_min", width=4, total_buckets=8),  # not both
    lambda: SketchSpec("count_min", width=0),
    lambda: SketchSpec("count_min", width=4, depth=0),
    lambda: SketchSpec("count_min", width=4, widht=4),  # unknown name
    lambda: SketchSpec("count_min", width=4, hash_scheme="crc32"),
    lambda: SketchSpec("count_min", width="wide"),
    lambda: SketchSpec("count_min", width=4, seed=1.5),
    lambda: SketchSpec("bloom", num_hashes=2),  # missing num_bits
    lambda: SketchSpec("misra_gries"),  # missing num_counters
    lambda: SketchSpec("misra_gries", num_counters=0),
    lambda: SketchSpec("ams", num_estimators=10, means_groups=3),
    lambda: SketchSpec("learned_cms", total_buckets=16, num_heavy_buckets=2,
                       heavy_keys=[["nested"]]),
    lambda: SketchSpec("opt_hash", num_buckets=4),  # needs OptHashSpec
    lambda: SketchSpec("sharded"),  # needs ShardedSpec
    lambda: OptHashSpec(solver="sgd"),
    lambda: OptHashSpec(classifier="svm"),
    lambda: OptHashSpec(num_buckets=0),
    lambda: OptHashSpec(lam=1.5),
    lambda: OptHashSpec(max_stored_elements=-3),
    lambda: OptHashSpec(solver_options={"time": {1, 2}}),  # not JSON-safe
    lambda: OptHashSpec(no_such_field=1),
    lambda: ShardedSpec(SketchSpec("count_min", width=8)),  # unseeded inner
    lambda: ShardedSpec(SketchSpec("count_min", width=8, seed=1), num_shards=0),
    lambda: ShardedSpec(SketchSpec("count_min", width=8, seed=1), mode="random"),
    lambda: ShardedSpec(
        SketchSpec("count_min", width=8, seed=1),
        mode="round-robin",
        query_mode="fanout",
    ),
    lambda: ShardedSpec(
        ShardedSpec(SketchSpec("exact_counter"), num_shards=2), num_shards=2
    ),
    lambda: ShardedSpec("count_min"),  # inner must be a spec
    lambda: spec_from_dict({"width": 8}),  # missing kind
    lambda: spec_from_dict(42),
    lambda: OptHashSpec.from_dict({"kind": "opt_hash", "adaptive": True}),
    lambda: OptHashSpec(expected_distinct=0),
    lambda: OptHashSpec(expected_distinct=2.5),
    lambda: OptHashSpec(tuning_folds=1),
    lambda: OptHashSpec(tune_classifier="yes"),
    lambda: OptHashSpec(sample_proportional_to_frequency=1),
    lambda: OptHashSpec(tuning_grid={"max_depth": 3}),
    lambda: OptHashSpec(tuning_grid={"max_depth": []}),
    lambda: OptHashSpec(tuning_grid=[1, 2]),
    # bools are ints in Python; no int or real field accepts one
    lambda: OptHashSpec(num_buckets=True),
    lambda: OptHashSpec(expected_distinct=True),
    lambda: OptHashSpec(lam=True),
    lambda: OptHashSpec(max_stored_elements=True),
    lambda: OptHashSpec(seed=False),
    lambda: OptHashSpec(bloom_bits=True),
    lambda: ShardedSpec(SketchSpec("count_min", width=8, seed=1), num_shards=True),
    lambda: ShardedSpec(SketchSpec("exact_counter"), num_shards=2, partition_seed=True),
    lambda: WindowedSpec(
        SketchSpec("count_min", width=8, seed=1), num_panes=2, pane_items=True
    ),
    lambda: WindowedSpec(
        SketchSpec("count_min", width=8, seed=1), num_panes=2, decay=True
    ),
]


class TestValidation:
    @pytest.mark.parametrize("make", INVALID_SPECS)
    def test_invalid_specs_raise_spec_error(self, make):
        with pytest.raises(SpecError):
            make()

    def test_spec_error_is_a_value_error(self):
        assert issubclass(SpecError, ValueError)

    def test_seedless_kinds_shard_without_seed(self):
        for kind, params in (
            ("exact_counter", {}),
            ("misra_gries", {"num_counters": 4}),
            ("space_saving", {"num_counters": 4}),
        ):
            ShardedSpec(SketchSpec(kind, **params), num_shards=2)

    def test_validation_reports_the_offending_parameter(self):
        with pytest.raises(SpecError, match="hash_scheme"):
            SketchSpec("count_min", width=4, hash_scheme="crc32")
        with pytest.raises(SpecError, match="num_counters"):
            SketchSpec("misra_gries", num_counters=-1)

    def test_iter_spec_grid_covers_the_product(self):
        grid = list(
            api.iter_spec_grid(
                "count_min", total_buckets=[64, 128], depth=[1, 2, 4], seed=0
            )
        )
        assert len(grid) == 6
        assert {(s.params["total_buckets"], s.params["depth"]) for s in grid} == {
            (b, d) for b in (64, 128) for d in (1, 2, 4)
        }


class TestStorageAndTransportFields:
    """storage= on table sketches; the retired transport= key on sharded."""

    def test_storage_field_round_trips(self):
        spec = SketchSpec(
            "count_min", total_buckets=128, depth=2, seed=1, storage="shm"
        )
        assert json_roundtrip(spec).to_dict() == spec.to_dict()
        assert spec.to_dict()["storage"] == "shm"

    def test_storage_path_round_trips_for_mmap(self):
        spec = SketchSpec(
            "count_min",
            width=32,
            seed=1,
            storage="mmap",
            storage_path="/tmp/cms-table.bin",
        )
        assert json_roundtrip(spec).to_dict() == spec.to_dict()

    def test_storage_path_without_mmap_rejected(self):
        with pytest.raises(SpecError, match="storage_path"):
            SketchSpec("count_min", width=32, seed=1, storage_path="/tmp/x")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="storage"):
            SketchSpec("ams", num_estimators=8, means_groups=2, seed=1, storage="disk")

    def test_transport_round_trips_and_defaults_out(self):
        # Legacy dicts name the shm process path; the key is accepted and
        # dropped, and to_dict never emits it.
        inner = SketchSpec("count_min", total_buckets=128, depth=2, seed=1)
        spec = ShardedSpec(inner, num_shards=2, executor="process")
        assert "transport" not in spec.to_dict()
        legacy = spec_from_dict({**spec.to_dict(), "transport": "shm"})
        assert legacy.to_dict() == spec.to_dict()
        assert json_roundtrip(legacy).to_dict() == spec.to_dict()
        assert not hasattr(legacy, "transport")

    def test_shm_transport_requires_storage_capable_inner(self):
        inners = [
            SketchSpec("exact_counter"),
            # Trained kinds have no storage either, so they are rejected
            # before any learning phase runs.
            OptHashSpec(num_buckets=4, solver="bcd", classifier=None, seed=0),
        ]
        for inner in inners:
            with pytest.raises(SpecError, match="serial or thread"):
                ShardedSpec(inner, num_shards=2, executor="process")
            # The other executors shard it fine.
            ShardedSpec(inner, num_shards=2, executor="thread")

    def test_shm_transport_rejects_mmap_inner(self):
        inner = SketchSpec(
            "count_min", total_buckets=128, depth=2, seed=1, storage="mmap"
        )
        with pytest.raises(SpecError, match="mmap"):
            ShardedSpec(inner, num_shards=2, executor="process")

    def test_unknown_transport_rejected(self):
        inner = {"kind": "count_min", "total_buckets": 128, "depth": 2, "seed": 1}
        base = {"kind": "sharded", "inner": inner, "num_shards": 2}
        for transport in ("serialization", "tcp"):
            with pytest.raises(SpecError, match="serial or thread"):
                spec_from_dict({**base, "executor": "process", "transport": transport})
        with pytest.raises(TypeError):
            ShardedSpec(spec_from_dict(inner), num_shards=2, transport="shm")
