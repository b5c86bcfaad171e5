"""End-to-end integration tests across subsystems.

These tests assemble the full pipeline the way the paper's evaluation does —
generate a workload, train the learned scheme, stream the remaining data,
and compare against the conventional baselines — and assert the qualitative
relationships the paper reports (opt-hash ≪ count-min at small memory,
errors shrink with memory, the adaptive extension tracks unseen elements).
"""

import numpy as np
import pytest

from repro import (
    CountMinSketch,
    LearnedCountMinSketch,
    OptHashSpec,
    train_opt_hash,
)
from repro.evaluation.metrics import average_absolute_error, expected_magnitude_error
from repro.ml.text import QueryFeaturizer
from repro.sketches.learned_cms import IdealHeavyHitterOracle
from repro.streams.querylog import QueryLogConfig, QueryLogGenerator
from repro.streams.stream import Element
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


@pytest.fixture(scope="module")
def query_dataset():
    config = QueryLogConfig(
        num_unique_queries=400,
        num_days=3,
        arrivals_per_day=2000,
        zipf_exponent=0.8,
        daily_churn_fraction=0.01,
        seed=42,
    )
    return QueryLogGenerator(config).generate_dataset()


class TestSyntheticEndToEnd:
    def test_opt_hash_beats_count_min_on_synthetic_stream(self):
        generator = SyntheticGenerator(
            SyntheticConfig(num_groups=5, fraction_seen=0.6, seed=3)
        )
        prefix, stream = generator.generate_prefix_and_stream(stream_multiplier=5)

        training = train_opt_hash(
            prefix, OptHashSpec(num_buckets=12, lam=0.5, solver="bcd", seed=3)
        )
        opt_hash = training.estimator
        num_total_buckets = 12 + training.scheme.num_stored_ids
        count_min = CountMinSketch.from_total_buckets(num_total_buckets, depth=2, seed=3)

        count_min.update_many(prefix)
        for element in stream:
            opt_hash.update(element)
            count_min.update(element)

        truth = prefix.frequencies()
        for element in stream:
            truth.increment(element.key)
        lookup = {element.key: element for element in generator.universe}

        opt_error = average_absolute_error(opt_hash, truth, element_lookup=lookup)
        cms_error = average_absolute_error(count_min, truth, element_lookup=lookup)
        assert opt_error < cms_error

    def test_adaptive_estimator_tracks_unseen_elements(self):
        generator = SyntheticGenerator(
            SyntheticConfig(num_groups=4, fraction_seen=0.3, seed=5)
        )
        prefix, stream = generator.generate_prefix_and_stream(stream_multiplier=5)
        static = train_opt_hash(
            prefix, OptHashSpec(num_buckets=8, lam=0.5, solver="bcd", seed=5)
        ).estimator
        adaptive = train_opt_hash(
            prefix,
            OptHashSpec(
                num_buckets=8, lam=0.5, solver="bcd", adaptive=True,
                expected_distinct=2000, seed=5,
            ),
        ).estimator
        for element in stream:
            static.update(element)
            adaptive.update(element)

        prefix_keys = set(prefix.distinct_keys())
        unseen = [
            element
            for element in stream.distinct_elements()
            if element.key not in prefix_keys
        ]
        assert unseen, "the stream should contain elements outside the prefix"
        truth = stream.frequencies()
        adaptive_error = np.mean(
            [abs(adaptive.estimate(e) - truth[e.key]) for e in unseen]
        )
        static_error = np.mean(
            [abs(static.estimate(e) - truth[e.key]) for e in unseen]
        )
        # The adaptive extension actually counts unseen arrivals, so it should
        # not be (much) worse than the static estimator on unseen elements.
        assert adaptive_error <= static_error * 1.5 + 5.0


class TestQueryLogEndToEnd:
    def test_opt_hash_beats_baselines_on_query_log(self, query_dataset):
        prefix = query_dataset.prefix()
        featurizer_model = QueryFeaturizer(vocabulary_size=60)
        featurizer_model.fit([e.key for e in prefix.distinct_elements()])

        total_buckets = 250  # 1 KB budget
        num_stored = int(round(total_buckets / 1.3))
        num_buckets = total_buckets - num_stored
        training = train_opt_hash(
            prefix,
            OptHashSpec(
                num_buckets=num_buckets,
                lam=1.0,
                solver="dp",
                classifier="cart",
                classifier_options={"max_depth": 8},
                max_stored_elements=num_stored,
                seed=0,
            ),
            featurizer=lambda e: featurizer_model.transform_one(str(e.key)),
        )
        opt_hash = training.estimator

        final_day = len(query_dataset.days) - 1
        truth = query_dataset.cumulative_frequencies(final_day)
        oracle = IdealHeavyHitterOracle.from_frequencies(dict(truth.items()), 50)
        lcms = LearnedCountMinSketch(
            total_buckets=total_buckets, num_heavy_buckets=50, oracle=oracle, depth=1, seed=0
        )
        cms = CountMinSketch.from_total_buckets(total_buckets, depth=2, seed=0)

        cms.update_many(query_dataset.days[0])
        lcms.update_many(query_dataset.days[0])
        for element in query_dataset.arrivals_after_prefix(final_day):
            opt_hash.update(element)
            cms.update(element)
            lcms.update(element)

        keys = list(truth.keys())
        opt_hash.scheme.precompute([Element(key=key) for key in keys])
        opt_avg = average_absolute_error(opt_hash, truth)
        cms_avg = average_absolute_error(cms, truth)
        lcms_avg = average_absolute_error(lcms, truth)
        opt_exp = expected_magnitude_error(opt_hash, truth)
        cms_exp = expected_magnitude_error(cms, truth)

        # The orderings reported in the paper at low memory budgets.
        assert opt_avg < lcms_avg
        assert opt_avg < cms_avg
        assert lcms_avg <= cms_avg
        assert opt_exp < cms_exp

    def test_memory_accounting_consistent_across_estimators(self, query_dataset):
        total_buckets = 250
        cms = CountMinSketch.from_total_buckets(total_buckets, depth=1, seed=0)
        oracle = IdealHeavyHitterOracle([])
        lcms = LearnedCountMinSketch(
            total_buckets=total_buckets, num_heavy_buckets=20, oracle=oracle, depth=1
        )
        assert cms.size_bytes == total_buckets * 4
        assert lcms.size_bytes == total_buckets * 4
