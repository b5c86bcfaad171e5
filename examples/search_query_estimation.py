"""Search-query frequency estimation (the paper's Section 7 case study).

This example mirrors the real-world experiment at laptop scale:

* a synthetic AOL-like query log (Zipfian popularity, realistic query text,
  day-over-day persistence) plays the role of the proprietary AOL dataset;
* day 0 is the observed prefix used to learn the hashing scheme, with the
  bucket budget split between stored query IDs and buckets via the ratio
  ``c`` of Section 7.3;
* a bag-of-words + counts featurizer and a random forest route queries that
  never appeared on day 0;
* the remaining days are streamed through opt-hash, the Learned CMS with an
  ideal heavy-hitter oracle, and the Count-Min Sketch, all using the same
  4 KB of memory.

Run with::

    python examples/search_query_estimation.py
"""

from __future__ import annotations

import repro
from repro.evaluation.metrics import average_absolute_error, expected_magnitude_error
from repro.evaluation.querylog_experiments import build_estimator, spec_for_method
from repro.streams.querylog import QueryLogConfig, QueryLogGenerator
from repro.streams.stream import Element

MEMORY_KB = 4.0
NUM_DAYS = 10


def main() -> None:
    # ------------------------------------------------------------------
    # Workload: a scaled-down 10-day query log.
    # ------------------------------------------------------------------
    dataset = QueryLogGenerator(
        QueryLogConfig(
            num_unique_queries=4000,
            num_days=NUM_DAYS,
            arrivals_per_day=3000,
            zipf_exponent=0.8,
            seed=1,
        )
    ).generate_dataset()
    prefix = dataset.prefix()
    print(f"day 0 (prefix): {len(prefix)} arrivals, {len(prefix.distinct_elements())} unique queries")

    # ------------------------------------------------------------------
    # All three methods are declarative specs under the same 4 KB budget.
    # opt-hash splits the budget between stored IDs and buckets (ratio c of
    # Section 7.3) and trains on day 0 with the bag-of-words featurizer;
    # the Learned CMS gets an ideal oracle over the whole period's top
    # queries, exactly as the paper benchmarks it.
    # ------------------------------------------------------------------
    final_day = NUM_DAYS - 1
    truth = dataset.cumulative_frequencies(final_day)
    opt_hash_options = {
        "ratio": 0.3,
        "lam": 1.0,
        "solver": "dp",
        "solver_options": {"center": "median"},
        "classifier": "rf",
        "classifier_options": {"n_estimators": 10, "max_depth": 12},
    }
    specs = {
        "opt-hash": spec_for_method("opt-hash", MEMORY_KB, opt_hash_options, seed=1),
        "heavy-hitter": spec_for_method(
            "heavy-hitter",
            MEMORY_KB,
            {"depth": 1, "num_heavy_buckets": 200},
            oracle_frequencies=dict(truth.items()),
            seed=1,
        ),
        "count-min": spec_for_method("count-min", MEMORY_KB, {"depth": 2}, seed=1),
    }
    opt_hash = build_estimator(specs["opt-hash"], dataset, vocabulary_size=200)
    learned_cms = build_estimator(specs["heavy-hitter"])
    count_min = build_estimator(specs["count-min"])
    print(
        f"opt-hash: {opt_hash.scheme.num_stored_ids} stored IDs + "
        f"{opt_hash.scheme.num_buckets} buckets ({opt_hash.size_kb:.2f} KB), "
        "classifier = random forest"
    )

    # ------------------------------------------------------------------
    # Stream the remaining days (the baselines also see day 0; opt-hash
    # absorbed it during training).
    # ------------------------------------------------------------------
    count_min.update_many(dataset.days[0])
    learned_cms.update_many(dataset.days[0])
    after_prefix = list(dataset.arrivals_after_prefix(final_day))
    for estimator in (opt_hash, learned_cms, count_min):
        estimator.update_many(after_prefix)

    # ------------------------------------------------------------------
    # Report both error metrics over every query seen during the period,
    # plus a few example queries across the popularity spectrum.
    # ------------------------------------------------------------------
    keys = list(truth.keys())
    opt_hash.scheme.buckets_batch(keys)  # classify every unseen query in one batch

    print(f"\nafter day {final_day} ({truth.total} arrivals, {len(truth)} unique queries):")
    header = f"{'method':>14} | {'avg |error|':>12} | {'expected |error|':>16}"
    print(header)
    print("-" * len(header))
    for name, estimator in (
        ("opt-hash", opt_hash),
        ("heavy-hitter", learned_cms),
        ("count-min", count_min),
    ):
        avg = average_absolute_error(estimator, truth)
        exp = expected_magnitude_error(estimator, truth)
        print(f"{name:>14} | {avg:12.2f} | {exp:16.2f}")

    print("\nper-query estimates (rank, true frequency, opt-hash estimate):")
    ranked = truth.most_common()
    for rank in (1, 10, 100, 1000):
        if rank <= len(ranked):
            key, frequency = ranked[rank - 1]
            estimate = opt_hash.estimate(Element(key=key))
            print(f"  #{rank:<5} {key[:40]:<42} true={frequency:<7} est={estimate:.1f}")

    # ------------------------------------------------------------------
    # Interpretability (paper Section 7.4): the random forest's most
    # important features should be the four text counts plus navigational
    # tokens such as "www"/"com"/"google".  Refitting the featurizer on the
    # same prefix reproduces exactly the vocabulary build_estimator used
    # (the fit is deterministic), which gives us the feature names back.
    # ------------------------------------------------------------------
    classifier = opt_hash.scheme.classifier
    if classifier is not None and hasattr(classifier, "feature_importances_"):
        from repro.ml.text import QueryFeaturizer

        featurizer = QueryFeaturizer(vocabulary_size=200)
        featurizer.fit([element.key for element in prefix.distinct_elements()])
        names = featurizer.feature_names()
        importances = classifier.feature_importances_
        top = sorted(zip(importances, names), reverse=True)[:8]
        print("\nmost important classifier features:")
        for importance, name in top:
            print(f"  {name:<20} {importance:.3f}")


if __name__ == "__main__":
    main()
