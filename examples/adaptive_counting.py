"""Adaptive counting: tracking elements that never appeared in the prefix.

The static opt-hash estimator only updates its counters for elements seen in
the training prefix; anything else is answered from the prefix statistics of
the bucket the classifier picks.  The adaptive extension (paper Section 5.3)
adds a Bloom filter so that *every* arrival updates its bucket and first-time
arrivals also grow the bucket's element count.

Both variants are one flag apart in the declarative API: the same
:class:`~repro.api.specs.OptHashSpec` with ``adaptive=True`` builds the
Bloom-filter extension.  This example opens both on a workload where only
20% of each element group may appear in the prefix, streams ten times the
prefix length, and compares the error on the elements the prefix never saw.

Run with::

    python examples/adaptive_counting.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


def main() -> None:
    generator = SyntheticGenerator(
        SyntheticConfig(num_groups=6, fraction_seen=0.2, seed=4)
    )
    prefix, stream = generator.generate_prefix_and_stream(stream_multiplier=10)
    print(
        f"prefix: {len(prefix)} arrivals over {len(prefix.distinct_elements())} elements; "
        f"stream: {len(stream)} arrivals over {len(stream.distinct_elements())} elements"
    )

    base = dict(num_buckets=12, lam=0.5, solver="bcd", classifier="cart", seed=4)
    options = repro.Options(prefix=prefix)
    static = repro.open(repro.OptHashSpec(**base), options=options)
    adaptive = repro.open(
        repro.OptHashSpec(
            adaptive=True, expected_distinct=10_000, bloom_bits=40_000, **base
        ),
        options=options,
    )

    static.ingest(stream)
    adaptive.ingest(stream)

    truth = stream.frequencies()
    prefix_keys = set(prefix.distinct_keys())
    seen = [e for e in stream.distinct_elements() if e.key in prefix_keys]
    unseen = [e for e in stream.distinct_elements() if e.key not in prefix_keys]

    def mean_error(session, elements):
        return float(
            np.mean([abs(session.estimator.estimate(e) - truth[e.key]) for e in elements])
        )

    print(f"\nelements seen in the prefix ({len(seen)}):")
    print(f"  static   mean |error| = {mean_error(static, seen):8.2f}")
    print(f"  adaptive mean |error| = {mean_error(adaptive, seen):8.2f}")
    print(f"elements unseen in the prefix ({len(unseen)}):")
    print(f"  static   mean |error| = {mean_error(static, unseen):8.2f}")
    print(f"  adaptive mean |error| = {mean_error(adaptive, unseen):8.2f}")
    bloom = adaptive.estimator.bloom_filter
    print(
        f"\nmemory: static = {static.size_bytes / 1000:.2f} KB, "
        f"adaptive = {adaptive.size_bytes / 1000:.2f} KB "
        f"(includes a {bloom.num_bits}-bit Bloom filter, "
        f"~{bloom.estimated_false_positive_rate():.2%} false-positive rate)"
    )
    print(f"\nadaptive session describe(): {adaptive.describe()['kind']}")


if __name__ == "__main__":
    main()
