"""Design-choice ablations (beyond the paper's figures).

DESIGN.md calls out three design choices worth quantifying:

* the initialization strategy of the block coordinate descent (random vs
  sorted vs heavy-hitter vs dp warm start, Section 4.3/4.4);
* conservative-update vs vanilla Count-Min Sketch as the random baseline;
* the static opt-hash estimator vs the adaptive (Bloom-filter) extension of
  Section 5.3 on streams with many unseen elements.
"""

import numpy as np

from conftest import save_result
from repro.api.specs import OptHashSpec
from repro.core.pipeline import train_opt_hash
from repro.evaluation.metrics import average_absolute_error
from repro.evaluation.results import ExperimentResult
from repro.optimize.bcd import block_coordinate_descent
from repro.sketches.count_min import CountMinSketch
from repro.streams.stream import Element
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


def _bcd_initialization_ablation() -> ExperimentResult:
    result = ExperimentResult(
        name="Ablation: BCD initialization strategies (lambda = 0.5, G = 8)",
        x_label="strategy_index",
    )
    generator = SyntheticGenerator(SyntheticConfig(num_groups=8, fraction_seen=0.5, seed=1))
    prefix = generator.generate_prefix()
    _, features, frequencies = prefix.training_arrays()
    strategies = ("random", "sorted", "heavy_hitter", "dp")
    for index, strategy in enumerate(strategies):
        overall_values = []
        iteration_counts = []
        for seed in range(3):
            run = block_coordinate_descent(
                frequencies,
                features,
                num_buckets=10,
                lam=0.5,
                initialization=strategy,
                random_state=seed,
            )
            overall_values.append(run.objective.overall)
            iteration_counts.append(run.iterations)
        result.add_point("overall_error", strategy, index, overall_values)
        result.add_point("iterations_to_converge", strategy, index, iteration_counts)
    result.metadata["strategies"] = list(strategies)
    return result


def _conservative_cms_ablation() -> ExperimentResult:
    result = ExperimentResult(
        name="Ablation: vanilla vs conservative-update Count-Min Sketch",
        x_label="total_buckets",
    )
    generator = SyntheticGenerator(SyntheticConfig(num_groups=8, fraction_seen=1.0, seed=2))
    stream = generator.generate_stream(20_000)
    truth = stream.frequencies()
    lookup = {element.key: element for element in generator.universe}
    for total_buckets in (64, 256, 1024):
        errors = {"vanilla": [], "conservative": []}
        for seed in range(2):
            for name, conservative in (("vanilla", False), ("conservative", True)):
                sketch = CountMinSketch.from_total_buckets(
                    total_buckets, depth=2, seed=seed, conservative=conservative
                )
                sketch.update_many(stream)
                errors[name].append(
                    average_absolute_error(sketch, truth, element_lookup=lookup)
                )
        for name in errors:
            result.add_point("average_error", name, total_buckets, errors[name])
    return result


def _adaptive_vs_static_ablation() -> ExperimentResult:
    result = ExperimentResult(
        name="Ablation: static opt-hash vs adaptive (Bloom filter) extension",
        x_label="fraction_seen",
    )
    for fraction in (0.2, 0.5):
        static_errors, adaptive_errors = [], []
        for seed in range(2):
            generator = SyntheticGenerator(
                SyntheticConfig(num_groups=6, fraction_seen=fraction, seed=seed)
            )
            prefix, stream = generator.generate_prefix_and_stream(stream_multiplier=5)
            base_config = dict(num_buckets=10, lam=0.5, solver="bcd", seed=seed)
            static = train_opt_hash(prefix, OptHashSpec(**base_config)).estimator
            adaptive = train_opt_hash(
                prefix,
                OptHashSpec(adaptive=True, expected_distinct=5000, **base_config),
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
            truth = stream.frequencies()
            static_errors.append(
                float(np.mean([abs(static.estimate(e) - truth[e.key]) for e in unseen]))
            )
            adaptive_errors.append(
                float(np.mean([abs(adaptive.estimate(e) - truth[e.key]) for e in unseen]))
            )
        result.add_point("unseen_average_error", "static", fraction, static_errors)
        result.add_point("unseen_average_error", "adaptive", fraction, adaptive_errors)
    return result


def test_ablation_bcd_initialization(benchmark):
    result = benchmark.pedantic(_bcd_initialization_ablation, rounds=1, iterations=1)
    save_result("ablation_bcd_initialization", result.render())
    overall = result.metrics["overall_error"]
    # Every strategy reaches a sensible local optimum; the dp warm start is
    # never the worst option.
    means = {name: series[0].mean for name, series in overall.items()}
    assert means["dp"] <= max(means.values()) + 1e-6
    assert all(value > 0 for value in means.values())


def test_ablation_conservative_count_min(benchmark):
    result = benchmark.pedantic(_conservative_cms_ablation, rounds=1, iterations=1)
    save_result("ablation_conservative_cms", result.render())
    average = result.metrics["average_error"]
    for index in range(3):
        # Conservative update never hurts the average error.
        assert average["conservative"][index].mean <= average["vanilla"][index].mean + 1e-9


def test_ablation_adaptive_vs_static(benchmark):
    result = benchmark.pedantic(_adaptive_vs_static_ablation, rounds=1, iterations=1)
    save_result("ablation_adaptive_vs_static", result.render())
    series = result.metrics["unseen_average_error"]
    # When most elements are unseen in the prefix (fraction 0.2), actually
    # counting them (adaptive) is at least competitive with the static scheme.
    assert series["adaptive"][0].mean <= series["static"][0].mean * 1.5 + 5.0
