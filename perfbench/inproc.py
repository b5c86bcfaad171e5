"""The two in-process opt-hash workloads: ``querylog-dp`` and ``synthetic-bcd``.

Both drive the paper's training path and the static estimator through
public entry points only:

1. ``repro.api.train(spec, prefix, options=Options(featurizer=...))`` —
   prefix -> ready estimator (solve + classifier fit + scheme build);
2. ``repro.core.pipeline.replay`` of the post-prefix keys, tiled, through
   the estimator's batch ingest;
3. batch point queries (``estimate_batch``) for every key seen, each pass
   on a freshly built scheme so the classifier's prediction cache is cold.

The spec (bucket budget, solver, classifier, and its seed) is fixed
program configuration; ``--seed`` makes the stream.  The paper's two error
metrics are measured on a fixed reference stream (seed 0), so they repeat
exactly from run to run and any change in them is a change in accuracy.

One untimed warm-up iteration runs first; it also yields the reference
answers that every later query pass must reproduce bit-for-bit.  The
timed window then repeats train / ingest / query iterations so every phase
samples the same stretch of host time, with a calibration sample before
each phase (see ``harness.Calibrator``).
"""

from __future__ import annotations

import collections
import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

import harness
from tracing import Tracer, per_root

#: Seed of the spec (stored-ID sampling, classifier, BCD order): program
#: configuration, the same in every run.
SPEC_SEED = 0
#: Seed of the reference stream the error metrics are measured on.
REFERENCE_SEED = 0
#: Query batches between two calibration samples.
QUERY_SEGMENT_BATCHES = 128


@dataclass
class Scale:
    """Input sizes of one workload (``full`` for measurement, ``tiny`` for
    the self-test)."""

    train_repeats: int
    ingest_pass_arrivals: int
    ingest_passes: int
    query_batch: int
    query_passes: int
    setup_repeats: int
    min_iterations: int
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class Case:
    """Generated inputs of one run (the program sees only these)."""

    spec: object
    prefix: object
    featurizer: Optional[Callable]
    post_keys: np.ndarray
    query_items: list
    query_keys: list
    prefix_counts: Dict[object, int]
    post_counts: Dict[object, int]
    setup_modules: Sequence[str]


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------
QUERYLOG_SCALES = {
    "full": Scale(2, 1_000_000, 2, 32, 1, 3, 3, {"unique": 10_000, "days": 6, "per_day": 20_000, "size_kb": 1.5}),
    "tiny": Scale(1, 20_000, 1, 32, 1, 1, 2, {"unique": 2_000, "days": 3, "per_day": 2_000, "size_kb": 1.5}),
}

SYNTHETIC_SCALES = {
    "full": Scale(2, 1_000_000, 2, 1024, 10, 3, 3, {"groups": 9, "buckets": 32, "lam": 0.5, "sweeps": 5, "restarts": 1}),
    "tiny": Scale(1, 20_000, 1, 128, 1, 1, 2, {"groups": 5, "buckets": 8, "lam": 0.5, "sweeps": 2, "restarts": 1}),
}


def _shuffled(items: list, rng: np.random.Generator) -> list:
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def querylog_case(seed: int, scale: Scale) -> Case:
    """Paper Section 7: a synthetic query log, day 0 as the prefix."""
    from repro.evaluation.querylog_experiments import spec_for_method
    from repro.ml.text import QueryFeaturizer
    from repro.streams.querylog import QueryLogConfig, QueryLogGenerator

    p = scale.params
    dataset = QueryLogGenerator(
        QueryLogConfig(
            num_unique_queries=p["unique"],
            num_days=p["days"],
            arrivals_per_day=p["per_day"],
            seed=seed,
        )
    ).generate_dataset()
    prefix = dataset.prefix()
    model = QueryFeaturizer(vocabulary_size=200)
    model.fit(prefix.distinct_keys())

    def featurize(element) -> np.ndarray:
        return model.transform_one(str(element.key))

    post_keys = np.concatenate([day.key_array() for day in dataset.days[1:]])
    prefix_counts = collections.Counter(prefix.key_array().tolist())
    post_counts = collections.Counter(post_keys.tolist())
    seen = _shuffled(list(dict.fromkeys([*prefix_counts, *post_counts])), np.random.default_rng(seed))
    return Case(
        spec=spec_for_method("opt-hash", p["size_kb"], seed=SPEC_SEED),
        prefix=prefix,
        featurizer=featurize,
        post_keys=post_keys,
        query_items=seen,
        query_keys=seen,
        prefix_counts=prefix_counts,
        post_counts=post_counts,
        setup_modules=("repro.api", "repro.evaluation.querylog_experiments", "repro.ml.text"),
    )


def synthetic_case(seed: int, scale: Scale) -> Case:
    """Paper Section 6: group-structured elements with Gaussian features."""
    from repro.api import OptHashSpec
    from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator

    p = scale.params
    generator = SyntheticGenerator(SyntheticConfig(num_groups=p["groups"], seed=seed))
    prefix, stream = generator.generate_prefix_and_stream()
    post_keys = stream.key_array()
    prefix_counts = collections.Counter(prefix.key_array().tolist())
    post_counts = collections.Counter(post_keys.tolist())
    universe = generator.universe
    seen = _shuffled(list(dict.fromkeys([*prefix_counts, *post_counts])), np.random.default_rng(seed))
    spec = OptHashSpec(
        num_buckets=p["buckets"],
        lam=p["lam"],
        solver="bcd",
        solver_options={"max_iterations": p["sweeps"], "num_restarts": p["restarts"]},
        classifier="cart",
        seed=SPEC_SEED,
    )
    return Case(
        spec=spec,
        prefix=prefix,
        featurizer=None,
        post_keys=post_keys,
        query_items=[universe[key] for key in seen],
        query_keys=seen,
        prefix_counts=prefix_counts,
        post_counts=post_counts,
        setup_modules=("repro.api", "repro.streams.synthetic"),
    )


def reference_errors(case: Case) -> Dict[str, float]:
    """The paper's two error metrics: train on the prefix, replay the rest
    of the stream once, query every key seen against exact counts."""
    from repro.api import Options, train
    from repro.core.pipeline import replay
    from repro.evaluation.metrics import errors_over_elements

    estimator = train(case.spec, case.prefix, options=Options(featurizer=case.featurizer)).estimator
    replay(estimator, case.post_keys)
    estimates = estimator.estimate_batch(case.query_items)
    truth = collections.Counter(case.prefix_counts)
    truth.update(case.post_counts)
    average, expected = errors_over_elements(
        dict(truth), dict(zip(case.query_keys, estimates.tolist()))
    )
    return {"avg_abs_error": average, "expected_abs_error": expected}


# ----------------------------------------------------------------------
# tracing hooks
# ----------------------------------------------------------------------
class _TracedClassifier:
    """Proxy timing ``predict`` of a fitted classifier during queries."""

    def __init__(self, classifier, tracer: Tracer) -> None:
        self.predict = tracer.wrap("ml.predict", classifier.predict)


def _install_hooks(tracer: Tracer) -> None:
    import repro.core.pipeline as pipeline
    import repro.optimize.dp as dp
    from repro.core.estimator import OptHashEstimator
    from repro.core.scheme import OptHashScheme
    from repro.optimize.bucket_stats import BucketStats

    def traced_make_classifier(make_classifier):
        def make(*args, **kwargs):
            classifier = make_classifier(*args, **kwargs)
            classifier.fit = tracer.wrap("ml.fit", classifier.fit)
            return classifier

        return make

    tracer.patch(pipeline, "learn_hashing_scheme", "optimize.solve")
    tracer.replace(pipeline, "make_classifier", traced_make_classifier)
    tracer.count(dp.SegmentCost, "__call__", "dp.cost_evals")
    tracer.count(dp, "smawk_row_minima", "dp.layers")
    tracer.count(BucketStats, "__init__", "bcd.runs")
    tracer.count(BucketStats, "total_error", "bcd.total_error")
    tracer.count(BucketStats, "marginal_cost", "bcd.marginal_cost")
    tracer.patch(OptHashEstimator, "update_batch", "core.update_batch")
    tracer.patch(OptHashScheme, "precompute", "core.query.precompute")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class _Samples:
    """Timings of one kind of iteration (traced or not), each paired with
    the host speed measured around its phase (``_Run.calibrate``)."""

    def __init__(self) -> None:
        self.train, self.ingest, self.query = [], [], []  # (seconds | [ms], calibration)


class _Run:
    def __init__(self, case: Case, scale: Scale, tracer: Optional[Tracer]) -> None:
        from repro.api import Options, train
        from repro.core.estimator import OptHashEstimator
        from repro.core.pipeline import replay
        from repro.core.scheme import OptHashScheme, default_featurizer

        self._train, self._options = train, Options
        self._estimator_cls, self._scheme_cls = OptHashEstimator, OptHashScheme
        self._replay = replay
        self.case, self.scale, self.tracer = case, scale, tracer
        self.featurizer = case.featurizer or default_featurizer
        self.tiles = max(1, scale.ingest_pass_arrivals // len(case.post_keys))
        self.ingest_keys = np.concatenate([case.post_keys] * self.tiles)
        self.calibrator = harness.Calibrator()
        self.last_calibration = 0.0
        self.samples = {False: _Samples(), True: _Samples()}
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[str, object] = {}

    def calibrate(self) -> float:
        """Host speed around the phase that just ended: the mean of the
        calibration samples taken before and after it."""
        before, self.last_calibration = self.last_calibration, self.calibrator.sample()
        return (before + self.last_calibration) / 2

    def _span(self, name: str, traced: bool):
        return self.tracer.span(name) if traced else contextlib.nullcontext()

    # phases -------------------------------------------------------------
    def train(self, traced: bool):
        featurizer = self.case.featurizer
        if traced:
            featurizer = self.tracer.wrap("ml.featurize", self.featurizer)
        options = self._options(featurizer=featurizer)
        start = time.perf_counter()
        with self._span("train", traced):
            result = self._train(self.case.spec, self.case.prefix, options=options)
        seconds = time.perf_counter() - start
        self.attempted += 1
        return result, seconds

    def ingest(self, estimator, traced: bool) -> float:
        start = time.perf_counter()
        with self._span("ingest", traced):
            self._replay(estimator, self.ingest_keys)
        seconds = time.perf_counter() - start
        self.attempted += 1
        return seconds

    def fresh_estimator(self, result, traced: bool):
        """A prefix-seeded estimator over a new scheme: cold prediction cache."""
        classifier = result.classifier
        featurizer = self.featurizer
        if traced and classifier is not None:
            classifier = _TracedClassifier(classifier, self.tracer)
            featurizer = self.tracer.wrap("ml.featurize", featurizer)
        scheme = self._scheme_cls(
            num_buckets=result.scheme.num_buckets,
            key_to_bucket=result.scheme.key_to_bucket,
            classifier=classifier,
            featurizer=featurizer,
        )
        initial = {
            key: float(freq)
            for key, freq in zip(result.stored_keys, result.stored_frequencies)
        }
        return self._estimator_cls(scheme, initial_frequencies=initial)

    def query(self, estimator, traced: bool):
        """One pass over every key seen, in segments of batches; returns
        ``[(latencies_ms, calibration)]`` per segment and the answers."""
        items = self.case.query_items
        size = self.scale.query_batch
        step = size * QUERY_SEGMENT_BATCHES
        segments, answers = [], []
        with self._span("query", traced):
            for first in range(0, len(items), step):
                latencies = []
                for start in range(first, min(first + step, len(items)), size):
                    batch = items[start : start + size]
                    began = time.perf_counter()
                    answers.append(estimator.estimate_batch(batch))
                    latencies.append((time.perf_counter() - began) * 1e3)
                self.attempted += len(latencies)
                segments.append((latencies, self.calibrate()))
        return segments, np.concatenate(answers)

    # checks -------------------------------------------------------------
    def fingerprint(self, result) -> tuple:
        """Exact outputs of one training run (must repeat bit-for-bit)."""
        table = result.scheme.key_to_bucket
        return (
            result.solver_result.objective.overall,
            tuple(sorted((repr(k), b) for k, b in table.items())),
        )

    def check(self, ok: bool) -> None:
        if not ok:
            self.failed += 1

    def expected_total(self, table, ingest_passes: int) -> float:
        """Σ bucket totals = seeded prefix mass + post-prefix arrivals of
        stored keys (the static estimator ignores every other arrival)."""
        prefix_mass = sum(self.case.prefix_counts[key] for key in table)
        hits = sum(self.case.post_counts.get(key, 0) for key in table)
        return float(prefix_mass + ingest_passes * self.tiles * hits)

    # iterations ---------------------------------------------------------
    def warm_up(self) -> None:
        """Untimed first iteration: warms every phase, records the fences."""
        result, _ = self.train(traced=False)
        estimator = result.estimator
        self.ingest(estimator, traced=False)
        table = result.scheme.key_to_bucket
        self.check(estimator.bucket_totals.sum() == self.expected_total(table, 1))
        self.last_calibration = self.calibrator.sample()
        _, answers = self.query(self.fresh_estimator(result, False), traced=False)
        stored = set(table)
        self.reference = {
            "fingerprint": self.fingerprint(result),
            "answers": answers,
            "hit_ratio": sum(self.case.post_counts.get(k, 0) for k in stored)
            / len(self.case.post_keys),
            "unseen_ratio": sum(k not in stored for k in self.case.query_keys)
            / len(self.case.query_keys),
            "objective": result.solver_result.objective.overall,
            "dp_method": getattr(result.solver_result.details, "method", None),
            "stored_ids": len(stored),
        }

    def iteration(self, traced: bool) -> None:
        samples = self.samples[traced]
        for _ in range(self.scale.train_repeats):
            result, seconds = self.train(traced)
            samples.train.append((seconds, self.calibrate()))
            self.check(self.fingerprint(result) == self.reference["fingerprint"])
        estimator = result.estimator
        table = result.scheme.key_to_bucket
        for done in range(1, self.scale.ingest_passes + 1):
            seconds = self.ingest(estimator, traced)
            samples.ingest.append((seconds, self.calibrate()))
            self.check(estimator.bucket_totals.sum() == self.expected_total(table, done))
        for _ in range(self.scale.query_passes):
            segments, answers = self.query(self.fresh_estimator(result, traced), traced)
            samples.query.extend(segments)
            self.check(np.array_equal(answers, self.reference["answers"]))


def _end_to_end(samples: _Samples, arrivals_per_pass: int, scale) -> Dict[str, float]:
    """Per-run values of the timed phases: medians of the samples, each
    first multiplied by ``scale(its calibration)``."""
    return {
        "train_s": harness.median([s * scale(c) for s, c in samples.train]),
        "ingest_eps": arrivals_per_pass
        / harness.median([s * scale(c) for s, c in samples.ingest]),
        "query_p50_ms": harness.median([harness.median(ms) * scale(c) for ms, c in samples.query]),
        "query_p90_ms": harness.quantile(
            [m * scale(c) for ms, c in samples.query for m in ms], 0.90
        ),
    }


def _per_layer(run: _Run, tracer: Tracer, traced_e2e, untraced_e2e, ref_dp) -> Dict[str, float]:
    trains = max(1, len(tracer.roots("train")))
    counts = tracer.counts
    reference = run.reference
    values = {name: 0.0 for name in harness.PER_LAYER}
    values.update(
        {
            "ml.featurize_s": harness.median(per_root(tracer, "train", "ml.featurize")),
            "ml.fit_s": harness.median(per_root(tracer, "train", "ml.fit")),
            "optimize.solve_s": harness.median(per_root(tracer, "train", "optimize.solve")),
            "core.train_rest_s": harness.median(
                [tracer.self_seconds(i) for i in tracer.roots("train")]
            ),
            "ml.predict_s": harness.median(per_root(tracer, "query", "ml.predict")),
            "ml.featurize_query_s": harness.median(per_root(tracer, "query", "ml.featurize")),
            "core.query.precompute_s": harness.median(
                per_root(tracer, "query", "core.query.precompute")
            ),
            "core.ingest_s": harness.median(per_root(tracer, "ingest", "core.update_batch")),
            "optimize.dp.method.smawk": float(reference["dp_method"] == "smawk"),
            "optimize.dp.layers": counts["dp.layers"] / trains,
            "optimize.dp.cost_evals": counts["dp.cost_evals"] / trains,
            "optimize.bcd.restarts": counts["bcd.runs"] / trains,
            "optimize.bcd.sweeps": (counts["bcd.total_error"] - counts["bcd.runs"]) / trains,
            "optimize.bcd.marginal_cost_calls": counts["bcd.marginal_cost"] / trains,
            "optimize.objective": reference["objective"],
            "core.ingest.hit_ratio": reference["hit_ratio"],
            "core.query.unseen_ratio": reference["unseen_ratio"],
            "query.p99_ms": harness.quantile(
                [m * harness.calibration_scale(c) for ms, c in run.samples[False].query for m in ms],
                0.99,
            ),
            "host.ref_dp_s.before": ref_dp[0],
            "host.ref_dp_s.after": ref_dp[1],
        }
    )
    for metric in ("train_s", "ingest_eps", "query_p50_ms"):
        values[f"trace.overhead.{metric}"] = traced_e2e[metric] - untraced_e2e[metric]
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale_name: str) -> dict:
    """Run one in-process workload and return what ``harness.emit`` needs."""
    scales = QUERYLOG_SCALES if name == "querylog-dp" else SYNTHETIC_SCALES
    make_case = querylog_case if name == "querylog-dp" else synthetic_case
    scale = scales[scale_name]
    backend = harness.build_kernels()
    errors = reference_errors(make_case(REFERENCE_SEED, scale))
    case = make_case(seed, scale)
    tracer = Tracer() if trace else None
    run = _Run(case, scale, tracer)
    harness.freeze_inputs()
    setup = harness.import_setup_seconds(case.setup_modules, scale.setup_repeats, run.calibrator)
    ref_before = harness.reference_dp_seconds()
    run.warm_up()

    deadline = time.perf_counter() + seconds
    iteration = 0
    while iteration < scale.min_iterations or time.perf_counter() < deadline:
        traced = trace and iteration % 2 == 0
        if traced:
            _install_hooks(tracer)
        try:
            run.iteration(traced)
        finally:
            if traced:
                tracer.restore()
        iteration += 1
    ref_after = harness.reference_dp_seconds()

    arrivals = len(run.ingest_keys)
    untraced = _end_to_end(run.samples[False], arrivals, harness.calibration_scale)
    values = {
        "setup_s": harness.normalized_median(setup),
        **untraced,
        **errors,
        "peak_rss_mb": harness.self_peak_rss_mb(),
    }
    catalogue = harness.END_TO_END
    if trace:
        traced = _end_to_end(run.samples[True], arrivals, harness.calibration_scale)
        values = _per_layer(run, tracer, traced, untraced, (ref_before, ref_after))
        catalogue = harness.PER_LAYER
    reference = run.reference
    diagnostics = {
        "workload": name,
        "seed": seed,
        "iterations": iteration,
        "host": harness.host_fingerprint(backend),
        "host.ref_dp_s": [ref_before, ref_after],
        "calibration_s": harness.median(run.calibrator.samples),
        "raw": _end_to_end(run.samples[False], arrivals, harness.unscaled),
        "fence": {
            **errors,
            "objective": reference["objective"],
            "dp_method": reference["dp_method"],
            "stored_ids": reference["stored_ids"],
            "hit_ratio": reference["hit_ratio"],
            "unseen_ratio": reference["unseen_ratio"],
        },
    }
    if trace:
        diagnostics["fence"]["per_train_counts"] = {
            key: value / max(1, len(tracer.roots("train"))) for key, value in tracer.counts.items()
        }
        diagnostics["trace_violations"] = tracer.nesting_violations()[:5]
    return {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "values": values,
        "catalogue": catalogue,
        "diagnostics": diagnostics,
    }
