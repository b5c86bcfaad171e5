"""Windowed counting under drift: detect, re-optimize, hot-swap.

The paper trains its hashing scheme once, on a prefix, and assumes the
stream keeps looking like that prefix.  This example runs the full
closed loop the temporal subsystem adds when that assumption fails:

1. a **sliding-window sketch** (a ring of mergeable panes over a plain
   CMS) answers "how often *recently*?" — old panes expire exactly,
   unlike an ever-growing flat sketch;
2. a **drift detector** scores each stream segment against the learned
   scheme's training profile (bucket mass shift + within-bucket error
   growth);
3. when the score crosses the threshold, a **re-optimizer** re-runs the
   whole learning phase on the fresh counts and **hot-swaps** the new
   estimator into the live session — queries never stop.

The workload is piecewise-Zipf: at every change-point the rank-to-key
permutation rotates, so yesterday's heavy hitters go cold and the
learned scheme's routing goes stale.  Element features encode the
*initial* rank on purpose — stale features are exactly what the
detector must notice.

Run with::

    python examples/windowed_counting.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.api import SketchSpec, WindowedSpec
from repro.streams.synthetic import DriftingStreamGenerator, DriftingZipfConfig
from repro.temporal import DriftDetector, ReOptimizer


def mean_abs_error(estimates: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(estimates - truth)))


def main() -> None:
    generator = DriftingStreamGenerator(
        DriftingZipfConfig(
            universe_size=300, segment_length=4000, num_segments=4, seed=13
        )
    )
    prefix = generator.generate_prefix()

    # ------------------------------------------------------------------
    # 1. windowed vs flat counting on the raw drifting stream
    # ------------------------------------------------------------------
    cms = SketchSpec("count_min", total_buckets=2048, depth=2, seed=13)
    flat = repro.api.build(cms)
    # two panes + one tick per segment boundary = the window always holds
    # the current segment plus the one before it, nothing older
    windowed = repro.api.build(WindowedSpec(cms, num_panes=2))

    print("windowed vs flat CMS, per segment (MAE on in-segment counts):")
    for segment_index in range(generator.config.num_segments):
        segment = generator.generate_segment(segment_index)
        keys = [element.key for element in segment.arrivals]
        flat.update_batch(keys)
        windowed.update_batch(keys)
        truth = segment.frequencies()
        probe = list(truth)
        true_counts = np.array([truth[key] for key in probe], dtype=float)
        flat_mae = mean_abs_error(flat.estimate_batch(probe), true_counts)
        win_mae = mean_abs_error(windowed.estimate_batch(probe), true_counts)
        print(
            f"  segment {segment_index}: flat MAE {flat_mae:7.2f}   "
            f"windowed MAE {win_mae:7.2f}"
        )
        windowed.tick()  # close the pane at the segment boundary
    print("  (the flat sketch drags every stale segment along; the window expires them)")

    # ------------------------------------------------------------------
    # 2. the learned scheme: drift detection + live re-optimization
    # ------------------------------------------------------------------
    spec = repro.OptHashSpec(
        num_buckets=10, lam=0.5, solver="bcd", classifier="cart", seed=13
    )
    training = repro.api.train(spec, prefix)
    options = repro.Options(prefix=prefix)
    session = repro.open(spec, options=options)
    stale = repro.open(spec, options=options)  # control: never re-optimized
    detector = DriftDetector(training.scheme, training, threshold=0.25)
    reoptimizer = ReOptimizer(spec)

    print("\nlearned scheme under drift (threshold 0.25):")
    for segment_index in range(generator.config.num_segments):
        segment = generator.generate_segment(segment_index)
        session.ingest(segment)
        stale.ingest(segment)
        detector.observe(segment)
        signal = detector.check(reset=True)
        line = (
            f"  segment {segment_index}: drift score {signal.score:5.2f} "
            f"(mass shift {signal.mass_shift:4.2f}, "
            f"error growth {signal.error_growth:4.2f})"
        )
        if signal:
            # Re-run the full learning phase on the counts that tripped the
            # detector and swap the fresh estimator in; the session object
            # (and anyone holding it) never notices beyond better answers.
            observed = {}
            features = {}
            for element in segment.arrivals:
                observed[element.key] = observed.get(element.key, 0) + 1
                features.setdefault(element.key, tuple(element.features))
            reoptimizer.reoptimize(session, observed, features)
            detector = DriftDetector(
                session.estimator.scheme,
                reoptimizer.retrain(observed, features),
                threshold=0.25,
            )
            line += "  -> drifted: retrained + hot-swapped"
        print(line)

    # the swapped-in scheme answers for the freshest segment; the stale
    # control keeps routing by segment-0 ranks
    last = generator.generate_segment(generator.config.num_segments - 1)
    truth = last.frequencies()
    probe = list(last.distinct_elements())[:50]
    true_counts = np.array([truth[e.key] for e in probe], dtype=float)
    swapped = np.array([session.estimator.estimate(e) for e in probe])
    stale_est = np.array([stale.estimator.estimate(e) for e in probe])
    print(
        f"\nMAE on the freshest segment ({len(probe)} distinct keys): "
        f"re-optimized {mean_abs_error(swapped, true_counts):.2f} vs "
        f"stale scheme {mean_abs_error(stale_est, true_counts):.2f}"
    )
    session.close()
    stale.close()


if __name__ == "__main__":
    main()
