"""repro — Learning the Optimal Hashing Scheme for streaming frequency estimation.

A from-scratch reproduction of Bertsimas & Digalakis Jr., *"Frequency
Estimation in Data Streams: Learning the Optimal Hashing Scheme"* (ICDE 2022
extended abstract / IEEE TKDE full version).

The library is organized as:

* :mod:`repro.streams` — stream model and workload generators (synthetic
  group-structured streams, an AOL-like query log);
* :mod:`repro.sketches` — conventional random-hashing baselines (Count-Min
  Sketch, Count Sketch, Learned CMS) and the Bloom filter substrate;
* :mod:`repro.ml` — classifiers (logistic regression, CART, random forest),
  model selection, and query-text featurization;
* :mod:`repro.optimize` — the hashing-scheme optimizers (MILP, block
  coordinate descent, dynamic programming);
* :mod:`repro.core` — the opt-hash estimator assembled from the above;
* :mod:`repro.api` — the declarative layer: estimator specs, the build
  registry, and the Session facade (ingest / estimate / merge / snapshot);
* :mod:`repro.temporal` — sliding-window / time-decayed estimators over any
  mergeable base, drift detection for the learned scheme, and online
  re-optimization (retrain + hot-swap into a live session or service);
* :mod:`repro.evaluation` — error metrics and the runners regenerating every
  figure and table of the paper's evaluation.

Quickstart (the declarative API)::

    import repro
    from repro.streams import SyntheticConfig, SyntheticGenerator

    generator = SyntheticGenerator(SyntheticConfig(num_groups=6, seed=0))
    prefix, stream = generator.generate_prefix_and_stream()
    spec = repro.OptHashSpec(num_buckets=10, lam=0.5, solver="bcd",
                             classifier="cart", seed=0)
    with repro.open(spec, options=repro.Options(prefix=prefix)) as session:
        session.ingest(stream)
        print(session.estimate_key(stream[0].key))
"""

from repro import errors
from repro.errors import KernelError, ReproError
from repro.core import (
    AdaptiveOptHashEstimator,
    OptHashEstimator,
    OptHashScheme,
    TrainingResult,
    train_opt_hash,
)
from repro import api
from repro import kernels
from repro.api import (
    EstimatorSpec,
    Options,
    OptHashSpec,
    Session,
    ShardedSpec,
    SketchSpec,
    SpecError,
    WindowedSpec,
    build,
    load,
    open,
    restore,
    train,
)
from repro.temporal import (
    DecayedSketch,
    DriftDetector,
    ReOptimizer,
    SlidingWindowSketch,
)
from repro.optimize import (
    BucketAssignment,
    block_coordinate_descent,
    dynamic_programming,
    learn_hashing_scheme,
    solve_milp,
)
from repro.sketches import (
    BloomFilter,
    CountMinSketch,
    CountSketch,
    FrequencyEstimator,
    LearnedCountMinSketch,
)
from repro.streams import Element, Stream, StreamPrefix

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "api",
    "errors",
    "kernels",
    "ReproError",
    "KernelError",
    "Options",
    "SpecError",
    "EstimatorSpec",
    "SketchSpec",
    "OptHashSpec",
    "ShardedSpec",
    "WindowedSpec",
    "Session",
    "SlidingWindowSketch",
    "DecayedSketch",
    "DriftDetector",
    "ReOptimizer",
    "build",
    "load",
    "open",
    "restore",
    "train",
    "AdaptiveOptHashEstimator",
    "OptHashEstimator",
    "OptHashScheme",
    "TrainingResult",
    "train_opt_hash",
    "BucketAssignment",
    "block_coordinate_descent",
    "dynamic_programming",
    "learn_hashing_scheme",
    "solve_milp",
    "BloomFilter",
    "CountMinSketch",
    "CountSketch",
    "FrequencyEstimator",
    "LearnedCountMinSketch",
    "Element",
    "Stream",
    "StreamPrefix",
]
