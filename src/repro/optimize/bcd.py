"""Block coordinate descent (paper Algorithm 1).

Each outer iteration sweeps over the elements in a fresh random order; for
every element the algorithm removes it from its current bucket, evaluates the
marginal cost of placing it into every bucket (estimation plus similarity
terms, maintained incrementally by :class:`~repro.optimize.bucket_stats.BucketStats`
and scored for all ``b`` buckets in one O(n) vector pass), and greedily
re-inserts it into the cheapest one.  The sweep repeats until
the improvement of the overall objective falls below a tolerance or the
iteration budget is exhausted.

The algorithm converges to a local optimum; the paper recommends (and
:func:`block_coordinate_descent` supports) restarting it from several random
initializations and keeping the best solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.optimize.bucket_stats import BucketStats
from repro.optimize.initialization import initialize_assignment
from repro.optimize.objective import (
    BucketAssignment,
    ObjectiveValue,
    evaluate_assignment,
    validate_inputs,
)

__all__ = ["BcdResult", "block_coordinate_descent"]


@dataclass
class BcdResult:
    """Outcome of a block coordinate descent run.

    Attributes
    ----------
    assignment:
        The learned assignment of elements to buckets.
    objective:
        Final estimation / similarity / overall errors.
    iterations:
        Number of completed outer sweeps.
    converged:
        True if the improvement criterion (rather than the iteration budget)
        terminated the run.
    history:
        Overall objective value after the initialization and after each sweep.
    num_restarts:
        How many random restarts contributed to this result.
    """

    assignment: BucketAssignment
    objective: ObjectiveValue
    iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)
    num_restarts: int = 1


def _single_run(
    frequencies: np.ndarray,
    features: np.ndarray,
    lam: float,
    initial: BucketAssignment,
    max_iterations: int,
    tolerance: float,
    rng: np.random.Generator,
) -> BcdResult:
    """One BCD run from a given initial assignment."""
    stats = BucketStats(frequencies, features, initial)
    num_elements = len(frequencies)
    history = [stats.total_error(lam)]
    converged = False
    iterations = 0

    for _ in range(max_iterations):
        permutation = rng.permutation(num_elements)
        for element in permutation:
            element = int(element)
            stats.remove(element)
            # argmin breaks ties towards the leftmost bucket.
            stats.add(element, int(stats.marginal_cost(element, lam).argmin()))
        iterations += 1
        current = stats.total_error(lam)
        history.append(current)
        if history[-2] - current < tolerance:
            converged = True
            break

    assignment = stats.to_assignment()
    objective = evaluate_assignment(frequencies, features, assignment, lam)
    return BcdResult(
        assignment=assignment,
        objective=objective,
        iterations=iterations,
        converged=converged,
        history=history,
    )


def block_coordinate_descent(
    frequencies,
    features=None,
    num_buckets: int = 10,
    lam: float = 1.0,
    max_iterations: int = 50,
    tolerance: float = 1e-9,
    initialization: str = "random",
    num_restarts: int = 1,
    initial_assignment: Optional[BucketAssignment] = None,
    random_state: Optional[int] = None,
) -> BcdResult:
    """Run Algorithm 1, optionally from multiple random restarts.

    Parameters
    ----------
    frequencies:
        Observed prefix frequencies ``f0`` of the ``n`` distinct elements.
    features:
        ``(n, p)`` feature matrix; ``None`` (or ``p = 0``) disables the
        similarity term regardless of ``lam``.
    num_buckets:
        Bucket budget ``b``.
    lam:
        Trade-off weight λ between estimation and similarity errors.
    max_iterations:
        Maximum number of outer sweeps per restart.
    tolerance:
        Stop when one sweep improves the objective by less than this.
    initialization:
        Strategy used when ``initial_assignment`` is not given: ``"random"``,
        ``"sorted"``, ``"heavy_hitter"`` or ``"dp"``.
    num_restarts:
        Number of independent runs (with fresh random initializations for
        ``"random"``); the best result is returned.
    initial_assignment:
        Explicit starting assignment, overriding ``initialization``.
    random_state:
        Seed controlling the sweep order and random initializations.

    Returns
    -------
    BcdResult
        The best run found across restarts.
    """
    frequencies, features, num_buckets, lam = validate_inputs(
        frequencies, features, num_buckets, lam
    )
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    if num_restarts <= 0:
        raise ValueError("num_restarts must be positive")
    rng = np.random.default_rng(random_state)

    best: Optional[BcdResult] = None
    for _ in range(num_restarts):
        if initial_assignment is not None:
            initial = initial_assignment.copy()
        else:
            initial = initialize_assignment(
                frequencies, num_buckets, strategy=initialization, rng=rng
            )
        result = _single_run(
            frequencies,
            features,
            lam,
            initial,
            max_iterations,
            tolerance,
            rng,
        )
        if best is None or result.objective.overall < best.objective.overall:
            best = result
    best.num_restarts = num_restarts
    return best
