"""Comparing the three hashing-scheme solvers on one problem instance.

The learning phase can use three solvers (paper Section 4): the exact MILP
reformulation, the block coordinate descent heuristic, and (for λ = 1) the
dynamic program.  In the declarative API the solver is just a field of the
:class:`~repro.api.specs.OptHashSpec`, so the comparison is a spec grid:
three specs differing only in ``solver``, trained with
:func:`repro.api.train` on the same small synthetic prefix — small enough
(12 stored IDs) for the branch-and-bound MILP to certify optimality.  The
exhaustive-enumeration optimum over the same stored instance is reported as
ground truth.  The MILP's LP relaxations need scipy; without it the MILP
row is skipped.

Run with::

    python examples/solver_comparison.py
"""

from __future__ import annotations

import time

import repro.api as api
from repro.optimize import evaluate_assignment, solve_exact_enumeration
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator

LAM = 0.5
NUM_BUCKETS = 3
NUM_ELEMENTS = 12


def main() -> None:
    generator = SyntheticGenerator(
        SyntheticConfig(num_groups=4, fraction_seen=0.5, seed=2)
    )
    prefix = generator.generate_prefix(400)

    try:
        import scipy  # noqa: F401

        have_scipy = True
    except ImportError:
        have_scipy = False
    solvers = [("dp", {}), ("bcd", {"num_restarts": 3})]
    if have_scipy:
        solvers.append(("milp", {"time_limit": 30.0}))

    # The spec grid: one OptHashSpec per solver, identical otherwise.  The
    # shared seed makes every spec sample the same 12 stored elements, so
    # all solvers (and the enumeration) see one problem instance.
    grid = [
        api.OptHashSpec(
            num_buckets=NUM_BUCKETS,
            lam=LAM,
            solver=solver,
            solver_options=options,
            classifier=None,
            max_stored_elements=NUM_ELEMENTS,
            seed=0,
        )
        for solver, options in solvers
    ]

    header = f"{'solver':>12} | {'estimation':>10} | {'similarity':>10} | {'overall':>9} | {'time (s)':>8}"
    first_training = None
    for spec in grid:
        start = time.monotonic()
        training = api.train(spec, prefix)
        elapsed = time.monotonic() - start
        if first_training is None:
            first_training = training
            print(
                f"instance: {NUM_ELEMENTS} elements -> {NUM_BUCKETS} buckets, "
                f"lambda = {LAM}\n"
                f"frequencies: {training.stored_frequencies.astype(int).tolist()}\n"
            )
            print(header)
            print("-" * len(header))
        objective = training.solver_result.objective
        print(
            f"{spec.solver:>12} | {objective.estimation:10.2f} | {objective.similarity:10.2f} "
            f"| {objective.overall:9.2f} | {elapsed:8.2f}"
        )

    frequencies = first_training.stored_frequencies
    features = first_training.stored_features
    start = time.monotonic()
    best_assignment, best_value = solve_exact_enumeration(
        frequencies, features, NUM_BUCKETS, LAM
    )
    elapsed = time.monotonic() - start
    exact = evaluate_assignment(frequencies, features, best_assignment, LAM)
    print(
        f"{'enumeration':>12} | {exact.estimation:10.2f} | {exact.similarity:10.2f} "
        f"| {best_value:9.2f} | {elapsed:8.2f}"
    )
    milp_note = (
        "the MILP matches the enumeration optimum"
        if have_scipy
        else "scipy is not installed, so the MILP was skipped"
    )
    print(f"\n({milp_note}; dp ignores the similarity term)")


if __name__ == "__main__":
    main()
