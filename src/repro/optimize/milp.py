"""Exact mixed-integer linear reformulation (paper Theorem 1 / Problem (2)).

Problem (1) is a nonlinear binary program; Theorem 1 linearizes it by
introducing, per (element ``i``, element ``k``, bucket ``j``):

* ``e_ij ≥ 0`` — the absolute estimation error of mapping ``i`` to ``j``;
* ``θ_ikj = e_ij · z_kj`` — linearized with a big-M;
* ``δ_ikj = z_ij · z_kj`` — linearized with the standard product constraints.

The resulting MILP has ``O(n²b)`` variables and constraints.  The paper
solves it with Gurobi; this module provides the same model (so Theorem 1 can
be validated mechanically) plus a pure-Python branch-and-bound solver whose
LP relaxations are handled by ``scipy.optimize.linprog`` (HiGHS).  It is
intended for the small instances the paper itself uses the MILP on; the
block coordinate descent remains the scalable solver.  scipy is imported
only where the LP is built and solved, so ``import repro`` and the other
solvers do not need it.

For very small instances :func:`solve_exact_enumeration` finds the global
optimum of Problem (1) by exhaustive search, which the tests use as an
independent ground truth for both the MILP and the dynamic program.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.optimize.bcd import block_coordinate_descent
from repro.optimize.objective import (
    BucketAssignment,
    ObjectiveValue,
    evaluate_assignment,
    pairwise_squared_distances,
    validate_inputs,
)

__all__ = ["MilpModel", "MilpResult", "solve_milp", "solve_exact_enumeration"]


class MilpModel:
    """The Problem (2) model in standard sparse LP form.

    Variable layout (all flattened into one vector, in this order):

    * ``z``     — ``n·b`` binaries (relaxed to [0, 1] in LP relaxations);
    * ``e``     — ``n·b`` non-negative continuous;
    * ``theta`` — ``n·n·b`` non-negative continuous;
    * ``delta`` — ``n·n·b`` continuous in [0, 1].
    """

    def __init__(self, frequencies, features, num_buckets: int, lam: float) -> None:
        frequencies, features, num_buckets, lam = validate_inputs(
            frequencies, features, num_buckets, lam
        )
        self.frequencies = frequencies
        self.features = features
        self.num_buckets = num_buckets
        self.lam = lam
        self.num_elements = len(frequencies)
        self.big_m = float(max(frequencies.max(), 1.0))
        self._distances = (
            pairwise_squared_distances(features)
            if features.shape[1] > 0
            else np.zeros((self.num_elements, self.num_elements))
        )
        self._build()

    # ------------------------------------------------------------------
    # variable indexing
    # ------------------------------------------------------------------
    def z_index(self, i: int, j: int) -> int:
        return i * self.num_buckets + j

    def e_index(self, i: int, j: int) -> int:
        return self.num_z + i * self.num_buckets + j

    def theta_index(self, i: int, k: int, j: int) -> int:
        return (
            self.num_z
            + self.num_e
            + (i * self.num_elements + k) * self.num_buckets
            + j
        )

    def delta_index(self, i: int, k: int, j: int) -> int:
        return (
            self.num_z
            + self.num_e
            + self.num_theta
            + (i * self.num_elements + k) * self.num_buckets
            + j
        )

    @property
    def num_z(self) -> int:
        return self.num_elements * self.num_buckets

    @property
    def num_e(self) -> int:
        return self.num_elements * self.num_buckets

    @property
    def num_theta(self) -> int:
        return self.num_elements * self.num_elements * self.num_buckets

    @property
    def num_delta(self) -> int:
        return self.num_elements * self.num_elements * self.num_buckets

    @property
    def num_variables(self) -> int:
        return self.num_z + self.num_e + self.num_theta + self.num_delta

    # ------------------------------------------------------------------
    # model construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        from scipy import sparse

        n, b, M = self.num_elements, self.num_buckets, self.big_m
        f = self.frequencies

        # Objective: λ Σ_{i,j} θ_iij + (1−λ) Σ_{i,k,j} δ_ikj ‖x_i − x_k‖².
        cost = np.zeros(self.num_variables)
        for i in range(n):
            for j in range(b):
                cost[self.theta_index(i, i, j)] += self.lam
        if self.lam < 1.0:
            for i in range(n):
                for k in range(n):
                    distance = self._distances[i, k]
                    if distance == 0.0:
                        continue
                    for j in range(b):
                        cost[self.delta_index(i, k, j)] += (1.0 - self.lam) * distance
        self.cost = cost

        # Equality constraints: Σ_j z_ij = 1.
        eq_rows, eq_cols, eq_vals = [], [], []
        for i in range(n):
            for j in range(b):
                eq_rows.append(i)
                eq_cols.append(self.z_index(i, j))
                eq_vals.append(1.0)
        self.A_eq = sparse.csr_matrix(
            (eq_vals, (eq_rows, eq_cols)), shape=(n, self.num_variables)
        )
        self.b_eq = np.ones(n)

        # Inequality constraints in A_ub x <= b_ub form.
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        rhs: List[float] = []
        row = 0

        def add_entry(col: int, val: float) -> None:
            rows.append(row)
            cols.append(col)
            vals.append(val)

        for i in range(n):
            for j in range(b):
                # (2a)  f_i Σ_k z_kj − Σ_k f_k z_kj − Σ_k θ_ikj ≤ 0
                for k in range(n):
                    add_entry(self.z_index(k, j), f[i] - f[k])
                    add_entry(self.theta_index(i, k, j), -1.0)
                rhs.append(0.0)
                row += 1
                # (2b)  −f_i Σ_k z_kj + Σ_k f_k z_kj − Σ_k θ_ikj ≤ 0
                for k in range(n):
                    add_entry(self.z_index(k, j), f[k] - f[i])
                    add_entry(self.theta_index(i, k, j), -1.0)
                rhs.append(0.0)
                row += 1

        for i in range(n):
            for k in range(n):
                for j in range(b):
                    theta = self.theta_index(i, k, j)
                    e_var = self.e_index(i, j)
                    z_kj = self.z_index(k, j)
                    z_ij = self.z_index(i, j)
                    delta = self.delta_index(i, k, j)
                    # θ_ikj ≥ e_ij − M(1 − z_kj)  ⇔  e_ij − θ_ikj + M z_kj ≤ M
                    add_entry(e_var, 1.0)
                    add_entry(theta, -1.0)
                    add_entry(z_kj, M)
                    rhs.append(M)
                    row += 1
                    # θ_ikj ≤ e_ij
                    add_entry(theta, 1.0)
                    add_entry(e_var, -1.0)
                    rhs.append(0.0)
                    row += 1
                    # θ_ikj ≤ M z_kj
                    add_entry(theta, 1.0)
                    add_entry(z_kj, -M)
                    rhs.append(0.0)
                    row += 1
                    # δ_ikj ≥ z_ij + z_kj − 1
                    add_entry(z_ij, 1.0)
                    add_entry(z_kj, 1.0)
                    add_entry(delta, -1.0)
                    rhs.append(1.0)
                    row += 1
                    # δ_ikj ≤ z_ij
                    add_entry(delta, 1.0)
                    add_entry(z_ij, -1.0)
                    rhs.append(0.0)
                    row += 1
                    # δ_ikj ≤ z_kj
                    add_entry(delta, 1.0)
                    add_entry(z_kj, -1.0)
                    rhs.append(0.0)
                    row += 1

        self.A_ub = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(row, self.num_variables)
        )
        self.b_ub = np.array(rhs)

        # Variable bounds: z and δ in [0, 1]; e and θ in [0, M·n] (loose).
        upper = np.full(self.num_variables, None, dtype=object)
        lower = np.zeros(self.num_variables)
        for index in range(self.num_z):
            upper[index] = 1.0
        for index in range(self.num_z + self.num_e + self.num_theta, self.num_variables):
            upper[index] = 1.0
        self.default_bounds = [
            (float(lower[index]), None if upper[index] is None else float(upper[index]))
            for index in range(self.num_variables)
        ]

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def objective_of_assignment(self, assignment: BucketAssignment) -> float:
        """Problem (1) objective of an integral assignment (for incumbents)."""
        value = evaluate_assignment(
            self.frequencies, self.features, assignment, self.lam
        )
        return value.overall

    def solve_relaxation(self, fixed: Dict[int, float]):
        """Solve the LP relaxation with some z variables fixed (by index).

        Returns the scipy ``OptimizeResult``.
        """
        from scipy.optimize import linprog

        bounds = list(self.default_bounds)
        for index, value in fixed.items():
            bounds[index] = (value, value)
        return linprog(
            c=self.cost,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            A_eq=self.A_eq,
            b_eq=self.b_eq,
            bounds=bounds,
            method="highs",
        )

    def extract_assignment(self, solution: np.ndarray) -> BucketAssignment:
        """Round the z block of an LP solution to a feasible assignment."""
        z = solution[: self.num_z].reshape(self.num_elements, self.num_buckets)
        return BucketAssignment(labels=z.argmax(axis=1), num_buckets=self.num_buckets)


@dataclass
class MilpResult:
    """Outcome of the branch-and-bound solve."""

    assignment: BucketAssignment
    objective: ObjectiveValue
    lower_bound: float
    num_nodes: int
    status: str
    elapsed_seconds: float
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        upper = self.objective.overall
        if upper <= 0:
            self.gap = 0.0 if self.lower_bound <= upper + 1e-9 else float("inf")
        else:
            self.gap = max(0.0, (upper - self.lower_bound) / upper)


@dataclass(order=True)
class _Node:
    bound: float
    order: int
    fixed: Dict[int, float] = field(compare=False)


def solve_milp(
    frequencies,
    features=None,
    num_buckets: int = 3,
    lam: float = 1.0,
    time_limit: float = 60.0,
    node_limit: int = 2000,
    integrality_tolerance: float = 1e-6,
    gap_tolerance: float = 1e-6,
    warm_start: bool = True,
    random_state: Optional[int] = None,
) -> MilpResult:
    """Solve Problem (2) by LP-based branch-and-bound.

    A BCD warm start provides the initial incumbent (as the paper suggests),
    best-bound node selection drives the search, and branching is on the most
    fractional assignment variable.  Returns the best assignment found along
    with the certified lower bound; ``status`` is ``"optimal"`` when the gap
    closed within the limits, ``"feasible"`` otherwise.
    """
    model = MilpModel(frequencies, features, num_buckets, lam)
    start_time = time.monotonic()

    if warm_start:
        warm = block_coordinate_descent(
            model.frequencies,
            model.features,
            num_buckets=model.num_buckets,
            lam=model.lam,
            random_state=random_state,
        )
        incumbent_assignment = warm.assignment
        incumbent_value = warm.objective.overall
    else:
        incumbent_assignment = BucketAssignment(
            labels=np.zeros(model.num_elements, dtype=int), num_buckets=model.num_buckets
        )
        incumbent_value = model.objective_of_assignment(incumbent_assignment)

    root = model.solve_relaxation({})
    if not root.success:
        raise RuntimeError(f"root LP relaxation failed: {root.message}")

    counter = itertools.count()
    heap: List[_Node] = [_Node(bound=float(root.fun), order=next(counter), fixed={})]
    best_bound = float(root.fun)
    num_nodes = 0
    status = "feasible"

    while heap:
        if time.monotonic() - start_time > time_limit or num_nodes >= node_limit:
            break
        node = heapq.heappop(heap)
        best_bound = node.bound
        if node.bound >= incumbent_value - gap_tolerance * max(1.0, abs(incumbent_value)):
            # Best remaining bound cannot improve the incumbent: optimal.
            best_bound = min(best_bound, incumbent_value)
            status = "optimal"
            break

        relaxation = model.solve_relaxation(node.fixed)
        num_nodes += 1
        if not relaxation.success:
            continue  # infeasible subproblem
        bound = float(relaxation.fun)
        if bound >= incumbent_value - gap_tolerance * max(1.0, abs(incumbent_value)):
            continue

        z_values = relaxation.x[: model.num_z]
        fractional = np.abs(z_values - np.round(z_values))
        most_fractional = int(np.argmax(fractional))
        if fractional[most_fractional] <= integrality_tolerance:
            # Integral z: candidate incumbent.
            assignment = model.extract_assignment(relaxation.x)
            value = model.objective_of_assignment(assignment)
            if value < incumbent_value - 1e-12:
                incumbent_value = value
                incumbent_assignment = assignment
            continue

        for branch_value in (0.0, 1.0):
            fixed = dict(node.fixed)
            fixed[most_fractional] = branch_value
            heapq.heappush(heap, _Node(bound=bound, order=next(counter), fixed=fixed))

    if not heap and status != "optimal":
        # The tree was exhausted: the incumbent is optimal.
        best_bound = incumbent_value
        status = "optimal"

    objective = evaluate_assignment(
        model.frequencies, model.features, incumbent_assignment, model.lam
    )
    return MilpResult(
        assignment=incumbent_assignment,
        objective=objective,
        lower_bound=min(best_bound, objective.overall),
        num_nodes=num_nodes,
        status=status,
        elapsed_seconds=time.monotonic() - start_time,
    )


def solve_exact_enumeration(
    frequencies,
    features=None,
    num_buckets: int = 3,
    lam: float = 1.0,
    max_elements: int = 12,
) -> Tuple[BucketAssignment, float]:
    """Globally optimal assignment by exhaustive enumeration (tiny inputs only).

    Enumerates all ``b^n`` labelings, so it refuses inputs with more than
    ``max_elements`` elements.  Used as the independent ground truth in tests.
    """
    frequencies, features, num_buckets, lam = validate_inputs(
        frequencies, features, num_buckets, lam
    )
    n = len(frequencies)
    if n > max_elements:
        raise ValueError(
            f"exhaustive enumeration limited to {max_elements} elements, got {n}"
        )
    best_assignment: Optional[BucketAssignment] = None
    best_value = float("inf")
    for labels in itertools.product(range(num_buckets), repeat=n):
        assignment = BucketAssignment(labels=np.array(labels), num_buckets=num_buckets)
        value = evaluate_assignment(frequencies, features, assignment, lam).overall
        if value < best_value - 1e-15:
            best_value = value
            best_assignment = assignment
    return best_assignment, best_value
