"""Classical power-grid solver comparison (background of Sec. 2 / refs [5-9]).

The paper motivates learning-based prediction by the cost of conventional
simulation.  This benchmark compares the classical solver family on the same
static power-grid system: sparse LU (the sign-off default), Jacobi- and
AMG-preconditioned conjugate gradients, a stand-alone algebraic-multigrid
V-cycle iteration, and the random-walk estimator for single-node queries.
It regenerates the "conventional methods" context the paper argues against.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import get_design, save_records
from repro.io import ExperimentRecord
from repro.sim import ConjugateGradientSolver, DirectSolver, MultigridSolver, RandomWalkSolver

DESIGN = "D1"


@pytest.fixture(scope="module")
def static_system():
    design = get_design(DESIGN)
    matrix = design.mna.static_conductance()
    rhs = design.mna.load_vector(design.loads.nominal_currents)
    reference = DirectSolver(matrix).solve(rhs)
    return design, matrix, rhs, reference


@pytest.mark.parametrize("method", ["direct", "cg_jacobi", "cg_amg", "multigrid"])
def test_solver_runtime(benchmark, static_system, method):
    """Time one full-grid static solve per solver."""
    _, matrix, rhs, reference = static_system
    if method == "direct":
        solver = DirectSolver(matrix)
    elif method == "cg_jacobi":
        solver = ConjugateGradientSolver(matrix, tolerance=1e-10)
    elif method == "cg_amg":
        amg = MultigridSolver(matrix)
        solver = ConjugateGradientSolver(matrix, preconditioner=amg.as_preconditioner(), tolerance=1e-10)
    else:
        solver = MultigridSolver(matrix, tolerance=1e-10)
    solution = benchmark.pedantic(solver.solve, args=(rhs,), rounds=3, iterations=1)
    np.testing.assert_allclose(solution, reference, rtol=1e-4, atol=1e-8)


def test_solver_report(benchmark, static_system):
    """Record accuracy/runtime of every solver, including the random walk."""
    design, matrix, rhs, reference = static_system
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    records = []

    def record(label, solve, **extra):
        started = time.perf_counter()
        solution = solve()
        runtime = time.perf_counter() - started
        error = float(np.max(np.abs(solution - reference))) if solution is not None else float("nan")
        values = {"runtime_s": runtime, "max_error_V": error}
        values.update(extra)
        records.append(ExperimentRecord("solvers", label, values))

    record("sparse LU (factor+solve)", lambda: DirectSolver(matrix).solve(rhs))
    cg = ConjugateGradientSolver(matrix, tolerance=1e-10)
    record("CG + Jacobi", lambda: cg.solve(rhs), iterations=cg.stats.iterations)
    amg = MultigridSolver(matrix, tolerance=1e-10)
    record("AMG V-cycles", lambda: amg.solve(rhs), cycles=amg.cycles_used)

    # Random walk: estimate only the worst static node (single-node query).
    worst_node = int(np.argmax(reference[: design.mna.num_die_nodes]))
    walker = RandomWalkSolver(matrix, rhs)
    started = time.perf_counter()
    estimate = walker.estimate_node(worst_node, num_walks=800, seed=0)
    walk_seconds = time.perf_counter() - started
    records.append(
        ExperimentRecord(
            "solvers",
            "random walk (1 node)",
            {
                "runtime_s": walk_seconds,
                "max_error_V": abs(estimate.mean - reference[worst_node]),
                "standard_error_V": estimate.standard_error,
            },
        )
    )
    save_records(records, "solvers", "Classical power-grid solvers on the D1 analogue (static solve)")

    # All full-grid solvers agree with the direct solution.
    for rec in records[:3]:
        assert rec.values["max_error_V"] < 1e-6
