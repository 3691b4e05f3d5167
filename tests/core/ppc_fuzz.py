"""Seeded random PerfPerCostOptBW problems over six constraint shapes.

A case is a random training-time expression (``Sum``/``MaxExpr`` trees
over ``CommTerm`` and ``Const`` leaves, 2–4 dimensions), per-dimension
cost rates, and a constraint set of one of :data:`SHAPES`: a budget
equality alone or with a cap, an ordering, a lower bound or a general
row, or a ``≤`` budget alone. Each case is a pure function of its seed
(``random.Random`` streams are stable across Python releases), so the
answers recorded in ``ppc_fuzz_answers.json`` replay exactly.

``ppc_fuzz_answers.json`` holds the answers of the multi-start SLSQP
solver, recorded by running this script with that solver's source tree
on ``PYTHONPATH``::

    PYTHONPATH=<that tree>/src python tests/core/ppc_fuzz.py answers.json

Its provenance string names that solver, so re-recording with any other
source tree needs a new one.
"""

from __future__ import annotations

import json
import random
import sys

from repro.core import ConstraintSet, minimize_time_cost_product
from repro.training.expr import CommTerm, Const, Expr, MaxExpr, Sum
from repro.utils import gbps
from repro.utils.errors import ReproError

SHAPES = ("budget", "cap", "ordering", "lower-bound", "le-budget", "general-row")

#: Cases in the recorded fixture.
NUM_CASES = 960


def _expression(rng: random.Random, num_dims: int, depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.2:
            return Const(10 ** rng.uniform(-4, -1))
        dims = sorted(rng.sample(range(num_dims), rng.randint(1, num_dims)))
        return CommTerm(tuple((dim, 10 ** rng.uniform(7, 11)) for dim in dims))
    children = tuple(
        _expression(rng, num_dims, depth - 1) for _ in range(rng.randint(2, 3))
    )
    if rng.random() < 0.5:
        return Sum(children, tuple(10 ** rng.uniform(-1, 1) for _ in children))
    return MaxExpr(children)


def fuzz_case(seed: int) -> tuple[str, Expr, ConstraintSet, list[float]]:
    """``(shape, expression, constraints, cost rates in $ per byte/s)``."""
    rng = random.Random(f"ppc-fuzz:{seed}")
    shape = SHAPES[seed % len(SHAPES)]
    num_dims = rng.randint(2, 4)
    expr = _expression(rng, num_dims, 3)
    rates = [10 ** rng.uniform(-10.5, -8.5) for _ in range(num_dims)]
    if rng.random() < 0.1:
        rates[rng.randrange(num_dims)] = 0.0
    total = gbps(rng.uniform(50, 1000))
    constraints = ConstraintSet(num_dims)
    constraints.with_total_bandwidth(total, equality=shape != "le-budget")
    dim = rng.randrange(num_dims)
    if shape == "cap":
        constraints.with_dim_cap(dim, total * rng.uniform(0.05, 0.5))
    elif shape == "ordering":
        order = rng.sample(range(num_dims), rng.randint(2, num_dims))
        constraints.with_ordering(order)
    elif shape == "lower-bound":
        constraints.with_dim_bounds(dim, lower=total * rng.uniform(0.05, 0.6))
    elif shape == "general-row":
        coeffs = [rng.choice((0.0, 1.0, 2.0, -1.0)) for _ in range(num_dims)]
        coeffs[dim] = 1.0
        bound = total * rng.uniform(0.1, 0.9)
        if rng.random() < 0.5:
            constraints.with_linear(coeffs, upper=bound, label="row")
        else:
            constraints.with_linear(coeffs, lower=bound, label="row")
    return shape, expr, constraints, rates


def record(path: str) -> None:
    cases = {}
    for seed in range(NUM_CASES):
        _, expr, constraints, rates = fuzz_case(seed)
        try:
            result = minimize_time_cost_product(expr, constraints, rates)
        except ReproError as exc:
            cases[str(seed)] = {"error": type(exc).__name__}
            continue
        cases[str(seed)] = {
            "objective": result.objective,
            "bandwidths": list(result.bandwidths),
        }
    payload = {
        "recorded_from": (
            "SolverResult.objective and .bandwidths of "
            "minimize_time_cost_product on fuzz_case(seed) for seeds "
            f"0..{NUM_CASES - 1}, solved by the multi-start SLSQP "
            "PerfPerCostOptBW solver (seven seed starts plus a two-start "
            "SLSQP PerfOpt seed, explore ENGINE_VERSION 3) that the "
            "perspective interior-point program replaced; 'error' names "
            "the exception a case raised."
        ),
        "cases": cases,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    record(sys.argv[1])
