"""PerfPerCostOptBW on a seeded fuzz over six constraint shapes.

The cases come from :mod:`tests.core.ppc_fuzz` (random ``Sum``/``MaxExpr``
trees over collectives and constants, with a budget equality alone, a
cap, an ordering, a lower bound, a general row, or a ``≤`` budget). Every
feasible case must be certified at 1e-6 and pass the oracle, and must be
no worse than the answer of the multi-start SLSQP solver the perspective
program replaced (``ppc_fuzz_answers.json``, provenance inside) by more
than 1e-6 relative. A recorded point that violates a row within the
feasibility tolerance is judged after moving it toward the constraint
set's max-slack point until it is feasible. Tier-1 runs every fifth seed,
which covers every shape.

Beyond the fixture, a stride over seeds 960–12999 pins the solver's one
rule for both schemes: an answer either passes the oracle or is an
:class:`OptimizationError` naming its gap. Four named seeds end
uncertified today; they must raise, never return.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tests.core.ppc_fuzz import NUM_CASES, SHAPES, fuzz_case
from repro.core import (
    audit_solution,
    minimize_time_cost_product,
    minimize_training_time,
)
from repro.core.kernel import CERTIFIED_GAP
from repro.training.expr import vector_evaluator
from repro.utils.errors import OptimizationError, ReproError

RECORDED = json.loads(
    Path(__file__).with_name("ppc_fuzz_answers.json").read_text()
)["cases"]

#: Relative slack an answer may sit above the recorded SLSQP one.
NO_WORSE_RTOL = 1e-6

SEEDS = range(0, NUM_CASES, 5)

#: Seeds past the fixture, every tenth.
STRIDE_SEEDS = range(NUM_CASES, 13000, 10)

#: PerfPerCost cases the kernel ends uncertified at its iteration limit:
#: a zero rate (8766, 9298), a pure-compute expression under a general row
#: (7691) and an optimum far from the start (12012).
UNCERTIFIED_SEEDS = (8766, 9298, 7691, 12012)


def feasible_reference(point: np.ndarray, constraints) -> np.ndarray:
    """``point`` moved toward the max-slack point just far enough to
    satisfy every row (bisection on the segment between them)."""
    if constraints.is_feasible(point, 1e-12):
        return point
    inside = constraints.find_interior_point()
    low, high = 0.0, 1.0
    for _ in range(60):
        middle = 0.5 * (low + high)
        if constraints.is_feasible(point + middle * (inside - point), 1e-12):
            high = middle
        else:
            low = middle
    return point + high * (inside - point)


def test_fixture_covers_every_shape():
    shapes = {fuzz_case(seed)[0] for seed in SEEDS}
    assert shapes == set(SHAPES) and len(RECORDED) == NUM_CASES


@pytest.mark.parametrize(
    "seed", SEEDS, ids=[f"{seed}-{SHAPES[seed % len(SHAPES)]}" for seed in SEEDS]
)
def test_certified_and_no_worse_than_slsqp(seed):
    shape, expr, constraints, rates = fuzz_case(seed)
    recorded = RECORDED[str(seed)]
    try:
        result = minimize_time_cost_product(expr, constraints, rates)
    except ReproError:
        # Only sets the parent could not solve either may fail.
        assert "error" in recorded
        return
    assert result.gap <= CERTIFIED_GAP, result.message
    assert not audit_solution(expr, constraints, result, rates)
    if "error" in recorded:
        return
    reference = feasible_reference(np.asarray(recorded["bandwidths"]), constraints)
    value = vector_evaluator(expr)(reference) * float(np.asarray(rates) @ reference)
    assert result.objective <= value * (1 + NO_WORSE_RTOL)


def test_round_off_miss_of_a_row_is_pulled_inside():
    """Seed 6284's kernel point misses an ordering row by about 1e-4
    bytes/s at B ≈ 3e11 bytes/s: round-off, but over the designer check's
    absolute tolerance for a row bounded by zero. The answer moves toward
    the start just far enough and stays certified."""
    shape, expr, constraints, rates = fuzz_case(6284)
    assert shape == "ordering"
    result = minimize_time_cost_product(expr, constraints, rates)
    assert result.gap <= CERTIFIED_GAP, result.message
    assert constraints.is_feasible(result.bandwidths, 1e-4)
    assert not audit_solution(expr, constraints, result, rates)


def _certified_or_raises(seed: int, scheme: str) -> str:
    """``""`` when the seed's answer passes the oracle or the solver
    raises an :class:`OptimizationError` naming its gap; otherwise what
    went wrong."""
    _, expr, constraints, rates = fuzz_case(seed)
    try:
        if scheme == "perf":
            result = minimize_training_time(expr, constraints)
            return "; ".join(audit_solution(expr, constraints, result))
        result = minimize_time_cost_product(expr, constraints, rates)
        return "; ".join(audit_solution(expr, constraints, result, rates))
    except OptimizationError as exc:
        message = str(exc)
        return "" if "uncertified" in message and "gap" in message else message


@pytest.mark.parametrize("seed", UNCERTIFIED_SEEDS)
def test_uncertified_case_raises_naming_its_gap(seed):
    assert _certified_or_raises(seed, "ppc") == ""


@pytest.mark.parametrize("scheme", ["perf", "ppc"])
def test_stride_answers_are_certified_or_errors(scheme):
    faults = {
        seed: fault
        for seed in STRIDE_SEEDS
        if (fault := _certified_or_raises(seed, scheme))
    }
    assert not faults, faults
