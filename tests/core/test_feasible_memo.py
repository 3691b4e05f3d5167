"""The feasibility-LP memo: HiGHS runs once per distinct LP content."""

import os
import sys
import threading
import time

import numpy as np
import pytest
import scipy.optimize

from repro.api.requests import BatchRequest
from repro.api.service import LibraService
from repro.core import ConstraintSet
from repro.core.results import Scheme
from repro.core.solver import clear_solver_caches
from repro.explore.spec import SweepSpec
from repro.utils import gbps

BUDGETS_GBPS = (212.5, 305.25, 431.0, 577.75, 690.5, 845.0)


@pytest.fixture
def highs_runs(monkeypatch):
    """Every HiGHS run as ``(num_dims, equality right-hand sides)``."""
    clear_solver_caches()
    runs = []
    original = scipy.optimize.linprog

    def counting(*args, **kwargs):
        b_eq = kwargs.get("b_eq")
        runs.append((
            len(kwargs["bounds"]) - 1,
            () if b_eq is None else tuple(float(b) for b in b_eq),
        ))
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    yield runs
    clear_solver_caches()


def _budget_set(num_dims: int, budget_gbps: float) -> ConstraintSet:
    return ConstraintSet(num_dims).with_total_bandwidth(gbps(budget_gbps))


def test_budget_only_sweep_grid_runs_no_highs(highs_runs):
    """96 cells (4 workloads × 2 topologies × 6 budgets × 2 schemes) under
    a budget alone start both schemes from the closed-form traffic split,
    so the batch runs no LP; a feasibility LP still runs once per content
    until the caches are cleared."""
    spec = SweepSpec(
        workloads=("GPT-3", "MSFT-1T", "Turing-NLG", "DLRM"),
        topologies=("4D-4K", "3D-4K"),
        bandwidths_gbps=BUDGETS_GBPS,
        schemes=(Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT),
    )
    sweep = LibraService().submit(BatchRequest(spec=spec, workers=1)).sweep
    assert len(sweep.results) == 96
    assert all(result.ok for result in sweep.results)
    assert highs_runs == []

    _budget_set(4, BUDGETS_GBPS[0]).find_feasible_point()
    _budget_set(4, BUDGETS_GBPS[0]).find_feasible_point()
    assert highs_runs == [(4, (gbps(BUDGETS_GBPS[0]),))]
    clear_solver_caches()
    _budget_set(4, BUDGETS_GBPS[0]).find_feasible_point()
    assert len(highs_runs) == 2


def test_memo_keys_on_lp_content(highs_runs):
    a = ConstraintSet(3).with_total_bandwidth(gbps(300)).with_linear(
        [1.0, 1.0, 0.0], upper=gbps(250), label="a"
    )
    b = ConstraintSet(3).with_total_bandwidth(gbps(300)).with_linear(
        [1.0, 1.0, 0.0], upper=gbps(250), label="renamed"
    )
    first = a.find_feasible_point()
    np.testing.assert_array_equal(b.find_feasible_point(), first)
    assert len(highs_runs) == 1  # labels are not LP content

    first[:] = 0.0  # callers get copies; the memo is untouched
    assert a.is_feasible(a.find_feasible_point(), tolerance=1e-4)

    reordered = ConstraintSet(3).with_linear(
        [1.0, 1.0, 0.0], upper=gbps(250)
    ).with_total_bandwidth(gbps(300))
    reordered.find_feasible_point()
    assert len(highs_runs) == 2  # rows in another order are another LP


def test_builder_calls_after_a_solve_are_seen(highs_runs):
    constraints = _budget_set(3, 300.0)
    constraints.find_feasible_point()
    constraints.with_dim_cap(0, gbps(20))
    point = constraints.find_feasible_point()
    assert point[0] <= gbps(20) * (1 + 1e-9)
    assert constraints.is_feasible(point, tolerance=1e-4)
    assert len(highs_runs) == 2


def test_threads_share_the_memo_and_get_identical_points():
    """More threads than cores hammer a few LPs while one keeps clearing the
    memo; every answer must equal the serial one, bit for bit, in bounded
    time."""
    sets = [
        _budget_set(dims, budget)
        for dims in (3, 4)
        for budget in BUDGETS_GBPS[:3]
    ] + [
        _budget_set(4, 400.0).with_dim_cap(3, gbps(50)).with_ordering([0, 1, 2])
    ]
    clear_solver_caches()
    expected = [constraints.find_feasible_point() for constraints in sets]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    num_threads = min(cores + 3, 64)
    deadline = time.monotonic() + 1.0
    mismatches = []
    errors = []

    def hammer(index: int) -> None:
        try:
            step = 0
            while time.monotonic() < deadline:
                which = (index + step) % len(sets)
                point = sets[which].find_feasible_point()
                if not np.array_equal(point, expected[which]):
                    mismatches.append((which, point))
                if index == 0 and step % 7 == 0:
                    clear_solver_caches()
                step += 1
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(num_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not mismatches
    clear_solver_caches()
