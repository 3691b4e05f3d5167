"""The PerfOptBW interior-point kernel: quality, certificate, content purity.

Reference answers come from the multi-start SLSQP solver the kernel
replaced (``slsqp_answers.json``, provenance inside): the paper's figure
grid and the tier-1 oracle grid. On every cell the kernel's PerfOpt
objective is no worse than SLSQP's beyond 1e-9 relative, its certified gap
is at most 1e-6 and the oracle passes it; PerfPerCostOptBW answers, still
SLSQP, are bit-identical to the recorded ones.
"""

import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import repro.core.solver as solver
from repro.api import OptimizeRequest, build_scenario, get_service
from repro.core import (
    ConstraintSet,
    Libra,
    Scheme,
    audit_solution,
    build_constraint_blocks,
    compile_expression,
    minimize_time_cost_product,
    minimize_training_time,
)
from repro.core.sensitivity import dual_bound
from repro.cost.estimator import cost_rates
from repro.explore import SweepSpec, run_sweep
from repro.topology import get_topology
from repro.training.expr import CommTerm, Const, MaxExpr, Sum, vector_evaluator
from repro.utils import gbps
from repro.workloads import build_workload

RECORDED = json.loads(
    Path(__file__).with_name("slsqp_answers.json").read_text()
)["cases"]

#: Recorded cells grouped per (workload, topology): one test per group.
GROUPS: dict[tuple[str, str], list[tuple[int, str]]] = defaultdict(list)
for _key in RECORDED:
    _workload, _topology, _budget, _variant = _key.split("|")
    GROUPS[(_workload, _topology)].append((int(_budget), _variant))

#: Relative slack a PerfOpt objective may sit above the SLSQP one.
NO_WORSE_RTOL = 1e-9


@pytest.fixture(scope="module")
def problem():
    """(expression, cost rates, num_dims) per (workload, topology)."""
    cache: dict[tuple[str, str], tuple] = {}

    def build(workload: str, topology: str):
        if (workload, topology) not in cache:
            network = get_topology(topology)
            libra = Libra(network)
            libra.add_workload(build_workload(workload, network.num_npus))
            rates = (
                np.asarray(cost_rates(network, libra.cost_model))
                * network.num_npus
            )
            cache[workload, topology] = (
                libra.combined_expression(), rates, network.num_dims
            )
        return cache[workload, topology]

    return build


def constraints_for(num_dims: int, budget: float, variant: str) -> ConstraintSet:
    constraints = ConstraintSet(num_dims).with_total_bandwidth(gbps(budget))
    if variant == "cap":
        constraints.with_dim_cap(num_dims - 1, gbps(60))
    elif variant == "ordering":
        constraints.with_ordering(list(range(num_dims)))
    return constraints


@pytest.fixture
def slsqp_calls(monkeypatch):
    """Counts every SLSQP run the solver starts."""
    calls = []
    original = solver.minimize_slsqp

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize_slsqp", counting)
    return calls


@pytest.mark.parametrize(
    "workload,topology", sorted(GROUPS), ids=[f"{w}-{t}" for w, t in sorted(GROUPS)]
)
def test_perf_opt_is_certified_and_no_worse_than_slsqp(
    problem, slsqp_calls, workload, topology
):
    expr, _, num_dims = problem(workload, topology)
    for budget, variant in GROUPS[workload, topology]:
        constraints = constraints_for(num_dims, budget, variant)
        result = minimize_training_time(expr, constraints)
        recorded = RECORDED[f"{workload}|{topology}|{budget}|{variant}"]["perf"]
        cell = f"{workload}/{topology} @ {budget} ({variant})"
        assert result.objective <= recorded * (1 + NO_WORSE_RTOL), cell
        assert result.success and result.gap <= 1e-6, (cell, result.message)
        assert result.starts == 1 and result.warm_start == ""
        assert not audit_solution(expr, constraints, result), cell
    assert slsqp_calls == []


@pytest.mark.parametrize(
    "workload,topology", sorted(GROUPS), ids=[f"{w}-{t}" for w, t in sorted(GROUPS)]
)
def test_perf_per_cost_is_bit_identical_to_slsqp(problem, workload, topology):
    expr, rates, num_dims = problem(workload, topology)
    for budget, variant in GROUPS[workload, topology]:
        result = minimize_time_cost_product(
            expr, constraints_for(num_dims, budget, variant), rates
        )
        recorded = RECORDED[f"{workload}|{topology}|{budget}|{variant}"]
        assert result.objective == recorded["ppc"]
        assert list(result.bandwidths) == recorded["ppc_bandwidths"]


#: 3-D cells for the brute-force check: the figure grid's hardest PerfOpt
#: cells plus one of each remaining Table-II workload.
BRUTE_FORCE_CELLS = (
    ("GPT-3", "3D-4K", 800),
    ("MSFT-1T", "3D-4K", 1000),
    ("MSFT-1T", "3D-512", 1000),
    ("DLRM", "3D-512", 400),
    ("Turing-NLG", "3D-512", 300),
    ("ResNet-50", "3D-4K", 600),
)


@pytest.mark.parametrize(
    "workload,topology,budget", BRUTE_FORCE_CELLS,
    ids=[f"{w}-{t}-{b}" for w, t, b in BRUTE_FORCE_CELLS],
)
def test_brute_force_never_beats_the_kernel(problem, workload, topology, budget):
    """A grid over the 2-D budget simplex, then a Nelder–Mead polish of the
    best grid points, evaluated on the expression tree itself."""
    expr, _, num_dims = problem(workload, topology)
    assert num_dims == 3
    constraints = constraints_for(3, budget, "budget")
    kernel = minimize_training_time(expr, constraints)
    evaluate = vector_evaluator(expr)
    total, floor = gbps(budget), constraints.min_bandwidth

    def value(shares: np.ndarray) -> float:
        point = total * np.array([shares[0], shares[1], 1 - shares[0] - shares[1]])
        return evaluate(point) if np.all(point >= floor) else np.inf

    steps = np.linspace(0.0, 1.0, 121)[1:-1]
    grid = [(value(np.array([u, v])), u, v) for u in steps for v in steps if u + v < 1]
    best = min(
        minimize(
            value, np.array([u, v]), method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 4000},
        ).fun
        for _, u, v in sorted(grid)[:3]
    )
    assert kernel.objective <= best * (1 + NO_WORSE_RTOL)


class TestContentPurity:
    """A PerfOpt answer depends on the problem alone."""

    def test_warm_start_and_order_leave_the_answer_unchanged(self):
        network = get_topology("3D-512")
        engine = Libra(network)
        engine.add_workload(build_workload("GPT-3", network.num_npus))
        budgets = (150.0, 400.0, 650.0)
        cold = {
            budget: engine.optimize_result(
                Scheme.PERF_OPT,
                constraints_for(3, budget, "budget"),
            )[1]
            for budget in budgets
        }
        warm = np.asarray(cold[budgets[0]].bandwidths)
        for budget in reversed(budgets):
            _, result = engine.optimize_result(
                Scheme.PERF_OPT, constraints_for(3, budget, "budget"),
                warm_start=warm, max_starts=1,
            )
            assert result == cold[budget]
            warm = np.asarray(result.bandwidths)

    def test_service_answer_ignores_the_solution_memo(self):
        service = get_service()
        scenario = build_scenario("3D-512", ["Turing-NLG"], total_bw_gbps=300)
        neighbor = build_scenario("3D-512", ["Turing-NLG"], total_bw_gbps=700)
        cold = service.submit(OptimizeRequest(scenario=scenario))
        service.submit(OptimizeRequest(scenario=neighbor))
        warm = service.submit(OptimizeRequest(scenario=scenario, warm_start="auto"))
        assert warm.point.to_dict() == cold.point.to_dict()
        assert warm.diagnostics["starts"] == 1
        assert warm.diagnostics["warm_start"] == "cold"

    def test_sweep_rows_do_not_depend_on_continuation_or_order(self):
        def spec(budgets):
            return SweepSpec(
                workloads=("Turing-NLG", "DLRM"),
                topologies=("RI(3)_RI(2)",),
                bandwidths_gbps=budgets,
                schemes=(Scheme.PERF_OPT,),
            )

        def rows(sweep):
            return {
                (row.point.workload, row.point.total_bw_gbps): (
                    row.bandwidths_gbps, row.step_times_ms
                )
                for row in sweep.results
            }

        budgets = (100.0, 250.0, 400.0)
        chained = rows(run_sweep(spec(budgets)))
        assert rows(run_sweep(spec(budgets), continuation=False)) == chained
        assert rows(run_sweep(spec(tuple(reversed(budgets))))) == chained

    def test_perf_opt_runs_no_slsqp_and_one_start(self, slsqp_calls):
        expr = Sum((CommTerm(((0, gbps(300)), (1, gbps(40)))), Const(0.01)))
        constraints = ConstraintSet(2).with_total_bandwidth(gbps(200))
        result = minimize_training_time(expr, constraints)
        assert result.starts == 1 and slsqp_calls == []
        minimize_time_cost_product(expr, constraints, [1e-9, 4e-9])
        assert len(slsqp_calls) > 0  # PerfPerCost is still SLSQP


class TestDualBound:
    """The auditor's bound, computed from the blocks and multipliers alone."""

    EXPR = Sum(
        (
            MaxExpr(
                (
                    CommTerm(((0, gbps(100)), (1, gbps(20)))),
                    Sum((Const(0.1), CommTerm(((1, gbps(50)), (2, gbps(5)))))),
                )
            ),
            CommTerm(((2, gbps(30)),)),
        )
    )

    def _constraints(self) -> ConstraintSet:
        return (
            ConstraintSet(3)
            .with_total_bandwidth(gbps(240))
            .with_dim_cap(0, gbps(90))
            .with_ordering([1, 2])
        )

    def test_matches_the_kernel_certificate_with_max_rows(self):
        constraints = self._constraints()
        result = minimize_training_time(self.EXPR, constraints)
        blocks = build_constraint_blocks(
            compile_expression(self.EXPR, 3), constraints
        )
        bound = dual_bound(blocks, result.multipliers)
        assert bound <= result.objective * (1 + 1e-12)
        assert result.objective - bound <= 1e-9 * result.objective
        assert not audit_solution(self.EXPR, constraints, result)

    def test_any_multipliers_bound_the_optimum_from_below(self):
        constraints = self._constraints()
        optimum = minimize_training_time(self.EXPR, constraints).objective
        blocks = build_constraint_blocks(
            compile_expression(self.EXPR, 3), constraints
        )
        rng = np.random.default_rng(3)
        for _ in range(200):
            multipliers = rng.exponential(rng.choice([1e-3, 1.0, 1e3]), blocks.num_rows)
            multipliers[: blocks.num_eq] = rng.normal(0.0, 1.0, blocks.num_eq)
            assert dual_bound(blocks, multipliers) <= optimum * (1 + 1e-12)

    def test_wrong_length_is_rejected(self):
        from repro.utils.errors import ConfigurationError

        blocks = build_constraint_blocks(
            compile_expression(self.EXPR, 3), self._constraints()
        )
        with pytest.raises(ConfigurationError):
            dual_bound(blocks, [0.0])


class TestStarts:
    def test_fixed_dimension_is_solved(self):
        """A box that pins a dimension has no interior on that side: the
        kernel holds it as an equality row."""
        expr = CommTerm(((0, gbps(100)), (1, gbps(50)), (2, gbps(10))))
        constraints = (
            ConstraintSet(3)
            .with_total_bandwidth(gbps(300))
            .with_dim_bounds(2, lower=gbps(40), upper=gbps(40))
        )
        result = minimize_training_time(expr, constraints)
        assert result.bandwidths[2] == pytest.approx(gbps(40), rel=1e-9)
        assert not audit_solution(expr, constraints, result)

    def test_general_rows_start_from_the_max_slack_point(self):
        expr = Sum(
            (CommTerm(((0, gbps(10)), (1, gbps(200)))), CommTerm(((2, gbps(80)),)))
        )
        constraints = (
            ConstraintSet(3)
            .with_total_bandwidth(gbps(300))
            .with_linear([1.0, 1.0, 0.0], upper=gbps(150), label="pair")
        )
        start = solver.interior_start(expr, constraints)
        assert constraints.is_feasible(start) and start[2] > gbps(150)
        result = minimize_training_time(expr, constraints)
        assert result.success
        assert not audit_solution(expr, constraints, result)
