"""The interior-point kernel of both schemes: quality, certificate, purity.

Reference answers come from the multi-start SLSQP solvers the kernel
replaced (``slsqp_answers.json``, provenance inside): the paper's figure
grid and the tier-1 oracle grid. On every cell each scheme's objective is
no worse than SLSQP's beyond 1e-9 relative, its certified gap is at most
1e-6 and the oracle passes it. A PerfPerCostOptBW answer is compared with
the recorded SLSQP point projected onto its constraint set: SLSQP points
may underspend the budget equality within the feasibility tolerance.
"""

import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import repro.core.solver as solver
from repro.api import LibraService, OptimizeRequest, build_scenario
from repro.core import (
    ConstraintSet,
    Libra,
    Scheme,
    audit_solution,
    build_constraint_blocks,
    clear_solver_caches,
    compile_expression,
    minimize_time_cost_product,
    minimize_training_time,
    perspective_program,
)
from repro.core.kernel import CERTIFIED_GAP, _bound_structure, _lagrange_bound
from repro.core.sensitivity import dual_bound
from repro.cost.estimator import cost_rates
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
def kernel_runs(monkeypatch):
    """Counts every interior-point run the solver starts."""
    calls = []
    original = solver.interior_point

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "interior_point", counting)
    return calls


@pytest.mark.parametrize(
    "workload,topology", sorted(GROUPS), ids=[f"{w}-{t}" for w, t in sorted(GROUPS)]
)
def test_perf_opt_is_certified_and_no_worse_than_slsqp(
    problem, kernel_runs, workload, topology
):
    expr, _, num_dims = problem(workload, topology)
    for budget, variant in GROUPS[workload, topology]:
        constraints = constraints_for(num_dims, budget, variant)
        result = minimize_training_time(expr, constraints)
        recorded = RECORDED[f"{workload}|{topology}|{budget}|{variant}"]["perf"]
        cell = f"{workload}/{topology} @ {budget} ({variant})"
        assert result.objective <= recorded * (1 + NO_WORSE_RTOL), cell
        assert result.gap <= 1e-6, (cell, result.message)
        assert result.starts == 1 and result.warm_start == ""
        assert not audit_solution(expr, constraints, result), cell
    assert len(kernel_runs) == len(GROUPS[workload, topology])


@pytest.mark.parametrize(
    "workload,topology", sorted(GROUPS), ids=[f"{w}-{t}" for w, t in sorted(GROUPS)]
)
def test_perf_per_cost_is_certified_and_no_worse_than_slsqp(
    problem, kernel_runs, workload, topology
):
    expr, rates, num_dims = problem(workload, topology)
    evaluate = vector_evaluator(expr)
    for budget, variant in GROUPS[workload, topology]:
        constraints = constraints_for(num_dims, budget, variant)
        result = minimize_time_cost_product(expr, constraints, rates)
        recorded = RECORDED[f"{workload}|{topology}|{budget}|{variant}"]
        projected = solver._proportional_split(
            np.asarray(recorded["ppc_bandwidths"]), constraints
        )
        reference = evaluate(projected) * float(rates @ projected)
        cell = f"{workload}/{topology} @ {budget} ({variant})"
        assert result.objective <= reference * (1 + NO_WORSE_RTOL), cell
        assert result.gap <= 1e-6, (cell, result.message)
        assert result.starts == 1 and result.warm_start == ""
        assert not audit_solution(
            expr, constraints, result, cost_rates=rates
        ), cell
    assert len(kernel_runs) == len(GROUPS[workload, topology])


#: 3-D cells for the PerfOpt brute-force check: the figure grid's hardest
#: PerfOpt cells plus one of each remaining Table-II workload.
BRUTE_FORCE_CELLS = (
    ("GPT-3", "3D-4K", 800),
    ("MSFT-1T", "3D-4K", 1000),
    ("MSFT-1T", "3D-512", 1000),
    ("DLRM", "3D-512", 400),
    ("Turing-NLG", "3D-512", 300),
    ("ResNet-50", "3D-4K", 600),
)

#: 3-D cells for the PerfPerCost brute-force check: the PerfOpt cells, the
#: cell where the SLSQP answer was furthest off (DLRM/3D-512 @ 1000), and
#: the remaining workloads across both fabrics and the budget range.
PPC_BRUTE_FORCE_CELLS = BRUTE_FORCE_CELLS + (
    ("DLRM", "3D-512", 1000),
    ("MoE-1T", "3D-512", 400),
    ("Long-128K", "3D-4K", 500),
    ("GPT-3", "3D-512", 200),
    ("MSFT-1T", "3D-512", 400),
    ("Turing-NLG", "3D-4K", 100),
)


def brute_force(value, floor: float, total: float) -> float:
    """The best of ``value`` over the budget simplex of three dimensions:
    a 121-step grid over the shares, then a Nelder–Mead polish of the best
    three grid points."""

    def on_simplex(shares: np.ndarray) -> float:
        point = total * np.array([shares[0], shares[1], 1 - shares[0] - shares[1]])
        return value(point) if np.all(point >= floor) else np.inf

    steps = np.linspace(0.0, 1.0, 121)[1:-1]
    grid = [
        (on_simplex(np.array([u, v])), u, v)
        for u in steps for v in steps if u + v < 1
    ]
    return min(
        minimize(
            on_simplex, np.array([u, v]), method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 4000},
        ).fun
        for _, u, v in sorted(grid)[:3]
    )


@pytest.mark.parametrize(
    "workload,topology,budget", BRUTE_FORCE_CELLS,
    ids=[f"{w}-{t}-{b}" for w, t, b in BRUTE_FORCE_CELLS],
)
def test_brute_force_never_beats_the_kernel(problem, workload, topology, budget):
    """The brute force evaluates the expression tree itself."""
    expr, _, num_dims = problem(workload, topology)
    assert num_dims == 3
    constraints = constraints_for(3, budget, "budget")
    kernel = minimize_training_time(expr, constraints)
    best = brute_force(
        vector_evaluator(expr), constraints.min_bandwidth, gbps(budget)
    )
    assert kernel.objective <= best * (1 + NO_WORSE_RTOL)


@pytest.mark.parametrize(
    "workload,topology,budget", PPC_BRUTE_FORCE_CELLS,
    ids=[f"{w}-{t}-{b}" for w, t, b in PPC_BRUTE_FORCE_CELLS],
)
def test_brute_force_never_beats_the_perf_per_cost_kernel(
    problem, workload, topology, budget
):
    """Time × cost, brute-forced on the expression tree and the rates."""
    expr, rates, num_dims = problem(workload, topology)
    assert num_dims == 3
    constraints = constraints_for(3, budget, "budget")
    kernel = minimize_time_cost_product(expr, constraints, rates)
    evaluate = vector_evaluator(expr)
    best = brute_force(
        lambda point: evaluate(point) * float(rates @ point),
        constraints.min_bandwidth, gbps(budget),
    )
    assert kernel.objective <= best * (1 + NO_WORSE_RTOL)


SCHEMES = (Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT)


class TestContentPurity:
    """An answer of either scheme depends on the problem alone."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=["perf", "ppc"])
    def test_solve_order_and_caches_leave_the_answer_unchanged(self, scheme):
        network = get_topology("3D-512")
        engine = Libra(network)
        engine.add_workload(build_workload("GPT-3", network.num_npus))
        budgets = (150.0, 400.0, 650.0)
        first = {
            budget: engine.optimize_result(
                scheme, constraints_for(3, budget, "budget")
            )[1]
            for budget in budgets
        }
        clear_solver_caches()
        for budget in reversed(budgets):
            _, result = engine.optimize_result(
                scheme, constraints_for(3, budget, "budget")
            )
            assert result == first[budget]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=["perf", "ppc"])
    def test_service_answer_does_not_depend_on_earlier_requests(self, scheme):
        scenario = build_scenario("3D-512", ["Turing-NLG"], total_bw_gbps=300)
        neighbor = build_scenario("3D-512", ["Turing-NLG"], total_bw_gbps=700)
        fresh = LibraService().submit(
            OptimizeRequest(scenario=scenario, scheme=scheme)
        )
        service = LibraService()
        service.submit(OptimizeRequest(scenario=neighbor, scheme=scheme))
        answer = service.submit(OptimizeRequest(scenario=scenario, scheme=scheme))
        assert answer.to_dict() == fresh.to_dict()
        assert set(answer.diagnostics) == {"gap", "iterations"}
        assert answer.diagnostics["gap"] <= CERTIFIED_GAP

    def test_each_scheme_is_one_kernel_run(self, kernel_runs):
        expr = Sum((CommTerm(((0, gbps(300)), (1, gbps(40)))), Const(0.01)))
        constraints = ConstraintSet(2).with_total_bandwidth(gbps(200))
        perf = minimize_training_time(expr, constraints)
        ppc = minimize_time_cost_product(expr, constraints, [1e-9, 4e-9])
        assert perf.starts == ppc.starts == 1 and len(kernel_runs) == 2
        # Only the documented placeholders of the removed SLSQP solver stay.
        assert solver.minimize_slsqp is None and solver.build_seeds is None


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

    def test_perf_per_cost_bound_matches_its_certificate(self):
        """The perspective program's bound, times its cost scale, bounds
        time × cost, and the returned multipliers make it tight."""
        constraints = self._constraints()
        rates = np.array([3e-9, 1e-9, 2e-9])
        result = minimize_time_cost_product(self.EXPR, constraints, rates)
        perspective = perspective_program(self.EXPR, constraints, rates)
        bound = perspective.scale * dual_bound(
            perspective.blocks, result.multipliers
        )
        assert bound <= result.objective * (1 + 1e-12)
        assert result.objective - bound <= 1e-9 * result.objective
        assert not audit_solution(
            self.EXPR, constraints, result, cost_rates=rates
        )

    def test_kernel_bound_equals_the_auditors_bound(self):
        """The kernel certifies with the auditor's bound at the same
        multipliers, also where a dimension carries no traffic and a
        positive budget multiplier makes its reduced cost negative: that
        Lagrangian term is least on the box's upper side."""
        traffic_free = (
            CommTerm(((0, gbps(100)),)),
            ConstraintSet(2).with_total_bandwidth(gbps(200)),
        )
        rng = np.random.default_rng(11)
        for expr, constraints in ((self.EXPR, self._constraints()), traffic_free):
            blocks = build_constraint_blocks(
                compile_expression(expr, constraints.num_dims), constraints
            )
            live, owners = _bound_structure(blocks)
            num_eq, num_lin = blocks.num_eq, len(blocks.b_in)

            def both(multipliers):
                kernel = _lagrange_bound(
                    blocks, multipliers[:num_eq],
                    multipliers[num_eq:num_eq + num_lin],
                    multipliers[num_eq + num_lin:][live], live, owners,
                )
                return kernel, dual_bound(blocks, multipliers)

            for _ in range(200):
                multipliers = rng.exponential(
                    rng.choice([1e-3, 1.0, 1e3]), blocks.num_rows
                )
                multipliers[:num_eq] = rng.normal(0.0, 1.0, num_eq) * rng.choice(
                    [1e-3, 1.0]
                )
                kernel, auditor = both(multipliers)
                assert kernel == pytest.approx(auditor, rel=1e-12), multipliers
        # The case above at ν = 1e-3, λ = 1 (GB/s units): the traffic-free
        # dimension's term sits at its upper side, −1e-3 × 1e6 GB/s.
        kernel, auditor = both(np.array([1e-3, 1.0]))
        assert kernel == pytest.approx(auditor, rel=1e-12)
        assert auditor == pytest.approx(-1999.8, abs=0.1)

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
        assert not audit_solution(expr, constraints, result)
