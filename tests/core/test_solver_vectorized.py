"""The solver kernels: optimality oracle grid, block assembly, memoization.

PerfOptBW is convex and PerfPerCostOptBW bilinear, so the grid pins what a
correct solve makes unique — the objective and its optimality — never the
argmin, which is not unique on a flat face. Every Table-II workload × three
constraint-row mixes × both schemes must pass
:func:`repro.core.audit_solution` plus a floor set by the objectives the
deleted closure-per-constraint reference kernel reached
(``closures_objectives.json``, provenance inside). PerfPerCostOptBW runs on
both SLSQP paths (scipy's compiled core through the slim loop, and the
``scipy.optimize.minimize`` fallback); PerfOptBW is one interior-point run
with no SLSQP path to choose.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.core.kernel as kernel
from repro.core import (
    ConstraintSet,
    Libra,
    audit_solution,
    build_constraint_blocks,
    clear_solver_caches,
    compile_expression,
    minimize_time_cost_product,
    minimize_training_time,
    traffic_totals,
)
from repro.core.kernel import minimize_slsqp
from repro.core.solver import _SCALE, SolverResult
from repro.cost.estimator import cost_rates
from repro.topology import get_topology
from repro.training.expr import CommTerm, Const, MaxExpr, Sum, simplify
from repro.utils import gbps
from repro.workloads import build_workload, workload_names

TOPOLOGY = "3D-512"

#: Objectives the closure reference kernel reached on this grid.
RECORDED = json.loads(
    Path(__file__).with_name("closures_objectives.json").read_text()
)["cases"]

#: The old two-tier equivalence rule, applied to objectives only: tight
#: when the recorded run and the new run both converged, loose when either
#: stopped on a line-search stall (its iterate sits on a flat ridge).
CONVERGED_RTOL = 1e-8
STALLED_RTOL = 1e-2


@pytest.fixture(scope="module")
def problem_factory():
    """(expr, rates, num_dims) per workload name, shared across the grid."""
    network = get_topology(TOPOLOGY)
    cache: dict[str, tuple] = {}

    def build(name: str):
        if name not in cache:
            libra = Libra(network)
            libra.add_workload(build_workload(name, network.num_npus))
            rates = (
                np.asarray(cost_rates(network, libra.cost_model))
                * network.num_npus
            )
            cache[name] = (libra.combined_expression(), rates, network.num_dims)
        return cache[name]

    return build


def make_constraints(variant: str, num_dims: int) -> ConstraintSet:
    constraints = ConstraintSet(num_dims).with_total_bandwidth(gbps(400))
    if variant == "cap":
        constraints.with_dim_cap(num_dims - 1, gbps(60))
    elif variant == "ordering":
        constraints.with_ordering(list(range(num_dims)))
    return constraints


@pytest.fixture(scope="module")
def solve(problem_factory):
    """Memoized grid solve; PerfPerCost runs on one SLSQP path."""
    cache: dict[tuple, SolverResult] = {}

    def run(path: str | None, workload: str, variant: str, scheme: str):
        key = (path, workload, variant, scheme)
        if key not in cache:
            expr, rates, num_dims = problem_factory(workload)
            constraints = make_constraints(variant, num_dims)
            if scheme == "perf":
                cache[key] = minimize_training_time(expr, constraints)
            else:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(kernel, "HAS_FAST_SLSQP", path == "fast")
                    cache[key] = minimize_time_cost_product(
                        expr, constraints, rates
                    )
        return cache[key]

    return run


def assert_no_worse_than_recorded(result, case: str) -> None:
    recorded = RECORDED[case]
    both_converged = recorded["converged"] and result.success
    rtol = CONVERGED_RTOL if both_converged else STALLED_RTOL
    assert result.objective <= recorded["objective"] * (1 + rtol), (
        f"{case}: objective {result.objective!r} worse than the recorded "
        f"{recorded['objective']!r} (rtol {rtol:g})"
    )


#: PerfOpt cells of the paper's figure grid where the multi-start SLSQP
#: solver missed the optimum: the first four failed the pairwise-transfer
#: oracle, and the pairwise probe passed the last one although it was
#: 0.45 % above the optimum.
FIGURE_CELLS = (
    ("GPT-3", "3D-4K", 800),
    ("MSFT-1T", "3D-4K", 1000),
    ("MSFT-1T", "4D-4K", 1000),
    ("MSFT-1T", "3D-512", 1000),
    ("GPT-3", "4D-4K", 800),
)


class TestOptimalityOracle:
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("variant", ["budget", "cap", "ordering"])
    def test_perf_opt(self, problem_factory, solve, workload, variant):
        expr, _, num_dims = problem_factory(workload)
        result = solve(None, workload, variant, "perf")
        faults = audit_solution(
            expr, make_constraints(variant, num_dims), result
        )
        assert not faults, faults
        assert_no_worse_than_recorded(result, f"{workload}/{variant}/perf")

    @pytest.mark.parametrize(
        "workload,topology,budget", FIGURE_CELLS,
        ids=[f"{w}-{t}-{b}" for w, t, b in FIGURE_CELLS],
    )
    def test_perf_opt_figure_cell(self, workload, topology, budget):
        network = get_topology(topology)
        libra = Libra(network)
        libra.add_workload(build_workload(workload, network.num_npus))
        expr = libra.combined_expression()
        constraints = ConstraintSet(network.num_dims).with_total_bandwidth(
            gbps(budget)
        )
        result = minimize_training_time(expr, constraints)
        assert not audit_solution(expr, constraints, result)
        assert result.gap <= 1e-9

    @pytest.mark.parametrize("path", ["fast", "fallback"])
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("variant", ["budget", "cap", "ordering"])
    def test_perf_per_cost(
        self, problem_factory, solve, path, workload, variant
    ):
        expr, rates, num_dims = problem_factory(workload)
        result = solve(path, workload, variant, "perf-per-cost")
        faults = audit_solution(
            expr, make_constraints(variant, num_dims), result,
            cost_rates=rates,
            perf_bandwidths=solve(None, workload, variant, "perf").bandwidths,
        )
        assert not faults, faults
        assert_no_worse_than_recorded(
            result, f"{workload}/{variant}/perf-per-cost"
        )


class TestOracleFaults:
    """The oracle flags each kind of wrong answer it exists to catch."""

    EXPR = CommTerm(((0, gbps(120)), (1, gbps(60)), (2, gbps(15))))
    RATES = np.array([3e-9, 1e-9, 1e-9])

    def _constraints(self):
        return ConstraintSet(3).with_total_bandwidth(gbps(300))

    def _answer(self, bandwidths, rates=None, multipliers=()):
        point = np.asarray(bandwidths, dtype=float)
        value = float(self.EXPR.evaluate(point))
        if rates is not None:
            value *= float(rates @ point)
        return SolverResult(
            tuple(point), value, True, "test", 1, multipliers=multipliers
        )

    def _optimum(self):
        return minimize_training_time(self.EXPR, self._constraints())

    def test_misreported_objective(self):
        result = self._optimum()
        wrong = replace(result, objective=result.objective * (1 + 1e-9))
        faults = audit_solution(self.EXPR, self._constraints(), wrong)
        assert len(faults) == 1 and "re-evaluation" in faults[0]

    def test_infeasible(self):
        """1 % over the budget: cheaper than the optimum, so certified, but
        infeasible."""
        optimum = self._optimum()
        faults = audit_solution(
            self.EXPR, self._constraints(),
            self._answer(
                np.asarray(optimum.bandwidths) * 1.01,
                multipliers=optimum.multipliers,
            ),
        )
        assert len(faults) == 1 and faults[0].startswith("infeasible")

    def test_uncertified(self):
        """The EqualBW split is feasible but above the optimum's dual bound."""
        faults = audit_solution(
            self.EXPR, self._constraints(),
            self._answer(
                [gbps(100), gbps(100), gbps(100)],
                multipliers=self._optimum().multipliers,
            ),
        )
        assert len(faults) == 1 and faults[0].startswith("not certified")
        assert "dual bound" in faults[0]

    def test_no_multipliers_is_uncertified(self):
        optimum = self._optimum()
        faults = audit_solution(
            self.EXPR, self._constraints(), self._answer(optimum.bandwidths)
        )
        assert faults == ["not certified: the result carries no multipliers"]

    def test_perf_per_cost_worse_than_its_floors(self):
        constraints = self._constraints()
        perf = minimize_training_time(self.EXPR, constraints)
        skewed = constraints.equal_split() * np.array([0.5, 1.25, 1.25])
        faults = audit_solution(
            self.EXPR, constraints, self._answer(skewed, self.RATES),
            cost_rates=self.RATES, perf_bandwidths=perf.bandwidths,
        )
        assert len(faults) == 2
        assert "EqualBW" in faults[0] and "PerfOptBW" in faults[1]


class TestConstraintBlocks:
    def test_row_layout(self):
        expr = Sum(
            (
                MaxExpr((Const(0.5), CommTerm(((0, gbps(10)), (1, gbps(4)))))),
                CommTerm(((1, gbps(3)),)),
            )
        )
        cons = (
            ConstraintSet(2)
            .with_total_bandwidth(gbps(100))
            .with_ordering([0, 1])
        )
        program = compile_expression(expr, 2)
        blocks = build_constraint_blocks(program, cons)
        assert blocks.num_vars == 2 + program.num_aux
        assert blocks.num_eq == 1  # the budget row
        # ordering row + the max node's epigraph rows in the linear block
        assert len(blocks.b_in) == 1 + len(program.max_constraints)
        assert len(blocks.comm_aux) == len(program.comm_constraints)
        assert blocks.num_rows == blocks.num_eq + len(blocks.b_in) + len(
            blocks.comm_aux
        )

    def test_block_values_match_closures(self):
        """Block evaluation equals every row written out as its own
        closure, in the documented row order."""
        expr = Sum(
            (
                MaxExpr((Const(0.2), CommTerm(((0, gbps(8)),)))),
                CommTerm(((1, gbps(5)), (2, gbps(2)))),
            )
        )
        cons = (
            ConstraintSet(3)
            .with_total_bandwidth(gbps(300))
            .with_dim_cap(2, gbps(40))
            .with_linear(
                [1.0, 1.0, 0.0], lower=gbps(50), upper=gbps(250), label="pair"
            )
            .with_ordering([0, 1])
        )
        program = compile_expression(expr, 3)
        blocks = build_constraint_blocks(program, cons)
        rng = np.random.default_rng(7)
        x = rng.uniform(1.0, 120.0, blocks.num_vars)
        bandwidths, aux = x[:3], x[3:]

        expected = []
        for row in cons.rows:  # equalities first, in designer order
            if row.is_equality:
                expected.append(np.dot(row.coeffs, bandwidths) - row.lower / _SCALE)
        for row in cons.rows:  # then each inequality: upper side, lower side
            if row.is_equality:
                continue
            if row.upper is not None:
                expected.append(row.upper / _SCALE - np.dot(row.coeffs, bandwidths))
            if row.lower is not None:
                expected.append(np.dot(row.coeffs, bandwidths) - row.lower / _SCALE)
        for row in program.max_constraints:
            expected.append(
                aux[row.aux] - row.const
                - sum(weight * aux[child] for child, weight in row.aux_weights)
            )
        for row in program.comm_constraints:
            expected.append(aux[row.aux] - row.coeff / bandwidths[row.dim])

        d = np.zeros(blocks.num_rows)
        blocks.values_into(d, x)
        assert blocks.num_eq == 1
        np.testing.assert_allclose(d, expected, rtol=1e-12, atol=1e-12)

    def test_driver_matches_scipy_fallback(self):
        """The slim driver reproduces scipy.optimize.minimize on the blocks."""
        from repro.core.kernel import _minimize_slsqp_fallback

        expr = CommTerm(((0, gbps(120)), (1, gbps(60)), (2, gbps(15))))
        cons = ConstraintSet(3).with_total_bandwidth(gbps(300))
        program = compile_expression(expr, 3)
        blocks = build_constraint_blocks(program, cons)
        gradient = np.concatenate([np.zeros(3), program.objective_weights])
        x0 = np.concatenate([np.full(3, 100.0), [2.0]])

        fast = minimize_slsqp(
            program.objective_value, lambda x: gradient, x0, blocks,
            maxiter=400, ftol=1e-10,
        )
        slow = _minimize_slsqp_fallback(
            program.objective_value, lambda x: gradient, x0, blocks,
            maxiter=400, ftol=1e-10,
        )
        assert fast.success and slow.success
        np.testing.assert_allclose(fast.x, slow.x, rtol=1e-7)


class TestInitialAux:
    def test_matches_reference_tree_evaluation(self):
        """Vectorized tight-aux values equal per-aux subtree evaluation."""
        expr = Sum(
            (
                MaxExpr(
                    (
                        Sum((Const(0.1), CommTerm(((0, gbps(20)),)))),
                        CommTerm(((1, gbps(30)), (2, gbps(5)))),
                    )
                ),
                CommTerm(((2, gbps(9)),)),
                Const(0.4),
            ),
            (2.0, 1.0, 1.0),
        )
        program = compile_expression(expr, 3)
        scaled = np.array([12.0, 88.0, 41.0])
        vectorized = program.initial_aux(scaled)
        reference = np.array(
            [node.evaluate(scaled * _SCALE) for node in program.aux_expressions]
        )
        np.testing.assert_allclose(vectorized, reference, rtol=1e-12)


class TestMemoization:
    def test_compile_memo_hit_on_warm_start(self):
        """One PerfPerCost solve compiles once; the warm start is a hit."""
        clear_solver_caches()
        expr = Sum(
            (CommTerm(((0, gbps(200)), (1, gbps(40)))), Const(0.01))
        )
        cons = ConstraintSet(2).with_total_bandwidth(gbps(200))
        minimize_time_cost_product(expr, cons, [1e-9, 5e-9])
        info = compile_expression.cache_info()
        assert info.misses == 1
        assert info.hits >= 1  # the inner PerfOpt warm start reused it

    def test_repeat_solve_fully_cached(self):
        """A second identical solve re-runs SLSQP but recompiles nothing."""
        clear_solver_caches()
        expr = CommTerm(((0, gbps(100)), (1, gbps(25))))
        cons = ConstraintSet(2).with_total_bandwidth(gbps(150))
        minimize_training_time(expr, cons)
        compile_misses = compile_expression.cache_info().misses
        traffic_misses = traffic_totals.cache_info().misses
        cons2 = ConstraintSet(2).with_total_bandwidth(gbps(150))
        minimize_training_time(expr, cons2)
        assert compile_expression.cache_info().misses == compile_misses
        assert traffic_totals.cache_info().misses == traffic_misses

    def test_traffic_totals_shared_array_is_read_only(self):
        clear_solver_caches()
        totals = traffic_totals(CommTerm(((0, 10.0),)), 2)
        with pytest.raises(ValueError):
            totals[0] = 99.0

    def test_simplify_memoized(self):
        clear_solver_caches()
        expr = Sum((CommTerm(((0, 5.0),)), CommTerm(((0, 5.0),))))
        first = simplify(expr)
        assert simplify(expr) is first
