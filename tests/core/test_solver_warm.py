"""Warm-vs-cold equivalence of the continuation solver entry point.

Continuation is PerfPerCostOptBW's alone: a PerfOptBW answer is one
interior-point run that takes no warm start (``test_interior_point.py``
pins that its answer depends on the problem alone). The documented
continuation contract: a warm-started solve returns a design point whose
*achieved objective* is never worse than the cold multi-start path's by
more than ``OBJECTIVE_RTOL`` (2e-2 relative — the same one-sided tolerance
the sweep benchmark gates on; warm may be *better*, since a good seed can
escape a line-search stall the cold family hits), never silently degrades
below the seed family's own evaluations, and falls back to the full
fan-out whenever the trust check fails. Budget chains are exercised in
both ascending and descending order across three Table-II workloads.
"""

import numpy as np
import pytest

from repro.api.scenario import build_scenario
from repro.api.service import get_service
from repro.core.constraints import ConstraintSet
from repro.core.solver import minimize_time_cost_product, project_warm_start
from repro.cost.estimator import cost_rates
from repro.utils.units import gbps

#: The documented warm-vs-cold objective tolerance (relative).
OBJECTIVE_RTOL = 2e-2

TOPOLOGY = "3D-512"
WORKLOADS = ("Turing-NLG", "GPT-3", "DLRM")  # three Table-II workloads
BUDGETS = (150.0, 300.0, 600.0)


def _problem(workload: str):
    scenario = build_scenario(TOPOLOGY, [workload], total_bw_gbps=BUDGETS[0])
    engine = get_service().engine(scenario)
    expression = engine.combined_expression()
    rates = np.asarray(
        cost_rates(scenario.network, engine.cost_model)
    ) * scenario.network.num_npus
    num_dims = scenario.network.num_dims
    return expression, rates, num_dims


def _constraints(num_dims: int, budget: float) -> ConstraintSet:
    return ConstraintSet(num_dims).with_total_bandwidth(gbps(budget))


def _solve(expression, rates, num_dims, scheme, budget, warm=None, **kwargs):
    assert scheme == "perf-per-cost"
    return minimize_time_cost_product(
        expression, _constraints(num_dims, budget), rates,
        warm_start=warm, **kwargs,
    )


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("scheme", ["perf-per-cost"])
    @pytest.mark.parametrize("ascending", [True, False], ids=["asc", "desc"])
    def test_chain_matches_cold(self, workload, scheme, ascending):
        """A warm chain's objectives match the cold path cell for cell."""
        expression, rates, num_dims = _problem(workload)
        budgets = BUDGETS if ascending else tuple(reversed(BUDGETS))

        cold = {
            budget: _solve(expression, rates, num_dims, scheme, budget)
            for budget in budgets
        }
        warm_results = {}
        warm = None
        for budget in budgets:
            result = _solve(
                expression, rates, num_dims, scheme, budget, warm=warm
            )
            warm_results[budget] = result
            warm = np.asarray(result.bandwidths)

        for budget in budgets:
            reference = cold[budget].objective
            achieved = warm_results[budget].objective
            # One-sided: continuation may legitimately *beat* the cold
            # multi-start (a warm seed can escape a line-search stall the
            # cold family hits), but must never be meaningfully worse.
            assert achieved <= reference * (1 + OBJECTIVE_RTOL), (
                f"{workload}/{scheme} @ {budget} GB/s: warm {achieved} vs "
                f"cold {reference}"
            )
        # The first cell of a chain is cold; later cells carry diagnostics.
        first, *rest = budgets
        assert warm_results[first].warm_start == ""
        for budget in rest:
            assert warm_results[budget].warm_start in (
                "accepted",
            ) or warm_results[budget].warm_start.startswith("rejected")

    @pytest.mark.parametrize("scheme", ["perf-per-cost"])
    def test_accepted_warm_run_uses_one_start(self, scheme):
        expression, rates, num_dims = _problem("Turing-NLG")
        prior = _solve(expression, rates, num_dims, scheme, 300.0)
        warm = _solve(
            expression, rates, num_dims, scheme, 360.0,
            warm=np.asarray(prior.bandwidths),
        )
        assert warm.warm_start == "accepted"
        assert warm.starts == 1
        assert prior.starts > 1  # the cold path fans out

    @pytest.mark.parametrize("scheme", ["perf-per-cost"])
    def test_forced_distrust_falls_back_to_full_fanout(self, scheme, monkeypatch):
        """A trust rtol of -1 makes every warm run fail the trust check, so
        the solve must fan out cold and still return the cold answer."""
        import repro.core.solver as solver

        expression, rates, num_dims = _problem("Turing-NLG")
        prior = _solve(expression, rates, num_dims, scheme, 300.0)
        cold = _solve(expression, rates, num_dims, scheme, 360.0)
        monkeypatch.setattr(solver, "WARM_TRUST_RTOL", -1.0)
        rejected = _solve(
            expression, rates, num_dims, scheme, 360.0,
            warm=np.asarray(prior.bandwidths),
        )
        assert rejected.warm_start == "rejected:drift"
        assert rejected.starts > 1
        assert rejected.objective <= cold.objective * (1 + 1e-9)

    @pytest.mark.parametrize("scheme", ["perf-per-cost"])
    def test_unprojectable_warm_start_solves_cold(self, scheme):
        expression, rates, num_dims = _problem("Turing-NLG")
        cold = _solve(expression, rates, num_dims, scheme, 300.0)
        result = _solve(
            expression, rates, num_dims, scheme, 300.0,
            warm=np.zeros(num_dims),  # all-zero shares cannot be projected
        )
        assert result.warm_start == "rejected:unprojectable"
        assert result.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_warm_never_worse_than_seed_floor(self):
        """The trust check's guarantee: an accepted warm objective cannot
        sit above the best raw seed evaluation (within the trust rtol)."""
        from repro.core.solver import WARM_TRUST_RTOL, build_seeds
        from repro.training.expr import simplify, vector_evaluator

        expression, rates, num_dims = _problem("GPT-3")
        prior = _solve(expression, rates, num_dims, "perf-per-cost", 150.0)
        constraints = _constraints(num_dims, 600.0)
        warm = minimize_time_cost_product(
            expression, constraints, rates,
            warm_start=np.asarray(prior.bandwidths),
        )
        evaluate = vector_evaluator(simplify(expression))
        seed_floor = min(
            evaluate(seed) * float(rates @ seed)
            for seed in build_seeds(expression, constraints, cost_rates=rates)
        )
        assert warm.objective <= seed_floor * (1 + WARM_TRUST_RTOL)


class TestMaxStarts:
    """``max_starts`` caps PerfPerCost's seed family; the inner PerfOpt
    seed always joins it, so a cap of one runs two starts."""

    def test_max_starts_truncates_the_family(self):
        expression, rates, num_dims = _problem("Turing-NLG")
        full = _solve(expression, rates, num_dims, "perf-per-cost", 300.0)
        capped = _solve(
            expression, rates, num_dims, "perf-per-cost", 300.0, max_starts=1
        )
        assert capped.starts == 2
        assert full.starts > 2
        # The full family's starts include the capped family's.
        assert full.objective <= capped.objective

    def test_max_starts_floor_is_one_seed(self):
        expression, rates, num_dims = _problem("Turing-NLG")
        result = _solve(
            expression, rates, num_dims, "perf-per-cost", 300.0, max_starts=0
        )
        assert result.starts == 2


class TestProjection:
    def test_budget_rescaling_keeps_shares(self):
        constraints = ConstraintSet(3).with_total_bandwidth(gbps(600))
        prior = np.asarray([gbps(100), gbps(150), gbps(50)])
        projected = project_warm_start(prior, constraints)
        assert projected is not None
        assert projected.sum() == pytest.approx(gbps(600))
        assert projected / projected.sum() == pytest.approx(
            prior / prior.sum()
        )

    def test_caps_are_honoured(self):
        constraints = (
            ConstraintSet(3)
            .with_total_bandwidth(gbps(600))
            .with_dim_cap(0, gbps(100))
        )
        prior = np.asarray([gbps(500), gbps(50), gbps(50)])
        projected = project_warm_start(prior, constraints)
        assert projected is not None
        assert projected[0] <= gbps(100) * (1 + 1e-9)
        assert projected.sum() == pytest.approx(gbps(600))

    def test_wrong_dimensionality_is_unprojectable(self):
        constraints = ConstraintSet(3).with_total_bandwidth(gbps(600))
        assert project_warm_start(np.ones(2), constraints) is None

    def test_nonfinite_is_unprojectable(self):
        constraints = ConstraintSet(3).with_total_bandwidth(gbps(600))
        assert project_warm_start(
            np.asarray([np.nan, 1.0, 1.0]), constraints
        ) is None
