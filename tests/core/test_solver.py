"""The constrained bandwidth optimizer: compilation, optimality, schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstraintSet,
    build_seeds,
    compile_expression,
    minimize_time_cost_product,
    minimize_training_time,
    traffic_totals,
)
from repro.training.expr import CommTerm, Const, MaxExpr, Sum
from repro.utils import gbps
from repro.utils.errors import OptimizationError


class TestCompile:
    def test_const_only(self):
        program = compile_expression(Const(5.0), 2)
        assert program.num_aux == 0
        assert program.objective_const == 5.0

    def test_comm_term_constraints(self):
        expr = CommTerm(((0, gbps(1)), (1, gbps(2))))
        program = compile_expression(expr, 2)
        assert program.num_aux == 1
        assert len(program.comm_constraints) == 2

    def test_max_node_constraints(self):
        expr = MaxExpr((Const(1.0), CommTerm(((0, gbps(1)),))))
        program = compile_expression(expr, 1)
        assert program.num_aux == 2  # comm aux + max aux
        assert len(program.max_constraints) == 2

    def test_objective_matches_evaluation_when_tight(self):
        expr = Sum((Const(2.0), CommTerm(((0, gbps(10)),))), (1.0, 3.0))
        program = compile_expression(expr, 1)
        bandwidths = np.array([5.0])  # GB/s scaled
        aux = program.initial_aux(bandwidths)
        x = np.concatenate([bandwidths, aux])
        assert program.objective_value(x) == pytest.approx(
            expr.evaluate([gbps(5)]), rel=1e-9
        )

    def test_dim_out_of_range(self):
        with pytest.raises(OptimizationError):
            compile_expression(CommTerm(((3, 1.0),)), 2)


class TestTrafficTotals:
    def test_sums_over_tree(self):
        expr = Sum(
            (CommTerm(((0, 10.0), (1, 5.0))), CommTerm(((1, 7.0),))), (2.0, 1.0)
        )
        totals = traffic_totals(expr, 3)
        assert totals[0] == pytest.approx(20.0)
        assert totals[1] == pytest.approx(17.0)
        assert totals[2] == 0.0


class TestSeeds:
    def test_seed_family_feasible(self):
        expr = CommTerm(((0, gbps(100)), (1, gbps(10))))
        cons = ConstraintSet(2).with_total_bandwidth(gbps(100))
        seeds = build_seeds(expr, cons)
        assert seeds
        for seed in seeds:
            assert cons.is_feasible(seed, tolerance=1e-4)

    def test_proportional_seed_included(self):
        expr = CommTerm(((0, gbps(300)), (1, gbps(100))))
        cons = ConstraintSet(2).with_total_bandwidth(gbps(400))
        seeds = build_seeds(expr, cons)
        assert any(np.allclose(seed, [gbps(300), gbps(100)], rtol=1e-3) for seed in seeds)

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.lists(
            st.floats(min_value=0.0, max_value=1e13), min_size=1, max_size=5
        ),
        data=st.data(),
    )
    def test_dedupe_rule_is_numpys_allclose(self, base, data):
        """Seed dedupe decides exactly as ``np.allclose(rtol=1e-6)``,
        including right at the tolerance edge."""
        from repro.core.solver import _seed_close

        scale = data.draw(st.sampled_from([0.0, 1e-9, 5e-7, 1e-6, 2e-6, 1e-3]))
        other = [
            value * (1 + scale * data.draw(st.sampled_from([-1.0, 1.0])))
            + data.draw(st.sampled_from([0.0, 1e-8, -1e-8, 2e-8]))
            for value in base
        ]
        for a, b in ((base, other), (other, base)):
            assert _seed_close(a, b) == bool(
                np.allclose(np.array(a), np.array(b), rtol=1e-6)
            )


class TestPerfOpt:
    def test_single_collective_waterfilling(self):
        """For one collective + budget, the optimum is traffic-proportional."""
        expr = CommTerm(((0, gbps(300)), (1, gbps(100))))
        cons = ConstraintSet(2).with_total_bandwidth(gbps(400))
        result = minimize_training_time(expr, cons)
        assert result.bandwidths[0] == pytest.approx(gbps(300), rel=1e-3)
        assert result.bandwidths[1] == pytest.approx(gbps(100), rel=1e-3)
        assert result.objective == pytest.approx(1.0, rel=1e-3)

    def test_beats_equal_split(self):
        expr = Sum(
            (
                CommTerm(((0, gbps(500)), (1, gbps(50)))),
                CommTerm(((1, gbps(80)), (2, gbps(20)))),
            )
        )
        cons = ConstraintSet(3).with_total_bandwidth(gbps(300))
        result = minimize_training_time(expr, cons)
        equal = expr.evaluate([gbps(100)] * 3)
        assert result.objective < equal

    def test_respects_dim_cap(self):
        expr = CommTerm(((0, gbps(100)), (1, gbps(100))))
        cons = (
            ConstraintSet(2)
            .with_total_bandwidth(gbps(200))
            .with_dim_cap(0, gbps(40))
        )
        result = minimize_training_time(expr, cons)
        assert result.bandwidths[0] <= gbps(40) * 1.001

    def test_respects_ordering(self):
        # Traffic wants dim1 >> dim0, but ordering forces B0 >= B1.
        expr = CommTerm(((0, gbps(10)), (1, gbps(100))))
        cons = (
            ConstraintSet(2)
            .with_total_bandwidth(gbps(100))
            .with_ordering([0, 1])
        )
        result = minimize_training_time(expr, cons)
        assert result.bandwidths[0] >= result.bandwidths[1] * 0.999

    def test_kkt_equalized_bottlenecks(self):
        """At the optimum of a single comm term, all dims are co-bottlenecked."""
        expr = CommTerm(((0, gbps(123)), (1, gbps(45)), (2, gbps(7))))
        cons = ConstraintSet(3).with_total_bandwidth(gbps(500))
        result = minimize_training_time(expr, cons)
        times = [coeff / result.bandwidths[dim] for dim, coeff in expr.coefficients]
        assert max(times) == pytest.approx(min(times), rel=1e-2)

    def test_compute_only_short_circuits(self):
        cons = ConstraintSet(2).with_total_bandwidth(gbps(100))
        result = minimize_training_time(Const(3.0), cons)
        assert result.success
        assert result.objective == 3.0

    def test_overlap_expression(self):
        """Max nodes compile and solve: optimizer hides the cheaper branch."""
        expr = MaxExpr(
            (
                CommTerm(((0, gbps(100)),)),
                Sum((Const(0.1), CommTerm(((1, gbps(50)),)))),
            )
        )
        cons = ConstraintSet(2).with_total_bandwidth(gbps(200))
        result = minimize_training_time(expr, cons)
        equal = expr.evaluate([gbps(100), gbps(100)])
        assert result.objective <= equal + 1e-9


class TestPerfPerCost:
    def test_never_worse_than_perf_opt_on_product(self):
        expr = Sum(
            (
                CommTerm(((0, gbps(500)), (1, gbps(50)))),
                CommTerm(((1, gbps(80)), (2, gbps(20)))),
                Const(0.05),
            )
        )
        cons = ConstraintSet(3).with_total_bandwidth(gbps(300))
        rates = np.array([2.0, 10.0, 40.0]) / 1e9  # $ per byte/s
        perf = minimize_training_time(expr, cons)
        ppc = minimize_time_cost_product(expr, cons, rates)
        perf_product = expr.evaluate(perf.bandwidths) * float(
            rates @ np.array(perf.bandwidths)
        )
        assert ppc.objective <= perf_product * 1.0001

    def test_prefers_cheap_dims(self):
        """With symmetric traffic but asymmetric prices, the optimizer
        shifts bandwidth toward the cheap dimension."""
        expr = Sum((CommTerm(((0, gbps(100)),)), CommTerm(((1, gbps(100)),))))
        cons = ConstraintSet(2).with_total_bandwidth(gbps(200), equality=False)
        rates = np.array([1.0, 50.0]) / 1e9
        result = minimize_time_cost_product(expr, cons, rates)
        assert result.bandwidths[0] > result.bandwidths[1]

    def test_wrong_rate_count(self):
        expr = CommTerm(((0, gbps(1)),))
        cons = ConstraintSet(1).with_total_bandwidth(gbps(10))
        with pytest.raises(OptimizationError):
            minimize_time_cost_product(expr, cons, [1.0, 2.0])


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.floats(min_value=0.5, max_value=1000.0), min_size=2, max_size=4),
    st.floats(min_value=100.0, max_value=2000.0),
)
def test_property_perf_opt_beats_equal_bw(coeffs, total_gbps):
    """PerfOpt is never worse than EqualBW on any single-collective instance."""
    coefficients = tuple((dim, gbps(c)) for dim, c in enumerate(coeffs))
    expr = CommTerm(coefficients)
    cons = ConstraintSet(len(coeffs)).with_total_bandwidth(gbps(total_gbps))
    result = minimize_training_time(expr, cons)
    equal = expr.evaluate([gbps(total_gbps) / len(coeffs)] * len(coeffs))
    assert result.objective <= equal * 1.001
    assert cons.is_feasible(result.bandwidths, tolerance=1e-3)
