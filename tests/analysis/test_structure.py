"""Bottleneck structure: binding sets, transfer gradients, attribution."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bottleneck_structure,
    build_report,
    format_report,
    wasteless_baseline,
)
from repro.analysis.report import AnalysisReport
from repro.api import AnalyzeRequest, LibraService, OptimizeRequest, build_scenario
from repro.core import ConstraintSet, minimize_training_time
from repro.core.kernel import CERTIFIED_GAP
from repro.topology import EVALUATION_TOPOLOGIES
from repro.training.expr import CommTerm, Const, Sum, vector_evaluator
from repro.utils.errors import ConfigurationError, MappingError
from repro.utils.units import gbps
from repro.workloads import workload_names

BUDGET_GBPS = 300.0


def _scenario(topology, workload):
    return build_scenario(topology, [workload], total_bw_gbps=BUDGET_GBPS)


def _structure_at_optimum(topology, workload):
    service = LibraService()
    scenario = _scenario(topology, workload)
    response = service.submit(OptimizeRequest(scenario=scenario))
    expression = service.engine(scenario).combined_expression()
    return bottleneck_structure(
        expression, response.point.bandwidths, scenario.constraints
    ), response


PAIRS = [
    (topology, workload)
    for topology in EVALUATION_TOPOLOGIES
    for workload in workload_names()
]


#: One collective whose water-filling optimum under a 450 GB/s budget
#: loads every dimension.
WATER_FILLING = CommTerm(((0, gbps(300)), (1, gbps(120)), (2, gbps(30))))


def _water_filling_optimum():
    constraints = ConstraintSet(3).with_total_bandwidth(gbps(450))
    return minimize_training_time(WATER_FILLING, constraints).bandwidths


class TestBindingSetAgreement:
    """The binding set must agree with the solver's certified optimum on
    every preset topology × Table-II workload pair."""

    @pytest.mark.parametrize("topology,workload", PAIRS)
    def test_optimum_certified_and_binding_set_consistent(
        self, topology, workload
    ):
        try:
            structure, response = _structure_at_optimum(topology, workload)
        except MappingError as exc:
            pytest.skip(f"unmappable pair: {exc}")
        # The analyzed point is the solver's answer, which exists only
        # certified.
        assert response.diagnostics["gap"] <= CERTIFIED_GAP
        # The binding set is non-empty and contains the most valuable
        # dimension (the most negative backward marginal).
        assert structure.binding_dims
        assert structure.most_valuable_dim in structure.binding_dims
        # Backward marginals never say "more bandwidth hurts".
        assert all(m <= 1e-12 for m in structure.marginals)
        # Kink gaps are one-sided: forward slope >= backward slope at a
        # water-filling optimum (up to finite-difference noise).
        step = max(structure.step_time, 1.0)
        assert all(g >= -1e-6 * step for g in structure.kink_gaps)

    @pytest.mark.parametrize(
        "case", ["const", "one-collective", "max-of-two", "water-filling"]
    )
    def test_marginals_and_binding_set(self, case):
        """Backward marginals and the binding set on known expressions: a
        constant has none; ``coeff/B`` has slope ``−coeff/B²``; only the
        bottleneck dimension of a max binds; at a water-filling optimum
        every loaded dimension binds: taking bandwidth from any one costs
        ``T/B_i`` per byte/s, while adding it to one alone buys nothing."""
        coeff = gbps(100)
        if case == "const":
            structure = bottleneck_structure(Const(5.0), [gbps(100)] * 2)
            assert structure.marginals == (0.0, 0.0)
            assert structure.binding_dims == ()
        elif case == "one-collective":
            structure = bottleneck_structure(
                CommTerm(((0, coeff),)), [gbps(50)]
            )
            assert structure.marginals[0] == pytest.approx(
                -coeff / gbps(50) ** 2, rel=1e-3
            )
            assert structure.binding_dims == (0,)
        elif case == "max-of-two":
            structure = bottleneck_structure(
                CommTerm(((0, coeff), (1, gbps(1)))), [gbps(10)] * 2
            )
            assert structure.marginals[0] < 0 and structure.marginals[1] == 0.0
            assert structure.binding_dims == (0,)
        else:
            point = _water_filling_optimum()
            structure = bottleneck_structure(WATER_FILLING, point)
            for bandwidth, backward, forward in zip(
                point, structure.marginals, structure.forward_marginals
            ):
                assert -backward * bandwidth == pytest.approx(
                    structure.step_time, rel=1e-3
                )
                assert abs(forward) < 1e-6 * abs(backward)
            assert structure.binding_dims == (structure.most_valuable_dim,)

    def test_rejects_points_that_are_not_positive_vectors(self):
        for point in ([], [0.0], [gbps(1), -1.0]):
            with pytest.raises(ConfigurationError):
                bottleneck_structure(Const(1.0), point)

    def test_most_valuable_dim_at_equal_bw_carries_the_bulk(self):
        """GPT-3 on 4D-4K at an equal split: dim 0 carries the TP bulk, so
        it is where a GB/s is worth most."""
        service = LibraService()
        scenario = build_scenario("4D-4K", ["GPT-3"], total_bw_gbps=500)
        expression = service.engine(scenario).combined_expression()
        structure = bottleneck_structure(expression, [gbps(125)] * 4)
        assert structure.most_valuable_dim == 0


class TestTransferMatrix:
    @settings(deadline=None, max_examples=25)
    @given(
        bandwidths=st.lists(
            st.floats(min_value=1.0, max_value=1000.0), min_size=3, max_size=3
        )
    )
    def test_antisymmetry(self, bandwidths):
        """G[i][j] = -G[j][i] for arbitrary positive points (hypothesis)."""
        service = LibraService()
        scenario = _scenario("3D-512", "Turing-NLG")
        expression = service.engine(scenario).combined_expression()
        point = tuple(gbps(b) for b in bandwidths)
        structure = bottleneck_structure(expression, point)
        matrix = structure.transfer_matrix
        for i in range(len(point)):
            assert matrix[i][i] == 0.0
            for j in range(len(point)):
                assert matrix[i][j] == pytest.approx(-matrix[j][i], abs=0.0)

    def test_ranks_the_improving_move_at_a_perturbed_point(self):
        """Shifting bandwidth off the optimum's most valuable dimension:
        the matrix ranks moving it back as an improvement, and
        re-evaluation agrees."""
        service = LibraService()
        scenario = _scenario("3D-512", "Turing-NLG")
        response = service.submit(OptimizeRequest(scenario=scenario))
        expression = service.engine(scenario).combined_expression()
        point = list(response.point.bandwidths)
        best = bottleneck_structure(expression, point).most_valuable_dim
        other = next(i for i in range(len(point)) if i != best)
        shift = 0.4 * point[best]
        point[best] -= shift
        point[other] += shift
        structure = bottleneck_structure(expression, point)
        assert structure.transfer_matrix[other][best] > 0
        moved = list(point)
        moved[other] -= 0.01 * shift
        moved[best] += 0.01 * shift
        evaluate = vector_evaluator(expression)
        assert evaluate(moved) < evaluate(point)

    def test_direction_between_two_collectives(self):
        """Moving bandwidth from the lightly loaded dimension to the heavy
        one helps; the reverse hurts."""
        expr = Sum((CommTerm(((0, gbps(100)),)), CommTerm(((1, gbps(10)),))))
        matrix = bottleneck_structure(expr, [gbps(20)] * 2).transfer_matrix
        assert matrix[1][0] > 0 > matrix[0][1]

    def test_transfer_matrix_matches_marginal_difference(self):
        structure, _ = _structure_at_optimum("3D-512", "GPT-3")
        for i, row in enumerate(structure.transfer_matrix):
            for j, value in enumerate(row):
                expected = structure.marginals[i] - structure.marginals[j]
                assert value == pytest.approx(expected, abs=0.0)


class TestAttribution:
    def test_rows_cover_compiled_blocks(self):
        structure, _ = _structure_at_optimum("3D-512", "Turing-NLG")
        kinds = {row.kind for row in structure.attributions}
        assert "equality" in kinds  # the total-bandwidth budget row
        assert "comm" in kinds
        # Every binding row references the point's dimensions sensibly.
        for row in structure.binding_rows():
            assert all(0 <= dim < 3 for dim in row.dims)

    def test_wasteless_baseline_honours_budget(self):
        service = LibraService()
        scenario = _scenario("3D-512", "Turing-NLG")
        expression = service.engine(scenario).combined_expression()
        point = tuple(gbps(b) for b in (100.0, 100.0, 100.0))
        baseline = wasteless_baseline(expression, point, scenario.constraints)
        assert baseline is not None
        assert sum(baseline) == pytest.approx(gbps(BUDGET_GBPS), rel=1e-9)


class TestReportRoundTrip:
    def test_json_stable(self):
        structure, _ = _structure_at_optimum("3D-512", "Turing-NLG")
        report = build_report(structure, scheme="PerfOptBW")
        payload = json.loads(json.dumps(report.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.to_dict() == report.to_dict()
        assert "binding" in format_report(report)
        assert "certificate" not in payload
        assert "certificate" not in format_report(report)

    def test_v1_payload_with_a_certificate_still_reads(self):
        """Reports written under analysis schema 1 carry the pairwise
        probe's ``certificate``; decoding ignores it."""
        structure, _ = _structure_at_optimum("3D-512", "Turing-NLG")
        report = build_report(structure, scheme="PerfOptBW")
        payload = {
            **report.to_dict(),
            "analysis_schema_version": 1,
            "certificate": {
                "step_time": report.step_time, "relative_delta": 0.01,
                "tolerance": 1e-6, "best_gain": 0.0, "best_move": None,
                "certified": True,
            },
        }
        assert AnalysisReport.from_dict(payload) == report
        with pytest.raises(ConfigurationError, match="analysis_schema_version"):
            AnalysisReport.from_dict({**payload, "analysis_schema_version": 3})


class TestReadOnly:
    def test_analysis_never_perturbs_solver_results(self):
        """Equivalence gate: optimize → analyze → optimize must be
        bit-identical — the analysis subsystem is read-only."""
        service = LibraService()
        scenario = _scenario("3D-512", "Turing-NLG")
        before = service.submit(OptimizeRequest(scenario=scenario)).to_dict()
        service.submit(AnalyzeRequest(scenario=scenario))
        service.clear()
        after = service.submit(OptimizeRequest(scenario=scenario)).to_dict()
        assert before == after
