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
from repro.core import certify_optimum
from repro.topology import EVALUATION_TOPOLOGIES
from repro.utils.errors import MappingError
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


class TestBindingSetAgreement:
    """The binding set must agree with direct-re-evaluation optimality on
    every preset topology × Table-II workload pair."""

    @pytest.mark.parametrize("topology,workload", PAIRS)
    def test_optimum_certified_and_binding_set_consistent(
        self, topology, workload
    ):
        try:
            structure, response = _structure_at_optimum(topology, workload)
        except MappingError as exc:
            pytest.skip(f"unmappable pair: {exc}")
        # The solver's optimum certifies under direct re-evaluation: no
        # pairwise bandwidth transfer improves the step time.
        assert structure.certificate["certified"], (
            f"{workload} on {topology}: best transfer gain "
            f"{structure.certificate['best_gain']:.3e}"
        )
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

    def test_certificate_rejects_perturbed_point(self):
        service = LibraService()
        scenario = _scenario("3D-512", "Turing-NLG")
        response = service.submit(OptimizeRequest(scenario=scenario))
        expression = service.engine(scenario).combined_expression()
        point = list(response.point.bandwidths)
        # Move a chunk of bandwidth from the most valuable dim to another:
        # the certificate must detect the improving reverse transfer.
        structure = bottleneck_structure(expression, tuple(point))
        best = structure.most_valuable_dim
        other = next(i for i in range(len(point)) if i != best)
        shift = 0.4 * point[best]
        point[best] -= shift
        point[other] += shift
        certificate = certify_optimum(expression, tuple(point))
        assert not certificate.certified
        assert certificate.best_gain > 0


class TestConstraintAwareCertificate:
    """Probes the constraint set rejects are not available improvements."""

    def test_capped_optimum_certifies_and_perturbation_does_not(self):
        service = LibraService()
        scenario = build_scenario(
            "3D-512", ["MoE-1T"], total_bw_gbps=400.0, dim_caps_gbps=[(2, 60.0)]
        )
        constraints = scenario.constraints
        response = service.submit(OptimizeRequest(scenario=scenario))
        expression = service.engine(scenario).combined_expression()
        point = list(response.point.bandwidths)
        assert point[2] == pytest.approx(gbps(60.0), rel=1e-6)  # cap binds

        structure = bottleneck_structure(expression, point, constraints)
        assert structure.certificate["certified"], structure.certificate
        # Without the constraint set, the transfer into the capped
        # dimension reads as a gain.
        assert not certify_optimum(expression, point).certified

        shift = 0.05 * point[0]
        point[0] -= shift
        point[1] += shift
        assert constraints.is_feasible(point)
        perturbed = bottleneck_structure(expression, point, constraints)
        assert not perturbed.certificate["certified"]
        assert perturbed.certificate["best_move"] == [1, 0]


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
