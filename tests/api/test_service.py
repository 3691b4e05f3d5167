"""LibraService dispatch, engine memoization, and facade equivalence."""

import json

import pytest

from repro.api.requests import (
    REQUEST_SCHEMA_VERSION,
    RESPONSE_SCHEMA_VERSION,
    BatchRequest,
    OptimizeRequest,
    OptimizeResponse,
    request_from_dict,
    request_to_dict,
)
from repro.api.scenario import build_scenario
from repro.api.service import LibraService, get_service
from repro.core import Libra, Scheme
from repro.core.kernel import CERTIFIED_GAP
from repro.explore.spec import SweepSpec
from repro.topology.network import MultiDimNetwork
from repro.utils import gbps
from repro.utils.errors import ConfigurationError, OptimizationError
from repro.workloads import build_workload

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _facade(constraint_builder):
    network = MultiDimNetwork.from_notation(TOPOLOGY)
    libra = Libra(network)
    libra.add_workload(build_workload(WORKLOAD, network.num_npus))
    return libra, constraint_builder(libra.constraints())


CONSTRAINT_VARIANTS = {
    "budget": lambda c: c.with_total_bandwidth(gbps(300)),
    "budget+cap": lambda c: c.with_total_bandwidth(gbps(300)).with_dim_cap(
        1, gbps(60)
    ),
    "budget+ordering": lambda c: c.with_total_bandwidth(gbps(300)).with_ordering(
        [0, 1]
    ),
}


class TestFacadeEquivalence:
    """`submit()` must be bit-identical to the `Libra.optimize` path."""

    @pytest.mark.parametrize("scheme", [Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT])
    @pytest.mark.parametrize("variant", sorted(CONSTRAINT_VARIANTS))
    def test_bit_identical_bandwidths(self, scheme, variant):
        libra, constraints = _facade(CONSTRAINT_VARIANTS[variant])
        expected = libra.optimize(scheme, constraints)

        scenario = build_scenario(
            TOPOLOGY,
            [WORKLOAD],
            constraints=CONSTRAINT_VARIANTS[variant](
                libra.constraints()
            ),
        )
        response = LibraService().submit(
            OptimizeRequest(scenario=scenario, scheme=scheme)
        )
        assert response.point.bandwidths == expected.bandwidths
        assert response.point.step_times == expected.step_times
        assert response.point.network_cost == expected.network_cost

    def test_equal_bw_request(self):
        libra, constraints = _facade(CONSTRAINT_VARIANTS["budget"])
        expected = libra.equal_bw_point(gbps(300))
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        response = LibraService().submit(
            OptimizeRequest(scenario=scenario, scheme=Scheme.EQUAL_BW)
        )
        assert response.point.bandwidths == expected.bandwidths
        assert response.speedup_over_baseline == 1.0

    def test_explicit_evaluation_request(self):
        libra, _ = _facade(CONSTRAINT_VARIANTS["budget"])
        expected = libra.evaluate([gbps(200), gbps(100)])
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        response = LibraService().submit(
            OptimizeRequest(scenario=scenario, bandwidths_gbps=(200, 100))
        )
        assert response.point.bandwidths == expected.bandwidths
        assert response.point.step_times == expected.step_times


class TestResponses:
    def test_response_is_json_dumpable(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        response = LibraService().submit(OptimizeRequest(scenario=scenario))
        payload = response.to_dict()
        rebuilt = OptimizeResponse.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.point.bandwidths == response.point.bandwidths
        assert payload["schema_version"] == RESPONSE_SCHEMA_VERSION

    def test_request_round_trips(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        request = OptimizeRequest(scenario=scenario, scheme="perf-per-cost")
        rebuilt = OptimizeRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt.scenario.key() == scenario.key()
        assert rebuilt.scheme is Scheme.PERF_PER_COST_OPT

    def test_older_payloads_with_retired_keys_parse(self):
        """Payloads and job records written before schema v6 still load:
        their ``warm_start``/``max_starts`` fields and the ``kernel`` key
        are ignored."""
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        request = OptimizeRequest(scenario=scenario, scheme="perf-per-cost")
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["schema_version"] == REQUEST_SCHEMA_VERSION == 6
        assert not {"warm_start", "max_starts", "kernel"} & set(payload)
        payload.update(
            schema_version=5, warm_start=[200.0, 100.0], max_starts=3,
            kernel="closures",
        )
        assert OptimizeRequest.from_dict(payload).to_dict() == request.to_dict()
        envelope = request_to_dict(request)
        envelope["schema_version"] = 5
        envelope["request"].update(payload)
        assert request_from_dict(envelope).to_dict() == request.to_dict()

    def test_legacy_request_payload_parses(self):
        """Version-1 payloads carry no schema_version."""
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        payload = OptimizeRequest(scenario=scenario).to_dict()
        del payload["schema_version"]
        rebuilt = OptimizeRequest.from_dict(payload)
        assert rebuilt.to_dict() == OptimizeRequest(scenario=scenario).to_dict()

    def test_unknown_request_schema_version_rejected(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        payload = OptimizeRequest(scenario=scenario).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="request schema version"):
            OptimizeRequest.from_dict(payload)

    def test_baseline_omitted_on_request(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        response = LibraService().submit(
            OptimizeRequest(scenario=scenario, include_baseline=False)
        )
        assert response.baseline is None
        assert response.speedup_over_baseline is None

    def test_constraintless_scenario_needs_bandwidths(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD])
        with pytest.raises(ConfigurationError, match="no constraints"):
            OptimizeRequest(scenario=scenario)
        # ...but an explicit evaluation is fine.
        response = LibraService().submit(
            OptimizeRequest(scenario=scenario, bandwidths_gbps=(100, 100))
        )
        assert response.baseline is None

    def test_equal_bw_without_budget_rejected(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD])
        with pytest.raises(OptimizationError, match="total-bandwidth budget"):
            LibraService._budget(scenario)

    def test_wrong_bandwidth_count_rejected(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        with pytest.raises(ConfigurationError, match="expected 2 bandwidths"):
            OptimizeRequest(scenario=scenario, bandwidths_gbps=(100,))

    def test_unknown_request_type(self):
        with pytest.raises(ConfigurationError, match="unknown request type"):
            LibraService().submit(object())


class TestMemoization:
    def test_engine_memoized_on_canonical_key(self):
        service = LibraService()
        a = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        b = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        assert service.engine(a) is service.engine(b)
        assert service.compiled_count == 1

    def test_budget_cells_share_one_engine(self):
        """Constraints are applied per request, not compiled in — sweep
        columns differing only in budget must reuse one engine."""
        service = LibraService()
        a = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        b = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=400)
        assert a.key() != b.key()
        assert a.engine_key() == b.engine_key()
        assert service.engine(a) is service.engine(b)
        assert service.compiled_count == 1

    def test_distinct_problems_get_distinct_engines(self):
        service = LibraService()
        a = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        b = build_scenario(
            TOPOLOGY, [WORKLOAD], total_bw_gbps=300, loop="tp-dp-overlap"
        )
        assert service.engine(a) is not service.engine(b)
        assert service.compiled_count == 2

    def test_lru_eviction(self):
        service = LibraService(max_compiled=1)
        a = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        b = build_scenario(
            TOPOLOGY, [WORKLOAD], total_bw_gbps=300, loop="tp-dp-overlap"
        )
        first = service.engine(a)
        service.engine(b)
        assert service.compiled_count == 1
        assert service.engine(a) is not first  # evicted, recompiled

    def test_clear(self):
        service = LibraService()
        service.engine(build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300))
        service.clear()
        assert service.compiled_count == 0

    def test_default_service_is_shared(self):
        assert get_service() is get_service()


class TestBatch:
    def test_batch_routes_through_explore_cache(self, tmp_path):
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            topologies=(TOPOLOGY,),
            bandwidths_gbps=(100.0, 300.0),
        )
        service = LibraService()
        cold = service.submit(
            BatchRequest(spec=spec, cache_dir=str(tmp_path / "cache"))
        )
        assert cold.sweep.solver_calls == 2
        assert cold.sweep.num_errors == 0
        warm = service.submit(
            BatchRequest(spec=spec, cache_dir=str(tmp_path / "cache"))
        )
        assert warm.sweep.solver_calls == 0
        assert warm.sweep.cache_hits == 2
        assert json.dumps(warm.to_dict())

    def test_in_memory_batch_cache_is_per_service(self):
        """Without cache_dir, repeat submissions against one service reuse
        solved cells (the documented per-service in-memory cache)."""
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            topologies=(TOPOLOGY,),
            bandwidths_gbps=(100.0, 300.0),
        )
        service = LibraService()
        cold = service.submit(BatchRequest(spec=spec))
        assert cold.sweep.solver_calls == 2
        warm = service.submit(BatchRequest(spec=spec))
        assert warm.sweep.solver_calls == 0
        assert warm.sweep.cache_hits == 2
        # ...but a fresh service starts cold.
        other = LibraService().submit(BatchRequest(spec=spec))
        assert other.sweep.solver_calls == 2

    def test_batch_rows_match_single_requests(self):
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            topologies=(TOPOLOGY,),
            bandwidths_gbps=(300.0,),
        )
        service = LibraService()
        batch = service.submit(BatchRequest(spec=spec))
        single = service.submit(
            OptimizeRequest(
                scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
            )
        )
        row = batch.sweep.results[0]
        assert row.bandwidths_gbps == single.point.bandwidths_gbps()
        assert row.speedup_over_equal == single.speedup_over_baseline

    def test_bad_worker_count(self):
        spec = SweepSpec(
            workloads=(WORKLOAD,), topologies=(TOPOLOGY,), bandwidths_gbps=(100.0,)
        )
        with pytest.raises(ConfigurationError, match="workers"):
            BatchRequest(spec=spec, workers=0)


class TestDiagnostics:
    """Solve responses report the kernel runs the solve took."""

    def test_evaluation_and_equal_bw_have_no_diagnostics(self):
        service = LibraService()
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        evaluated = service.submit(
            OptimizeRequest(scenario=scenario, bandwidths_gbps=(200, 100))
        )
        assert evaluated.diagnostics is None
        equal = service.submit(
            OptimizeRequest(scenario=scenario, scheme=Scheme.EQUAL_BW)
        )
        assert equal.diagnostics is None

    @pytest.mark.parametrize("scheme", [Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT])
    def test_diagnostics_serialize(self, scheme):
        service = LibraService()
        response = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            scheme=scheme,
        ))
        payload = json.loads(json.dumps(response.to_dict()))
        assert set(payload["diagnostics"]) == {"gap", "iterations"}
        assert payload["diagnostics"]["gap"] <= CERTIFIED_GAP
        assert payload["diagnostics"]["iterations"] > 0
        rebuilt = OptimizeResponse.from_dict(payload)
        assert rebuilt.diagnostics == payload["diagnostics"]

    def test_v5_response_with_run_count_diagnostics_still_reads(self):
        """Responses written before the certified diagnostics carry
        ``{"starts": 1}``; they decode unchanged."""
        response = LibraService().submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
        ))
        payload = {**response.to_dict(), "diagnostics": {"starts": 1}}
        assert payload["schema_version"] == 5
        rebuilt = OptimizeResponse.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.diagnostics == {"starts": 1}
        assert rebuilt.point == response.point
