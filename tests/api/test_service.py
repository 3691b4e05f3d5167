"""LibraService dispatch, engine memoization, and facade equivalence."""

import json

import pytest

from repro.api.requests import (
    REQUEST_SCHEMA_VERSION,
    RESPONSE_SCHEMA_VERSION,
    WARM_START_AUTO,
    BatchRequest,
    OptimizeRequest,
    OptimizeResponse,
    request_from_dict,
    request_to_dict,
)
from repro.api.scenario import build_scenario
from repro.api.service import LibraService, get_service
from repro.core import Libra, Scheme
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

    def test_v5_payload_with_kernel_key_parses(self):
        """Payloads and job records written while the solver had a
        ``kernel`` choice still load; the key is ignored."""
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        request = OptimizeRequest(scenario=scenario, scheme="perf-per-cost")
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["schema_version"] == 5
        assert "kernel" not in payload
        payload["kernel"] = "closures"
        assert OptimizeRequest.from_dict(payload).to_dict() == request.to_dict()
        envelope = request_to_dict(request)
        envelope["request"]["kernel"] = "closures"
        assert request_from_dict(envelope).to_dict() == request.to_dict()

    def test_request_round_trips_continuation_fields(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        request = OptimizeRequest(
            scenario=scenario, warm_start=(200.0, 100.0), max_starts=3
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["schema_version"] == REQUEST_SCHEMA_VERSION
        rebuilt = OptimizeRequest.from_dict(payload)
        assert rebuilt.warm_start == (200.0, 100.0)
        assert rebuilt.max_starts == 3
        auto = OptimizeRequest.from_dict(
            OptimizeRequest(scenario=scenario, warm_start="auto").to_dict()
        )
        assert auto.warm_start == WARM_START_AUTO

    def test_legacy_request_payload_parses_cold(self):
        """Version-1 payloads (no schema_version) predate continuation."""
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        payload = OptimizeRequest(scenario=scenario).to_dict()
        del payload["schema_version"]
        del payload["warm_start"]
        del payload["max_starts"]
        rebuilt = OptimizeRequest.from_dict(payload)
        assert rebuilt.warm_start is None
        assert rebuilt.max_starts is None

    def test_unknown_request_schema_version_rejected(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        payload = OptimizeRequest(scenario=scenario).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="request schema version"):
            OptimizeRequest.from_dict(payload)

    def test_bad_warm_start_rejected(self):
        scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        with pytest.raises(ConfigurationError, match="warm_start"):
            OptimizeRequest(scenario=scenario, warm_start="bogus")
        with pytest.raises(ConfigurationError, match="warm_start"):
            OptimizeRequest(scenario=scenario, warm_start=(100.0,))
        with pytest.raises(ConfigurationError, match="max_starts"):
            OptimizeRequest(scenario=scenario, max_starts=0)

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


class TestContinuationMemo:
    """The per-engine solution memo behind ``warm_start='auto'``."""

    def test_cold_requests_never_read_the_memo(self):
        """Default requests are cold: diagnostics say so even after the
        memo has entries for the family."""
        service = LibraService()
        service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        ))
        second = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=400)
        ))
        assert second.diagnostics["warm_start"] == "cold"
        assert second.diagnostics["warm_source"] == "none"

    def test_auto_warm_start_hits_family_memo(self):
        service = LibraService()
        cold = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        ))
        assert service.solution_count == 1
        warm = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=400),
            warm_start=WARM_START_AUTO,
        ))
        assert warm.diagnostics["warm_source"] == "memo-hit"
        assert warm.diagnostics["warm_start"] in ("accepted", "cold") or (
            warm.diagnostics["warm_start"].startswith("rejected")
        )
        # Same family as the cold solve: budget differs, caps do not.
        cold_check = LibraService().submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=400)
        ))
        assert (
            warm.point.weighted_step_time
            <= cold_check.point.weighted_step_time * 1.02
        )
        assert cold.diagnostics["warm_source"] == "none"

    def test_auto_without_prior_solution_is_a_memo_miss(self):
        service = LibraService()
        response = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            warm_start=WARM_START_AUTO,
        ))
        assert response.diagnostics["warm_source"] == "memo-miss"
        assert response.diagnostics["warm_start"] == "cold"

    def test_memo_is_scheme_scoped(self):
        service = LibraService()
        service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            scheme=Scheme.PERF_OPT,
        ))
        other_scheme = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=400),
            scheme=Scheme.PERF_PER_COST_OPT,
            warm_start=WARM_START_AUTO,
        ))
        assert other_scheme.diagnostics["warm_source"] == "memo-miss"

    def test_memo_is_family_scoped(self):
        """A capped constraint set is a different continuation family."""
        service = LibraService()
        service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        ))
        capped = service.submit(OptimizeRequest(
            scenario=build_scenario(
                TOPOLOGY, [WORKLOAD], total_bw_gbps=400,
                dim_caps_gbps=[(1, 60.0)],
            ),
            warm_start=WARM_START_AUTO,
        ))
        assert capped.diagnostics["warm_source"] == "memo-miss"

    def test_memo_bounded_by_lru(self):
        service = LibraService(max_solutions=1)
        service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            scheme=Scheme.PERF_OPT,
        ))
        service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            scheme=Scheme.PERF_PER_COST_OPT,
        ))
        assert service.solution_count == 1

    def test_clear_drops_solutions(self):
        service = LibraService()
        service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        ))
        assert service.solution_count == 1
        service.clear()
        assert service.solution_count == 0

    def test_explicit_warm_start_round_trips_through_solver(self):
        service = LibraService()
        prior = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
        ))
        warm = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=400),
            warm_start=prior.point.bandwidths_gbps(),
        ))
        assert warm.diagnostics["warm_source"] == "explicit"

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

    def test_diagnostics_serialize(self):
        service = LibraService()
        response = service.submit(OptimizeRequest(
            scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            max_starts=2,
        ))
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["diagnostics"]["starts"] <= 2
        assert payload["diagnostics"]["max_starts"] == 2
        rebuilt = OptimizeResponse.from_dict(payload)
        assert rebuilt.diagnostics == payload["diagnostics"]


class TestConstraintFamilyKey:
    def test_budget_is_excluded_from_the_family(self):
        from repro.api.service import constraint_family_key
        from repro.core import ConstraintSet

        low = ConstraintSet(2).with_total_bandwidth(gbps(300))
        high = ConstraintSet(2).with_total_bandwidth(gbps(1000))
        assert constraint_family_key(low) == constraint_family_key(high)

    def test_caps_and_orderings_split_families(self):
        from repro.api.service import constraint_family_key
        from repro.core import ConstraintSet

        plain = ConstraintSet(2).with_total_bandwidth(gbps(300))
        capped = (
            ConstraintSet(2)
            .with_total_bandwidth(gbps(300))
            .with_dim_cap(1, gbps(60))
        )
        ordered = (
            ConstraintSet(2)
            .with_total_bandwidth(gbps(300))
            .with_ordering([0, 1])
        )
        keys = {
            constraint_family_key(c) for c in (plain, capped, ordered)
        }
        assert len(keys) == 3
