"""Schema v5: the costrategy request kind and v4 envelope up-conversion."""

import json

import pytest

from repro.api.requests import (
    REQUEST_KINDS,
    REQUEST_SCHEMA_VERSION,
    RESPONSE_SCHEMA_VERSION,
    AnalyzeRequest,
    CostrategyRequest,
    CostrategyResponse,
    OptimizeRequest,
    request_from_dict,
    request_kind,
    request_to_dict,
)
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.core.results import Scheme
from repro.strategy import StrategySpace
from repro.utils.errors import ConfigurationError

TOPOLOGY = "Google TPUv2"  # 8 NPUs — a two-strategy space at max_tp=2
WORKLOAD = "Turing-NLG"


def _costrategy_request(**kwargs):
    kwargs.setdefault("budgets_gbps", (100.0, 200.0))
    kwargs.setdefault("space", StrategySpace(max_tp=2))
    return CostrategyRequest(workload=WORKLOAD, topology=TOPOLOGY, **kwargs)


class TestCostrategyRequestEnvelope:
    def test_costrategy_is_a_request_kind(self):
        assert "costrategy" in REQUEST_KINDS
        assert request_kind(_costrategy_request()) == "costrategy"

    def test_round_trip(self):
        request = _costrategy_request(
            scheme=Scheme.PERF_OPT,
            dim_caps_gbps=((0, 150.0),),
            cache_dir="warm-strategies",
            attribution=False,
        )
        envelope = request_to_dict(request)
        assert envelope["schema_version"] == REQUEST_SCHEMA_VERSION
        assert envelope["kind"] == "costrategy"
        parsed = request_from_dict(json.loads(json.dumps(envelope)))
        assert isinstance(parsed, CostrategyRequest)
        assert parsed.budgets_gbps == (100.0, 200.0)
        assert parsed.space == StrategySpace(max_tp=2)
        assert parsed.dim_caps_gbps == ((0, 150.0),)
        assert parsed.cache_dir == "warm-strategies"
        assert parsed.attribution is False
        assert request_to_dict(parsed) == envelope

    def test_v5_payload_with_cross_warm_key_parses(self):
        """Payloads and job records written while cross-strategy seeding
        was an option still load; the key is ignored."""
        envelope = request_to_dict(_costrategy_request())
        assert "cross_warm" not in envelope["request"]
        legacy = json.loads(json.dumps(envelope))
        legacy["request"]["cross_warm"] = False
        parsed = request_from_dict(legacy)
        assert isinstance(parsed, CostrategyRequest)
        assert request_to_dict(parsed) == envelope

    def test_default_space_round_trips_as_null(self):
        request = CostrategyRequest(
            workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=(300.0,)
        )
        envelope = request_to_dict(request)
        assert envelope["request"]["space"] is None
        parsed = request_from_dict(envelope)
        assert parsed.space is None

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="workload preset"):
            CostrategyRequest(
                workload="", topology=TOPOLOGY, budgets_gbps=(100.0,)
            )
        with pytest.raises(ConfigurationError, match="topology preset"):
            CostrategyRequest(
                workload=WORKLOAD, topology="", budgets_gbps=(100.0,)
            )
        with pytest.raises(ConfigurationError, match="at least one"):
            CostrategyRequest(
                workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=()
            )
        with pytest.raises(ConfigurationError, match="must be positive"):
            _costrategy_request(budgets_gbps=(100.0, -5.0))
        with pytest.raises(ConfigurationError, match="caps must be positive"):
            _costrategy_request(dim_caps_gbps=((0, -1.0),))

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed costrategy"):
            CostrategyRequest.from_dict({"workload": WORKLOAD})

    def test_rules_bearing_space_cannot_cross_the_wire(self):
        request = _costrategy_request(
            space=StrategySpace(rules=(lambda s: "",))
        )
        with pytest.raises(ConfigurationError, match="cannot be serialized"):
            request_to_dict(request)


class TestV4UpConversion:
    """v4 envelopes (and older bare payloads) still parse under v5."""

    def test_v4_optimize_envelope(self):
        scenario = build_scenario(
            "RI(3)_RI(2)", [WORKLOAD], total_bw_gbps=300
        )
        envelope = request_to_dict(OptimizeRequest(scenario=scenario))
        envelope["schema_version"] = 4
        assert isinstance(request_from_dict(envelope), OptimizeRequest)

    def test_v4_analyze_envelope(self):
        scenario = build_scenario(
            "RI(3)_RI(2)", [WORKLOAD], total_bw_gbps=300
        )
        envelope = request_to_dict(AnalyzeRequest(scenario=scenario))
        envelope["schema_version"] = 4
        assert isinstance(request_from_dict(envelope), AnalyzeRequest)

    def test_v4_costrategy_envelope(self):
        """costrategy itself tolerates a v4 stamp: the envelope codec is
        shared, and the body shape is version-independent."""
        envelope = request_to_dict(_costrategy_request())
        envelope["schema_version"] = 4
        assert isinstance(request_from_dict(envelope), CostrategyRequest)

    def test_future_version_rejected(self):
        envelope = request_to_dict(_costrategy_request())
        envelope["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema version"):
            request_from_dict(envelope)


class TestCostrategyResponse:
    @pytest.fixture(scope="class")
    def service(self):
        return LibraService()

    @pytest.fixture(scope="class")
    def response(self, service):
        return service.submit(_costrategy_request())

    def test_round_trip(self, response):
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["schema_version"] == RESPONSE_SCHEMA_VERSION
        restored = CostrategyResponse.from_dict(payload)
        assert restored.to_dict() == response.to_dict()

    def test_pre_v5_payload_rejected(self, response):
        """The costrategy shape's first version is v5 — no older payload
        of it can exist."""
        payload = response.to_dict()
        payload["schema_version"] = 4
        with pytest.raises(ConfigurationError, match="schema version"):
            CostrategyResponse.from_dict(payload)

    def test_service_dispatch_builds_the_frontier(self, response):
        frontier = response.frontier
        assert frontier.workload == WORKLOAD
        assert frontier.topology == TOPOLOGY
        assert tuple(
            cell.budget_gbps for cell in frontier.best_per_budget
        ) == (100.0, 200.0)
        assert len(frontier.runs) == 2
        assert frontier.diagnostics["cells"] == 4
        assert frontier.attributions  # attribution=True by default

    def test_repeat_submit_is_cache_served(self, service, response):
        """The service's shared batch cache replays the whole grid —
        bit-identical rows, zero fresh solves."""
        again = service.submit(_costrategy_request())
        diagnostics = again.frontier.diagnostics
        assert diagnostics["cached"] == 4
        assert diagnostics["solved"] == 0

        def rows(frontier):
            normalized = []
            for row in frontier.rows():
                payload = row.to_dict()
                payload.pop("from_cache", None)  # provenance, not physics
                normalized.append(payload)
            return normalized

        assert rows(again.frontier) == rows(response.frontier)
