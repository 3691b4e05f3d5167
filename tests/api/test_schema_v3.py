"""Schema v3: the job envelope codec and version up-conversion."""

import json

import pytest

from repro.api.requests import (
    REQUEST_SCHEMA_VERSION,
    RESPONSE_SCHEMA_VERSION,
    BatchRequest,
    BatchResponse,
    OptimizeRequest,
    OptimizeResponse,
    request_from_dict,
    request_kind,
    request_to_dict,
)
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.core.results import Scheme
from repro.explore.records import ExplorationResult, SweepProfile, SweepResult
from repro.explore.spec import ExplorationPoint, SweepSpec
from repro.utils.errors import ConfigurationError

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _optimize_request(**kwargs):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
        **kwargs,
    )


def _batch_request():
    return BatchRequest(
        spec=SweepSpec(
            workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
            bandwidths_gbps=(100.0, 300.0),
        ),
        workers=2,
        cache_dir="/tmp/some-cache",
    )


class TestRequestEnvelope:
    def test_versions_are_request_v6_response_v5(self):
        assert REQUEST_SCHEMA_VERSION == 6
        assert RESPONSE_SCHEMA_VERSION == 5

    def test_optimize_round_trip(self):
        request = _optimize_request(scheme="perf-per-cost")
        envelope = request_to_dict(request)
        assert envelope["schema_version"] == REQUEST_SCHEMA_VERSION
        assert envelope["kind"] == "optimize"
        parsed = request_from_dict(json.loads(json.dumps(envelope)))
        assert isinstance(parsed, OptimizeRequest)
        assert request_to_dict(parsed) == envelope

    def test_batch_round_trip(self):
        request = _batch_request()
        envelope = request_to_dict(request)
        assert envelope["kind"] == "batch"
        parsed = request_from_dict(json.loads(json.dumps(envelope)))
        assert isinstance(parsed, BatchRequest)
        assert parsed.workers == 2
        assert parsed.cache_dir == "/tmp/some-cache"
        assert request_to_dict(parsed) == envelope

    def test_request_kind(self):
        assert request_kind(_optimize_request()) == "optimize"
        assert request_kind(_batch_request()) == "batch"
        with pytest.raises(ConfigurationError, match="unknown request type"):
            request_kind("nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown request kind"):
            request_from_dict(
                {"schema_version": 3, "kind": "simulate", "request": {}}
            )

    def test_missing_body_rejected(self):
        with pytest.raises(ConfigurationError, match="'request' object"):
            request_from_dict({"schema_version": 3, "kind": "optimize"})

    def test_shapeless_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="neither"):
            request_from_dict({"schema_version": 3})

    def test_unsupported_envelope_version_rejected(self):
        envelope = request_to_dict(_optimize_request())
        envelope["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema version"):
            request_from_dict(envelope)


class TestUpConversion:
    """Pre-v3 wire payloads keep working (satellite: v2→v3 acceptance)."""

    def test_bare_v2_optimize_payload(self):
        """v2 payloads carry the continuation fields v6 dropped."""
        payload = _optimize_request().to_dict()
        payload.update(schema_version=2, warm_start=None, max_starts=2)
        parsed = request_from_dict(payload)
        assert isinstance(parsed, OptimizeRequest)
        assert parsed.scheme is Scheme.PERF_OPT
        assert parsed.to_dict() == _optimize_request().to_dict()

    def test_bare_v1_optimize_payload(self):
        payload = _optimize_request().to_dict()
        del payload["schema_version"]  # v1: no schema_version
        parsed = request_from_dict(payload)
        assert isinstance(parsed, OptimizeRequest)
        assert parsed.to_dict() == _optimize_request().to_dict()

    def test_bare_batch_payload(self):
        payload = _batch_request().to_dict()
        del payload["schema_version"]  # tolerated: defaults to current
        parsed = request_from_dict(payload)
        assert isinstance(parsed, BatchRequest)

    def test_v2_response_payload_still_reads(self):
        response = LibraService().submit(_optimize_request())
        payload = response.to_dict()
        payload["schema_version"] = 2
        restored = OptimizeResponse.from_dict(payload)
        assert restored.point.bandwidths == response.point.bandwidths


class TestBatchResponseRoundTrip:
    def _sweep(self):
        point = ExplorationPoint(WORKLOAD, TOPOLOGY, 300.0, Scheme.PERF_OPT)
        row = ExplorationResult(
            point=point,
            key="abc123",
            bandwidths_gbps=(240.0, 60.0),
            step_times_ms={WORKLOAD: 14433.45},
            network_cost=19944.0,
            speedup_over_equal=1.008,
            ppc_gain_over_equal=1.97,
            solver_message="interior point",
        )
        return SweepResult(results=[row], cache_hits=0, solver_calls=1)

    def test_round_trip_with_diagnostics(self):
        response = BatchResponse(
            sweep=self._sweep(),
            diagnostics={
                "cells": 1, "cache_hits": 0, "solver_calls": 1,
                "fanout_cells": 0, "num_errors": 0,
                "profile": SweepProfile(chains=1).to_dict(),
            },
        )
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["schema_version"] == RESPONSE_SCHEMA_VERSION
        restored = BatchResponse.from_dict(payload)
        assert restored.diagnostics == response.diagnostics
        assert restored.to_dict() == response.to_dict()
        row = restored.sweep.results[0]
        assert row.bandwidths_gbps == (240.0, 60.0)
        assert row.point.scheme is Scheme.PERF_OPT

    def test_round_trip_without_diagnostics(self):
        response = BatchResponse(sweep=self._sweep())
        restored = BatchResponse.from_dict(response.to_dict())
        assert restored.diagnostics is None
        assert restored.to_dict() == response.to_dict()

    def test_sweep_profile_round_trip(self):
        profile = SweepProfile(
            lookup_s=0.01, solve_s=2.5, assemble_s=0.002, total_s=2.52,
            chains=3,
        )
        restored = SweepProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
        assert restored == profile

    def test_payloads_with_retired_warm_fields_still_read(self):
        """Cache rows and profiles written while cells were warm-started
        carry warm-start fields, and rows written before ENGINE_VERSION 5
        the kernel-run count ``solver_starts``; reading ignores them."""
        row = self._sweep().results[0]
        payload = {**row.to_dict(), "warm_start": "accepted", "solver_starts": 1}
        assert ExplorationResult.from_dict(payload) == row
        profile = SweepProfile(chains=2)
        payload = {
            **profile.to_dict(), "warm_accepted": 4, "warm_rejected": 1,
            "cold_solves": 3, "cross_warm_accepted": 0, "warm_hit_rate": 0.5,
        }
        assert SweepProfile.from_dict(payload) == profile

    def test_exploration_result_from_cache_flag_round_trips(self):
        row = self._sweep().results[0]
        from dataclasses import replace

        cached = replace(row, from_cache=True)
        assert ExplorationResult.from_dict(cached.to_dict()).from_cache is True
        assert ExplorationResult.from_dict(row.to_dict()).from_cache is False


class TestServiceDiagnostics:
    def test_batch_response_carries_sweep_diagnostics(self):
        """Satellite: remote clients see what --profile prints locally."""
        response = LibraService().submit(_batch_request_no_cache())
        diagnostics = response.diagnostics
        assert diagnostics is not None
        assert diagnostics["cells"] == 2
        assert diagnostics["solver_calls"] == 2
        assert diagnostics["fanout_cells"] == 0
        assert set(diagnostics["profile"]) == {
            "lookup_s", "solve_s", "assemble_s", "total_s", "chains",
        }
        assert "warm_hit_rate" not in diagnostics
        # And the whole thing serializes.
        json.dumps(response.to_dict())


def _batch_request_no_cache():
    return BatchRequest(
        spec=SweepSpec(
            workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
            bandwidths_gbps=(100.0, 300.0),
        )
    )
