"""The HTTP front end, driven through a real loopback socket."""

import json
import math
import threading
import urllib.request

import pytest

from repro.api.requests import (
    AnalyzeRequest,
    BatchRequest,
    CostrategyRequest,
    OptimizeRequest,
    request_to_dict,
)
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.core.results import Scheme
from repro.explore.spec import ExplorationPoint, SweepSpec
from repro.serve import JobManager, ServeClient, ServeClientError, create_server
from repro.serve.jobs import JobState

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _request(total_bw=300):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw)
    )


@pytest.fixture(scope="module")
def endpoint():
    """One live server + client shared by the module (boot cost is real)."""
    manager = JobManager(workers=2)
    server = create_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServeClient(f"http://{host}:{port}", timeout=120.0)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()


class TestRoutes:
    def test_healthz(self, endpoint):
        assert endpoint.healthy()

    def test_submit_poll_result(self, endpoint):
        info = endpoint.submit(_request())
        assert info.id.startswith("job-")
        final = endpoint.wait(info.id, timeout=120)
        assert final.state is JobState.DONE
        assert final.result_payload is not None

    def test_listing_summaries_have_no_results(self, endpoint):
        endpoint.wait(endpoint.submit(_request()).id, timeout=120)
        listing = endpoint.jobs()
        assert listing and all(i.result_payload is None for i in listing)

    def test_unknown_job_404(self, endpoint):
        with pytest.raises(ServeClientError) as err:
            endpoint.job("job-does-not-exist")
        assert err.value.status == 404

    def test_unknown_route_404(self, endpoint):
        with pytest.raises(ServeClientError) as err:
            endpoint._call("GET", "/v2/jobs")
        assert err.value.status == 404

    def test_cancel_done_job_stays_done(self, endpoint):
        info = endpoint.submit(_request())
        endpoint.wait(info.id, timeout=120)
        assert endpoint.cancel(info.id).state is JobState.DONE


class TestSubmissionPayloads:
    def test_bare_v2_payload_up_converts(self, endpoint):
        payload = _request(310).to_dict()
        payload["schema_version"] = 2  # the pre-serve wire format
        info = endpoint.submit(payload)
        final = endpoint.wait(info.id, timeout=120)
        assert final.state is JobState.DONE

    def test_malformed_scenario_rejected_with_located_path(self, endpoint):
        payload = request_to_dict(_request())
        payload["request"]["scenario"]["network"] = 7
        with pytest.raises(ServeClientError) as err:
            endpoint.submit(payload)
        assert err.value.status == 400
        assert "network" in str(err.value)  # the ScenarioValidationError path

    def test_invalid_json_rejected(self, endpoint):
        request = urllib.request.Request(
            endpoint.base_url + "/v3/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        assert "not valid JSON" in json.loads(err.value.read())["error"]

    def test_unknown_kind_rejected(self, endpoint):
        with pytest.raises(ServeClientError) as err:
            endpoint.submit({"schema_version": 3, "kind": "simulate", "request": {}})
        assert err.value.status == 400

    def test_over_cap_batch_workers_rejected_not_clamped(self, endpoint):
        """A silent clamp would change the content-derived job id."""
        payload = request_to_dict(BatchRequest(
            spec=SweepSpec(
                workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
                bandwidths_gbps=(100.0,),
            ),
            workers=100_000,
        ))
        with pytest.raises(ServeClientError) as err:
            endpoint.submit(payload)
        assert err.value.status == 400
        assert "cap" in str(err.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("kind", ["optimize", "batch", "costrategy"])
    def test_non_finite_numbers_rejected(self, endpoint, kind, value):
        """Python's JSON decoder reads ``NaN``/``Infinity``; the API must not."""
        if kind == "optimize":
            payload = request_to_dict(_request())
            payload["request"]["bandwidths_gbps"] = [100.0, value]
        elif kind == "batch":
            payload = request_to_dict(BatchRequest(spec=SweepSpec(
                workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
                bandwidths_gbps=(100.0,),
            )))
            payload["request"]["spec"]["bandwidths_gbps"] = [value]
        else:
            payload = request_to_dict(CostrategyRequest(
                workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=(100.0,),
            ))
            payload["request"]["budgets_gbps"] = [value]
        with pytest.raises(ServeClientError) as err:
            endpoint.submit(payload)
        assert err.value.status == 400
        assert "positive and finite" in str(err.value)


class TestEventStream:
    def test_event_log_and_resume_cursor(self, endpoint):
        info = endpoint.submit(_request(320))
        endpoint.wait(info.id, timeout=120)
        events = list(endpoint.events(info.id))
        kinds = [e.kind for e in events]
        assert kinds[0] == "state" and kinds[-1] == "state"
        assert "solve" in kinds
        assert [e.seq for e in events] == list(range(len(events)))
        # Resuming mid-stream returns exactly the suffix.
        tail = list(endpoint.events(info.id, after=2))
        assert [e.seq for e in tail] == [e.seq for e in events[2:]]
        # A negative cursor clamps to 0 — never a tail-slice replay.
        clamped = list(endpoint.events(info.id, after=-3))
        assert [e.seq for e in clamped] == [e.seq for e in events]

    def test_follow_streams_to_terminal(self, endpoint):
        info = endpoint.submit(_request(330))
        streamed = list(endpoint.events(info.id, follow=True))
        assert streamed[-1].kind == "state"
        assert streamed[-1].data["state"] in ("done", "failed")
        assert endpoint.job(info.id).done


class TestCacheDirSandbox:
    """Client-supplied cache paths are rejected or confined, whatever the
    request kind that carries one."""

    KINDS = ("batch", "costrategy", "analyze")

    @staticmethod
    def _request(kind, cache_dir):
        if kind == "batch":
            return BatchRequest(
                spec=SweepSpec(
                    workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
                    bandwidths_gbps=(100.0,),
                ),
                cache_dir=cache_dir,
            )
        if kind == "costrategy":
            return CostrategyRequest(
                workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=(100.0,),
                cache_dir=cache_dir,
            )
        return AnalyzeRequest(
            cell=ExplorationPoint(WORKLOAD, TOPOLOGY, 100.0, Scheme.PERF_OPT),
            cache_dir=cache_dir,
        )

    @pytest.fixture
    def sandboxed(self, tmp_path):
        """A live server started with ``cache_root=tmp_path``."""
        manager = JobManager(workers=1)
        server = create_server(manager, port=0, cache_root=tmp_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield ServeClient(f"http://{host}:{port}", timeout=120.0)
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()

    @pytest.mark.parametrize("kind", KINDS)
    def test_cache_dir_rejected_without_cache_root(
        self, endpoint, kind, tmp_path
    ):
        payload = request_to_dict(self._request(kind, str(tmp_path / "evil")))
        with pytest.raises(ServeClientError) as err:
            endpoint.submit(payload)
        assert err.value.status == 400
        assert "cache-root" in str(err.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cache_dir_confined_under_cache_root(
        self, sandboxed, kind, tmp_path
    ):
        # Traversal out of the root is refused, and so is an absolute path.
        for name in ("../outside", str(tmp_path.parent / "elsewhere")):
            with pytest.raises(ServeClientError) as err:
                sandboxed.submit(request_to_dict(self._request(kind, name)))
            assert err.value.status == 400

    def test_relative_name_lands_inside_the_root(self, sandboxed, tmp_path):
        info = sandboxed.submit(self._request("batch", "study-a"))
        assert sandboxed.wait(info.id, timeout=300).state is JobState.DONE
        assert list((tmp_path / "study-a").glob("*.json"))

    def test_typed_analyze_request_reads_the_sandboxed_cache(self, sandboxed):
        # The server rewrites the cache path, so the job id differs from
        # the one the client derives; the client must accept it.
        batch = sandboxed.submit(self._request("batch", "study-b"))
        assert sandboxed.wait(batch.id, timeout=300).state is JobState.DONE
        info = sandboxed.submit(self._request("analyze", "study-b"))
        assert sandboxed.wait(info.id, timeout=300).state is JobState.DONE
        assert sandboxed.result(info.id).source == "cache"


class TestFacadeEquivalence:
    def test_http_response_bit_identical_to_service(self, endpoint):
        """The acceptance gate: HTTP job == LibraService.submit, bitwise."""
        request = _request(340)
        remote = endpoint.submit_and_wait(request, timeout=120)
        local = LibraService().submit(request)
        assert remote.to_dict() == local.to_dict()
        assert remote.point.bandwidths == local.point.bandwidths
