"""The HTTP observability surface: /v3/metrics, extended /healthz, JobInfo.metrics."""

import json
import threading
import urllib.request

import pytest

from repro.api.requests import RESPONSE_SCHEMA_VERSION, OptimizeRequest
from repro.api.scenario import build_scenario
from repro.obs import names as obs_names
from repro.serve import JobManager, ServeClient, create_server
from repro.serve.jobs import JobState

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _request(total_bw=300):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw)
    )


def _parse_families(text: str) -> dict[str, float]:
    """Series line → value, plus the set of # TYPE'd family names."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            pass
    return values


@pytest.fixture(scope="module")
def _server_bits():
    manager = JobManager(workers=2)
    server = create_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield manager, ServeClient(f"http://{host}:{port}", timeout=120.0)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()


@pytest.fixture
def endpoint(_server_bits):
    """The live client, with metrics freshly enabled for this test.

    The shared ``_obs_isolation`` fixture resets the process registry
    around every test in this package; the server only opts in at
    construction, so each test re-enables and re-points the gauges and
    durability families (the same re-registration path the real server
    uses)."""
    from repro.obs import enable_metrics
    from repro.serve.store import register_durability_families

    manager, client = _server_bits
    registry = enable_metrics()
    manager.register_gauges(registry)
    register_durability_families(registry)
    return client


def _get(endpoint, path):
    with urllib.request.urlopen(endpoint.base_url + path, timeout=30) as reply:
        return reply.headers.get("Content-Type", ""), reply.read().decode()


class TestMetricsEndpoint:
    def test_prometheus_content_type(self, endpoint):
        content_type, _ = _get(endpoint, "/v3/metrics")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type

    def test_counters_advance_after_a_job(self, endpoint):
        _, before_text = _get(endpoint, "/v3/metrics")
        before = _parse_families(before_text)
        info = endpoint.submit(_request(410))
        assert endpoint.wait(info.id, timeout=120).state is JobState.DONE
        _, after_text = _get(endpoint, "/v3/metrics")
        after = _parse_families(after_text)

        submitted = f'{obs_names.JOBS_SUBMITTED}{{kind="optimize"}}'
        completed = f'{obs_names.JOBS_COMPLETED}{{state="done"}}'
        solves = f'{obs_names.SOLVER_SOLVES}{{scheme="perf"}}'
        assert after[submitted] == before.get(submitted, 0) + 1
        assert after[completed] == before.get(completed, 0) + 1
        assert after[solves] >= before.get(solves, 0) + 1
        run_count = f"{obs_names.JOB_RUN_SECONDS}_count"
        assert after[run_count] == before.get(run_count, 0) + 1
        # The scrape itself is on the ledger too.
        scrape = f'{obs_names.HTTP_REQUESTS}{{route="/v3/metrics",status="200"}}'
        assert after[scrape] >= before.get(scrape, 0) + 1

    def test_gauges_render_at_idle(self, endpoint):
        _, text = _get(endpoint, "/v3/metrics")
        values = _parse_families(text)
        assert values.get(obs_names.JOBS_ACTIVE) == 0
        assert values.get(obs_names.JOB_QUEUE_DEPTH) == 0

    def test_durability_families_render_at_zero(self, endpoint):
        # Pre-registered at server construction: a healthy server that
        # never crashed still scrapes explicit zeros for the recovery and
        # retry ledgers (so dashboards can tell "never" from "missing").
        _, text = _get(endpoint, "/v3/metrics")
        values = _parse_families(text)
        assert values.get(obs_names.JOBS_RECOVERED) == 0
        assert values.get(obs_names.JOB_RETRIES) == 0
        assert values.get(obs_names.CACHE_CORRUPT) == 0
        assert values.get(f"{obs_names.STORE_FSYNC_SECONDS}_count") == 0
        for family in (
            obs_names.JOBS_RECOVERED, obs_names.JOB_RETRIES,
            obs_names.CACHE_CORRUPT, obs_names.STORE_FSYNC_SECONDS,
        ):
            assert f"# TYPE {family}" in text


class TestHealthz:
    def test_extended_payload(self, endpoint):
        info = endpoint.submit(_request(420))
        endpoint.wait(info.id, timeout=120)
        _, body = _get(endpoint, "/healthz")
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["schema_version"] == RESPONSE_SCHEMA_VERSION
        assert payload["uptime_s"] >= 0
        assert payload["queue_depth"] == 0
        assert payload["active_jobs"] == 0
        assert payload["terminal_jobs"] >= 1
        assert set(payload["jobs"]) == {
            state.value for state in JobState
        }


class TestJobInfoMetrics:
    def test_lifecycle_latencies_round_trip(self, endpoint):
        info = endpoint.submit(_request(430))
        assert endpoint.wait(info.id, timeout=120).state is JobState.DONE
        final = endpoint.job(info.id)
        assert final.metrics is not None
        assert final.metrics["queue_s"] >= 0
        assert final.metrics["run_s"] > 0
        assert final.metrics["total_s"] >= final.metrics["run_s"]

    def test_metrics_absent_in_raw_envelope_while_unstarted(self):
        """A queued snapshot carries metrics=None on the wire (additive,
        never a fabricated zero)."""
        from repro.serve.jobs import JobInfo, JobRecord, job_content_key

        record = JobRecord(
            "job-x", _request(440), job_content_key(_request(440))
        )
        snapshot = record.info()
        assert snapshot.metrics is None
        assert snapshot.to_dict()["job"]["metrics"] is None
        assert JobInfo.from_dict(snapshot.to_dict()).metrics is None
