"""One live ``repro serve`` child process, driven as an operator would.

Every test in this module shares the server. Each one submits content no
other test submits, and asserts only on what it caused itself (its own
jobs, cache names and counter deltas), so the tests hold in any order.
The CLI client commands run in-process through ``main``.
"""

import json
import re

import pytest

from repro.api.requests import (
    RESPONSE_SCHEMA_VERSION,
    AnalyzeResponse,
    OptimizeResponse,
)
from repro.cli import main
from repro.obs import names as obs_names

@pytest.fixture(scope="module")
def server(module_procs):
    return module_procs.serve(
        "--workers", "2", "--log-level", "info",
        "--cache-root", str(module_procs.workdir / "caches"),
    )


def _spec(tmp_path, bandwidths) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "workloads": ["Turing-NLG"],
        "topologies": ["RI(3)_RI(2)"],
        "bandwidths_gbps": bandwidths,
        "schemes": ["perf"],
    }))
    return str(path)


def _scenario(tmp_path, capsys, *args: str) -> str:
    path = tmp_path / "scenario.json"
    assert main(["scenario", *args, "--output", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestServe:
    def test_http_job_is_bit_identical_to_the_facade(
        self, server, tmp_path, capsys
    ):
        scenario = _scenario(
            tmp_path, capsys,
            "--topology", "4D-4K", "--workload", "GPT-3", "--total-bw", "500",
        )
        assert main(["optimize", "--scenario", scenario, "--json"]) == 0
        local = json.loads(capsys.readouterr().out)

        assert main([
            "submit", "--url", server.url, "--scenario", scenario,
            "--events", "--json",
        ]) == 0
        captured = capsys.readouterr()
        assert '"state": "running"' in captured.err
        assert '"state": "done"' in captured.err
        remote = json.loads(captured.out)
        assert remote["schema_version"] == RESPONSE_SCHEMA_VERSION
        assert remote == local, "HTTP job response differs from the facade"
        response = OptimizeResponse.from_dict(remote)  # fails on layout drift
        assert response.point.bandwidths == tuple(local["point"]["bandwidths"])

        assert main(["jobs", "--url", server.url]) == 0
        assert "done" in capsys.readouterr().out


class TestObs:
    def test_jobs_reach_healthz_metrics_and_logs(
        self, server, tmp_path, capsys
    ):
        before = server.get_json("/healthz")["terminal_jobs"]
        scenario = _scenario(
            tmp_path, capsys,
            "--topology", "RI(3)_RI(2)", "--workload", "Turing-NLG",
            "--total-bw", "300",
        )
        job_ids = []
        for target in (
            ["--scenario", scenario],
            ["--spec", _spec(tmp_path, [100, 200]), "--cache-dir", "study"],
        ):
            assert main(["submit", "--url", server.url, *target, "--json"]) == 0
            job_ids += re.findall(r"job (job-\w+)", capsys.readouterr().err)
        assert len(job_ids) == 2, job_ids

        health = server.get_json("/healthz")
        assert health["ok"] is True
        assert health["uptime_s"] > 0
        assert health["terminal_jobs"] >= before + 2, health

        families, _ = server.metrics()
        missing = [
            name for name in obs_names.REQUIRED_FAMILIES if name not in families
        ]
        assert not missing, f"metric families missing from scrape: {missing}"

        lines = server.log.splitlines()
        for job_id in job_ids:
            mine = [line for line in lines if f"job={job_id} " in line]
            assert any("repro.serve.http request" in line for line in mine)
            assert any("repro.serve.manager job finished" in line for line in mine)

    def test_traced_sweep_has_the_span_taxonomy(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main([
            "explore", "--spec", _spec(tmp_path, [100, 200]),
            "--trace", str(trace),
        ]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        for required in ("sweep", "chain", "cell", "solve"):
            assert required in names, (required, sorted(names))
        assert all(event["ph"] == "X" for event in events)


class TestAnalyze:
    QUERY = (
        "/v3/analyze?workload=Turing-NLG&topology=RI(3)_RI(2)"
        "&budget_gbps=300&cache=analyzed"
    )
    MEMO_HITS = f'{obs_names.ANALYZE_MEMO}{{layer="service"}}'

    def test_cached_cell_analyzes_then_hits_the_memo(
        self, server, tmp_path, capsys
    ):
        status, body = server.get(self.QUERY)
        assert status == 404, body  # never swept: a 404, not a solve
        assert main([
            "submit", "--url", server.url, "--spec", _spec(tmp_path, [300]),
            "--cache-dir", "analyzed", "--json",
        ]) == 0

        _, before = server.metrics()
        first = server.get_json(self.QUERY)
        second = server.get_json(self.QUERY)
        families, after = server.metrics()

        hits = after.get(self.MEMO_HITS, 0) - before.get(self.MEMO_HITS, 0)
        assert hits >= 1, (before, after)
        assert first["schema_version"] == RESPONSE_SCHEMA_VERSION
        for payload in (first, second):
            response = AnalyzeResponse.from_dict(payload)  # layout drift
            assert response.source == "cache", response.source
            assert response.report.binding_dims, "empty binding set"
        assert not AnalyzeResponse.from_dict(first).memo_hit
        assert AnalyzeResponse.from_dict(second).memo_hit
        assert first["report"] == second["report"], "memo changed the report"
        for family in (
            obs_names.ANALYZE_REQUESTS,
            obs_names.ANALYZE_SECONDS,
            obs_names.ANALYZE_MEMO,
        ):
            assert family in families, family
