"""A joint strategy search survives ``kill -9`` of a durable server.

The server's solves are slowed so the kill lands mid-search. A restart on
the same state directory recovers the job, and the resumed frontier must
equal a cold inline run of the same request, row for row. The search runs
PerfPerCostOptBW; every cell of either scheme is one certified solve that
depends on the cell alone, so the resumed rows match whichever cells the
crash left cached.
"""

import json
from dataclasses import replace

from repro.api.requests import CostrategyRequest
from repro.api.service import LibraService
from repro.obs import names as obs_names
from repro.serve.client import ServeClient
from repro.strategy import StrategyFrontier, StrategySpace

REQUEST = CostrategyRequest(
    workload="Turing-NLG", topology="Google TPUv2",
    budgets_gbps=(100.0, 200.0, 300.0),
    space=StrategySpace(max_tp=2),
    scheme="perf-per-cost",
)


def _rows(frontier) -> list[dict]:
    """Frontier rows as JSON values, without the provenance flag."""
    rows = [
        {k: v for k, v in row.to_dict().items() if k != "from_cache"}
        for row in frontier.rows()
    ]
    return json.loads(json.dumps(rows))


def _best(frontier) -> list[dict]:
    return json.loads(json.dumps(
        [cell.to_dict() for cell in frontier.best_per_budget]
    ))


def test_recovered_search_matches_a_cold_inline_run(procs, tmp_path):
    reference = LibraService().submit(REQUEST).frontier

    server = procs.serve(
        "--workers", "1", "--cache-root", str(tmp_path / "caches"),
        state_dir=tmp_path / "state", faults="delay:worker.solve=0.6",
    )
    info = ServeClient(server.url, timeout=30).submit(
        replace(REQUEST, cache_dir="strategies")
    )
    assert info.kind == "costrategy", info.kind
    cursor = server.wait_for_cells(info.id, 2)

    server = server.restart()  # SIGKILL, then no injected latency
    assert server.get_json("/healthz")["recovered_jobs"] == 1
    client = ServeClient(server.url, timeout=120)
    resumed = []
    client.follow_to_completion(info.id, after=cursor, on_event=resumed.append)
    assert resumed and resumed[0].seq == cursor, "stream not gapless"
    reasons = [e.data.get("reason") for e in resumed if e.kind == "state"]
    assert "recovered after restart" in reasons, reasons
    assert any(
        e.kind == "chain" and "#" in e.data["label"] for e in resumed
    ), "no strategy progress events after recovery"

    # The frontier payload round-trips through its stable schema.
    frontier = StrategyFrontier.from_dict(
        json.loads(json.dumps(client.result(info.id).frontier.to_dict()))
    )
    diag = frontier.diagnostics
    assert diag["cached"] >= 2, "recovery did not resume from the cache"
    assert diag["errors"] == 0, diag
    assert diag["cross_warm_accepted"] == 0, diag
    assert _rows(frontier) == _rows(reference), (
        "recovered frontier rows differ from the cold inline run"
    )
    assert _best(frontier) == _best(reference), (
        "recovered winners differ from the cold inline run"
    )

    families, samples = server.metrics()
    assert obs_names.STRATEGY_CANDIDATES in families
    assert obs_names.STRATEGY_SECONDS in families
    solved = f'{obs_names.STRATEGY_CANDIDATES}{{outcome="solved"}}'
    assert samples.get(solved, 0) >= 1, "no solved candidates recorded"
