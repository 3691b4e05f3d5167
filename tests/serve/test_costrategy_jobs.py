"""Costrategy jobs through the serve tier: durable, streamed, recoverable."""

import threading
import time

import pytest

from repro.api.requests import (
    CostrategyRequest,
    CostrategyResponse,
    request_to_dict,
)
from repro.serve import JobManager, JobState, JobStore, ServeClient, create_server
from repro.serve.jobs import derive_job_id, job_content_key
from repro.serve.store import STORE_VERSION
from repro.strategy import StrategySpace

TOPOLOGY = "Google TPUv2"  # 8 NPUs — two strategies at max_tp=2
WORKLOAD = "Turing-NLG"


def _request(budgets=(100.0, 200.0), **kwargs):
    kwargs.setdefault("space", StrategySpace(max_tp=2))
    return CostrategyRequest(
        workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=budgets, **kwargs
    )


def _persist_queued(store: JobStore, request, events=()) -> str:
    """The on-disk state of a costrategy job a crash caught while queued,
    or — given the ``(kind, data)`` events it logged after ``queued`` —
    while running."""
    content_key = job_content_key(request)
    job_id = derive_job_id(content_key)
    now = time.time()
    logged = [("state", {"state": "queued"}), *events]
    for seq, (kind, data) in enumerate(logged):
        store.append_event(
            job_id,
            {"seq": seq, "job_id": job_id, "kind": kind, "at": now,
             "data": data},
            durable=True,
        )
    running = len(logged) > 1
    store.save_record(
        job_id,
        {
            "store_version": STORE_VERSION,
            "job": {
                "id": job_id, "kind": "costrategy",
                "state": "running" if running else "queued",
                "created_at": now, "started_at": now if running else None,
                "finished_at": None, "error": "", "events": len(logged),
                "result": None, "metrics": None,
            },
            "request": request_to_dict(request),
            "content_key": content_key,
            "attempts": 1 if running else 0,
        },
    )
    return job_id


#: The events an earlier build logged for a costrategy job before the
#: crash: its own plan shape and ``strategy`` brackets around each column.
LEGACY_EVENTS = (
    ("state", {"state": "running"}),
    ("plan", {"total": 4, "strategies": 2, "budgets": 2, "pruned": 0}),
    ("strategy", {
        "status": "start", "index": 0, "strategies": 2, "label": "HP-(1, 8)",
    }),
)


class TestDurableCostrategyJobs:
    def test_done_job_survives_restart_bit_identically(self, tmp_path):
        request = _request()
        with JobManager(
            workers=1, store=JobStore(tmp_path / "state")
        ) as manager:
            handle = manager.submit(request)
            response = handle.result(timeout=300)
            job_id = handle.id
            assert handle.info().kind == "costrategy"
            before = [e.to_dict() for e in handle.events()]

        restarted = JobManager(
            workers=1, store=JobStore(tmp_path / "state")
        )
        try:
            assert restarted.recovered_jobs == 0  # terminal: nothing to rerun
            handle = restarted.get(job_id)
            assert handle.state is JobState.DONE
            restored = handle.result()
            assert isinstance(restored, CostrategyResponse)
            assert restored.to_dict() == response.to_dict()
            assert [e.to_dict() for e in handle.events()] == before
        finally:
            restarted.shutdown()

    def test_stream_narrates_strategy_chains_and_cells(self, tmp_path):
        with JobManager(
            workers=1, store=JobStore(tmp_path / "state")
        ) as manager:
            handle = manager.submit(_request())
            handle.result(timeout=300)
            events = handle.events()
            kinds = {e.kind for e in events}
            assert kinds == {"state", "plan", "chain", "cell"}
            assert [
                e.data["label"].split(" @ ")[0]
                for e in events if e.kind == "chain"
                and e.data["status"] == "start"
            ] == [f"{WORKLOAD}#tp1-dp8", f"{WORKLOAD}#tp2-dp4"]
            assert [e.seq for e in events] == list(range(len(events)))
            cells = [e for e in events if e.kind == "cell"]
            assert len(cells) == 4
            assert cells[-1].data["done"] == 4
            # Every event shape survives its own codec (the durability
            # format is exactly the wire format).
            from repro.serve.events import ProgressEvent

            for event in events:
                assert ProgressEvent.from_dict(event.to_dict()) == event

    def test_queued_job_is_recovered_and_completed(self, tmp_path):
        request = _request(budgets=(150.0,))
        with JobStore(tmp_path / "state") as store:
            job_id = _persist_queued(store, request)

        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            assert manager.recovered_jobs == 1
            response = manager.job(job_id).result(timeout=300)
            assert isinstance(response, CostrategyResponse)
            assert len(response.frontier.best_per_budget) == 1
            events = manager.job(job_id).events()
            assert events[1].data["reason"] == "recovered after restart"
        finally:
            manager.shutdown()

    def test_log_with_legacy_strategy_events_restores(self, tmp_path):
        """A job log holding ``strategy`` events, as earlier builds wrote
        them, still decodes on restart, and the job completes after them."""
        with JobStore(tmp_path / "state") as store:
            job_id = _persist_queued(store, _request(), LEGACY_EVENTS)

        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            assert manager.recovered_jobs == 1
            handle = manager.job(job_id)
            assert isinstance(handle.result(timeout=300), CostrategyResponse)
            events = handle.events()
        finally:
            manager.shutdown()
        assert [e.seq for e in events] == list(range(len(events)))
        assert [(e.kind, e.data) for e in events[1:4]] == list(LEGACY_EVENTS)
        resumed = [e.kind for e in events[4:]]
        assert "strategy" not in resumed
        assert {"plan", "chain", "cell"} <= set(resumed)

    def test_recovered_job_resumes_from_the_durable_cache(self, tmp_path):
        """A re-run job replays solved cells from the on-disk result cache
        — the cache-replay bit-identity contract, across a restart."""
        from repro.api.service import LibraService

        request = _request(cache_dir=str(tmp_path / "cache"))
        reference = LibraService().submit(request)

        with JobStore(tmp_path / "state") as store:
            job_id = _persist_queued(store, request)
        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            resumed = manager.job(job_id).result(timeout=300)
        finally:
            manager.shutdown()

        assert resumed.frontier.diagnostics["cached"] == 4
        assert resumed.frontier.diagnostics["solved"] == 0

        def rows(response):
            normalized = []
            for row in response.frontier.rows():
                payload = row.to_dict()
                payload.pop("from_cache", None)  # provenance, not physics
                normalized.append(payload)
            return normalized

        assert rows(resumed) == rows(reference)


class TestCostrategyOverHttp:
    @pytest.fixture
    def client(self):
        manager = JobManager(workers=1)
        server = create_server(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield ServeClient(f"http://{host}:{port}", timeout=300.0)
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()

    def test_submit_stream_and_decode(self, client):
        info = client.submit(_request())
        assert info.kind == "costrategy"
        response = client.result(info.id, timeout=300)
        assert isinstance(response, CostrategyResponse)
        assert len(response.frontier.runs) == 2
        chains = [e for e in client.events(info.id) if e.kind == "chain"]
        assert chains and all("#" in e.data["label"] for e in chains)

    def test_typed_submit_with_cache_dir_under_cache_root(self, tmp_path):
        """The server rewrites a costrategy cache_dir under its cache
        root, so the client takes the server's job id instead of refusing
        it for not matching its own derivation."""
        manager = JobManager(workers=1)
        server = create_server(manager, port=0, cache_root=tmp_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServeClient(f"http://{host}:{port}", timeout=300.0)
        try:
            info = client.submit(_request(cache_dir="strategies"))
            assert client.wait(info.id, timeout=300).state is JobState.DONE
            assert list((tmp_path / "strategies").glob("*.json"))
        finally:
            server.shutdown()
            server.server_close()
            manager.shutdown()

    def test_client_side_cache_dir_rejected_without_cache_root(self, client):
        """A costrategy cache_dir is a server-side path — without
        --cache-root the server refuses it, exactly like batch."""
        from repro.serve.client import ServeClientError

        with pytest.raises(ServeClientError, match="cache"):
            client.submit(_request(cache_dir="strategies"))
