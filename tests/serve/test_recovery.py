"""Crash-safety end to end: restart recovery, retries, kill -9 survival.

Three tiers of realism:

* In-process: a second :class:`JobManager` over the same state directory
  is "the restarted server" — deterministic, fast, covers restore/requeue
  logic and the transient-retry machinery.
* Child process + injected crash: ``REPRO_FAULTS=crash:<point>`` kills a
  real manager at an exact persist boundary (``os._exit`` — the kill -9
  model); the parent then recovers whatever the filesystem kept.
* Full stack: ``repro serve --state-dir`` in a subprocess, SIGKILLed
  mid-sweep, restarted; a :class:`ServeClient` resumes the event stream
  with ``?after=N`` and rides to completion.
"""

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.api.requests import (
    BatchRequest,
    OptimizeRequest,
    request_to_dict,
)
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.explore.spec import SweepSpec
from repro.serve import JobManager, JobState, JobStore
from repro.serve.client import ServeClient
from repro.serve.faults import CRASH_EXIT_CODE, FaultInjected
from repro.serve import faults
from repro.serve.jobs import derive_job_id, job_content_key
from repro.serve.store import STORE_VERSION
from repro.utils.errors import ReproError

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _request(total_bw=300):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw)
    )


def _batch_request(cache_dir=None, bandwidths=(100.0, 300.0)):
    return BatchRequest(
        spec=SweepSpec(
            workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
            bandwidths_gbps=bandwidths,
        ),
        cache_dir=cache_dir,
    )


def _persist_queued(store: JobStore, request) -> str:
    """Fabricate the on-disk state of a job a crash caught while queued."""
    content_key = job_content_key(request)
    job_id = derive_job_id(content_key)
    now = time.time()
    store.append_event(
        job_id,
        {
            "seq": 0, "job_id": job_id, "kind": "state", "at": now,
            "data": {"state": "queued"},
        },
        durable=True,
    )
    kind = "batch" if isinstance(request, BatchRequest) else "optimize"
    store.save_record(
        job_id,
        {
            "store_version": STORE_VERSION,
            "job": {
                "id": job_id, "kind": kind, "state": "queued",
                "created_at": now, "started_at": None, "finished_at": None,
                "error": "", "events": 1, "result": None, "metrics": None,
            },
            "request": request_to_dict(request),
            "content_key": content_key,
            "attempts": 0,
        },
    )
    return job_id


class FlakyService:
    """Raise a transient fault for the first N submits, then delegate."""

    def __init__(self, real, failures: int, exc: Exception | None = None):
        self.real = real
        self.failures = failures
        self.exc = exc
        self.calls = 0
        self._lock = threading.Lock()

    def submit(self, request, should_stop=None, on_event=None):
        with self._lock:
            self.calls += 1
            failing = self.calls <= self.failures
        if failing:
            raise self.exc or FaultInjected("injected transient failure")
        return self.real.submit(
            request, should_stop=should_stop, on_event=on_event
        )


class TestGracefulRestart:
    def test_done_job_survives_with_result_and_events(self, tmp_path):
        request = _request()
        with JobManager(
            workers=1, store=JobStore(tmp_path / "state")
        ) as manager:
            handle = manager.submit(request)
            response = handle.result(timeout=120)
            job_id = handle.id
            before = [e.to_dict() for e in handle.events()]

        restarted = JobManager(
            workers=1, store=JobStore(tmp_path / "state")
        )
        try:
            assert restarted.recovered_jobs == 0  # terminal: nothing to rerun
            handle = restarted.get(job_id)
            assert handle is not None
            assert handle.state is JobState.DONE
            assert handle.result().to_dict() == response.to_dict()
            assert [e.to_dict() for e in handle.events()] == before
        finally:
            restarted.shutdown()

    def test_queued_job_is_recovered_and_completed(self, tmp_path):
        request = _request()
        with JobStore(tmp_path / "state") as store:
            job_id = _persist_queued(store, request)

        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            assert manager.recovered_jobs == 1
            handle = manager.job(job_id)
            response = handle.result(timeout=120)
            assert response.to_dict() == LibraService().submit(request).to_dict()
            events = handle.events()
            assert [e.seq for e in events] == list(range(len(events)))
            assert events[0].data == {"state": "queued"}
            assert events[1].data["reason"] == "recovered after restart"
        finally:
            manager.shutdown()

    def test_recovered_batch_resumes_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        request = _batch_request(cache_dir=cache_dir)
        # The uninterrupted reference run — and the cache warm-up: by the
        # time "the crash" happens, every cell is durably cached.
        reference = LibraService().submit(request)

        with JobStore(tmp_path / "state") as store:
            job_id = _persist_queued(store, request)
        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            resumed = manager.job(job_id).result(timeout=300)
        finally:
            manager.shutdown()

        assert resumed.sweep.cache_hits == len(reference.sweep.results)
        assert resumed.sweep.solver_calls == 0  # resumed, not re-solved

        def rows(response):
            normalized = []
            for row in response.sweep.results:
                payload = row.to_dict()
                payload.pop("from_cache", None)  # provenance, not physics
                normalized.append(payload)
            return normalized

        assert rows(resumed) == rows(reference)

    def test_malformed_record_is_skipped_not_fatal(self, tmp_path):
        with JobStore(tmp_path / "state") as store:
            _persist_queued(store, _request())
            bad = store.job_dir("job-bad")
            bad.mkdir(parents=True)
            (bad / "record.json").write_text(json.dumps({
                "store_version": STORE_VERSION,
                "job": {"id": "job-bad", "state": "queued",
                        "created_at": 0.0},
                "request": {"nonsense": True},
                "content_key": "x",
                "attempts": 0,
            }))
        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            assert manager.recovered_jobs == 1  # the good one
            assert manager.get("job-bad") is None
        finally:
            manager.shutdown()

    def test_shutdown_without_cancel_leaves_backlog_queued(self, tmp_path):
        gate = threading.Event()
        real = LibraService()

        class GatedService:
            """First submit blocks on the gate, then delegates."""

            def __init__(self):
                self._first = True
                self._lock = threading.Lock()

            def submit(self, request, should_stop=None, on_event=None):
                with self._lock:
                    first, self._first = self._first, False
                if first:
                    assert gate.wait(timeout=60)
                return real.submit(
                    request, should_stop=should_stop, on_event=on_event
                )

        manager = JobManager(
            service=GatedService(), workers=1,
            store=JobStore(tmp_path / "state"),
        )
        running = manager.submit(_request(300))
        deadline = time.monotonic() + 30
        while running.state is not JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        queued = manager.submit(_request(500))
        assert queued.state is JobState.QUEUED

        # Durable-restart shutdown: drain the running job, withdraw (but
        # do not cancel) the queued one.
        closer = threading.Thread(
            target=lambda: manager.shutdown(wait=True, cancel_pending=False)
        )
        closer.start()
        time.sleep(0.3)  # let shutdown cancel the queued job's future
        gate.set()
        closer.join(timeout=120)
        assert not closer.is_alive()
        assert running.state is JobState.DONE
        assert queued.state is JobState.QUEUED  # not cancelled

        restarted = JobManager(
            workers=1, store=JobStore(tmp_path / "state")
        )
        try:
            assert restarted.recovered_jobs == 1
            assert restarted.job(queued.id).result(timeout=120) is not None
            done = restarted.job(running.id)
            assert done.state is JobState.DONE
        finally:
            restarted.shutdown()


class TestTransientRetry:
    @pytest.fixture(autouse=True)
    def _disarm(self):
        faults.configure(None)
        yield
        faults.configure(None)

    def test_retry_succeeds_after_transient_failure(self):
        service = FlakyService(LibraService(), failures=1)
        with JobManager(
            service=service, workers=1, retry_backoff_s=0.01
        ) as manager:
            handle = manager.submit(_request())
            response = handle.result(timeout=120)
            assert response is not None
            assert service.calls == 2
            info = handle.info()
            assert info.metrics["attempts"] == 1
            states = [
                (e.data.get("state"), e.data.get("reason"))
                for e in handle.events() if e.kind == "state"
            ]
            assert [s for s, _ in states] == [
                "queued", "running", "queued", "running", "done"
            ]
            assert "retry 1/2" in states[2][1]

    def test_retry_budget_exhausts_to_failed(self):
        service = FlakyService(LibraService(), failures=99)
        with JobManager(
            service=service, workers=1, max_retries=2, retry_backoff_s=0.01
        ) as manager:
            handle = manager.submit(_request())
            with pytest.raises(ReproError, match="FaultInjected"):
                handle.result(timeout=120)
            assert service.calls == 3  # initial + 2 retries
            assert handle.state is JobState.FAILED

    def test_permanent_errors_never_retry(self):
        service = FlakyService(
            LibraService(), failures=99, exc=ValueError("permanent")
        )
        with JobManager(
            service=service, workers=1, retry_backoff_s=0.01
        ) as manager:
            handle = manager.submit(_request())
            with pytest.raises(ReproError, match="permanent"):
                handle.result(timeout=120)
            assert service.calls == 1
            assert handle.info().metrics.get("attempts") is None

    def test_manager_run_fault_point_drives_a_retry(self):
        faults.configure("raise:manager.run:1")
        with JobManager(workers=1, retry_backoff_s=0.01) as manager:
            handle = manager.submit(_request())
            handle.result(timeout=120)
            assert handle.info().metrics["attempts"] == 1

    def test_attempts_survive_restart(self, tmp_path):
        # A job that crashes the server on every run must not loop
        # forever: the persisted attempt counter keeps counting.
        service = FlakyService(LibraService(), failures=99)
        store_path = tmp_path / "state"
        with JobManager(
            service=service, workers=1, max_retries=2, retry_backoff_s=0.01,
            store=JobStore(store_path),
        ) as manager:
            handle = manager.submit(_request())
            with pytest.raises(ReproError):
                handle.result(timeout=120)
        record = JobStore(store_path).read_record(handle.id)
        assert record["attempts"] == 2


class TestCrashAtPersistPoints:
    """An injected os._exit at each persist boundary, then real recovery."""

    SCRIPT = """
import sys
from repro.api.requests import OptimizeRequest
from repro.api.scenario import build_scenario
from repro.serve import JobManager, JobStore

manager = JobManager(workers=1, store=JobStore(sys.argv[1]))
handle = manager.submit(OptimizeRequest(scenario=build_scenario(
    "{topology}", ["{workload}"], total_bw_gbps=300)))
handle.result(timeout=300)
manager.shutdown()
sys.exit(0)
""".format(topology=TOPOLOGY, workload=WORKLOAD)

    def _crash_child(self, procs, tmp_path, fault: str) -> None:
        proc = procs.python(
            "-c", self.SCRIPT, str(tmp_path / "state"), faults=fault
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

    @pytest.mark.parametrize(
        "fault",
        ["crash:store.events.before:1", "crash:store.record.before:1"],
    )
    def test_crash_before_first_persist_leaves_no_acknowledged_job(
        self, procs, tmp_path, fault
    ):
        # submit() had not returned: no client saw a job id, so recovery
        # must find nothing (an orphan event log is skipped).
        self._crash_child(procs, tmp_path, fault)
        assert JobStore(tmp_path / "state").load() == []
        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            assert manager.recovered_jobs == 0
        finally:
            manager.shutdown()

    @pytest.mark.parametrize(
        "fault",
        [
            "crash:store.record.after:1",  # right after the queued persist
            "crash:manager.run:1",         # mid-run, state=running on disk
        ],
    )
    def test_crash_after_persist_recovers_and_completes(
        self, procs, tmp_path, fault
    ):
        self._crash_child(procs, tmp_path, fault)
        manager = JobManager(workers=1, store=JobStore(tmp_path / "state"))
        try:
            assert manager.recovered_jobs == 1
            [handle] = manager.handles()
            response = handle.result(timeout=300)
            assert response.to_dict() == (
                LibraService().submit(_request()).to_dict()
            )
            seqs = [e.seq for e in handle.events()]
            assert seqs == list(range(len(seqs)))
        finally:
            manager.shutdown()


class TestKillDashNineEndToEnd:
    """Full stack: repro serve --state-dir, SIGKILL mid-sweep, restart."""

    def test_sigkill_midsweep_restart_resumes_gaplessly(self, procs, tmp_path):
        request = _batch_request(
            cache_dir="e2e", bandwidths=(100.0, 200.0, 300.0, 400.0)
        )
        reference = LibraService().submit(replace(request, cache_dir=None))

        # Slow each solve down so the kill reliably lands mid-sweep.
        server = procs.serve(
            "--workers", "1", "--cache-root", str(tmp_path / "caches"),
            state_dir=tmp_path / "state", faults="delay:worker.solve=0.4",
        )
        job_id = ServeClient(server.url, timeout=30).submit(request).id
        # Watch the stream until at least two cells solved (and are
        # durably cached), remembering the resume cursor.
        cursor = server.wait_for_cells(job_id, 2)

        # SIGKILL, then restart on the same state dir (fresh port; no
        # injected delay).
        server = server.restart()
        assert server.get_json("/healthz")["recovered_jobs"] == 1
        client = ServeClient(server.url, timeout=120, retry_backoff_s=0.05)
        # The job survived and the stream resumes exactly at ?after=N.
        resumed = []
        client.follow_to_completion(
            job_id, after=cursor, on_event=resumed.append
        )
        assert resumed, "no events after the resume cursor"
        assert resumed[0].seq == cursor  # gapless across the crash
        assert [e.seq for e in resumed] == list(
            range(cursor, cursor + len(resumed))
        )
        reasons = [
            e.data.get("reason") for e in resumed if e.kind == "state"
        ]
        assert "recovered after restart" in reasons

        # Completed from the cache, not from scratch.
        response = client.result(job_id)
        assert len(response.sweep.results) == 4
        assert all(not row.error for row in response.sweep.results)
        assert response.sweep.cache_hits >= 2

        # Bit-identical to the uninterrupted run.
        def rows(resp):
            return [
                {k: v for k, v in row.to_dict().items() if k != "from_cache"}
                for row in resp.sweep.results
            ]

        assert rows(response) == rows(reference)

        # The full replayed history is gapless from zero.
        replayed = list(client.events(job_id))
        assert [e.seq for e in replayed] == list(range(len(replayed)))
