"""JobManager: the async lifecycle over a thread-safe LibraService."""

import threading
import time

import pytest

import repro.core.solver as solver
from repro.api.requests import BatchRequest, OptimizeRequest
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.core.kernel import CERTIFIED_GAP
from repro.explore.spec import SweepSpec
from repro.serve import JobManager, JobState
from repro.utils.errors import ConfigurationError, JobCancelled, ReproError

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _request(total_bw=300, **kwargs):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw),
        **kwargs,
    )


def _infeasible_request():
    # Caps sum to 20 GB/s against a 300 GB/s budget: no feasible point, so
    # the job fails at solve time (not at request construction).
    return OptimizeRequest(
        scenario=build_scenario(
            TOPOLOGY, [WORKLOAD], total_bw_gbps=300,
            dim_caps_gbps=((0, 10.0), (1, 10.0)),
        )
    )


@pytest.fixture
def manager():
    with JobManager(workers=2) as manager:
        yield manager


class TestSubmit:
    def test_result_matches_blocking_service(self, manager):
        request = _request()
        handle = manager.submit(request)
        async_response = handle.result(timeout=120)
        blocking = LibraService().submit(request)
        assert async_response.point.bandwidths == blocking.point.bandwidths
        assert async_response.to_dict() == blocking.to_dict()

    def test_lifecycle_events_in_order(self, manager):
        handle = manager.submit(_request())
        events = list(handle.stream(timeout=120))
        states = [e.data["state"] for e in events if e.kind == "state"]
        assert states == ["queued", "running", "done"]
        assert events[-1].kind == "state"  # terminal event closes the stream
        seqs = [e.seq for e in events]
        assert seqs == list(range(len(events)))

    def test_optimize_result_carries_its_certificate(self, manager):
        handle = manager.submit(_request())
        response = handle.result(timeout=120)
        assert response.diagnostics["gap"] <= CERTIFIED_GAP
        assert response.diagnostics["iterations"] > 0
        assert {e.kind for e in handle.events()} == {"state"}

    def test_uncertified_answer_fails_the_job(self, manager, monkeypatch):
        monkeypatch.setattr(solver, "CERTIFIED_GAP", -1.0)
        handle = manager.submit(_request())
        assert handle.wait(timeout=120) is JobState.FAILED
        with pytest.raises(ReproError, match="uncertified answer"):
            handle.result()
        assert "gap" in handle.info().error

    def test_batch_job_reports_cells_and_diagnostics(self, manager):
        spec = SweepSpec(
            workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
            bandwidths_gbps=(100.0, 300.0),
        )
        handle = manager.submit(BatchRequest(spec=spec))
        response = handle.result(timeout=300)
        assert len(response.sweep.results) == 2
        assert response.diagnostics["cells"] == 2
        assert response.diagnostics["solver_calls"] == 2
        assert response.diagnostics["fanout_cells"] == 0
        assert response.diagnostics["profile"]["chains"] == 1
        kinds = [e.kind for e in handle.events()]
        assert "plan" in kinds and "chain" in kinds
        assert kinds.count("cell") == 2

    def test_batch_cells_run_through_the_managers_service(self, manager):
        """Inline batch solves must use the manager's service memos, not
        the module-global default (else its memo bounds are ignored)."""
        from repro.api.service import get_service, reset_service

        reset_service()
        spec = SweepSpec(
            workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
            bandwidths_gbps=(120.0,),
        )
        manager.submit(BatchRequest(spec=spec)).result(timeout=300)
        assert manager.service.compiled_count >= 1
        assert get_service().compiled_count == 0
        reset_service()

    def test_failed_job_raises_with_error(self, manager):
        handle = manager.submit(_infeasible_request())
        assert handle.wait(timeout=120) is JobState.FAILED
        with pytest.raises(ReproError, match="OptimizationError"):
            handle.result()
        assert "OptimizationError" in handle.info().error

    def test_submit_after_shutdown_refused(self):
        manager = JobManager(workers=1)
        manager.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            manager.submit(_request())


class TestDedupe:
    def test_same_content_returns_same_job(self, manager):
        first = manager.submit(_request())
        second = manager.submit(_request())
        assert first.id == second.id
        first.result(timeout=120)
        # Even after completion, the done job is reused (idempotent reads).
        third = manager.submit(_request())
        assert third.id == first.id and third.done

    def test_different_content_forks_jobs(self, manager):
        assert manager.submit(_request(300)).id != manager.submit(_request(400)).id

    def test_dedupe_false_forces_rerun(self, manager):
        first = manager.submit(_request())
        second = manager.submit(_request(), dedupe=False)
        assert second.id == first.id + "-r1"

    def test_cancelled_job_reruns_under_suffixed_id(self, manager):
        request = _infeasible_request()
        first = manager.submit(request)
        first.wait(timeout=120)  # fails
        second = manager.submit(request)
        assert second.id == first.id + "-r1"


class TestCancel:
    def test_cancel_queued_job_is_immediate(self):
        # One worker, hog it with a slow job; the second job sits queued.
        with JobManager(workers=1) as manager:
            hog = manager.submit(_request(300))
            queued = manager.submit(_request(400))
            assert queued.cancel() is True
            # Usually cancelled-while-queued (instant); if the hog finished
            # first the cancel lands at the next solver checkpoint instead.
            assert queued.wait(timeout=120) is JobState.CANCELLED
            with pytest.raises(JobCancelled):
                queued.result()
            assert hog.result(timeout=120) is not None

    def test_cancel_finished_job_is_noop(self, manager):
        handle = manager.submit(_request())
        handle.result(timeout=120)
        assert handle.cancel() is False
        assert handle.state is JobState.DONE


class TestStaleAttemptIsolation:
    """A requeued-and-rerun record must ignore the old thread's outcome.

    Models the fleet lease-loss + self-reclaim interleaving without the
    fleet machinery: attempt 1 blocks mid-solve, the record requeues
    (what a lease loss does to a running job), attempt 2 goes RUNNING on
    the same record, and attempt 1 then finishes. ``state is RUNNING``
    alone cannot tell the attempts apart — only the per-attempt
    ``run_generation`` stamp keeps the stale thread's outcome from
    terminating the new run.
    """

    class _GateService:
        def __init__(self):
            self.first_started = threading.Event()
            self.first_release = threading.Event()
            self.second_started = threading.Event()
            self.second_release = threading.Event()
            self._calls = 0
            self._lock = threading.Lock()

        def submit(self, request, should_stop=None, on_event=None):
            with self._lock:
                self._calls += 1
                call = self._calls
            if call == 1:
                self.first_started.set()
                assert self.first_release.wait(timeout=60)
                raise JobCancelled("stale attempt winding down")
            self.second_started.set()
            assert self.second_release.wait(timeout=60)
            return f"result-from-attempt-{call}"

    def test_stale_attempt_outcome_never_lands_on_a_new_run(self):
        service = self._GateService()
        manager = JobManager(service=service, workers=2)
        try:
            handle = manager.submit(_request())
            record = handle._record
            assert service.first_started.wait(timeout=60)
            # The lease-loss shape: the running record goes back to
            # queued while its solver thread is still inside submit().
            with record.cond:
                record.requeue("lease lost (renewal failed); test")
            # The reclaim shape: a second attempt runs the same record.
            manager._pool.submit(manager._run, record)
            assert service.second_started.wait(timeout=60)
            # Let the stale attempt finish while attempt 2 is RUNNING;
            # its JobCancelled must not cancel attempt 2's run.
            service.first_release.set()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                assert handle.state is JobState.RUNNING, (
                    "stale attempt's outcome landed on the new run"
                )
                time.sleep(0.02)
            service.second_release.set()
            assert handle.wait(timeout=60) is JobState.DONE
            with record.cond:
                assert record.result == "result-from-attempt-2"
        finally:
            service.first_release.set()
            service.second_release.set()
            manager.shutdown()


class TestBounds:
    def test_terminal_jobs_evicted_at_capacity(self):
        # grace 0: evict finished jobs immediately (the default keeps them
        # 60s so a submitter can still fetch the result it just streamed).
        with JobManager(workers=1, max_jobs=2, evict_grace_s=0.0) as manager:
            first = manager.submit(_request(100))
            first.result(timeout=120)
            second = manager.submit(_request(200))
            second.result(timeout=120)
            manager.submit(_request(400))
            assert manager.get(first.id) is None  # oldest terminal evicted
            assert manager.get(second.id) is not None

    def test_lookup(self, manager):
        handle = manager.submit(_request())
        assert manager.job(handle.id).id == handle.id
        assert manager.get("job-nope") is None
        with pytest.raises(ConfigurationError, match="unknown job id"):
            manager.job("job-nope")
        assert handle.id in [h.id for h in manager.handles()]
