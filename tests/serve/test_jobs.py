"""Job lifecycle, content-derived ids, and the v3 job envelope."""

import pytest

from repro.api.requests import OptimizeRequest
from repro.api.scenario import build_scenario
from repro.serve.jobs import (
    TERMINAL_STATES,
    JobInfo,
    JobRecord,
    JobState,
    derive_job_id,
    job_content_key,
    resolve_state,
)
from repro.utils.errors import ConfigurationError, JobCancelled, ReproError

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _request(total_bw=300):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw)
    )


def _record(request=None):
    request = request or _request()
    key = job_content_key(request)
    return JobRecord(derive_job_id(key), request, key)


class TestContentIds:
    def test_same_content_same_id(self):
        assert job_content_key(_request()) == job_content_key(_request())

    def test_different_content_different_id(self):
        assert job_content_key(_request(300)) != job_content_key(_request(400))

    def test_id_shape(self):
        key = job_content_key(_request())
        assert derive_job_id(key) == f"job-{key[:12]}"
        assert derive_job_id(key, rerun=2) == f"job-{key[:12]}-r2"


class TestLifecycle:
    def test_legal_path_queued_running_done(self):
        record = _record()
        with record.cond:
            record.transition(JobState.RUNNING)
            record.transition(JobState.DONE)
        assert record.state is JobState.DONE
        assert record.finished_at is not None

    @pytest.mark.parametrize("terminal", sorted(TERMINAL_STATES, key=lambda s: s.value))
    def test_terminal_states_are_final(self, terminal):
        record = _record()
        with record.cond:
            if terminal is not JobState.CANCELLED:
                record.transition(JobState.RUNNING)
            record.transition(terminal, error="boom")
            with pytest.raises(ConfigurationError, match="illegal transition"):
                record.transition(JobState.RUNNING)

    def test_queued_cannot_skip_to_done(self):
        record = _record()
        with record.cond:
            with pytest.raises(ConfigurationError, match="illegal transition"):
                record.transition(JobState.DONE)

    def test_every_transition_emits_a_state_event(self):
        record = _record()
        with record.cond:
            record.transition(JobState.RUNNING)
            record.transition(JobState.FAILED, error="solver exploded")
        kinds = [(event.kind, event.data.get("state")) for event in record.events]
        assert kinds == [
            ("state", "queued"), ("state", "running"), ("state", "failed")
        ]
        assert record.events[-1].data["error"] == "solver exploded"

    @pytest.mark.parametrize("kind", ["solve", "strategy", "bogus"])
    def test_retired_or_unknown_kinds_are_never_emitted(self, kind):
        record = _record()
        with record.cond:
            with pytest.raises(ConfigurationError, match="cannot emit"):
                record.emit(kind, {})
        assert [event.kind for event in record.events] == ["state"]

    def test_event_log_is_a_bounded_ring_with_global_seqs(self, monkeypatch):
        import repro.serve.jobs as jobs_module
        from repro.serve.jobs import JobHandle

        monkeypatch.setattr(jobs_module, "EVENT_LOG_LIMIT", 5)
        record = _record()  # seq 0 is the construction-time queued event
        with record.cond:
            for index in range(12):
                record.emit("cell", {"done": index})
        assert len(record.events) == 5  # ring bound holds
        assert record.next_seq == 13  # but sequence numbers keep counting
        assert [event.seq for event in record.events] == [8, 9, 10, 11, 12]
        # Reads clamp stale cursors to the oldest retained event.
        handle = JobHandle(record)
        assert [e.seq for e in handle.events(after=0)] == [8, 9, 10, 11, 12]
        assert [e.seq for e in handle.events(after=11)] == [11, 12]
        assert record.info().num_events == 13

    def test_resolve_state(self):
        assert resolve_state("cancelled") is JobState.CANCELLED
        assert resolve_state(JobState.DONE) is JobState.DONE
        with pytest.raises(ConfigurationError, match="unknown job state"):
            resolve_state("paused")


class TestJobEnvelope:
    def _info(self, **overrides):
        fields = {
            "id": "job-abc123def456",
            "kind": "optimize",
            "state": JobState.DONE,
            "created_at": 1_722_000_000.0,
            "started_at": 1_722_000_000.5,
            "finished_at": 1_722_000_003.0,
            "error": "",
            "num_events": 4,
            "result_payload": {"schema_version": 3, "scenario_key": "k"},
        }
        fields.update(overrides)
        return JobInfo(**fields)

    def test_round_trip(self):
        info = self._info()
        assert JobInfo.from_dict(info.to_dict()) == info

    def test_round_trip_queued_without_result(self):
        info = self._info(
            state=JobState.QUEUED, started_at=None, finished_at=None,
            result_payload=None, num_events=1,
        )
        restored = JobInfo.from_dict(info.to_dict())
        assert restored == info
        assert not restored.done

    def test_round_trip_survives_json(self):
        import json

        info = self._info()
        assert JobInfo.from_dict(json.loads(json.dumps(info.to_dict()))) == info

    def test_wrong_version_rejected(self):
        payload = self._info().to_dict()
        payload["schema_version"] = 2
        with pytest.raises(ConfigurationError, match="schema version"):
            JobInfo.from_dict(payload)

    def test_missing_job_object_rejected(self):
        with pytest.raises(ConfigurationError, match="'job' object"):
            JobInfo.from_dict({"schema_version": 3})

    def test_cancelled_info_raises_job_cancelled_on_decode(self):
        info = self._info(
            state=JobState.CANCELLED, error="cancelled between cells",
            result_payload=None,
        )
        with pytest.raises(JobCancelled, match="between cells"):
            info.response()

    def test_failed_info_raises_repro_error_on_decode(self):
        info = self._info(
            state=JobState.FAILED, error="OptimizationError: no feasible point",
            result_payload=None,
        )
        with pytest.raises(ReproError, match="no feasible point"):
            info.response()

    def test_undone_info_refuses_decode(self):
        info = self._info(state=JobState.RUNNING, result_payload=None)
        with pytest.raises(ConfigurationError, match="running"):
            info.response()
