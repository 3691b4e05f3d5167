"""Job identity, lifecycle, and the v3 job envelope.

A *job* is one queued request (optimize or batch) with a typed lifecycle::

    queued ──► running ──► done
       │          ├──────► failed
       └──────────┴──────► cancelled

Transitions only ever move rightward (enforced by
:meth:`JobRecord.transition`); ``done`` / ``failed`` / ``cancelled`` are
terminal. The one deliberate exception is :meth:`JobRecord.requeue` —
``running → queued`` — used exactly twice: by crash recovery (a job that
was mid-flight when the process died) and by the transient-failure retry
path. Every transition appends a ``"state"``
:class:`~repro.serve.events.ProgressEvent` (requeues carry a ``reason``),
so the event stream alone reconstructs the whole lifecycle.

Job ids are **content-derived**: the canonical digest of the request's v3
envelope (:func:`repro.api.requests.request_to_dict`). Two submissions of
the same problem therefore address the same job — the manager dedupes
live/completed jobs into one record — while a rerun after a failure or
cancellation gets a fresh ``-r<N>`` suffixed id, keeping ids stable *and*
unique.

Three views of one job:

* :class:`JobRecord` — the manager's mutable, lock-guarded truth.
* :class:`JobHandle` — the in-process API: await, stream, cancel.
* :class:`JobInfo` — the frozen wire snapshot both the HTTP server and
  the client speak (``to_dict`` / ``from_dict`` round-trips the
  envelope).
"""

from __future__ import annotations

import enum
import threading
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from repro.api.requests import (
    RESPONSE_SCHEMA_VERSION,
    AnalyzeRequest,
    AnalyzeResponse,
    BatchRequest,
    BatchResponse,
    CostrategyRequest,
    CostrategyResponse,
    OptimizeRequest,
    OptimizeResponse,
    check_schema_version,
    request_kind,
    request_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.serve.events import EVENT_KINDS, ProgressEvent
from repro.utils.canonical import digest
from repro.utils.errors import ConfigurationError, JobCancelled, ReproError


class JobState(enum.Enum):
    """Typed job lifecycle states."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Per-job event-log bound. Sequence numbers stay global (``num_events``
#: counts everything ever emitted), but only the newest this-many events
#: are retained for ``?after`` reads — a huge sweep must not pin one dict
#: per cell in server memory forever. Streams that fall further behind
#: simply resume at the oldest retained event; the terminal ``state``
#: event is always the newest, so lifecycle observation never degrades.
EVENT_LOG_LIMIT = 10_000

#: The legal transition relation (see the module docstring's diagram).
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


def resolve_state(value: JobState | str) -> JobState:
    """Coerce a state name (the wire form) back to the enum."""
    if isinstance(value, JobState):
        return value
    try:
        return JobState(value)
    except ValueError:
        raise ConfigurationError(
            f"unknown job state {value!r}; expected one of "
            f"{[state.value for state in JobState]}"
        ) from None


def job_content_key(request: OptimizeRequest | BatchRequest | AnalyzeRequest) -> str:
    """The content address job ids derive from (full canonical digest)."""
    return digest(request_to_dict(request))


def derive_job_id(content_key: str, rerun: int = 0) -> str:
    """A job id from a content key: ``job-<digest12>`` (+ ``-r<N>`` reruns)."""
    base = f"job-{content_key[:12]}"
    return base if rerun == 0 else f"{base}-r{rerun}"


def _raise_job_failure(state: JobState, error: str, job_id: str) -> None:
    """The one terminal-state → exception mapping.

    Both result surfaces — :meth:`JobHandle.result` (in-process) and
    :meth:`JobInfo.response` (decoded from the wire) — go through this,
    so a remote job's outcome raises exactly like a local one.
    """
    if state is JobState.CANCELLED:
        raise JobCancelled(error or f"job {job_id} was cancelled")
    if state is JobState.FAILED:
        raise ReproError(error or f"job {job_id} failed")


class JobRecord:
    """The manager-owned mutable state of one job.

    All mutation happens through :meth:`transition` / :meth:`emit` /
    :meth:`set_result` while holding :attr:`cond` — waiters
    (:meth:`JobHandle.result`, event streams, the HTTP front end) block on
    the same condition, so every append wakes them exactly once.

    ``sink``, when given, receives ``(record, event)`` for every emitted
    event *before* waiters wake — the persistence seam: the manager's
    store sink appends the event (and, on state events, the record) to
    the durable store, so anything a waiter ever observed is at least as
    persistent as the fsync policy promises. Sink failures are the
    sink's problem to contain; they must not raise into ``emit``.
    """

    def __init__(
        self,
        job_id: str,
        request: OptimizeRequest | BatchRequest | AnalyzeRequest,
        content_key: str,
        sink=None,
    ):
        self.id = job_id
        self.request = request
        self.kind = request_kind(request)
        self.content_key = content_key
        self.state = JobState.QUEUED
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error = ""
        self.result: OptimizeResponse | BatchResponse | AnalyzeResponse | None = None
        self.events: list[ProgressEvent] = []
        self.next_seq = 0  # total events ever emitted (ring may drop old)
        self.attempts = 0  # transient-failure requeues so far
        # Bumped (under cond) each time a worker thread transitions this
        # record to RUNNING. A finishing thread may only apply a terminal
        # outcome while its own generation is still current — a record
        # requeued and re-run under it (fleet lease loss + reclaim) must
        # not have the stale thread's outcome land on the new attempt.
        self.run_generation = 0
        self.sink = sink
        self.cancel_requested = threading.Event()
        self.cond = threading.Condition()
        # The record owns its whole event stream, including the initial
        # queued event — one owner for the state-event shape.
        with self.cond:
            self.emit("state", {"state": self.state.value})

    @classmethod
    def restore(
        cls,
        job_id: str,
        request: OptimizeRequest | BatchRequest | AnalyzeRequest,
        content_key: str,
        *,
        state: JobState,
        created_at: float,
        started_at: float | None,
        finished_at: float | None,
        error: str,
        result: OptimizeResponse | BatchResponse | AnalyzeResponse | None,
        events: list[ProgressEvent],
        attempts: int = 0,
        sink=None,
    ) -> "JobRecord":
        """Rebuild a record from durable state without emitting anything.

        The recovery path's constructor: the replayed events *are* the
        history, so no fresh queued event is emitted (that would double
        seq 0). ``next_seq`` continues from the replayed log — the log,
        not any persisted counter, is the truth about what a client could
        have seen; events lost past the last fsync simply never happened.
        Only the newest :data:`EVENT_LOG_LIMIT` events stay in memory
        (same ring bound as a live record).
        """
        record = cls.__new__(cls)
        record.id = job_id
        record.request = request
        record.kind = request_kind(request)
        record.content_key = content_key
        record.state = state
        record.created_at = created_at
        record.started_at = started_at
        record.finished_at = finished_at
        record.error = error
        record.result = result
        record.events = events[-EVENT_LOG_LIMIT:]
        record.next_seq = events[-1].seq + 1 if events else 0
        record.attempts = attempts
        record.run_generation = 0
        record.sink = sink
        record.cancel_requested = threading.Event()
        record.cond = threading.Condition()
        return record

    @property
    def events_base(self) -> int:
        """Sequence number of the oldest *retained* event."""
        return self.next_seq - len(self.events)

    # -- mutation (hold self.cond) ------------------------------------------

    def emit(self, kind: str, data: dict) -> ProgressEvent:
        """Append one event and wake every waiter. Caller holds ``cond``.

        The log is a bounded ring (:data:`EVENT_LOG_LIMIT`): sequence
        numbers keep counting, the oldest retained events fall off.
        Only :data:`~repro.serve.events.EVENT_KINDS` are emitted; a
        retired kind is only ever decoded from an earlier build's log.
        """
        if kind not in EVENT_KINDS:
            raise ConfigurationError(f"job {self.id}: cannot emit {kind!r}")
        event = ProgressEvent(
            seq=self.next_seq,
            job_id=self.id,
            kind=kind,
            at=time.time(),
            data=data,
        )
        self.next_seq += 1
        self.events.append(event)
        overflow = len(self.events) - EVENT_LOG_LIMIT
        if overflow > 0:
            del self.events[:overflow]
        if self.sink is not None:
            # Persist before waking waiters: nothing becomes observable
            # until the durable store has (at least batched) the event.
            self.sink(self, event)
        self.cond.notify_all()
        return event

    def transition(self, state: JobState, error: str = "") -> None:
        """Move to ``state``, stamping timestamps and the state event.

        Caller holds ``cond``. Illegal moves (anything out of a terminal
        state, skipping ``running`` into ``done``/``failed``) raise — a
        lifecycle bug must be loud, not silently recorded.
        """
        if state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"job {self.id}: illegal transition "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state
        if state is JobState.RUNNING:
            self.started_at = time.time()
        if state in TERMINAL_STATES:
            self.finished_at = time.time()
            self.error = error
        data = {"state": state.value}
        if error:
            data["error"] = error
        self.emit("state", data)

    def requeue(self, reason: str) -> None:
        """Move a non-terminal job back to ``queued`` — the one leftward edge.

        Used by crash recovery (the process died while this job was
        queued or running) and by transient-failure retry; ``reason``
        lands in the state event's data so the stream explains the loop.
        Kept out of :data:`_TRANSITIONS` deliberately: the relation stays
        rightward-only and this documented exception stays greppable.
        Caller holds ``cond``. Requeueing a terminal job raises.
        """
        if self.state in TERMINAL_STATES:
            raise ConfigurationError(
                f"job {self.id}: cannot requeue from terminal state "
                f"{self.state.value}"
            )
        self.state = JobState.QUEUED
        self.started_at = None
        self.emit("state", {"state": self.state.value, "reason": reason})

    # -- snapshots -----------------------------------------------------------

    def info(self, include_result: bool = True) -> "JobInfo":
        """A frozen wire snapshot. Caller need not hold ``cond``."""
        with self.cond:
            result = self.result
            metrics = {}
            if self.started_at is not None:
                metrics["queue_s"] = round(
                    self.started_at - self.created_at, 6
                )
                if self.finished_at is not None:
                    metrics["run_s"] = round(
                        self.finished_at - self.started_at, 6
                    )
            if self.finished_at is not None:
                metrics["total_s"] = round(
                    self.finished_at - self.created_at, 6
                )
            if self.attempts:
                metrics["attempts"] = self.attempts
            return JobInfo(
                id=self.id,
                kind=self.kind,
                state=self.state,
                created_at=self.created_at,
                started_at=self.started_at,
                finished_at=self.finished_at,
                error=self.error,
                num_events=self.next_seq,
                result_payload=(
                    result.to_dict()
                    if include_result and result is not None
                    else None
                ),
                metrics=metrics or None,
            )


@dataclass(frozen=True)
class JobInfo:
    """The job envelope both sides of the wire speak.

    Attributes:
        id: Content-derived job id.
        kind: ``"optimize"``, ``"batch"``, ``"analyze"``, or
            ``"costrategy"``.
        state: Current lifecycle state.
        created_at: Submission wall-clock time.
        started_at: When the worker picked the job up; ``None`` while queued.
        finished_at: Terminal-transition time; ``None`` until terminal.
        error: Failure/cancellation description; empty otherwise.
        num_events: Events emitted so far (the stream cursor's upper bound).
        result_payload: The response ``to_dict`` payload once ``done``
            (``None`` otherwise, and in list summaries).
        metrics: Lifecycle latencies derived from the timestamps —
            ``queue_s`` (submit → running) once started, plus ``run_s``
            and ``total_s`` once terminal, and ``attempts`` when the job
            was ever requeued after a transient failure. ``None`` while
            queued.
    """

    id: str
    kind: str
    state: JobState
    created_at: float
    started_at: float | None = None
    finished_at: float | None = None
    error: str = ""
    num_events: int = 0
    result_payload: dict | None = None
    metrics: dict | None = None

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def response(
        self,
    ) -> OptimizeResponse | BatchResponse | AnalyzeResponse | CostrategyResponse:
        """Decode the result payload into the typed response value.

        Raises the job's own failure (:class:`JobCancelled` for cancelled
        jobs, :class:`ReproError` for failed ones) instead of returning —
        a remote job's outcome surfaces exactly like a local call's.
        """
        _raise_job_failure(self.state, self.error, self.id)
        if self.result_payload is None:
            raise ConfigurationError(
                f"job {self.id} is {self.state.value}; no result to decode "
                "(fetch the job by id for the full envelope)"
            )
        if self.kind == "batch":
            return BatchResponse.from_dict(self.result_payload)
        if self.kind == "analyze":
            return AnalyzeResponse.from_dict(self.result_payload)
        if self.kind == "costrategy":
            return CostrategyResponse.from_dict(self.result_payload)
        return OptimizeResponse.from_dict(self.result_payload)

    def to_dict(self) -> dict:
        """The v3 job envelope; inverse of :meth:`from_dict`."""
        return {
            "schema_version": RESPONSE_SCHEMA_VERSION,
            "job": {
                "id": self.id,
                "kind": self.kind,
                "state": self.state.value,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
                "events": self.num_events,
                "result": self.result_payload,
                "metrics": self.metrics,
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobInfo":
        """Rebuild a snapshot from the v3/v4 job envelope."""
        check_schema_version(
            payload, (3, 4, RESPONSE_SCHEMA_VERSION), "job envelope"
        )
        job = payload.get("job")
        if not isinstance(job, Mapping):
            raise ConfigurationError("job envelope is missing its 'job' object")
        try:
            started = job.get("started_at")
            finished = job.get("finished_at")
            result = job.get("result")
            metrics = job.get("metrics")
            return cls(
                id=str(job["id"]),
                kind=str(job["kind"]),
                state=resolve_state(job["state"]),
                created_at=float(job["created_at"]),
                started_at=None if started is None else float(started),
                finished_at=None if finished is None else float(finished),
                error=str(job.get("error", "")),
                num_events=int(job.get("events", 0)),
                result_payload=None if result is None else dict(result),
                metrics=None if metrics is None else dict(metrics),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed job envelope: {exc}"
            ) from exc


class JobHandle:
    """The in-process face of a job: poll, await, stream, cancel.

    Handles are cheap views over the manager's :class:`JobRecord`; any
    number may exist per job and all observe the same state.
    """

    def __init__(self, record: JobRecord):
        self._record = record

    @property
    def id(self) -> str:
        return self._record.id

    @property
    def kind(self) -> str:
        return self._record.kind

    @property
    def state(self) -> JobState:
        with self._record.cond:
            return self._record.state

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def info(self, include_result: bool = True) -> JobInfo:
        """The current wire snapshot."""
        return self._record.info(include_result=include_result)

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        A queued job cancels immediately; a running one raises its
        ``should_stop`` flag and cancels at the next solver/sweep
        checkpoint. Returns False when the job already reached a terminal
        state (cancelling a finished job is a no-op, not an error).
        """
        record = self._record
        cancelled_queued = False
        with record.cond:
            if record.state in TERMINAL_STATES:
                return False
            record.cancel_requested.set()
            if record.state is JobState.QUEUED:
                record.transition(JobState.CANCELLED, error="cancelled while queued")
                cancelled_queued = True
        if cancelled_queued:
            # A queued job never reaches the worker's terminal accounting
            # (JobManager._run returns early), so it is counted here.
            obs_metrics.get_registry().counter(
                obs_names.JOBS_COMPLETED,
                "Jobs reaching a terminal state.",
                labels=("state",),
            ).labels(state=JobState.CANCELLED.value).inc()
        return True

    def wait(self, timeout: float | None = None) -> JobState:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        record = self._record
        deadline = None if timeout is None else time.monotonic() + timeout
        with record.cond:
            while record.state not in TERMINAL_STATES:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                record.cond.wait(remaining)
            return record.state

    def result(
        self, timeout: float | None = None
    ) -> OptimizeResponse | BatchResponse | AnalyzeResponse:
        """Await the response value; raise the job's failure instead.

        :class:`JobCancelled` for cancelled jobs, :class:`ReproError` for
        failed ones, :class:`ConfigurationError` on timeout — so
        ``manager.submit(req).result()`` behaves exactly like the
        blocking ``service.submit(req)`` it replaces.
        """
        state = self.wait(timeout)
        record = self._record
        with record.cond:
            if record.state not in TERMINAL_STATES:
                raise ConfigurationError(
                    f"job {record.id} still {state.value} after "
                    f"{timeout:g}s; poll, stream, or wait longer"
                )
            _raise_job_failure(record.state, record.error, record.id)
            assert record.result is not None  # DONE always carries a result
            return record.result

    def events(self, after: int = 0) -> list[ProgressEvent]:
        """Events with ``seq >= after``, without blocking.

        ``after`` is a sequence number, clamped to 0 — a negative value
        must not Python-slice from the tail (that would replay events out
        of order and break ``?after=seq`` resume). A cursor older than
        the bounded log's oldest retained event resumes there instead.
        """
        record = self._record
        with record.cond:
            start = max(0, after, record.events_base)
            return list(record.events[start - record.events_base:])

    def stream(
        self, after: int = 0, timeout: float | None = None
    ) -> Iterator[ProgressEvent]:
        """Yield events as they arrive until the job is terminal.

        The terminal ``"state"`` event is always the last one emitted, so
        the stream is exhaustive: every event of the job's life passes
        through exactly once (from ``after`` onward). ``timeout`` bounds
        each *wait between events*, raising :class:`ConfigurationError`
        on expiry — a stalled stream is a caller-visible fault, not a
        silent hang.
        """
        record = self._record
        cursor = max(0, after)  # a seq cursor, never a negative slice
        while True:
            with record.cond:
                while (
                    record.next_seq <= cursor
                    and record.state not in TERMINAL_STATES
                ):
                    if not record.cond.wait(timeout):
                        raise ConfigurationError(
                            f"job {record.id}: no event within {timeout:g}s"
                        )
                # Clamp to the bounded log: a cursor that fell behind the
                # ring resumes at the oldest retained event.
                start = max(cursor, record.events_base)
                batch = list(record.events[start - record.events_base:])
                terminal = record.state in TERMINAL_STATES
            if batch:
                cursor = batch[-1].seq + 1
            yield from batch
            if terminal and not batch:
                return
            if terminal:
                # Drain once more in case events landed between the
                # snapshot and the yields; the next loop exits when empty.
                continue
