"""The :class:`JobManager`: a bounded worker pool over :class:`LibraService`.

The manager is the redesign's pivot: where PR 3's ``service.submit()``
blocks its caller for the whole solve, ``manager.submit()`` returns a
:class:`~repro.serve.jobs.JobHandle` immediately and a pool thread runs
the request — polling the job's cancel flag through the service's
``should_stop`` seam and fanning the executor's progress dicts out as
:class:`~repro.serve.events.ProgressEvent`\\ s. One manager multiplexes
any number of clients over one (thread-safe) service instance, so engine
and solution memos are shared across all jobs.

Threads, not processes, are the pool substrate: a job's real parallelism
lives *inside* the request (``BatchRequest.workers`` drives the explore
engine's process pool), so job workers spend their life waiting on numpy/
scipy code that releases the GIL or on child processes. ``workers`` here
bounds *concurrent jobs*, not solver parallelism.

Typical session::

    from repro.api import OptimizeRequest, build_scenario
    from repro.serve import JobManager

    with JobManager(workers=2) as manager:
        handle = manager.submit(OptimizeRequest(scenario=build_scenario(
            "4D-4K", ["GPT-3"], total_bw_gbps=500)))
        progress = [(e.kind, e.data) for e in handle.stream()]
        response = handle.result()
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.api.requests import (
    AnalyzeRequest,
    AnalyzeResponse,
    BatchRequest,
    BatchResponse,
    CostrategyRequest,
    CostrategyResponse,
    OptimizeRequest,
    OptimizeResponse,
    request_from_dict,
    request_to_dict,
)
from repro.api.service import LibraService
from repro.obs import get_logger
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.serve import faults
from repro.serve.events import ProgressEvent
from repro.serve.jobs import (
    EVENT_LOG_LIMIT,
    TERMINAL_STATES,
    JobHandle,
    JobRecord,
    JobState,
    derive_job_id,
    job_content_key,
    resolve_state,
)
from repro.serve.store import STORE_VERSION, JobStore, StoredJob
from repro.utils.errors import (
    ConfigurationError,
    JobCancelled,
    ReproError,
    TransientError,
)

_log = get_logger("serve.manager")

#: Cap on the exponential retry backoff (seconds).
MAX_RETRY_BACKOFF_S = 30.0


def _is_transient(exc: BaseException) -> bool:
    """Should this job failure be retried rather than recorded?

    :class:`~repro.utils.errors.TransientError` is the opt-in taxonomy
    (fault injection and future resource-pressure signals);
    ``BrokenProcessPool`` escaping the sweep executor's own chain-requeue
    bound means every in-process retry already failed, so one more
    job-level attempt on a fresh pool is the last line of defense.
    """
    return isinstance(exc, (TransientError, BrokenProcessPool))


class JobManager:
    """Queue requests onto a bounded worker pool; hand back job handles.

    Args:
        service: The request executor; a fresh :class:`LibraService` when
            omitted. Must be thread-safe (the stock service is).
        workers: Concurrent-job bound (pool threads). Queued jobs beyond
            it wait in submission order.
        max_jobs: Job-table capacity. Submission evicts the oldest
            *terminal* jobs past the bound and refuses outright when the
            table is full of live ones — backpressure beats unbounded
            memory growth in a long-running server.
        evict_grace_s: How long a terminal job is immune from eviction
            after finishing. A submitter that just streamed a job to
            completion still has to fetch its result by id; without the
            grace window, a burst of other submissions could evict the
            finished job between those two steps and turn its success
            into a 404.
        store: Optional :class:`~repro.serve.store.JobStore`. With one,
            every job persists (record + event log) and construction runs
            a recovery pass: persisted jobs re-enter the table, and those
            that were queued/running at crash time are requeued — batch
            jobs then resume from their cached cells. Eviction deletes
            the job's durable state along with its table entry.
        max_retries: Job-level requeues after *transient* failures
            (injected faults, pool collapse) before the job fails for
            real. Permanent errors never retry.
        retry_backoff_s: Base of the bounded exponential backoff between
            job retries (``base * 2**(attempt-1)``, capped at
            :data:`MAX_RETRY_BACKOFF_S`).
        fleet: Optional :class:`~repro.serve.fleet.FleetCoordinator`
            (requires ``store``). With one, this manager is one member
            of a multi-server fleet sharing the state dir: submissions
            claim a lease before running (losing the race to a peer
            tracks the job passively instead), the store sink only
            persists for lease-owned jobs (the event log has exactly
            one writer), recovery claims rather than assumes, and the
            coordinator's background thread renews held leases and
            takes over stale ones.
    """

    def __init__(
        self,
        service: LibraService | None = None,
        workers: int = 2,
        max_jobs: int = 256,
        evict_grace_s: float = 60.0,
        store: JobStore | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
        fleet=None,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_jobs < 1:
            raise ConfigurationError(f"max_jobs must be >= 1, got {max_jobs}")
        if evict_grace_s < 0:
            raise ConfigurationError(
                f"evict_grace_s must be >= 0, got {evict_grace_s}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        if fleet is not None and store is None:
            raise ConfigurationError(
                "fleet mode requires a durable store (--state-dir)"
            )
        self._evict_grace_s = evict_grace_s
        self.service = service if service is not None else LibraService()
        self._max_jobs = max_jobs
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._store = store
        self._sink = self._store_sink if store is not None else None
        self._fleet = fleet
        self.recovered_jobs = 0
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, JobRecord] = OrderedDict()
        self._closed = False
        self._retry_timers: set[threading.Timer] = set()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self.register_gauges(obs_metrics.get_registry())
        if fleet is not None:
            # Bind before recovery (recovery claims through the
            # coordinator) but start the renew/scan thread only after it,
            # so the scan never races the initial table build.
            fleet.bind(self)
        if store is not None:
            self._recover()
        if fleet is not None:
            fleet.start()

    @property
    def fleet(self):
        """The bound fleet coordinator, or ``None`` (single-server mode)."""
        return self._fleet

    def register_gauges(self, registry) -> None:
        """Point the live-depth gauges at this manager.

        Callback gauges, deliberately: queue depth and active count are
        computed at *scrape* time from :meth:`counts` rather than eagerly
        bumped from job transitions — transition code holds each record's
        condition lock, and taking the manager lock under it would invert
        the manager-lock → record-cond ordering ``submit`` relies on.
        Re-invoked by the HTTP server once metrics are enabled (the
        constructor call is a no-op under the null registry).
        """
        registry.gauge(
            obs_names.JOB_QUEUE_DEPTH, "Jobs queued but not yet running."
        ).set_function(lambda: self.counts()["queued"])
        registry.gauge(
            obs_names.JOBS_ACTIVE, "Jobs currently running."
        ).set_function(lambda: self.counts()["running"])

    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state (the /healthz and gauge snapshot)."""
        with self._lock:
            records = list(self._jobs.values())
        tallies = {state.value: 0 for state in JobState}
        for record in records:
            with record.cond:
                tallies[record.state.value] += 1
        return tallies

    # -- persistence & recovery ----------------------------------------------

    def _record_payload(self, record: JobRecord) -> dict:
        """The durable envelope for one job (``record.json``'s content)."""
        return {
            "store_version": STORE_VERSION,
            "job": record.info().to_dict()["job"],
            "request": request_to_dict(record.request),
            "content_key": record.content_key,
            "attempts": record.attempts,
        }

    def _store_sink(self, record: JobRecord, event: ProgressEvent) -> None:
        """Per-event persistence (the :class:`JobRecord` sink).

        Event first, then (on state events) the record — so the log is
        never behind the record a crash leaves on disk. State events
        fsync through; progress events ride the store's batch window.
        Persistence failure is contained: the in-memory job keeps
        running (availability over durability) and the fault is logged —
        a full disk must degrade the server to PR 5 behavior, not kill
        every job mid-solve.

        In fleet mode the sink is strictly lease-gated: the append-only
        event log survives exactly one writer (a duplicate seq from a
        second process would truncate the gapless prefix), so a record
        this server does not hold the lease for — a passive mirror of a
        peer's job, or a job whose lease was just lost — persists
        nothing. The lease owner's sink writes the same events from its
        identical record.
        """
        if self._fleet is not None and not self._fleet.owns(record.id):
            return
        try:
            self._store.append_event(
                record.id, event.to_dict(), durable=event.kind == "state"
            )
            if event.kind == "state":
                self._store.save_record(record.id, self._record_payload(record))
        except (ReproError, OSError) as exc:
            _log.error(
                "job persistence failed; continuing in memory",
                extra={"fields": {
                    "job": record.id, "seq": event.seq,
                    "error": f"{type(exc).__name__}: {exc}",
                }},
            )

    def _recover(self) -> None:
        """Reload persisted jobs; requeue the ones the crash interrupted.

        Runs once, from the constructor, before any new submission can
        race it. Terminal jobs re-enter the table read-only (their
        results keep answering ``GET /v3/jobs/{id}``); queued/running
        jobs requeue with a ``recovered`` reason — their attempt counter
        survives, so a job that keeps crashing the server still exhausts
        its retry budget instead of looping forever. Unreadable records
        are logged and skipped, never fatal: recovery must not be able
        to prevent the server from starting.

        In fleet mode the pass *claims* instead of assuming: each
        unfinished job's lease is contested through the coordinator. A
        won claim requeues here (through a stale lease it carries the
        takeover reason); a lost one means a live peer is running the
        job, so it is restored as a passive mirror only — the scan
        thread keeps it fresh and takes over if that peer dies.
        """
        requeued = 0
        restored = 0
        for stored in self._store.load():
            try:
                record = self._restore_record(stored)
            except ReproError as exc:
                _log.warning(
                    "skipping unrecoverable persisted job",
                    extra={"fields": {
                        "job": stored.job_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    }},
                )
                continue
            self._jobs[record.id] = record
            restored += 1
            if record.state in TERMINAL_STATES:
                continue
            reason = "recovered after restart"
            if self._fleet is not None:
                claim = self._fleet.try_claim(record.id)
                if not claim.won:
                    continue  # a live peer owns it; mirror passively
                if claim.reclaimed_from:
                    reason = f"reclaimed from dead owner {claim.reclaimed_from}"
            with record.cond:
                record.requeue(reason)
            self._pool.submit(self._run, record)
            requeued += 1
            obs_metrics.get_registry().counter(
                obs_names.JOBS_RECOVERED,
                "Unfinished jobs re-enqueued by the startup recovery pass.",
            ).inc()
        self.recovered_jobs = requeued
        if restored:
            _log.info(
                "recovery pass complete",
                extra={"fields": {
                    "restored": restored, "requeued": requeued,
                }},
            )

    def _restore_record(self, stored) -> JobRecord:
        """One persisted job back into a live record (sink reattached)."""
        payload = stored.record
        try:
            job = payload["job"]
            request = request_from_dict(payload["request"])
            state = resolve_state(job["state"])
            started = job.get("started_at")
            finished = job.get("finished_at")
            result_payload = job.get("result")
            result: (
                OptimizeResponse | BatchResponse | AnalyzeResponse
                | CostrategyResponse | None
            ) = None
            if result_payload is not None:
                kind = job.get("kind")
                if kind == "batch":
                    result = BatchResponse.from_dict(result_payload)
                elif kind == "analyze":
                    result = AnalyzeResponse.from_dict(result_payload)
                elif kind == "costrategy":
                    result = CostrategyResponse.from_dict(result_payload)
                else:
                    result = OptimizeResponse.from_dict(result_payload)
            events = [
                ProgressEvent.from_dict(event) for event in stored.events
            ]
            return JobRecord.restore(
                stored.job_id,
                request,
                str(payload.get("content_key", "")) or job_content_key(request),
                state=state,
                created_at=float(job["created_at"]),
                started_at=None if started is None else float(started),
                finished_at=None if finished is None else float(finished),
                error=str(job.get("error", "")),
                result=result,
                events=events,
                attempts=int(payload.get("attempts", 0)),
                sink=self._sink,
            )
        except ReproError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed persisted job record: {exc}"
            ) from exc

    # -- fleet coordination (called from the FleetCoordinator thread) --------

    def _fleet_sync_from_disk(self, job_id: str, record_payload: dict) -> JobRecord | None:
        """Mirror a peer-owned job's disk state into the local table.

        Adopts unknown jobs (so any fleet member answers ``GET`` and
        dedupes against work running anywhere) and refreshes known
        passive mirrors in place — replacing the event list wholesale
        with the disk log, which shares the gapless seq prefix local
        streams have already delivered, so cursors stay valid. Records
        this server owns, and mirrors that already reached a local
        terminal state, are never touched.
        """
        if self._fleet is not None and self._fleet.owns(job_id):
            return None
        stored = StoredJob(
            job_id=job_id,
            record=record_payload,
            events=self._store.read_events(job_id),
        )
        try:
            fresh = self._restore_record(stored)
        except ReproError:
            return None
        with self._lock:
            if self._closed:
                return None
            record = self._jobs.get(job_id)
            if record is None:
                self._jobs[job_id] = fresh
                return fresh
        with record.cond:
            if record.state in TERMINAL_STATES:
                return record
            record.state = fresh.state
            record.started_at = fresh.started_at
            record.finished_at = fresh.finished_at
            record.error = fresh.error
            record.result = fresh.result
            record.attempts = fresh.attempts
            if fresh.next_seq > record.next_seq:
                record.events = fresh.events
                record.next_seq = fresh.next_seq
            record.cond.notify_all()
        return record

    def _fleet_run_claimed(
        self, job_id: str, record_payload: dict, reason: str
    ) -> None:
        """Run a job whose lease this server just won (takeover path).

        Syncs the record to disk truth first — the disk log is what this
        server's sink will append after — then requeues with ``reason``
        (now persisted, since the lease is ours) and schedules it.
        """
        assert self._fleet is not None
        stored = StoredJob(
            job_id=job_id,
            record=record_payload,
            events=self._store.read_events(job_id),
        )
        with self._lock:
            if self._closed:
                self._fleet.release(job_id)
                return
            record = self._jobs.get(job_id)
            if record is None:
                try:
                    record = self._restore_record(stored)
                except ReproError as exc:
                    _log.warning(
                        "cannot adopt claimed job; releasing lease",
                        extra={"fields": {
                            "job": job_id,
                            "error": f"{type(exc).__name__}: {exc}",
                        }},
                    )
                    self._fleet.release(job_id)
                    return
                self._jobs[job_id] = record
        with record.cond:
            if record.state in TERMINAL_STATES:
                self._fleet.release(job_id)
                return
            # Align the in-memory record with the disk log before the
            # first owned append, and reset the cancel flag: a previous
            # local runner that lost this lease mid-solve still holds
            # the old (set) Event and will stop at its next checkpoint.
            events = [ProgressEvent.from_dict(e) for e in stored.events]
            if events and events[-1].seq + 1 > record.next_seq:
                record.events = events[-EVENT_LOG_LIMIT:]
                record.next_seq = events[-1].seq + 1
            record.cancel_requested = threading.Event()
            record.requeue(reason)
        with self._lock:
            if self._closed:
                return
            try:
                self._pool.submit(self._run, record)
            except RuntimeError:
                pass  # teardown; the lease releases in close()

    def _fleet_lease_lost(self, record: JobRecord) -> None:
        """React to losing a lease (renewal failed): stop, don't persist.

        The job is not cancelled globally — a peer has (or will) take it
        over. Locally: a running solve gets its cancel flag raised so it
        stops at the next checkpoint, and the record returns to
        ``queued`` as a passive mirror (the sink is already gated off,
        so nothing we do from here reaches the shared log).
        """
        with record.cond:
            if record.state in TERMINAL_STATES:
                return
            if record.state is JobState.RUNNING:
                record.cancel_requested.set()
            record.requeue(
                "lease lost (renewal failed); a peer server owns this job"
            )
        _log.warning(
            "stopped local run after lease loss",
            extra={"fields": {"job": record.id}},
        )

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        request: (
            OptimizeRequest | BatchRequest | AnalyzeRequest | CostrategyRequest
        ),
        *,
        dedupe: bool = True,
    ) -> JobHandle:
        """Queue one request; return its handle immediately.

        Job ids are content-derived, and by default submission is
        *idempotent over live and successful work*: re-submitting a
        payload whose job is queued, running, or done returns the
        existing handle (clients retrying over a flaky link never fork
        duplicate solves). A payload whose previous job failed or was
        cancelled gets a fresh ``-r<N>`` id — reruns after failure are
        the one case where "same content" must mean "new attempt".
        ``dedupe=False`` forces a fresh job unconditionally.

        In fleet mode the same semantics extend to disk state the local
        table has not mirrored yet: a won lease claim is followed by a
        store read, and an existing record is adopted (terminal ``done``
        dedupes, failed/cancelled reruns under the next id, a live one
        is taken over and requeued) rather than shadowed by a fresh
        seq-0 record that would corrupt its event log.
        """
        content_key = job_content_key(request)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "job manager is shut down; no new submissions"
                )
            if dedupe:
                for record in reversed(self._jobs.values()):
                    if record.content_key != content_key:
                        continue
                    with record.cond:
                        reusable = record.state not in (
                            JobState.FAILED, JobState.CANCELLED
                        )
                    if reusable:
                        return JobHandle(record)
                    break  # most recent attempt failed/cancelled: rerun
            self._evict_terminal()
            # Fleet mode claims the lease *before* creating the record:
            # the record's first emitted event (queued, seq 0) must only
            # persist on the server that owns the log. Identical
            # payloads racing on two servers derive the same job id, so
            # the O_EXCL claim picks the single runner; the loser tracks
            # the job passively and the scan thread mirrors the winner's
            # progress in.
            rerun = 0
            job_id = derive_job_id(content_key, rerun)
            claimed = None
            record: JobRecord | None = None
            reason = ""
            while True:
                if job_id in self._jobs:
                    rerun += 1
                    job_id = derive_job_id(content_key, rerun)
                    continue
                if self._fleet is None:
                    break
                claimed = self._fleet.try_claim(job_id)
                if not claimed.won:
                    break
                # A won claim is not yet proof the id is fresh: the id's
                # record may exist on disk without a local mirror yet (a
                # peer's terminal job, or a drain-released queued one,
                # inside the scan interval — neither carries a lease). A
                # fresh record's seq-0 queued event would then append
                # after the existing log's tail and break the gapless
                # prefix, so disk truth wins over a new record.
                stored_payload = self._store.read_record(job_id)
                if stored_payload is None:
                    break  # genuinely fresh id, lease held: create below
                stored = StoredJob(
                    job_id=job_id,
                    record=stored_payload,
                    events=self._store.read_events(job_id),
                )
                try:
                    mirror = self._restore_record(stored)
                except ReproError:
                    # Unreadable record: leave it to the scan's orphan
                    # handling and take the next rerun id.
                    self._fleet.release(job_id)
                    rerun += 1
                    job_id = derive_job_id(content_key, rerun)
                    continue
                state = mirror.state
                self._jobs[job_id] = mirror
                if state in TERMINAL_STATES:
                    self._fleet.release(job_id)
                    if dedupe and state is JobState.DONE:
                        return JobHandle(mirror)  # fleet-wide dedupe hit
                    # Failed/cancelled (or dedupe off): rerun, fresh id.
                    rerun += 1
                    job_id = derive_job_id(content_key, rerun)
                    continue
                if not dedupe:
                    # A fresh job was demanded; the live record goes back
                    # to the fleet (a peer's scan claims and runs it).
                    self._fleet.release(job_id)
                    rerun += 1
                    job_id = derive_job_id(content_key, rerun)
                    continue
                # Live on disk (queued by a drained peer, or under the
                # stale lease the claim just took over) and now leased to
                # us: this submission *is* the takeover — requeue the
                # adopted record instead of minting a duplicate.
                record = mirror
                reason = (
                    f"reclaimed from dead owner {claimed.reclaimed_from}"
                    if claimed.reclaimed_from
                    else "claimed on submit"
                )
                break
            if record is not None:
                with record.cond:
                    record.requeue(reason)
            else:
                # Emits the queued event; with a store the sink persists
                # the record before submit returns — a crash after the
                # 202 can never lose an acknowledged job.
                record = JobRecord(job_id, request, content_key, sink=self._sink)
                self._jobs[job_id] = record
                if claimed is not None and not claimed.won:
                    _log.info(
                        "job claimed by a peer server; tracking passively",
                        extra={"fields": {"job": job_id, "kind": record.kind}},
                    )
                    return JobHandle(record)
            # Scheduling happens under the manager lock: shutdown() flips
            # _closed under the same lock before it stops the pool, so a
            # submission that passed the _closed check above cannot race
            # the pool into RuntimeError. The guard below is a belt for
            # exotic interpreter shutdown paths only.
            try:
                self._pool.submit(self._run, record)
            except RuntimeError as exc:
                with record.cond:
                    record.transition(
                        JobState.CANCELLED, error=f"worker pool unavailable: {exc}"
                    )
                raise ConfigurationError(
                    "job manager is shut down; no new submissions"
                ) from exc
        obs_metrics.get_registry().counter(
            obs_names.JOBS_SUBMITTED,
            "Jobs accepted into the queue (dedupe hits excluded).",
            labels=("kind",),
        ).labels(kind=record.kind).inc()
        _log.info(
            "job queued",
            extra={"fields": {"job": record.id, "kind": record.kind}},
        )
        return JobHandle(record)

    def _evict_terminal(self) -> None:
        """Keep the job table bounded. Caller holds the manager lock.

        Only terminal jobs *past the grace window* are evictable — a
        just-finished job's submitter may still be about to fetch its
        result. A table full of live or freshly finished jobs refuses
        the submission instead (backpressure).
        """
        while len(self._jobs) >= self._max_jobs:
            victim = None
            now = time.time()
            for job_id, record in self._jobs.items():
                with record.cond:
                    evictable = (
                        record.state in TERMINAL_STATES
                        and record.finished_at is not None
                        and now - record.finished_at >= self._evict_grace_s
                    )
                if evictable:
                    victim = job_id
                    break
            if victim is None:
                raise ConfigurationError(
                    f"job table is full ({self._max_jobs} live or "
                    "just-finished jobs); wait, cancel some, or raise "
                    "--max-jobs"
                )
            del self._jobs[victim]
            if self._store is not None:
                # Durable state follows the table: an evicted job must
                # not resurrect on the next restart (and the store must
                # not grow without bound).
                self._store.delete(victim)

    # -- execution -----------------------------------------------------------

    def _run(self, record: JobRecord) -> None:
        """Pool-thread entry: drive one job through its lifecycle.

        The attempt stamps ``record.run_generation`` at its RUNNING
        transition, and every outcome below requires that stamp to still
        be current. ``state is RUNNING`` alone cannot tell *whose*
        running it is: after a fleet lease loss the record requeues, and
        if this same server reclaims the job (its own expired lease
        retaken by its scan) a new attempt goes RUNNING while the old
        solver thread is still winding down — without the generation
        check the old thread's outcome would terminate the new attempt
        and persist a wrong terminal state under the freshly held lease.
        """
        if self._fleet is not None and not self._fleet.owns(record.id):
            return  # lease lost while queued; a peer owns the job now
        with record.cond:
            if record.state is not JobState.QUEUED:
                return  # cancelled while queued
            record.run_generation += 1
            generation = record.run_generation
            record.transition(JobState.RUNNING)
            queued_s = (record.started_at or 0.0) - record.created_at
        # Latency observations happen after the condition lock is released
        # (see register_gauges for the ordering this preserves).
        registry = obs_metrics.get_registry()
        registry.histogram(
            obs_names.JOB_QUEUE_SECONDS, "Submit-to-running latency."
        ).observe(max(queued_s, 0.0))
        _log.debug(
            "job running",
            extra={"fields": {
                "job": record.id, "kind": record.kind,
                "queue_s": round(max(queued_s, 0.0), 6),
            }},
        )

        def on_event(payload: dict) -> None:
            data = dict(payload)
            kind = data.pop("type")
            with record.cond:
                record.emit(kind, data)

        try:
            with obs_trace.get_tracer().span(
                "job", attrs={"job": record.id, "kind": record.kind}
            ):
                faults.fire("manager.run")
                response = self.service.submit(
                    record.request,
                    should_stop=record.cancel_requested.is_set,
                    on_event=on_event,
                )
        except JobCancelled as exc:
            with record.cond:
                # Only this attempt's still-RUNNING record cancels here:
                # a fleet lease loss requeues the record mid-solve
                # (queued → cancelled is legal, and transitioning would
                # wrongly terminate a job a peer — or a newer local
                # attempt — is about to run).
                if (
                    record.state is JobState.RUNNING
                    and record.run_generation == generation
                ):
                    record.transition(JobState.CANCELLED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — job containment contract
            if self._maybe_retry(record, exc, generation):
                return  # requeued; terminal accounting happens on the last run
            with record.cond:
                if (
                    record.state is JobState.RUNNING
                    and record.run_generation == generation
                ):
                    record.transition(
                        JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
                    )
        else:
            with record.cond:
                # A record no longer RUNNING — or running under a newer
                # generation — was requeued under us (fleet lease loss):
                # the outcome is discarded — the lease owner recomputes
                # it, cheaply, from the shared cache.
                if (
                    record.state is JobState.RUNNING
                    and record.run_generation == generation
                ):
                    record.result = response
                    record.transition(JobState.DONE)
        with record.cond:
            state = record.state
            error = record.error
            # Terminal accounting (and the lease release) belongs to the
            # attempt that set the terminal state; a stale thread racing
            # a newer attempt must not release its lease or double-count.
            finished_here = (
                state in TERMINAL_STATES
                and record.run_generation == generation
            )
            run_s = (
                (record.finished_at or 0.0) - (record.started_at or 0.0)
                if finished_here else 0.0
            )
        if finished_here and self._fleet is not None:
            # The terminal state event is already persisted (the sink
            # runs inside the transition), so the lease has done its job.
            self._fleet.release(record.id)
        if finished_here:
            registry.histogram(
                obs_names.JOB_RUN_SECONDS, "Running-to-terminal latency."
            ).observe(max(run_s, 0.0))
            registry.counter(
                obs_names.JOBS_COMPLETED,
                "Jobs reaching a terminal state.",
                labels=("state",),
            ).labels(state=state.value).inc()
            fields = {
                "job": record.id, "kind": record.kind,
                "state": state.value, "run_s": round(max(run_s, 0.0), 6),
            }
            if error:
                fields["error"] = error
            level = _log.info if state is JobState.DONE else _log.warning
            level("job finished", extra={"fields": fields})

    def _maybe_retry(
        self, record: JobRecord, exc: BaseException, generation: int
    ) -> bool:
        """Requeue a transiently failed job with bounded backoff.

        True means the failure was absorbed: the record is back in
        ``queued`` (attempt counter bumped, retry state event emitted and
        persisted) and a timer will resubmit it after
        ``retry_backoff_s * 2**(attempt-1)`` seconds, capped at
        :data:`MAX_RETRY_BACKOFF_S`. False means the caller should fail
        the job for real: permanent errors, exhausted budget, or a
        cancel/shutdown race. ``generation`` is the calling attempt's
        run stamp — a stale thread (the record was requeued and re-run
        under it) absorbs nothing and requeues nothing.
        """
        if not _is_transient(exc):
            return False
        with record.cond:
            if (
                record.state is not JobState.RUNNING
                or record.run_generation != generation
                or record.cancel_requested.is_set()
                or record.attempts >= self._max_retries
            ):
                return False
            record.attempts += 1
            attempt = record.attempts
            record.requeue(
                f"retry {attempt}/{self._max_retries} after transient "
                f"failure: {type(exc).__name__}: {exc}"
            )
        obs_metrics.get_registry().counter(
            obs_names.JOB_RETRIES,
            "Transient-failure retries (job requeues and chain requeues).",
        ).inc()
        delay = min(
            self._retry_backoff_s * 2 ** (attempt - 1), MAX_RETRY_BACKOFF_S
        )
        _log.warning(
            "job retrying after transient failure",
            extra={"fields": {
                "job": record.id, "attempt": attempt,
                "max_retries": self._max_retries,
                "backoff_s": round(delay, 3),
                "error": f"{type(exc).__name__}: {exc}",
            }},
        )
        # A timer, not a sleep: sleeping here would pin a pool slot for
        # the whole backoff window.
        timer = threading.Timer(delay, self._resubmit, args=(record,))
        timer.daemon = True
        with self._lock:
            if self._closed:
                # Shutdown raced the retry; leave the job queued — with a
                # store the next boot's recovery pass picks it up.
                return True
            self._retry_timers.add(timer)
        timer.start()
        return True

    def _resubmit(self, record: JobRecord) -> None:
        """Timer target: put a backed-off job back on the pool."""
        with self._lock:
            self._retry_timers = {
                timer for timer in self._retry_timers if timer.is_alive()
            }
            if self._closed:
                return
            try:
                self._pool.submit(self._run, record)
            except RuntimeError:
                pass  # interpreter/pool teardown; recovery owns the job now

    # -- lookup --------------------------------------------------------------

    def get(self, job_id: str) -> JobHandle | None:
        """The handle for ``job_id``, or ``None``."""
        with self._lock:
            record = self._jobs.get(job_id)
        return None if record is None else JobHandle(record)

    def job(self, job_id: str) -> JobHandle:
        """The handle for ``job_id``; unknown ids raise."""
        handle = self.get(job_id)
        if handle is None:
            raise ConfigurationError(f"unknown job id {job_id!r}")
        return handle

    def handles(self) -> list[JobHandle]:
        """Every tracked job, oldest first."""
        with self._lock:
            return [JobHandle(record) for record in self._jobs.values()]

    def cancel(self, job_id: str) -> JobHandle:
        """Request cancellation of ``job_id``; returns its handle."""
        handle = self.job(job_id)
        handle.cancel()
        return handle

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, wait: bool = True, cancel_pending: bool = True) -> None:
        """Stop accepting jobs; optionally cancel what has not finished.

        ``cancel_pending=False`` is the durable-restart mode: queued work
        items are withdrawn from the pool *without* transitioning their
        jobs (running jobs still drain when ``wait``), so with a store
        they stay persisted as ``queued`` and the next boot's recovery
        pass resumes them — a graceful restart must not turn the backlog
        into a pile of cancellations.

        In fleet mode this is the graceful drain: after any cancellation
        pass, still-queued claimed jobs have their leases released (a
        peer's next scan claims and runs them — their records are on
        disk as ``queued``, exactly the takeover shape), running jobs
        finish while ``wait`` holds their leases, and the coordinator
        shuts down last so heartbeats cover the whole drain.
        """
        with self._lock:
            self._closed = True
            records = list(self._jobs.values())
            timers = list(self._retry_timers)
            self._retry_timers.clear()
        for timer in timers:
            timer.cancel()
        _log.info(
            "manager shutdown",
            extra={"fields": {
                "jobs": len(records), "cancel_pending": cancel_pending,
            }},
        )
        if cancel_pending:
            for record in records:
                JobHandle(record).cancel()
        if self._fleet is not None:
            self._fleet.drain()
        self._pool.shutdown(wait=wait, cancel_futures=not cancel_pending)
        if self._fleet is not None:
            self._fleet.close()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
