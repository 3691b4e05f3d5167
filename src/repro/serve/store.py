"""File-backed durable job store: the serve tier's crash-safety substrate.

A :class:`JobStore` persists every job twice over, under one state
directory::

    <root>/jobs/<job_id>/record.json     the job envelope + request payload
    <root>/jobs/<job_id>/events.ndjson   append-only event log, one
                                         ProgressEvent payload per line

**Crash model.** The process can die at any instruction (kill -9, OOM,
power loss); the filesystem preserves whatever was fsynced and may leave
a *torn final line* on the event log (a partial write). The store is
built so that every reachable on-disk state recovers:

* Records are written atomically — writer-unique temp file, fsync, then
  ``os.replace`` — so ``record.json`` is always either the old or the new
  envelope, never a hybrid.
* The event log is append-only NDJSON. The reader keeps the longest
  *gapless* ``seq`` prefix of intact lines and drops the rest: a torn
  final line (no trailing newline, or unparseable JSON) truncates there,
  and so would any deeper corruption. Re-opening for append repairs the
  file to that prefix first, so new events never concatenate onto a torn
  tail.
* Ordering invariant (kept by the manager's persistence sink): the event
  describing a state change is appended — and fsynced — *before* the
  record carrying that state is replaced. A crash between the two leaves
  the log ahead of the record, never behind; recovery trusts the record's
  state and the log's events.

**Fsync policy.** ``"state"`` lifecycle events and record replacement
fsync immediately — losing a terminal transition would resurrect a
finished job. High-rate progress events (``cell``/``solve``/``chain``)
batch: an append fsyncs when :attr:`JobStore.fsync_batch` lines or
:attr:`JobStore.fsync_interval_s` seconds have accumulated. A crash can
therefore lose at most one batch window of *progress telemetry*; the
cells those events described are separately durable in the
:class:`~repro.explore.cache.ResultCache`, so recovery re-serves them
from the cache rather than re-solving. Fsync latency is observed in the
``repro_store_fsync_seconds`` histogram.

Fault-injection points (:mod:`repro.serve.faults`): ``store.record.before``
/ ``store.record.after`` around record persistence, ``store.events.before``
/ ``store.events.after`` around appends, ``store.fsync`` before each fsync.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import get_logger
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.serve import faults
from repro.utils.errors import ConfigurationError

_log = get_logger("serve.store")

#: On-disk record schema version (guards the envelope wrapper layout).
STORE_VERSION = 1


def _fsync_histogram():
    return obs_metrics.get_registry().histogram(
        obs_names.STORE_FSYNC_SECONDS,
        "JobStore fsync latency (event-log batches and record replaces).",
    )


def register_durability_families(registry) -> None:
    """Pre-register the durability families so scrapes show them at zero.

    These families fire rarely (recovery after a crash, transient
    retries, fsyncs only with a state dir) — without pre-registration a
    healthy server's scrape would omit them entirely and the live-scrape
    test could not tell "never needed" from "renamed away".
    Creating the default series renders an explicit zero.
    """
    registry.counter(
        obs_names.JOBS_RECOVERED,
        "Unfinished jobs re-enqueued by the startup recovery pass.",
    ).labels()
    registry.counter(
        obs_names.JOB_RETRIES,
        "Transient-failure retries (job requeues and chain requeues).",
    ).labels()
    registry.histogram(
        obs_names.STORE_FSYNC_SECONDS,
        "JobStore fsync latency (event-log batches and record replaces).",
    ).labels()
    registry.counter(
        obs_names.CACHE_CORRUPT,
        "Corrupt/truncated ResultCache disk entries quarantined.",
    ).labels()
    registry.counter(
        obs_names.STORE_ORPHANS,
        "Job directories without an intact record skipped by load().",
    ).labels()
    registry.counter(
        obs_names.CACHE_PEER_HITS,
        "Disk-tier cache hits on entries written by another process.",
    ).labels()


def intact_event_prefix(data: bytes) -> tuple[list[dict], int]:
    """The longest gapless event prefix of raw log bytes.

    Returns ``(payloads, offset)`` where ``payloads`` are the parsed
    event dicts of every intact, newline-terminated line whose ``seq``
    continues the gapless ``0, 1, 2, …`` prefix, and ``offset`` is the
    byte length of that prefix (the truncation point for repair). A torn
    final line, an unparseable line, or a sequence gap all end the
    prefix — everything at and past the first defect is dropped, which
    is exactly the replay guarantee the property tests pin: *any* byte
    truncation of a log replays to a gapless prefix of the original.
    """
    payloads: list[dict] = []
    offset = 0
    expected_seq = 0
    while True:
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn tail (no terminator) — or clean EOF
        line = data[offset:newline].strip()
        if line:
            try:
                payload = json.loads(line)
                seq = payload["seq"]
            except (ValueError, KeyError, TypeError):
                break
            if not isinstance(payload, dict) or seq != expected_seq:
                break
            payloads.append(payload)
            expected_seq += 1
        offset = newline + 1
    return payloads, offset


@dataclass
class StoredJob:
    """One job as recovered from disk: its record payload and event log."""

    job_id: str
    record: dict
    events: list[dict] = field(default_factory=list)

    @property
    def created_at(self) -> float:
        try:
            return float(self.record["job"]["created_at"])
        except (KeyError, TypeError, ValueError):
            return 0.0


class _EventLog:
    """One job's append handle, with batched fsync."""

    def __init__(self, path: Path, batch: int, interval_s: float):
        self._path = path
        self._batch = batch
        self._interval_s = interval_s
        self._pending = 0
        self._last_sync = time.monotonic()
        # Repair before the first append: a torn tail left by a crash
        # must not become the prefix of the next line.
        if path.exists():
            _, offset = intact_event_prefix(path.read_bytes())
            if offset != path.stat().st_size:
                with open(path, "r+b") as fh:
                    fh.truncate(offset)
        self._fh = open(path, "ab")

    def append(self, payload: dict, durable: bool) -> None:
        line = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self._fh.write(line)
        self._fh.flush()  # visible to same-process readers immediately
        self._pending += 1
        now = time.monotonic()
        if (
            durable
            or self._pending >= self._batch
            or now - self._last_sync >= self._interval_s
        ):
            self.sync()

    def sync(self) -> None:
        if self._pending == 0:
            return
        faults.fire("store.fsync")
        began = time.perf_counter()
        os.fsync(self._fh.fileno())
        _fsync_histogram().observe(time.perf_counter() - began)
        self._pending = 0
        self._last_sync = time.monotonic()

    def close(self) -> None:
        try:
            self.sync()
        finally:
            self._fh.close()


class JobStore:
    """Durable job state under one directory (``repro serve --state-dir``).

    Thread-safe: appends and record writes from concurrent job workers
    serialize on one store lock (the job layer already serializes per-job
    mutation on each record's condition; the store lock additionally
    orders cross-job disk traffic).

    Args:
        root: The state directory; created (with ``jobs/``) if missing.
        fsync_batch: Progress-event appends per fsync (``"state"`` events
            always fsync immediately).
        fsync_interval_s: Max seconds between fsyncs while events flow.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        fsync_batch: int = 16,
        fsync_interval_s: float = 0.05,
    ):
        if fsync_batch < 1:
            raise ConfigurationError(
                f"fsync_batch must be >= 1, got {fsync_batch}"
            )
        if fsync_interval_s < 0:
            raise ConfigurationError(
                f"fsync_interval_s must be >= 0, got {fsync_interval_s}"
            )
        self.fsync_batch = fsync_batch
        self.fsync_interval_s = fsync_interval_s
        self._root = Path(root)
        self._jobs_dir = self._root / "jobs"
        try:
            self._jobs_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create state directory {self._root}: {exc}"
            ) from exc
        self._lock = threading.Lock()
        self._logs: dict[str, _EventLog] = {}
        self._closed = False
        #: Cumulative orphan directories skipped by :meth:`load`.
        self.orphans_skipped = 0

    @property
    def root(self) -> Path:
        return self._root

    @property
    def jobs_dir(self) -> Path:
        """The ``jobs/`` directory (fleet leases live inside it)."""
        return self._jobs_dir

    def job_ids(self) -> list[str]:
        """Every job directory name, sorted — the fleet scan's worklist."""
        try:
            return sorted(
                entry.name for entry in self._jobs_dir.iterdir()
                if entry.is_dir()
            )
        except OSError:
            return []

    def job_dir(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id in (".", ".."):
            raise ConfigurationError(f"invalid job id {job_id!r}")
        return self._jobs_dir / job_id

    # -- writes --------------------------------------------------------------

    def save_record(self, job_id: str, payload: dict) -> None:
        """Atomically persist one job's record envelope.

        Temp-write + fsync + ``os.replace`` + directory fsync: after this
        returns, the record survives power loss; at any instant during
        it, ``record.json`` is the old or the new envelope in full.
        """
        faults.fire("store.record.before")
        job_dir = self.job_dir(job_id)
        path = job_dir / "record.json"
        tmp = path.with_name(
            f"record.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        # ``json.dumps`` runs the C encoder; ``json.dump`` would stream the
        # same text through the pure-Python ``iterencode``.
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            job_dir.mkdir(parents=True, exist_ok=True)
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                    fh.flush()
                    faults.fire("store.fsync")
                    began = time.perf_counter()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
                dir_fd = os.open(job_dir, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
                _fsync_histogram().observe(time.perf_counter() - began)
            except OSError as exc:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                raise ConfigurationError(
                    f"cannot persist job record {path}: {exc}"
                ) from exc
        faults.fire("store.record.after")

    def append_event(self, job_id: str, payload: dict, durable: bool = False) -> None:
        """Append one event payload to the job's log.

        ``durable=True`` (lifecycle state events) fsyncs before
        returning; otherwise the append joins the current fsync batch.
        """
        faults.fire("store.events.before")
        with self._lock:
            self._log(job_id).append(payload, durable=durable)
        faults.fire("store.events.after")

    def _log(self, job_id: str) -> _EventLog:
        """The append handle for one job. Caller holds the store lock."""
        log = self._logs.get(job_id)
        if log is None:
            job_dir = self.job_dir(job_id)
            job_dir.mkdir(parents=True, exist_ok=True)
            log = _EventLog(
                job_dir / "events.ndjson",
                self.fsync_batch,
                self.fsync_interval_s,
            )
            self._logs[job_id] = log
        return log

    def sync(self, job_id: str | None = None) -> None:
        """Force-fsync pending event batches (one job, or all)."""
        with self._lock:
            logs = (
                [self._logs[job_id]] if job_id is not None
                and job_id in self._logs else
                list(self._logs.values()) if job_id is None else []
            )
            for log in logs:
                log.sync()

    def delete(self, job_id: str) -> None:
        """Drop one job's durable state (table eviction follows it here)."""
        with self._lock:
            log = self._logs.pop(job_id, None)
            if log is not None:
                try:
                    log.close()
                except OSError:
                    pass
            job_dir = self.job_dir(job_id)
            for name in ("events.ndjson", "record.json"):
                try:
                    (job_dir / name).unlink()
                except OSError:
                    pass
            # Stray temp files from interrupted record writes, plus any
            # fleet lease (and steal debris) the owner left behind.
            try:
                for pattern in ("record.*.tmp", "lease.json", "lease.steal.*"):
                    for stray in job_dir.glob(pattern):
                        stray.unlink()
                job_dir.rmdir()
            except OSError:
                pass

    # -- reads ---------------------------------------------------------------

    def read_record(self, job_id: str) -> dict | None:
        """The persisted record envelope, or ``None`` when absent/corrupt."""
        path = self.job_dir(job_id) / "record.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("store_version") != STORE_VERSION
        ):
            return None
        return payload

    def read_events(self, job_id: str, after: int = 0) -> list[dict]:
        """Replayable event payloads with ``seq >= after``.

        Reads the gapless intact prefix only (see
        :func:`intact_event_prefix`); never raises on torn or corrupt
        tails. Pending batched appends from this process are flushed
        first, so a live server's reads see everything it wrote.
        """
        path = self.job_dir(job_id) / "events.ndjson"
        try:
            data = path.read_bytes()
        except OSError:
            return []
        payloads, _ = intact_event_prefix(data)
        after = max(0, int(after))
        return [payload for payload in payloads if payload["seq"] >= after]

    def load(self) -> list[StoredJob]:
        """Every persisted job, oldest first — the recovery pass's input.

        A job directory without an intact ``record.json`` is skipped: the
        record is written (and fsynced) before submission returns, so an
        orphan means the crash hit mid-submit and no client ever saw the
        job id. Skips are not silent — each logs a structured WARNING and
        counts in ``repro_store_orphans_total`` (and the cumulative
        :attr:`orphans_skipped`), so a fleet operator can see state-dir
        skew instead of wondering where a directory went. Event logs are
        repaired (torn tails truncated) as a side effect of replay.
        """
        jobs = []
        try:
            entries = sorted(self._jobs_dir.iterdir())
        except OSError:
            return []
        for entry in entries:
            if not entry.is_dir():
                continue
            record = self.read_record(entry.name)
            if record is None:
                self.orphans_skipped += 1
                _log.warning(
                    "skipping orphan job directory (no intact record.json)",
                    extra={"fields": {"path": str(entry)}},
                )
                obs_metrics.get_registry().counter(
                    obs_names.STORE_ORPHANS,
                    "Job directories without an intact record skipped "
                    "by load().",
                ).inc()
                continue
            jobs.append(
                StoredJob(
                    job_id=entry.name,
                    record=record,
                    events=self.read_events(entry.name),
                )
            )
        jobs.sort(key=lambda job: (job.created_at, job.job_id))
        return jobs

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close every open event log."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for log in self._logs.values():
                try:
                    log.close()
                except OSError:
                    pass
            self._logs.clear()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
