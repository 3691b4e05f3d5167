"""Fleet mode: N server processes draining one durable state directory.

PR 7 made a single ``repro serve --state-dir`` crash-safe: kill -9 it
and the restarted process recovers the queue and resumes sweeps from the
result cache. This module removes the "exactly one server" assumption.
Any number of ``repro serve --fleet`` processes may share one state dir
(and one ``--cache-root``); they coordinate through **lease files** so a
job runs on exactly one of them, and a server that dies mid-job loses
its leases to a peer that requeues the work through the same recovery
path — resumed sweeps stay bit-identical because every finished cell is
already in the shared :class:`~repro.explore.cache.ResultCache`.

**The lease protocol.** Each claimed job carries one extra file in its
store directory::

    <root>/jobs/<job_id>/lease.json

* **Claim** is ``open(..., O_CREAT | O_EXCL)``: the filesystem picks
  exactly one winner per path, no lock server involved. The file holds
  the owner id, host, pid, ttl, and a monotonic-clock renewal stamp.
* **Renewal** rewrites the stamp *in place* (same inode) every
  ``ttl/3`` seconds. An owner whose own lease has already aged past the
  ttl refuses to renew it (self-fencing: a stalled process must assume
  a peer took over rather than resurrect its claim), and after every
  rewrite it verifies the path still resolves to the fd's inode — if a
  thief renamed the file away mid-write, the renewal is lost, not won.
* **Takeover** renames a stale lease aside (exactly one of several
  racing peers wins the rename), re-checks staleness on the renamed
  file (a stalled owner may have renewed in the window — if so the
  lease is put back), unlinks it, and claims fresh via O_EXCL. The
  winner requeues the job with a ``reclaimed from dead owner`` state
  event and runs it through the ordinary worker path.

Staleness is ``age > ttl``, judged on the stamp whose epoch we share
with the writer. A lease written on *this* host ages on the monotonic
stamp — CLOCK_MONOTONIC is per-boot system-wide on Linux, so stamps
compare exactly across processes on one host — with one accelerator: a
same-host lease whose pid is dead is stale immediately (the common
one-box-many-processes deployment, and the two-process fleet test, never
wait out the ttl). A lease written on *another* host ages on the
wall-clock ``renewed_at`` stamp instead, padded by
:data:`DEFAULT_WALL_SKEW_S`: monotonic epochs are boot-relative and
unbounded apart between hosts (a later-booted host would judge every
peer lease permanently live, an earlier-booted one would judge them all
stale and double-run every job), so cross-host staleness must use the
one clock NTP keeps within a bounded skew.

**Why safety holds.** At most one process believes it owns a live lease
at any instant: O_EXCL serializes creation; renewal self-fences at the
ttl while takeover requires at least the ttl (plus the wall-skew margin
when the thief is on another host), so by the time a thief may steal,
the owner has already stopped renewing; and the rename-aside makes
stealing itself single-winner. The property test in ``tests/serve/test_fleet``
drives interleaved claim/renew/expire/release schedules over a fake
clock and asserts the invariant directly.

**What the coordinator does with it.** :class:`FleetCoordinator` wires
the lease store into a :class:`~repro.serve.manager.JobManager`:

* ``submit`` claims before creating the job record, so the store sink
  — and with it the append-only event log, which tolerates exactly one
  writer — is strictly lease-gated.
* A background thread renews held leases and scans the store for work:
  terminal peer jobs are adopted read-only (any server answers ``GET``
  for any job), live peer jobs have their local mirror refreshed from
  disk, and stale-leased jobs are taken over.
* ``drain()`` (SIGTERM) stops claiming and releases still-queued
  leases so peers pick the work up immediately; running jobs finish
  and release on their terminal transition.

Fault points: ``fleet.claim`` fires after the lease file exists but
before the claim returns (a ``crash`` here is the mid-claim death a
peer must clean up), ``fleet.renew`` fires before each renewal write
(a ``delay`` here is the renewal stall that forces a takeover).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.obs import get_logger
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.serve import faults
from repro.serve.jobs import TERMINAL_STATES, JobState, resolve_state
from repro.utils.errors import ConfigurationError

_log = get_logger("serve.fleet")

#: Lease file name inside each job's store directory.
LEASE_FILE = "lease.json"

#: On-disk lease schema version.
LEASE_VERSION = 1

#: Default lease time-to-live (seconds between renewals before peers
#: may take over). Renewal runs every ttl/3, so one missed heartbeat
#: never loses a lease.
DEFAULT_LEASE_TTL_S = 15.0

#: Extra margin added to the ttl when judging a *cross-host* lease's
#: staleness on its wall-clock stamp. The owner self-fences at exactly
#: ttl on its own monotonic clock, so a thief requiring ttl + skew on
#: wall time only ever steals after the owner stopped renewing, as long
#: as the hosts' wall clocks agree within this margin (NTP keeps real
#: fleets well inside it).
DEFAULT_WALL_SKEW_S = 5.0


def register_fleet_families(registry) -> None:
    """Pre-register the fleet families so a fleet server scrapes them at
    zero before its first claim (mirrors ``register_durability_families``;
    called from :meth:`FleetCoordinator.bind`, so non-fleet servers never
    grow these series — REQUIRED_FAMILIES stays fleet-free)."""
    registry.counter(
        obs_names.FLEET_CLAIMS,
        "Lease-claim attempts by outcome.",
        labels=("outcome",),
    ).labels(outcome="won")
    registry.counter(
        obs_names.FLEET_TAKEOVERS,
        "Stale leases taken over from a dead or silent peer.",
    ).labels()
    registry.counter(
        obs_names.FLEET_RENEWALS,
        "Heartbeat lease renewals by outcome.",
        labels=("outcome",),
    ).labels(outcome="ok")


@dataclass(frozen=True)
class LeaseInfo:
    """One parsed lease file."""

    owner: str
    host: str
    pid: int
    acquired_mono: float
    renewed_mono: float
    renewed_at: float
    ttl_s: float


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one :meth:`LeaseStore.claim` attempt.

    ``reclaimed_from`` names the previous owner when the claim went
    through a stale-lease takeover; ``None`` for a fresh claim.
    """

    won: bool
    reclaimed_from: str | None = None


def default_owner_id() -> str:
    """A fleet-unique server identity: ``<host>-<pid>-<random8>``.

    The random suffix keeps identities unique across pid reuse; the
    host/pid prefix keeps lease files and log lines debuggable.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


class LeaseStore:
    """Lease-file mechanics over one ``jobs/`` directory.

    Thread-safe: the held-set is lock-guarded; the file operations are
    individually atomic (O_EXCL create, in-place rewrite, rename) and
    the protocol in the module docstring makes their interleavings safe.

    Args:
        jobs_dir: The store's ``jobs/`` directory (leases live inside
            each job's subdirectory).
        owner_id: This process's fleet identity.
        ttl_s: Seconds without renewal before peers may take over.
        clock: Monotonic clock, injectable for the property tests. Only
            ever compared against stamps written on this same host (one
            boot, one epoch); cross-host leases age on wall time.
        wall_skew_s: Wall-clock disagreement tolerated between hosts
            when judging a cross-host lease's staleness (added to the
            ttl; see :data:`DEFAULT_WALL_SKEW_S`).
    """

    def __init__(
        self,
        jobs_dir: str | Path,
        owner_id: str | None = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock=time.monotonic,
        wall_skew_s: float = DEFAULT_WALL_SKEW_S,
    ):
        if ttl_s <= 0:
            raise ConfigurationError(f"ttl_s must be > 0, got {ttl_s}")
        if wall_skew_s < 0:
            raise ConfigurationError(
                f"wall_skew_s must be >= 0, got {wall_skew_s}"
            )
        self.jobs_dir = Path(jobs_dir)
        self.owner_id = owner_id or default_owner_id()
        self.ttl_s = ttl_s
        self.clock = clock
        self.wall_skew_s = wall_skew_s
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._held: set[str] = set()

    # -- introspection -------------------------------------------------------

    def lease_path(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id in (".", ".."):
            raise ConfigurationError(f"invalid job id {job_id!r}")
        return self.jobs_dir / job_id / LEASE_FILE

    def held(self) -> set[str]:
        """Job ids this store believes it holds leases for."""
        with self._lock:
            return set(self._held)

    def owns(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._held

    def peek(self, job_id: str) -> LeaseInfo | None:
        """The current lease on ``job_id``, or ``None`` (absent/torn)."""
        info, _ = self._read(self.lease_path(job_id))
        return info

    def is_stale(self, job_id: str) -> bool:
        """True when ``job_id``'s lease is absent, expired, or dead-owned."""
        path = self.lease_path(job_id)
        info, mtime = self._read(path)
        return self._stale(info, mtime)

    # -- the protocol --------------------------------------------------------

    def claim(self, job_id: str) -> ClaimResult:
        """Try to acquire the lease on ``job_id``.

        Wins a missing lease via O_EXCL and a stale one via the
        rename-aside takeover; loses (without blocking) to any live
        lease — including a mid-steal recheck that finds the "stale"
        owner renewed after all.
        """
        path = self.lease_path(job_id)
        try:
            # Submission claims before the record exists (the lease must
            # gate the record's first persisted event), so the claim
            # creates the job directory.
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create job directory {path.parent}: {exc}"
            ) from exc
        reclaimed_from: str | None = None
        for _ in range(3):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                info, mtime = self._read(path)
                if not self._stale(info, mtime):
                    return self._lost(job_id)
                stolen = self._steal(path, info)
                if stolen is None:
                    return self._lost(job_id)
                reclaimed_from = stolen or reclaimed_from
                continue  # lease path is free now; retry the O_EXCL create
            except FileNotFoundError:
                # Job directory is gone (evicted between scan and claim).
                return self._lost(job_id)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot create lease {path}: {exc}"
                ) from exc
            try:
                now = self.clock()
                os.write(fd, self._payload(acquired=now, renewed=now))
                os.fsync(fd)
            finally:
                os.close(fd)
            # Crash point: the lease exists on disk but nothing has been
            # scheduled — the orphan shape a peer's scan must clean up.
            faults.fire("fleet.claim")
            with self._lock:
                self._held.add(job_id)
            registry = obs_metrics.get_registry()
            registry.counter(
                obs_names.FLEET_CLAIMS,
                "Lease-claim attempts by outcome.",
                labels=("outcome",),
            ).labels(outcome="won").inc()
            if reclaimed_from is not None:
                registry.counter(
                    obs_names.FLEET_TAKEOVERS,
                    "Stale leases taken over from a dead or silent peer.",
                ).inc()
            return ClaimResult(won=True, reclaimed_from=reclaimed_from)
        return self._lost(job_id)

    def renew(self, job_id: str) -> bool:
        """Heartbeat one held lease; False means the lease is lost.

        Self-fencing: a lease we let age past the ttl is *not* renewed
        even if nobody stole it yet — by our own rules a peer may take
        it at any instant, so the only safe belief is "lost". The
        in-place rewrite keeps the inode, and the post-write stat
        detects a thief that renamed the file away mid-write.
        """
        faults.fire("fleet.renew")
        path = self.lease_path(job_id)
        ok = self._renew_file(path)
        if not ok:
            with self._lock:
                self._held.discard(job_id)
        obs_metrics.get_registry().counter(
            obs_names.FLEET_RENEWALS,
            "Heartbeat lease renewals by outcome.",
            labels=("outcome",),
        ).labels(outcome="ok" if ok else "lost").inc()
        return ok

    def release(self, job_id: str) -> None:
        """Give the lease up (job finished, or drain returning queued work).

        Only a lease that is still ours *and still live* is unlinked —
        an expired one may already belong to a thief mid-takeover, and
        unlinking it out from under them could hand the job to a third
        server while the thief also runs it.
        """
        with self._lock:
            held = job_id in self._held
            self._held.discard(job_id)
        if not held:
            return
        path = self.lease_path(job_id)
        info, mtime = self._read(path)
        if info is None or info.owner != self.owner_id:
            return
        if self._stale(info, mtime):
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- internals -----------------------------------------------------------

    def _lost(self, job_id: str) -> ClaimResult:
        obs_metrics.get_registry().counter(
            obs_names.FLEET_CLAIMS,
            "Lease-claim attempts by outcome.",
            labels=("outcome",),
        ).labels(outcome="lost").inc()
        return ClaimResult(won=False)

    def _payload(self, acquired: float, renewed: float) -> bytes:
        return json.dumps({
            "lease_version": LEASE_VERSION,
            "owner": self.owner_id,
            "host": self.host,
            "pid": self.pid,
            "acquired_mono": acquired,
            "renewed_mono": renewed,
            "renewed_at": time.time(),
            "ttl_s": self.ttl_s,
        }, sort_keys=True).encode("utf-8")

    @staticmethod
    def _read(path: Path) -> tuple[LeaseInfo | None, float | None]:
        """Parse a lease file; ``(None, mtime)`` for torn/mid-rewrite."""
        try:
            data = path.read_bytes()
            mtime = path.stat().st_mtime
        except OSError:
            return None, None
        try:
            payload = json.loads(data)
            return LeaseInfo(
                owner=str(payload["owner"]),
                host=str(payload["host"]),
                pid=int(payload["pid"]),
                acquired_mono=float(payload["acquired_mono"]),
                renewed_mono=float(payload["renewed_mono"]),
                renewed_at=float(payload["renewed_at"]),
                ttl_s=float(payload["ttl_s"]),
            ), mtime
        except (ValueError, KeyError, TypeError):
            # A rewrite in flight (truncate-then-write) parses as torn;
            # the mtime still tells a fresh rewrite from a dead one.
            return None, mtime

    def _stale(self, info: LeaseInfo | None, mtime: float | None) -> bool:
        if info is None and mtime is None:
            return True  # no lease at all
        if info is None:
            # Torn lease: fresh mtime means a renewal is mid-write (live);
            # an old one means the writer died mid-rewrite (stale). Wall
            # clock, not the injected one — mtimes are wall time.
            return time.time() - mtime > self.ttl_s
        return self._expired(info)

    def _expired(self, info: LeaseInfo) -> bool:
        """Has ``info``'s owner stopped renewing (by our best clock)?

        Same-host leases age on the monotonic stamp (one boot, one
        epoch — exact), with the dead-pid accelerator. Cross-host
        leases age on the wall-clock stamp plus the skew margin:
        monotonic epochs are boot-relative and never comparable between
        hosts, so using them here would judge every cross-host lease
        permanently live or instantly stale depending on boot order.
        """
        if info.host == self.host:
            if info.pid != self.pid and not _pid_alive(info.pid):
                return True  # dead same-host owner: skip the ttl wait
            return self.clock() - info.renewed_mono > info.ttl_s
        return time.time() - info.renewed_at > info.ttl_s + self.wall_skew_s

    def _steal(self, path: Path, info: LeaseInfo | None) -> str | None:
        """Rename a stale lease aside; the previous owner (or ``""``) on
        success, ``None`` when the steal was lost or proved premature."""
        aside = path.with_name(
            f"lease.steal.{self.owner_id}.{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(path, aside)
        except OSError:
            return None  # another thief (or a release) got there first
        # The owner may have renewed between our staleness read and the
        # rename — it holds an fd to this same inode. Re-check on the
        # renamed file (same epoch-aware rule as the first read); if it
        # is live after all, put it back.
        info2, _ = self._read(aside)
        if info2 is not None and not self._expired(info2):
            try:
                os.rename(aside, path)
            except OSError:
                pass
            return None
        try:
            os.unlink(aside)
        except OSError:
            pass
        previous = info2 or info
        return previous.owner if previous is not None else ""

    def _renew_file(self, path: Path) -> bool:
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return False  # stolen, released, or the job dir is gone
        try:
            data = os.read(fd, 1 << 16)
            try:
                payload = json.loads(data)
                owner = payload["owner"]
                renewed = float(payload["renewed_mono"])
                acquired = float(payload["acquired_mono"])
                ttl = float(payload.get("ttl_s", self.ttl_s))
            except (ValueError, KeyError, TypeError):
                return False  # not our intact lease; treat as lost
            if owner != self.owner_id:
                return False
            now = self.clock()
            if now - renewed > ttl:
                return False  # self-fence: expired means a peer may own it
            os.lseek(fd, 0, os.SEEK_SET)
            os.ftruncate(fd, 0)
            os.write(fd, self._payload(acquired=acquired, renewed=now))
            os.fsync(fd)
            try:
                st = os.stat(path)
            except OSError:
                return False  # renamed away mid-write: the thief wins
            if (st.st_ino, st.st_dev) != (
                os.fstat(fd).st_ino, os.fstat(fd).st_dev
            ):
                return False
            return True
        except OSError:
            return False
        finally:
            os.close(fd)


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, not ours
    except OSError:
        return True  # be conservative: unknown means alive
    return True


class FleetCoordinator:
    """Glue between a :class:`LeaseStore` and one :class:`JobManager`.

    Construct one per server and pass it to
    ``JobManager(..., fleet=coordinator)``; the manager binds it during
    construction (claims gate submission and the store sink) and the
    coordinator's background thread does the renewing and scanning.

    Args:
        store: The shared :class:`~repro.serve.store.JobStore`.
        owner_id: Fleet identity; generated when omitted.
        lease_ttl_s: See :class:`LeaseStore`.
        poll_interval_s: How often the scan pass looks for peer jobs to
            mirror and stale leases to take over.
        clock: Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        store,
        owner_id: str | None = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        poll_interval_s: float = 1.0,
        clock=time.monotonic,
    ):
        if poll_interval_s <= 0:
            raise ConfigurationError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        self.store = store
        self.leases = LeaseStore(
            store.jobs_dir, owner_id=owner_id, ttl_s=lease_ttl_s, clock=clock,
        )
        self.owner_id = self.leases.owner_id
        self.lease_ttl_s = lease_ttl_s
        self.renew_interval_s = lease_ttl_s / 3.0
        self.poll_interval_s = poll_interval_s
        self.takeovers = 0
        self._manager = None
        self._stop = threading.Event()
        self._draining = False
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def bind(self, manager) -> None:
        """Attach to the manager (called from ``JobManager.__init__``)."""
        self._manager = manager
        registry = obs_metrics.get_registry()
        register_fleet_families(registry)
        registry.gauge(
            obs_names.FLEET_LEASES_HELD, "Leases this server currently holds."
        ).set_function(lambda: len(self.leases.held()))

    def start(self) -> None:
        """Start the renew/scan thread (after the recovery pass)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet", daemon=True
        )
        self._thread.start()

    def drain(self) -> None:
        """Stop claiming; hand still-queued claimed work back to the fleet.

        Running jobs are left to finish (their leases release on the
        terminal transition); queued ones have their leases released so
        a peer's next scan picks them up — their records stay persisted
        as ``queued``, which is exactly the shape takeover expects.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        manager = self._manager
        released = 0
        for job_id in self.leases.held():
            state = None
            if manager is not None:
                handle = manager.get(job_id)
                state = handle.state if handle is not None else None
            if state is None or state is JobState.QUEUED:
                self.leases.release(job_id)
                released += 1
        _log.info(
            "fleet drain",
            extra={"fields": {
                "owner": self.owner_id, "released_queued": released,
                "still_running": len(self.leases.held()),
            }},
        )

    def close(self) -> None:
        """Stop the thread and release every remaining lease."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
        for job_id in self.leases.held():
            self.leases.release(job_id)

    # -- the manager-facing surface ------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def owns(self, job_id: str) -> bool:
        return self.leases.owns(job_id)

    def try_claim(self, job_id: str) -> ClaimResult:
        """Claim on behalf of a submission; refuses while draining."""
        if self.draining:
            raise ConfigurationError(
                "server is draining; submit to another fleet member"
            )
        return self.leases.claim(job_id)

    def release(self, job_id: str) -> None:
        self.leases.release(job_id)

    def stats(self) -> dict:
        """The /healthz fleet block."""
        return {
            "owner": self.owner_id,
            "lease_ttl_s": self.lease_ttl_s,
            "leases_held": len(self.leases.held()),
            "takeovers": self.takeovers,
            "draining": self.draining,
        }

    # -- the background loop -------------------------------------------------

    def _loop(self) -> None:
        tick = min(self.renew_interval_s, self.poll_interval_s, 0.5)
        last_renew = last_scan = self.leases.clock()
        while not self._stop.wait(tick):
            now = self.leases.clock()
            try:
                if now - last_renew >= self.renew_interval_s:
                    last_renew = now
                    self._renew_pass()
                if now - last_scan >= self.poll_interval_s:
                    last_scan = now
                    self._scan_pass()
            except Exception as exc:  # noqa: BLE001 — the loop must survive
                _log.error(
                    "fleet loop error",
                    extra={"fields": {
                        "owner": self.owner_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    }},
                )

    def poll_once(self) -> None:
        """One renew + scan round, synchronously (tests)."""
        self._renew_pass()
        self._scan_pass()

    def _renew_pass(self) -> None:
        manager = self._manager
        for job_id in self.leases.held():
            handle = manager.get(job_id) if manager is not None else None
            if handle is not None and handle.state in TERMINAL_STATES:
                self.leases.release(job_id)
                continue
            if not self.leases.renew(job_id):
                _log.warning(
                    "lease lost",
                    extra={"fields": {"owner": self.owner_id, "job": job_id}},
                )
                if handle is not None and manager is not None:
                    manager._fleet_lease_lost(handle._record)

    def _scan_pass(self) -> None:
        manager = self._manager
        if manager is None or self.draining:
            return
        for job_id in self.store.job_ids():
            if self._stop.is_set():
                return
            if self.leases.owns(job_id):
                continue
            try:
                self._scan_job(manager, job_id)
            except Exception as exc:  # noqa: BLE001 — one bad dir must not stall the scan
                _log.warning(
                    "fleet scan skipping job",
                    extra={"fields": {
                        "job": job_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    }},
                )

    def _scan_job(self, manager, job_id: str) -> None:
        stored_payload = self.store.read_record(job_id)
        handle = manager.get(job_id)
        if stored_payload is None:
            # A lease (or debris) without a record: the mid-claim-crash
            # orphan. No client ever saw a 202 for it — once its lease is
            # stale, claim it and clear the directory.
            if handle is None and self.leases.is_stale(job_id):
                if self.leases.claim(job_id).won:
                    self.leases.release(job_id)
                    self.store.delete(job_id)
                    _log.warning(
                        "cleared orphan job directory",
                        extra={"fields": {"job": job_id}},
                    )
            return
        try:
            disk_state = resolve_state(stored_payload["job"]["state"])
        except (KeyError, TypeError, ConfigurationError):
            return
        if disk_state in TERMINAL_STATES:
            # A peer finished it: adopt/refresh the read-only mirror so
            # this server answers GETs (and dedupes) with the result.
            manager._fleet_sync_from_disk(job_id, stored_payload)
            return
        if not self.leases.is_stale(job_id):
            # A live peer owns it: adopt it as a read-only mirror, or keep
            # the mirror's events fresh, so this server answers GETs for
            # it and a client failing over here can follow it.
            manager._fleet_sync_from_disk(job_id, stored_payload)
            return
        claim = self.leases.claim(job_id)
        if not claim.won:
            return
        self.takeovers += 1
        reason = (
            f"reclaimed from dead owner {claim.reclaimed_from}"
            if claim.reclaimed_from
            else "claimed from fleet queue"
        )
        _log.warning(
            "fleet takeover" if claim.reclaimed_from else "fleet claim",
            extra={"fields": {
                "owner": self.owner_id, "job": job_id, "reason": reason,
            }},
        )
        manager._fleet_run_claimed(job_id, stored_payload, reason)
