"""Fleet mode: lease safety, takeover, and multi-server recovery.

Four tiers, mirroring ``tests/serve/test_recovery``:

* Lease mechanics over a fake clock — claim/renew/release/steal unit
  tests plus a hypothesis property test driving interleaved schedules
  and asserting the core invariant: at most one live owner, ever.
* In-process fleet: two :class:`JobManager` instances over one state
  directory — takeover of a fabricated dead owner, passive mirroring,
  fleet-wide dedupe, drain, orphan cleanup.
* Two processes: a child fleet server killed by an injected ``os._exit``
  mid-sweep (the kill -9 model); the parent takes the lease over via the
  dead-pid accelerator and finishes the sweep from the shared cache,
  bit-identically.
* Two ``repro serve --fleet`` processes: one is SIGKILLed mid-sweep, and
  a client follows the job to completion on the survivor over HTTP.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.requests import BatchRequest, OptimizeRequest, request_to_dict
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.explore.spec import SweepSpec
from repro.obs import names as obs_names
from repro.serve import FleetCoordinator, JobManager, JobState, JobStore
from repro.serve.client import ServeClient
from repro.serve.faults import CRASH_EXIT_CODE
from repro.serve.fleet import LEASE_VERSION, ClaimResult, LeaseStore
from repro.serve.jobs import derive_job_id, job_content_key
from repro.serve.store import STORE_VERSION
from repro.utils.errors import ConfigurationError

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"
JOB = "job-aaaaaaaaaaaa"


class FakeClock:
    """An injectable monotonic clock shared by every store in a test."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _store(tmp_path, owner, clock, ttl=10.0) -> LeaseStore:
    return LeaseStore(tmp_path / "jobs", owner_id=owner, ttl_s=ttl, clock=clock)


def _request(total_bw=300):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw)
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


def _write_stale_lease(
    jobs_dir: Path, job_id: str, owner: str, pid: int | None = None
) -> Path:
    """Plant a lease whose stamps expired long ago."""
    path = jobs_dir / job_id / "lease.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "lease_version": LEASE_VERSION,
        "owner": owner,
        # Off-host: stale via the wall-clock ttl+skew, not the dead-pid
        # accelerator (cross-host staleness ages on renewed_at).
        "host": "elsewhere",
        "pid": pid if pid is not None else os.getpid(),
        "acquired_mono": 0.0,
        "renewed_mono": 0.0,
        "renewed_at": 0.0,  # epoch 1970: long past any ttl + skew
        "ttl_s": 5.0,
    }))
    return path


class TestLeaseMechanics:
    def test_claim_renew_release_roundtrip(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, "a", clock)
        claim = store.claim(JOB)
        assert claim == ClaimResult(won=True, reclaimed_from=None)
        assert store.owns(JOB)
        assert store.peek(JOB).owner == "a"
        clock.advance(4.0)
        assert store.renew(JOB)
        assert store.peek(JOB).renewed_mono == clock.now
        store.release(JOB)
        assert not store.owns(JOB)
        assert not store.lease_path(JOB).exists()

    def test_live_lease_defeats_second_claimer(self, tmp_path):
        clock = FakeClock()
        a = _store(tmp_path, "a", clock)
        b = _store(tmp_path, "b", clock)
        assert a.claim(JOB).won
        assert not b.claim(JOB).won
        assert not b.owns(JOB)
        assert a.peek(JOB).owner == "a"  # untouched by the lost claim

    def test_expired_lease_is_taken_over_with_provenance(self, tmp_path):
        clock = FakeClock()
        a = _store(tmp_path, "a", clock)
        b = _store(tmp_path, "b", clock)
        assert a.claim(JOB).won
        clock.advance(a.ttl_s + 0.1)
        claim = b.claim(JOB)
        assert claim.won
        assert claim.reclaimed_from == "a"
        assert b.peek(JOB).owner == "b"

    def test_self_fence_refuses_to_renew_an_expired_lease(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, "a", clock)
        assert store.claim(JOB).won
        clock.advance(store.ttl_s + 0.1)
        # Nobody stole it — but by our own rules somebody may at any
        # instant, so the only safe belief is "lost".
        assert not store.renew(JOB)
        assert not store.owns(JOB)
        assert store.lease_path(JOB).exists()  # left for the taker

    def test_release_never_unlinks_an_expired_lease(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, "a", clock)
        assert store.claim(JOB).won
        clock.advance(store.ttl_s + 0.1)
        store.release(JOB)
        # The file survives: a thief may be mid-takeover on it, and
        # unlinking would hand the job to a third server.
        assert store.lease_path(JOB).exists()
        assert not store.owns(JOB)

    def test_renewal_lost_when_a_thief_renamed_the_file_away(self, tmp_path):
        clock = FakeClock()
        a = _store(tmp_path, "a", clock)
        b = _store(tmp_path, "b", clock)
        assert a.claim(JOB).won
        clock.advance(a.ttl_s + 0.1)
        assert b.claim(JOB).won  # steals: a's inode is gone
        assert not a.renew(JOB)  # a's lease now names b
        assert b.renew(JOB)

    def test_dead_same_host_pid_is_stale_without_waiting_out_ttl(
        self, tmp_path
    ):
        clock = FakeClock()
        store = _store(tmp_path, "b", clock, ttl=3600.0)
        # A child that has already exited: its pid is known-dead.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        path = store.lease_path(JOB)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "lease_version": LEASE_VERSION,
            "owner": "a", "host": store.host, "pid": child.pid,
            "acquired_mono": clock.now, "renewed_mono": clock.now,
            "renewed_at": time.time(), "ttl_s": 3600.0,
        }))
        assert store.is_stale(JOB)
        claim = store.claim(JOB)
        assert claim.won
        assert claim.reclaimed_from == "a"

    def test_invalid_job_ids_rejected(self, tmp_path):
        store = _store(tmp_path, "a", FakeClock())
        for bad in ("", "..", "a/b"):
            with pytest.raises(ConfigurationError):
                store.lease_path(bad)

    def test_cross_host_staleness_ignores_monotonic_epochs(self, tmp_path):
        # Monotonic clocks are per-boot: a peer host's stamp can sit
        # anywhere relative to ours, so cross-host staleness must come
        # from the wall-clock stamp (+ skew margin), never from
        # monotonic arithmetic.
        clock = FakeClock()
        store = _store(tmp_path, "b", clock)
        path = store.lease_path(JOB)
        path.parent.mkdir(parents=True)

        def plant(renewed_mono: float, renewed_at: float) -> None:
            path.write_text(json.dumps({
                "lease_version": LEASE_VERSION,
                "owner": "a", "host": "elsewhere", "pid": 1,
                "acquired_mono": renewed_mono, "renewed_mono": renewed_mono,
                "renewed_at": renewed_at, "ttl_s": 10.0,
            }))

        # Peer booted long before us: its monotonic stamp is tiny, ours
        # is large. The wall-clock stamp is fresh, so the lease is live
        # — a naive monotonic compare would steal it and double-run.
        plant(renewed_mono=0.0, renewed_at=time.time())
        assert not store.is_stale(JOB)
        assert not store.claim(JOB).won

        # Peer booted long after us: its monotonic stamp dwarfs ours.
        # The wall-clock stamp is old, so the lease is stale — a naive
        # monotonic compare would judge it live forever and never
        # recover the job.
        plant(renewed_mono=1e9, renewed_at=time.time() - 100.0)
        assert store.is_stale(JOB)
        claim = store.claim(JOB)
        assert claim.won
        assert claim.reclaimed_from == "a"

    def test_torn_lease_with_old_mtime_is_stale(self, tmp_path):
        clock = FakeClock()
        store = _store(tmp_path, "a", clock, ttl=0.05)
        path = store.lease_path(JOB)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        old = time.time() - 60
        os.utime(path, (old, old))
        assert store.is_stale(JOB)
        assert store.claim(JOB).won


# One job, three contenders, fully interleaved schedules: the invariant
# the whole design rests on is that *at most one* server believes it
# holds a live (unexpired) lease at any instant. "Live" is judged by the
# owner's own last successful stamp — exactly the knowledge it acts on.
_OWNERS = ("a", "b", "c")
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("claim"), st.sampled_from(_OWNERS)),
        st.tuples(st.just("renew"), st.sampled_from(_OWNERS)),
        st.tuples(st.just("release"), st.sampled_from(_OWNERS)),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.1, max_value=15.0, allow_nan=False),
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestLeaseProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_at_most_one_live_owner_under_any_interleaving(
        self, tmp_path_factory, ops
    ):
        tmp_path = tmp_path_factory.mktemp("leases")
        clock = FakeClock()
        ttl = 10.0
        stores = {
            name: _store(tmp_path, name, clock, ttl=ttl) for name in _OWNERS
        }
        stamped: dict[str, float] = {}  # owner -> last successful stamp

        def live_owners() -> list[str]:
            return [
                name
                for name, store in stores.items()
                if store.owns(JOB)
                and clock.now - stamped.get(name, -1e9) <= ttl
            ]

        for op in ops:
            if op[0] == "advance":
                clock.advance(op[1])
            elif op[0] == "claim":
                if stores[op[1]].claim(JOB).won:
                    stamped[op[1]] = clock.now
            elif op[0] == "renew":
                if stores[op[1]].renew(JOB):
                    stamped[op[1]] = clock.now
            else:
                stores[op[1]].release(JOB)
            alive = live_owners()
            assert len(alive) <= 1, f"multiple live owners: {alive}"
            # A live owner's belief must match the disk: its own name on
            # an unexpired lease (a thief's claim always postdates the
            # victim's expiry, so a mismatch here would be a stolen lease
            # the victim still believes in).
            for name in alive:
                info = stores[name].peek(JOB)
                assert info is not None and info.owner == name


class TestFleetInProcess:
    def test_recovery_reclaims_from_dead_owner(self, tmp_path):
        request = _request()
        with JobStore(tmp_path / "state") as seed:
            job_id = _persist_queued(seed, request)
            _write_stale_lease(seed.jobs_dir, job_id, "srv-dead")

        store = JobStore(tmp_path / "state")
        fleet = FleetCoordinator(store, owner_id="srv-b", lease_ttl_s=5.0)
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            assert manager.recovered_jobs == 1
            handle = manager.job(job_id)
            assert handle.result(timeout=120) is not None
            reasons = [
                e.data.get("reason")
                for e in handle.events()
                if e.kind == "state"
            ]
            assert "reclaimed from dead owner srv-dead" in reasons
            assert fleet.owner_id == "srv-b"
        finally:
            manager.shutdown(cancel_pending=False)
        # Lease released on the terminal transition.
        assert not (store.jobs_dir / job_id / "lease.json").exists()

    def test_recovery_leaves_live_peer_jobs_alone(self, tmp_path):
        request = _request()
        with JobStore(tmp_path / "state") as seed:
            job_id = _persist_queued(seed, request)
        store_a = JobStore(tmp_path / "state")
        fleet_a = FleetCoordinator(store_a, owner_id="srv-a", lease_ttl_s=60.0)
        assert fleet_a.leases.claim(job_id).won  # a live claim by "a peer"

        store_b = JobStore(tmp_path / "state")
        fleet_b = FleetCoordinator(store_b, owner_id="srv-b", lease_ttl_s=60.0)
        manager_b = JobManager(workers=1, store=store_b, fleet=fleet_b)
        try:
            # b sees the job (read-only mirror) but did not claim or run it.
            assert manager_b.recovered_jobs == 0
            handle = manager_b.get(job_id)
            assert handle is not None
            assert handle.state is JobState.QUEUED
            assert not fleet_b.owns(job_id)
        finally:
            manager_b.shutdown(cancel_pending=False)
            fleet_a.leases.release(job_id)

    def test_scan_mirrors_a_live_peer_job_queued_after_start(self, tmp_path):
        store_b = JobStore(tmp_path / "state")
        fleet_b = FleetCoordinator(
            store_b, owner_id="srv-b", poll_interval_s=3600.0
        )
        manager_b = JobManager(workers=1, store=store_b, fleet=fleet_b)
        store_a = JobStore(tmp_path / "state")
        fleet_a = FleetCoordinator(store_a, owner_id="srv-a", lease_ttl_s=60.0)
        try:
            job_id = _persist_queued(store_a, _request())
            assert fleet_a.leases.claim(job_id).won  # the live peer's claim
            assert manager_b.get(job_id) is None
            fleet_b.poll_once()
            handle = manager_b.get(job_id)
            assert handle is not None
            assert handle.state is JobState.QUEUED
            assert not fleet_b.owns(job_id)
        finally:
            manager_b.shutdown(cancel_pending=False)
            fleet_a.leases.release(job_id)

    def test_terminal_peer_job_adopted_and_deduped(self, tmp_path):
        request = _request()
        store_a = JobStore(tmp_path / "state")
        fleet_a = FleetCoordinator(store_a, owner_id="srv-a")
        manager_a = JobManager(workers=1, store=store_a, fleet=fleet_a)
        try:
            handle = manager_a.submit(request)
            response = handle.result(timeout=120)
        finally:
            manager_a.shutdown(cancel_pending=False)

        store_b = JobStore(tmp_path / "state")
        fleet_b = FleetCoordinator(store_b, owner_id="srv-b")
        manager_b = JobManager(workers=1, store=store_b, fleet=fleet_b)
        try:
            adopted = manager_b.get(handle.id)
            assert adopted is not None
            assert adopted.state is JobState.DONE
            assert adopted.result().to_dict() == response.to_dict()
            # Submitting the same content to b returns the finished job —
            # fleet-wide dedupe, no second solve.
            again = manager_b.submit(request)
            assert again.id == handle.id
            assert again.state is JobState.DONE
        finally:
            manager_b.shutdown(cancel_pending=False)

    def test_scan_takes_over_job_queued_by_a_drained_peer(self, tmp_path):
        request = _request()
        with JobStore(tmp_path / "state") as seed:
            _persist_queued(seed, request)

        # Member b finds the unleased queued job on its scan and runs it.
        store = JobStore(tmp_path / "state")
        fleet = FleetCoordinator(store, owner_id="srv-b", poll_interval_s=0.05)
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            [handle] = manager.handles()
            assert handle.result(timeout=120) is not None
            reasons = [
                e.data.get("reason")
                for e in handle.events()
                if e.kind == "state"
            ]
            # The unleased queued job (the shape a drained peer leaves
            # behind) was claimed, not assumed.
            assert "recovered after restart" in reasons
        finally:
            manager.shutdown(cancel_pending=False)

    def test_submit_adopts_queued_disk_record_without_local_mirror(
        self, tmp_path
    ):
        # A peer drains (or dies) after this server's recovery pass: the
        # queued record sits on disk, unleased and unmirrored, until the
        # next scan. Submitting the same payload wins the claim — and
        # must adopt the disk record, because a fresh record's seq-0
        # queued event would append behind the existing log's tail and
        # break the gapless prefix.
        request = _request()
        store = JobStore(tmp_path / "state")
        fleet = FleetCoordinator(
            store, owner_id="srv-b", poll_interval_s=3600.0
        )
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            with JobStore(tmp_path / "state") as peer:
                job_id = _persist_queued(peer, request)
            handle = manager.submit(request)
            assert handle.id == job_id
            assert handle.result(timeout=120) is not None
            stored_seqs = [e["seq"] for e in store.read_events(job_id)]
            assert stored_seqs == list(range(len(stored_seqs)))
            reasons = [
                e.data.get("reason")
                for e in handle.events()
                if e.kind == "state"
            ]
            assert "claimed on submit" in reasons
        finally:
            manager.shutdown(cancel_pending=False)

    def test_submit_dedupes_unmirrored_terminal_peer_job(self, tmp_path):
        # A peer finishes the job after this server's recovery pass and
        # before its next scan: no local mirror, no lease. The claim
        # wins — but submit must adopt the done record rather than fork
        # a second run over its event log.
        request = _request()
        store_b = JobStore(tmp_path / "state")
        fleet_b = FleetCoordinator(
            store_b, owner_id="srv-b", poll_interval_s=3600.0
        )
        manager_b = JobManager(workers=1, store=store_b, fleet=fleet_b)
        try:
            store_a = JobStore(tmp_path / "state")
            fleet_a = FleetCoordinator(store_a, owner_id="srv-a")
            manager_a = JobManager(workers=1, store=store_a, fleet=fleet_a)
            try:
                done = manager_a.submit(request)
                response = done.result(timeout=120)
            finally:
                manager_a.shutdown(cancel_pending=False)

            again = manager_b.submit(request)
            assert again.id == done.id
            assert again.state is JobState.DONE  # adopted, not re-run
            assert again.result().to_dict() == response.to_dict()
            stored_seqs = [e["seq"] for e in store_b.read_events(done.id)]
            assert stored_seqs == list(range(len(stored_seqs)))
        finally:
            manager_b.shutdown(cancel_pending=False)

    def test_drain_refuses_submissions_and_releases_queued_leases(
        self, tmp_path
    ):
        store = JobStore(tmp_path / "state")
        fleet = FleetCoordinator(store, owner_id="srv-a")
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            done = manager.submit(_request())
            assert done.result(timeout=120) is not None
            fleet.drain()
            assert fleet.draining
            with pytest.raises(ConfigurationError, match="draining"):
                manager.submit(_request(500))
            assert fleet.stats()["draining"] is True
        finally:
            manager.shutdown(cancel_pending=False)

    def test_orphan_lease_directory_is_cleared_by_peer_scan(self, tmp_path):
        # The mid-claim crash shape: a lease file exists, the record never
        # followed (crash:fleet.claim). No client saw a 202 — peers may
        # clear it once the lease is stale.
        store = JobStore(tmp_path / "state")
        orphan = "job-feedfeedfeed"
        _write_stale_lease(store.jobs_dir, orphan, "srv-dead")
        fleet = FleetCoordinator(store, owner_id="srv-b", lease_ttl_s=5.0)
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            fleet.poll_once()
            assert not (store.jobs_dir / orphan).exists()
            assert manager.get(orphan) is None
        finally:
            manager.shutdown(cancel_pending=False)

    def test_mid_claim_crash_leaves_reclaimable_orphan(self, procs, tmp_path):
        script = """
import sys
from repro.api.requests import OptimizeRequest
from repro.api.scenario import build_scenario
from repro.serve import FleetCoordinator, JobManager, JobStore

store = JobStore(sys.argv[1])
fleet = FleetCoordinator(store, owner_id="victim")
manager = JobManager(workers=1, store=store, fleet=fleet)
manager.submit(OptimizeRequest(scenario=build_scenario(
    "{topology}", ["{workload}"], total_bw_gbps=300)))
""".format(topology=TOPOLOGY, workload=WORKLOAD)
        proc = procs.python(
            "-c", script, str(tmp_path / "state"),
            faults="crash:fleet.claim:1",
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        store = JobStore(tmp_path / "state")
        [job_id] = store.job_ids()
        assert store.read_record(job_id) is None  # lease only, no record
        # The dead pid makes the lease immediately stale on this host;
        # the survivor's scan clears the directory.
        fleet = FleetCoordinator(store, owner_id="survivor")
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            fleet.poll_once()
            assert store.job_ids() == []
        finally:
            manager.shutdown(cancel_pending=False)


class TestKillDashNineTakeover:
    """Child fleet server dies mid-sweep; the parent takes over.

    Mirrors ``TestCrashAtPersistPoints``: the child is a real fleet
    member killed by an injected ``os._exit`` (the kill -9 model) right
    after persisting its second cell event — by which point both cells
    are durably in the shared result cache. The parent reclaims the
    lease through the dead-pid accelerator and finishes the sweep
    without re-solving what the victim already paid for.
    """

    SCRIPT = """
import sys
from repro.api.requests import BatchRequest
from repro.explore.spec import SweepSpec
from repro.serve import FleetCoordinator, JobManager, JobStore

store = JobStore(sys.argv[1])
fleet = FleetCoordinator(store, owner_id="victim", lease_ttl_s=3600)
manager = JobManager(workers=1, store=store, fleet=fleet)
handle = manager.submit(BatchRequest(
    spec=SweepSpec(workloads=("{workload}",), topologies=("{topology}",),
                   bandwidths_gbps=(100.0, 200.0, 300.0, 400.0)),
    cache_dir=sys.argv[2],
))
handle.result(timeout=300)
manager.shutdown()
sys.exit(0)
""".format(topology=TOPOLOGY, workload=WORKLOAD)

    def test_takeover_resumes_from_shared_cache_bit_identically(
        self, procs, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        # Event appends: queued, running, plan, chain-start, cell, cell —
        # crash after the 6th means exactly two cells solved and cached.
        proc = procs.python(
            "-c", self.SCRIPT, str(tmp_path / "state"), cache_dir,
            faults="crash:store.events.after:6",
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

        store = JobStore(tmp_path / "state")
        # The victim's lease is still on disk (ttl 3600 — far from
        # expiring), but its pid is dead: takeover is immediate.
        fleet = FleetCoordinator(store, owner_id="survivor", lease_ttl_s=30.0)
        manager = JobManager(workers=1, store=store, fleet=fleet)
        try:
            assert manager.recovered_jobs == 1
            [handle] = manager.handles()
            response = handle.result(timeout=300)
            reasons = [
                e.data.get("reason")
                for e in handle.events()
                if e.kind == "state"
            ]
            assert any(
                r and r.startswith("reclaimed from dead owner victim")
                for r in reasons
            ), reasons

            # Resumed from the victim's cached cells, not from scratch —
            # and every cell accounted for exactly once.
            assert response.sweep.cache_hits >= 2
            assert response.sweep.cache_hits + response.sweep.solver_calls == 4

            # Bit-identical to an uninterrupted run that shares no cache.
            reference = LibraService().submit(BatchRequest(
                spec=SweepSpec(
                    workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
                    bandwidths_gbps=(100.0, 200.0, 300.0, 400.0),
                ),
            ))

            def rows(resp):
                normalized = []
                for row in resp.sweep.results:
                    payload = row.to_dict()
                    payload.pop("from_cache", None)
                    normalized.append(payload)
                return normalized

            assert rows(response) == rows(reference)

            # The event log is gapless across the crash and the takeover.
            seqs = [e.seq for e in handle.events()]
            assert seqs == list(range(len(seqs)))
        finally:
            manager.shutdown(cancel_pending=False)


class TestTwoServerFleet:
    """Two real ``repro serve --fleet`` members on one state dir and cache.

    Member A claims a sweep, its solves slowed so the kill lands mid-sweep,
    and dies by SIGKILL. Member B sees the dead pid, takes the lease over,
    and a client following the job on B rides it to completion.
    """

    def test_survivor_takes_over_and_reports_it(self, procs, tmp_path):
        flags = (
            "--workers", "1", "--fleet", "--lease-ttl", "5",
            "--fleet-poll", "0.2", "--cache-root", str(tmp_path / "caches"),
        )
        state = tmp_path / "state"
        member_a = procs.serve(
            *flags, state_dir=state, faults="delay:worker.solve=0.6"
        )
        member_b = procs.serve(*flags, state_dir=state)
        assert "fleet" in member_a.get_json("/healthz")
        assert "owner" in member_b.get_json("/healthz")["fleet"]

        job_id = ServeClient(member_a.url, timeout=30).submit(BatchRequest(
            spec=SweepSpec(
                workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
                bandwidths_gbps=(100.0, 200.0, 300.0, 400.0),
            ),
            cache_dir="study",
        )).id
        cursor = member_a.wait_for_cells(job_id, 2)
        member_a.kill()

        # The dead pid makes the lease stale at once (same host); B's
        # scan requeues the job through the recovery path. B mirrors a
        # live peer's job from its first scan after the submit on, so it
        # answers 200 here; the loop only waits out a scan not yet run.
        deadline = time.monotonic() + 60
        while member_b.get(f"/v3/jobs/{job_id}")[0] == 404:
            assert time.monotonic() < deadline, "survivor never took over"
            time.sleep(0.05)
        survivor = ServeClient(member_b.url, timeout=120, retry_backoff_s=0.2)
        resumed = []
        survivor.follow_to_completion(
            job_id, after=cursor, on_event=resumed.append
        )
        assert resumed and resumed[0].seq == cursor, "stream not gapless"
        assert [e.seq for e in resumed] == list(
            range(cursor, cursor + len(resumed))
        )
        reasons = [e.data.get("reason") for e in resumed if e.kind == "state"]
        assert any(
            r and r.startswith("reclaimed from dead owner") for r in reasons
        ), reasons

        _, samples = member_b.metrics()
        takeovers = samples.get(obs_names.FLEET_TAKEOVERS, 0)
        assert takeovers >= 1, f"no takeover recorded: {takeovers}"
        fleet = member_b.get_json("/healthz")["fleet"]
        assert fleet["owner"], fleet
        assert fleet["draining"] is False, fleet
