"""LibraService memo thread-safety (the worker-pool precondition)."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api.requests import OptimizeRequest
from repro.api.scenario import build_scenario
from repro.api.service import LibraService

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"


def _request(total_bw):
    return OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=total_bw)
    )


class TestConcurrentSubmit:
    def test_concurrent_submits_are_bit_identical_to_serial(self):
        budgets = [100, 200, 300, 400]
        serial = {b: LibraService().submit(_request(b)).to_dict() for b in budgets}

        service = LibraService()
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = {
                b: pool.submit(service.submit, _request(b))
                for b in budgets * 2  # every budget raced by two threads
            }
            concurrent = {b: f.result().to_dict() for b, f in futures.items()}
        for budget in budgets:
            assert concurrent[budget] == serial[budget]
        # All budgets share one engine (constraints are not part of the key).
        assert service.compiled_count == 1

    def test_engine_memo_bound_respected_under_contention(self):
        # 4 distinct engines racing into a 2-slot memo from 8 threads: the
        # bound must hold and every response must still be produced.
        service = LibraService(max_compiled=2)
        scenarios = [
            build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300),
            build_scenario("RI(2)_RI(3)", [WORKLOAD], total_bw_gbps=300),
            build_scenario("RI(6)", [WORKLOAD], total_bw_gbps=300),
            build_scenario("RI(3)_RI(2)", [WORKLOAD], total_bw_gbps=300,
                           loop="tp-dp-overlap"),
        ]
        barrier = threading.Barrier(8)

        def run(scenario):
            barrier.wait()
            return service.submit(OptimizeRequest(scenario=scenario))

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, s) for s in scenarios * 2]
            responses = [f.result() for f in futures]
        assert len(responses) == 8
        assert service.compiled_count <= 2

    def test_clear_while_submitting_never_corrupts(self):
        service = LibraService()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                service.clear()

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                responses = list(pool.map(
                    lambda b: service.submit(_request(b)), [100, 200, 300, 400]
                ))
        finally:
            stop.set()
            thread.join()
        assert len(responses) == 4
        assert all(r.point.bandwidths for r in responses)


class TestSpawnBatchPool:
    def test_parallel_batch_uses_spawn_safely(self):
        """Service batches run their process pool under the spawn start
        method (fork from a threaded server can deadlock children); the
        whole path must still produce clean rows."""
        from repro.api.requests import BatchRequest
        from repro.explore.spec import SweepSpec

        spec = SweepSpec(
            workloads=(WORKLOAD,),
            topologies=(TOPOLOGY, "RI(2)_RI(3)"),  # 2 chains -> real pool
            bandwidths_gbps=(100.0,),
        )
        response = LibraService().submit(BatchRequest(spec=spec, workers=2))
        assert response.sweep.num_errors == 0
        assert len(response.sweep.results) == 2


def _custom_tiny_workload(num_npus):
    """Module-level so it pickles across the spawn boundary."""
    from repro.workloads import build_workload

    return build_workload("Turing-NLG", num_npus)


class TestSpawnRegistryReplay:
    def test_custom_registrations_reach_spawned_workers(self):
        """Names registered at runtime must keep resolving inside spawn
        pool workers (fork used to inherit them for free)."""
        from repro.api.registry import WORKLOADS
        from repro.api.requests import BatchRequest
        from repro.explore.spec import SweepSpec

        WORKLOADS.register("spawn-replay-wl", _custom_tiny_workload)
        try:
            spec = SweepSpec(
                workloads=("spawn-replay-wl",),
                topologies=(TOPOLOGY, "RI(2)_RI(3)"),  # 2 chains -> pool
                bandwidths_gbps=(100.0,),
            )
            response = LibraService().submit(BatchRequest(spec=spec, workers=2))
        finally:
            WORKLOADS.unregister("spawn-replay-wl")
        assert response.sweep.num_errors == 0, [
            r.error for r in response.sweep.results
        ]
        assert len(response.sweep.results) == 2


def _override_tiny_topology():
    """Module-level so it pickles across the spawn boundary."""
    from repro.topology import MultiDimNetwork

    return MultiDimNetwork.from_notation("RI(3)_RI(2)")


class TestSpawnOverriddenBuiltinReplay:
    def test_overridden_builtin_reaches_spawned_workers(self):
        """A builtin re-registered with overwrite=True must replay into
        spawn workers too — otherwise they silently solve the stock
        preset under the override's cache key."""
        from repro.api.registry import TOPOLOGIES, custom_entries
        from repro.api.requests import BatchRequest
        from repro.explore.executor import _resolve_topology_cached
        from repro.explore.spec import SweepSpec

        original = TOPOLOGIES.get("4D-4K")
        TOPOLOGIES.register("4D-4K", _override_tiny_topology, overwrite=True)
        try:
            assert any(
                name == "4D-4K" for _, name, _ in custom_entries()
            ), "overridden builtin missing from the replay snapshot"
            spec = SweepSpec(
                workloads=(WORKLOAD,),
                topologies=("4D-4K", TOPOLOGY),  # 2 chains -> real pool
                bandwidths_gbps=(100.0,),
            )
            response = LibraService().submit(BatchRequest(spec=spec, workers=2))
        finally:
            TOPOLOGIES.register("4D-4K", original, overwrite=True)
            _resolve_topology_cached.cache_clear()
        assert response.sweep.num_errors == 0, [
            r.error for r in response.sweep.results
        ]
        overridden_row = response.sweep.get(topology="4D-4K")
        # The worker solved the *override* (2 tiny dims), not the stock
        # 4-dimensional preset.
        assert len(overridden_row.bandwidths_gbps) == 2
