"""Sweep execution: ordering, caching, parallelism, error containment.

All tests run on the tiny 6-NPU ``RI(3)_RI(2)`` fabric so a full grid
solves in well under a second per cell.
"""

import pytest

from repro.core import Scheme
from repro.explore import (
    ExplorationPoint,
    ResultCache,
    SweepSpec,
    run_sweep,
)
from repro.explore.keys import resolve_topology

TINY = "RI(3)_RI(2)"


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        workloads=("Turing-NLG",),
        topologies=(TINY,),
        bandwidths_gbps=(100.0, 300.0),
        schemes=(Scheme.PERF_OPT,),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSerialExecution:
    def test_rows_in_grid_order(self):
        spec = tiny_spec()
        sweep = run_sweep(spec)
        assert [r.point for r in sweep.results] == spec.expand()
        assert sweep.num_errors == 0
        assert sweep.solver_calls == 2
        for result in sweep.results:
            assert result.ok
            assert result.key
            assert len(result.bandwidths_gbps) == 2
            assert result.step_time_ms > 0
            assert result.speedup_over_equal >= 1.0 - 1e-6

    def test_equal_scheme_is_the_baseline(self):
        sweep = run_sweep(tiny_spec(schemes=(Scheme.EQUAL_BW,)))
        for result in sweep.results:
            assert result.speedup_over_equal == pytest.approx(1.0)
            assert result.ppc_gain_over_equal == pytest.approx(1.0)
            # EqualBW splits the budget evenly across both dimensions.
            assert result.bandwidths_gbps[0] == pytest.approx(result.bandwidths_gbps[1])

    def test_cell_events_report_progress(self):
        seen = []
        spec = tiny_spec()
        run_sweep(spec, on_event=seen.append)
        cells = [(e["done"], e["total"]) for e in seen if e["type"] == "cell"]
        assert cells == [(1, 2), (2, 2)]

    def test_duplicate_points_solved_once(self):
        point = ExplorationPoint("Turing-NLG", TINY, 100.0, Scheme.PERF_OPT)
        sweep = run_sweep([point, point])
        assert sweep.solver_calls == 1
        assert sweep.results[0].to_dict() == sweep.results[1].to_dict()


class TestErrorContainment:
    def test_unmappable_workload_is_an_error_row(self):
        # GPT-3 needs TP-16, which cannot divide a 6-NPU fabric.
        sweep = run_sweep(tiny_spec(workloads=("Turing-NLG", "GPT-3")))
        good = sweep.filter(workload="Turing-NLG")
        bad = sweep.filter(workload="GPT-3")
        assert all(r.ok for r in good)
        assert all(not r.ok for r in bad)
        assert all("MappingError" in r.error for r in bad)
        assert sweep.num_errors == 2

    def test_bad_topology_is_an_error_row(self):
        sweep = run_sweep(tiny_spec(topologies=(TINY, "XX(4)")))
        assert sweep.num_errors == 2
        bad = sweep.filter(topology="XX(4)")
        assert all("NotationError" in r.error for r in bad)

    def test_error_rows_are_retried_not_cached(self):
        cache = ResultCache()
        spec = tiny_spec(workloads=("GPT-3",))
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert first.num_errors == second.num_errors == 2
        assert second.cache_hits == 0


class TestCaching:
    def test_identical_rerun_is_all_hits_and_zero_solver_calls(self, monkeypatch):
        cache = ResultCache()
        spec = tiny_spec()
        cold = run_sweep(spec, cache=cache)
        assert cold.cache_hits == 0 and cold.solver_calls == 2

        # Prove "no solver calls" structurally: any optimize would blow up.
        import repro.core.framework as framework

        def boom(*_args, **_kwargs):
            raise AssertionError("solver must not run on a warm cache")

        monkeypatch.setattr(framework, "minimize_training_time", boom)
        monkeypatch.setattr(framework, "minimize_time_cost_product", boom)

        warm = run_sweep(spec, cache=cache)
        assert warm.cache_hits == len(warm.results) == 2
        assert warm.solver_calls == 0
        assert warm.hit_rate == 1.0
        assert all(r.from_cache for r in warm.results)
        for a, b in zip(cold.results, warm.results):
            assert a.to_dict() == {**b.to_dict(), "from_cache": False}

    def test_widening_an_axis_only_solves_new_cells(self):
        cache = ResultCache()
        run_sweep(
            tiny_spec(bandwidths_gbps=(100.0, 300.0), schemes=PPC),
            cache=cache,
        )
        widened = run_sweep(
            tiny_spec(bandwidths_gbps=(100.0, 200.0, 300.0), schemes=PPC),
            cache=cache,
        )
        assert widened.cache_hits == 2
        assert widened.solver_calls == 1

    def test_disk_cache_shared_across_instances(self, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(spec, cache=ResultCache(tmp_path / "cache"))
        assert warm.hit_rate == 1.0 and warm.solver_calls == 0


class TestCompletenessGuard:
    def test_unresolved_cell_raises_explicitly(self):
        """Partial sweeps must raise ReproError, never return silently
        (a bare assert would be stripped under ``python -O``)."""
        from repro.explore.executor import _require_complete
        from repro.utils.errors import ReproError

        point = ExplorationPoint("Turing-NLG", TINY, 100.0, Scheme.PERF_OPT)
        resolved = run_sweep([point]).results[0]
        with pytest.raises(ReproError, match="1 of 2 cells unresolved"):
            _require_complete([resolved, None], 2)

    def test_complete_results_pass(self):
        from repro.explore.executor import _require_complete

        point = ExplorationPoint("Turing-NLG", TINY, 100.0, Scheme.PERF_OPT)
        resolved = run_sweep([point]).results[0]
        _require_complete([resolved], 1)  # no raise


class TestPerWorkerLRU:
    def test_topology_and_workload_resolved_once(self):
        """Cells sharing a topology/workload reuse one cached instance."""
        from repro.api.registry import _built_workload
        from repro.explore.executor import _resolve_topology_cached

        _resolve_topology_cached.cache_clear()
        _built_workload.cache_clear()
        run_sweep(tiny_spec(bandwidths_gbps=(100.0, 200.0, 300.0)))
        topo_info = _resolve_topology_cached.cache_info()
        workload_info = _built_workload.cache_info()
        assert topo_info.misses == 1
        assert topo_info.hits == 2
        assert workload_info.misses == 1
        assert workload_info.hits == 2

    def test_overridden_preset_is_not_served_from_the_memo(self):
        """Re-registering a resolved preset reaches the next cell."""
        from repro.api.registry import TOPOLOGIES
        from repro.explore.executor import point_scenario

        point = ExplorationPoint("Turing-NLG", "3D-512", 100.0, Scheme.PERF_OPT)
        assert point_scenario(point).network.num_dims == 3
        stock = TOPOLOGIES.get("3D-512")
        TOPOLOGIES.register(
            "3D-512", lambda: resolve_topology(TINY), overwrite=True
        )
        try:
            assert point_scenario(point).network.num_dims == 2
        finally:
            TOPOLOGIES.register("3D-512", stock, overwrite=True)
        assert point_scenario(point).network.num_dims == 3

    def test_lru_failures_propagate_uncached(self):
        from repro.explore.executor import _resolve_topology_cached

        _resolve_topology_cached.cache_clear()
        with pytest.raises(Exception):
            _resolve_topology_cached("XX(4)")
        with pytest.raises(Exception):
            _resolve_topology_cached("XX(4)")
        assert _resolve_topology_cached.cache_info().currsize == 0


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        spec = tiny_spec(
            bandwidths_gbps=(100.0, 300.0),
            schemes=(Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT),
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert len(serial.results) == len(parallel.results) == 4
        for a, b in zip(serial.results, parallel.results):
            # Bit-identical rows: chains are the unit of fan-out, so warm
            # propagation follows the identical path in both modes.
            assert a.to_dict() == b.to_dict()

    def test_strategy_family_serial_equals_spawn_pool(self):
        """Tagged strategy columns form one family — one pool task — so
        their cross-column seeds follow the serial path; a plain column
        beside them is a family of its own."""
        from repro.strategy import tagged_workload
        from repro.workloads import Parallelism

        topology = "Google TPUv2"  # 8 NPUs
        columns = [
            tagged_workload("Turing-NLG", 8, Parallelism(tp, 8 // tp))
            for tp in (1, 2)
        ] + ["DLRM"]
        points = [
            ExplorationPoint(
                workload, topology, budget, Scheme.PERF_PER_COST_OPT
            )
            for workload in columns
            for budget in (100.0, 200.0)
        ]
        serial = run_sweep(points, workers=1)
        pool = run_sweep(points, workers=2, mp_context="spawn")
        assert [a.to_dict() for a in serial.results] == [
            b.to_dict() for b in pool.results
        ]
        assert serial.profile.chains == pool.profile.chains == 3
        assert serial.profile.cross_warm_accepted >= 1
        assert (
            serial.profile.cross_warm_accepted
            == pool.profile.cross_warm_accepted
        )

    def test_parallel_fills_cache(self):
        cache = ResultCache()
        spec = tiny_spec()
        cold = run_sweep(spec, cache=cache, workers=2)
        assert cold.solver_calls == 2
        warm = run_sweep(spec, cache=cache, workers=2)
        assert warm.hit_rate == 1.0 and warm.solver_calls == 0


#: Continuation is PerfPerCostOptBW's: a PerfOptBW cell takes no warm start.
PPC = (Scheme.PERF_PER_COST_OPT,)


class TestContinuation:
    def test_chain_cells_report_warm_diagnostics(self):
        sweep = run_sweep(
            tiny_spec(bandwidths_gbps=(100.0, 200.0, 300.0), schemes=PPC)
        )
        first, second, third = sweep.results
        assert first.warm_start == "cold"
        for row in (second, third):
            assert row.warm_start == "accepted" or row.warm_start.startswith(
                "rejected"
            )
        assert first.solver_starts > 1

    def test_continuation_off_solves_every_cell_cold(self):
        sweep = run_sweep(
            tiny_spec(bandwidths_gbps=(100.0, 200.0, 300.0)),
            continuation=False,
        )
        assert all(row.warm_start == "cold" for row in sweep.results)
        assert sweep.profile is not None
        assert sweep.profile.chains == 3  # singleton chains
        assert sweep.profile.warm_accepted == 0

    def test_warm_objectives_match_cold_within_tolerance(self):
        spec = tiny_spec(
            bandwidths_gbps=(100.0, 200.0, 300.0),
            schemes=(Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT),
        )
        cold = run_sweep(spec, continuation=False)
        warm = run_sweep(spec, continuation=True)
        for a, b in zip(cold.results, warm.results):
            assert b.step_time_ms <= a.step_time_ms * 1.02

    def test_equal_bw_cells_never_warm_start(self):
        sweep = run_sweep(
            tiny_spec(
                bandwidths_gbps=(100.0, 200.0), schemes=(Scheme.EQUAL_BW,)
            )
        )
        # EqualBW rows carry no solver diagnostics at all.
        assert all(row.warm_start == "" for row in sweep.results)
        assert all(row.solver_starts == 0 for row in sweep.results)

    def test_profile_reports_stage_timings(self):
        sweep = run_sweep(tiny_spec())
        profile = sweep.profile
        assert profile is not None
        assert profile.total_s > 0
        assert profile.solve_s > 0
        assert profile.chains == 1
        assert (
            profile.warm_accepted + profile.warm_rejected + profile.cold_solves
            == sweep.solver_calls
        )
        assert 0.0 <= profile.warm_hit_rate <= 1.0
        assert "sweep profile:" in profile.format()

    def test_profile_not_serialized_with_rows(self):
        """Wall-clock numbers must never leak into row artifacts."""
        payload = run_sweep(tiny_spec()).to_dict()
        assert "profile" not in payload

    def test_widened_axis_warm_starts_from_cached_neighbor(self):
        """Appending one budget to a cached column must not pay a cold
        solve: the new cell seeds from the nearest cached optimum."""
        cache = ResultCache()
        run_sweep(
            tiny_spec(bandwidths_gbps=(100.0, 300.0), schemes=PPC),
            cache=cache,
        )
        widened = run_sweep(
            tiny_spec(bandwidths_gbps=(100.0, 200.0, 300.0), schemes=PPC),
            cache=cache,
        )
        assert widened.cache_hits == 2
        assert widened.solver_calls == 1
        new_row = widened.get(total_bw_gbps=200.0)
        assert not new_row.from_cache
        assert new_row.warm_start == "accepted" or new_row.warm_start.startswith(
            "rejected"
        )

    def test_rejected_warm_start_still_matches_cold(self, monkeypatch):
        """A distrusted warm seed must fall back to the cold fan-out."""
        import repro.core.solver as solver

        spec = tiny_spec(bandwidths_gbps=(100.0, 200.0), schemes=PPC)
        cold = run_sweep(spec, continuation=False)
        monkeypatch.setattr(solver, "WARM_TRUST_RTOL", -1.0)
        warm = run_sweep(spec)
        assert warm.results[1].warm_start == "rejected:drift"
        assert warm.profile.warm_rejected == 1
        for a, b in zip(cold.results, warm.results):
            assert b.step_time_ms <= a.step_time_ms * 1.02


class TestFanoutAccounting:
    def test_duplicates_reported_as_fanout_not_extra_solves(self):
        point = ExplorationPoint("Turing-NLG", TINY, 100.0, Scheme.PERF_OPT)
        seen = []
        sweep = run_sweep([point, point, point], on_event=seen.append)
        assert sweep.solver_calls == 1
        assert sweep.fanout_cells == 2
        # Every grid cell reports exactly once and done never exceeds total.
        cells = [(e["done"], e["total"]) for e in seen if e["type"] == "cell"]
        assert cells == [(1, 3), (2, 3), (3, 3)]
        assert sweep.to_dict()["fanout_cells"] == 2

    def test_unique_grid_has_zero_fanout(self):
        sweep = run_sweep(tiny_spec())
        assert sweep.fanout_cells == 0
        assert sweep.solver_calls == 2
