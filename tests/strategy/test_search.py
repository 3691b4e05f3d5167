"""joint_search and the frontier: one solve per cell, cache replay, schema."""

import json
from dataclasses import replace

import pytest

from repro.core.results import Scheme
from repro.explore.cache import ResultCache
from repro.explore.executor import solve_point
from repro.explore.keys import point_key, resolve_topology
from repro.explore.spec import ExplorationPoint
from repro.strategy import (
    StrategyFrontier,
    StrategySpace,
    base_workload_name,
    build_frontier,
    joint_search,
    strategy_slug,
    tagged_workload,
)
from repro.utils.errors import ConfigurationError, JobCancelled
from repro.workloads import Parallelism

WORKLOAD = "Turing-NLG"
TOPOLOGY = "Google TPUv2"  # RI(4)_RI(2), 8 NPUs — two tp<=2 strategies
BUDGETS = (100.0, 200.0, 300.0)
SPACE = StrategySpace(max_tp=2)


@pytest.fixture(scope="module")
def searched():
    """One shared search (and its cache) for the read-only assertions."""
    cache = ResultCache()
    search = joint_search(
        WORKLOAD, TOPOLOGY, BUDGETS, space=SPACE, cache=cache
    )
    return search, cache


class TestJointSearch:
    def test_covers_the_full_grid(self, searched):
        search, _ = searched
        assert len(search.runs) == 2
        assert [strategy_slug(r.strategy) for r in search.runs] == [
            "tp1-dp8", "tp2-dp4",
        ]
        for run in search.runs:
            assert run.ok
            assert tuple(
                r.point.total_bw_gbps for r in run.results
            ) == BUDGETS
        assert len(search.rows()) == 6

    def test_rows_are_tagged_per_strategy(self, searched):
        search, _ = searched
        names = {row.point.workload.name for row in search.rows()}
        assert names == {f"{WORKLOAD}#tp1-dp8", f"{WORKLOAD}#tp2-dp4"}
        assert all(
            base_workload_name(name) == WORKLOAD for name in names
        )

    def test_perf_per_cost_search_certifies_every_cell(self):
        search = joint_search(
            WORKLOAD, TOPOLOGY, BUDGETS, space=SPACE,
            scheme=Scheme.PERF_PER_COST_OPT, cache=ResultCache(),
        )
        diagnostics = search.diagnostics
        assert diagnostics["cells"] == 6
        assert diagnostics["solved"] == 6
        assert diagnostics["errors"] == 0
        assert diagnostics["cross_warm_accepted"] == 0
        assert all(
            "interior point: certified" in row.solver_message
            for row in search.rows()
        )

    def test_rerun_replays_bit_identical_rows_from_cache(self, searched):
        """The determinism contract: any re-run against the same cache —
        the whole grid or one strategy's column independently — replays
        byte-identical rows instead of re-solving."""
        search, cache = searched
        replay = joint_search(
            WORKLOAD, TOPOLOGY, BUDGETS, space=SPACE, cache=cache
        )
        assert replay.diagnostics["cached"] == 6
        assert replay.diagnostics["solved"] == 0
        for original, replayed in zip(search.rows(), replay.rows()):
            assert replayed.from_cache
            assert (
                replace(replayed, from_cache=False).to_dict()
                == replace(original, from_cache=False).to_dict()
            )

    def test_single_strategy_column_replays_independently(self, searched):
        search, cache = searched
        column = joint_search(
            WORKLOAD, TOPOLOGY, BUDGETS,
            space=StrategySpace(min_tp=2, max_tp=2), cache=cache,
        )
        [run] = column.runs
        assert column.diagnostics["cached"] == 3
        assert [
            replace(r, from_cache=False).to_dict() for r in run.results
        ] == [
            replace(r, from_cache=False).to_dict()
            for r in search.runs[1].results
        ]

    def test_events_narrate_plan_chains_and_cells(self):
        """Costrategy progress speaks the sweep's vocabulary: one chain
        per strategy column, labelled with the tagged workload."""
        events = []
        joint_search(
            WORKLOAD, TOPOLOGY, (100.0,), space=SPACE,
            cache=ResultCache(), on_event=events.append,
        )
        kinds = [event["type"] for event in events]
        assert kinds[0] == "plan"
        assert events[0]["total"] == 2 and events[0]["chains"] == 2
        assert kinds.count("cell") == 2
        assert set(kinds) == {"plan", "chain", "cell"}
        chains = [event for event in events if event["type"] == "chain"]
        assert [(c["status"], c["chain"]) for c in chains] == [
            ("start", 0), ("done", 0), ("start", 1), ("done", 1),
        ]
        assert events[-1] == {
            "type": "chain", "status": "done", "chain": 1, "chains": 2,
            "cells": 1,
            "label": f"{WORKLOAD}#tp2-dp4 @ {TOPOLOGY} "
                     "[PerfOptBW/table1-default]",
        }

    def test_cancellation_between_cells(self):
        with pytest.raises(JobCancelled):
            joint_search(
                WORKLOAD, TOPOLOGY, BUDGETS, space=SPACE,
                should_stop=lambda: True,
            )

    def test_empty_and_duplicate_budgets_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one budget"):
            joint_search(WORKLOAD, TOPOLOGY, ())
        with pytest.raises(ConfigurationError, match="duplicate budgets"):
            joint_search(WORKLOAD, TOPOLOGY, (100.0, 100))

    def test_space_admitting_nothing_rejected(self):
        with pytest.raises(ConfigurationError, match="no candidate"):
            joint_search(
                WORKLOAD, TOPOLOGY, BUDGETS,
                space=StrategySpace(min_tp=4096),
            )

    def test_tagged_workload_separates_content_keys(self):
        a = tagged_workload(WORKLOAD, 8, search_strategy("tp1-dp8"))
        b = tagged_workload(WORKLOAD, 8, search_strategy("tp2-dp4"))
        assert a.name != b.name
        assert a.canonical() != b.canonical()

    def test_tagged_workload_is_shared_per_key(self):
        strategy = search_strategy("tp2-dp4")
        first = tagged_workload(WORKLOAD, 8, strategy)
        assert tagged_workload(WORKLOAD, 8, Parallelism(2, 4)) is first
        assert first.encoded() is tagged_workload(
            WORKLOAD, 8, strategy
        ).encoded()
        assert tagged_workload(WORKLOAD, 8, Parallelism(1, 8)) is not first
        tagged_workload.cache_clear()
        rebuilt = tagged_workload(WORKLOAD, 8, strategy)
        assert rebuilt is not first
        assert rebuilt.canonical() == first.canonical()


def search_strategy(slug):
    return {
        "tp1-dp8": Parallelism(1, 8), "tp2-dp4": Parallelism(2, 4)
    }[slug]


def reference_search(workload, topology, budgets, space, scheme, cache):
    """The joint search as one serial loop of independent cell solves.

    Strategy-major, budgets ascending; a cached cell is replayed, any
    other is solved on its own.
    """
    network = resolve_topology(topology)
    strategies, _ = space.split(network.num_npus, network)
    rows = []
    for strategy in strategies:
        concrete = tagged_workload(workload, network.num_npus, strategy)
        for budget in sorted(budgets):
            point = ExplorationPoint(concrete, topology, budget, scheme)
            key = point_key(point)
            cached = cache.get(key)
            if cached is not None:
                result = replace(cached, point=point, from_cache=True)
            else:
                result = solve_point(point, key=key)
                cache.put(key, result)
            rows.append(result)
    return rows


def _prefilled(rows):
    cache = ResultCache()
    for row in rows:
        cache.put(row.key, row)
    return cache


class TestMatchesSerialReference:
    """``joint_search`` through ``run_sweep`` equals the serial loop byte
    for byte, on fresh caches and on every crash-recovery cache state."""

    def _assert_matches(self, workload, topology, budgets, space, scheme,
                        rows=()):
        search = joint_search(
            workload, topology, budgets, space=space, scheme=scheme,
            cache=_prefilled(rows),
        )
        reference = reference_search(
            workload, topology, budgets, space, scheme, _prefilled(rows)
        )
        assert [row.to_dict() for row in search.rows()] == [
            row.to_dict() for row in reference
        ]
        assert search.diagnostics["cross_warm_accepted"] == 0
        return search

    @pytest.mark.parametrize(
        "scheme", [Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT]
    )
    def test_smoke_grid(self, scheme):
        self._assert_matches(WORKLOAD, TOPOLOGY, BUDGETS, SPACE, scheme)

    def test_gpt3_on_a_512_npu_fabric(self):
        search = self._assert_matches(
            "GPT-3", "RI(8)_FC(8)_SW(8)", (150.0, 350.0, 600.0, 900.0),
            StrategySpace(max_tp=16), Scheme.PERF_PER_COST_OPT,
        )
        assert len(search.runs) >= 3

    def test_every_search_order_prefix_of_the_cache(self):
        """A crash after k cells leaves the first k in the cache; the
        recovered search equals the uninterrupted one."""
        fresh = reference_search(
            WORKLOAD, TOPOLOGY, BUDGETS, SPACE, Scheme.PERF_PER_COST_OPT,
            ResultCache(),
        )
        for k in range(len(fresh) + 1):
            search = self._assert_matches(
                WORKLOAD, TOPOLOGY, BUDGETS, SPACE, Scheme.PERF_PER_COST_OPT,
                rows=fresh[:k],
            )
            assert search.diagnostics["cached"] == k
            assert [
                replace(row, from_cache=False).to_dict()
                for row in search.rows()
            ] == [row.to_dict() for row in fresh]


class TestFrontier:
    @pytest.fixture(scope="class")
    def frontier(self, searched):
        search, _ = searched
        return build_frontier(search)

    def test_best_per_budget_covers_every_budget(self, frontier):
        assert tuple(
            cell.budget_gbps for cell in frontier.best_per_budget
        ) == BUDGETS
        for cell in frontier.best_per_budget:
            assert frontier.best_at(cell.budget_gbps) == cell
            # The winner really is the grid minimum at its budget.
            rivals = [
                row.step_time_ms for row in frontier.rows()
                if row.point.total_bw_gbps == cell.budget_gbps
            ]
            assert cell.step_time_ms == min(rivals)

    def test_best_at_unknown_budget_raises(self, frontier):
        with pytest.raises(ConfigurationError, match="no frontier winner"):
            frontier.best_at(999.0)

    def test_pareto_cells_are_non_dominated(self, frontier):
        assert frontier.pareto
        points = [
            (cell.network_cost, cell.step_time_ms) for cell in frontier.pareto
        ]
        for cost, time_ms in points:
            assert not any(
                other_cost <= cost and other_time <= time_ms
                and (other_cost, other_time) != (cost, time_ms)
                for other_cost, other_time in points
            )

    def test_attribution_per_strategy(self, frontier):
        assert len(frontier.attributions) == 2
        for attribution in frontier.attributions:
            assert attribution.binding_dims
            assert attribution.most_valuable_dim in attribution.binding_dims
            assert attribution.source in ("solve", "memo", "inline")

    def test_json_round_trip_is_exact(self, frontier):
        payload = json.loads(json.dumps(frontier.to_dict()))
        restored = StrategyFrontier.from_dict(payload)
        assert restored.to_dict() == frontier.to_dict()
        assert restored.best_per_budget == frontier.best_per_budget

    def test_unknown_schema_version_rejected(self, frontier):
        payload = frontier.to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            StrategyFrontier.from_dict(payload)

    def test_diagnostics_travel_with_the_frontier(self, frontier, searched):
        search, _ = searched
        assert frontier.diagnostics == search.diagnostics
