"""Joint parallelization-strategy × bandwidth search.

:func:`joint_search` runs the TopoOpt-style outer grid in three steps:
enumerate the strategies the :class:`~repro.strategy.space.StrategySpace`
admits, solve all their bandwidth-budget columns in one
:func:`~repro.explore.executor.run_sweep` call, and regroup the rows into
one :class:`StrategyRun` per strategy.

Each strategy's workload carries its slug in its name
(:func:`tagged_workload`), so its column is one chain of the sweep. Every
cell is one certified solve that depends on the cell alone, so a search's
rows do not depend on the order of its strategies, on which cells were
cached, or on how the sweep was scheduled.

Every cell is cached under its content key, so re-running any single
strategy's column independently (``run_sweep`` over its points, or another
``joint_search``) replays bit-identical rows from the cache — the
determinism contract the serve tier's recovery path and its kill -9 test
lean on.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.core.results import Scheme
from repro.cost.model import CostModel
from repro.explore.cache import ResultCache
from repro.explore.executor import EventCallback, run_sweep
from repro.explore.keys import resolve_topology
from repro.explore.records import ExplorationResult
from repro.explore.spec import ExplorationPoint
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.utils.errors import ConfigurationError
from repro.workloads.parallelism import Parallelism
from repro.workloads.presets import build_workload
from repro.workloads.workload import Workload

from repro.strategy.space import PrunedStrategy, StrategySpace, strategy_slug

#: Separator between a preset name and a strategy slug in a tagged
#: per-strategy workload name (``"Turing-NLG#tp2-dp4"``).
STRATEGY_TAG = "#"


@dataclass(frozen=True)
class StrategyRun:
    """One strategy's solved bandwidth column, budget-ascending."""

    strategy: Parallelism
    results: tuple[ExplorationResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.to_dict(),
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StrategyRun":
        return cls(
            strategy=Parallelism.from_dict(payload["strategy"]),
            results=tuple(
                ExplorationResult.from_dict(row)
                for row in payload.get("results", ())
            ),
        )


@dataclass
class StrategySearchResult:
    """Everything one joint search produced.

    Attributes:
        workload: Base preset name the strategies were applied to.
        topology: Target topology (preset name or notation).
        scheme: Optimization scheme of every cell.
        budgets_gbps: The bandwidth column, ascending.
        runs: One :class:`StrategyRun` per kept strategy, in search order.
        pruned: Strategies the space removed, with reasons.
        diagnostics: Execution accounting (the cache split and timing;
            ``cross_warm_accepted`` is always 0 and kept for readers of
            earlier results).
    """

    workload: str
    topology: str
    scheme: Scheme
    budgets_gbps: tuple[float, ...]
    runs: list[StrategyRun]
    pruned: list[PrunedStrategy] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def rows(self) -> list[ExplorationResult]:
        """Every cell of the search, strategy-major, budget-ascending."""
        return [result for run in self.runs for result in run.results]


@lru_cache(maxsize=64)
def tagged_workload(preset: str, num_npus: int, strategy: Parallelism) -> Workload:
    """The concrete workload of one (preset, strategy) candidate.

    The name is tagged with the strategy slug so result rows, chain
    signatures, and frontier groupings separate cleanly per strategy; the
    content key already separates on the full canonical payload (which
    includes the parallelization degrees).

    Memoized: the same (preset, size, strategy) recurs on every fabric of
    that size, and sharing the immutable instance also shares its encoded
    content key (:meth:`~repro.workloads.workload.Workload.encoded`).
    Failures propagate uncached.
    """
    workload = build_workload(preset, num_npus, parallelism=strategy)
    return replace(
        workload, name=f"{workload.name}{STRATEGY_TAG}{strategy_slug(strategy)}"
    )


def base_workload_name(tagged: str) -> str:
    """Invert :func:`tagged_workload`'s naming for display/grouping."""
    return tagged.split(STRATEGY_TAG, 1)[0]


def joint_search(
    workload: str,
    topology: str,
    budgets_gbps: Sequence[float],
    *,
    space: StrategySpace | None = None,
    scheme: Scheme = Scheme.PERF_OPT,
    cost_model: CostModel | None = None,
    dim_caps_gbps: Iterable[tuple[int, float]] = (),
    cache: ResultCache | None = None,
    service=None,
    should_stop: Callable[[], bool] | None = None,
    on_event: EventCallback | None = None,
) -> StrategySearchResult:
    """Search strategy × bandwidth jointly; return every solved column.

    Args:
        workload: Preset workload name (the strategy axis re-materializes
            it per candidate via ``build_workload``).
        topology: Preset topology name or notation.
        budgets_gbps: Bandwidth budgets; solved ascending per strategy.
        space: The strategy space to enumerate; ``None`` uses the default
            (power-of-two TP splits only).
        scheme: Optimization scheme for every cell.
        cost_model: Cost table override; ``None`` = Table I defaults.
        dim_caps_gbps: Per-dimension caps applied to every cell.
        cache: Result cache; hits skip the solver, fresh solves store back.
        service: Executing :class:`~repro.api.service.LibraService`;
            ``None`` uses the per-process default.
        should_stop: Cooperative-cancellation predicate, polled between
            cells. Raises :class:`~repro.utils.errors.JobCancelled` — after
            caching every completed cell, so a recovered job replays them.
        on_event: Structured-progress seam: the sweep's ``plan``,
            ``chain`` (one chain per strategy column) and ``cell`` dicts
            (see :data:`~repro.explore.executor.EventCallback`).

    Raises:
        ConfigurationError: empty budget column, or a space that prunes
            every candidate.
    """
    started = time.perf_counter()
    budgets = tuple(sorted(float(b) for b in budgets_gbps))
    if not budgets:
        raise ConfigurationError("joint search needs at least one budget")
    if len(set(budgets)) != len(budgets):
        raise ConfigurationError(f"duplicate budgets in {budgets}")
    space = space if space is not None else StrategySpace()
    network = resolve_topology(topology)
    strategies, pruned = space.split(network.num_npus, network)
    if not strategies:
        raise ConfigurationError(
            f"strategy space admits no candidate for {network.num_npus} NPUs "
            f"on {topology!r} ({len(pruned)} pruned)"
        )

    caps = tuple(dim_caps_gbps)
    points = [
        ExplorationPoint(
            workload=concrete,
            topology=topology,
            total_bw_gbps=budget,
            scheme=scheme,
            cost_model=cost_model,
            dim_caps_gbps=caps,
        )
        for concrete in (
            tagged_workload(workload, network.num_npus, strategy)
            for strategy in strategies
        )
        for budget in budgets
    ]
    with obs_trace.get_tracer().span(
        "strategy.search",
        attrs={"workload": workload, "topology": topology, "cells": len(points)},
    ):
        sweep = run_sweep(
            points,
            cache=cache,
            on_event=on_event,
            should_stop=should_stop,
            service=service,
        )
    elapsed = time.perf_counter() - started
    errors = sweep.num_errors
    solved = len(points) - sweep.cache_hits - errors
    registry = obs_metrics.get_registry()
    candidates = registry.counter(
        obs_names.STRATEGY_CANDIDATES,
        "Joint-search candidate cells resolved, by outcome.",
        labels=("outcome",),
    )
    for outcome, count in (
        ("solved", solved), ("cached", sweep.cache_hits),
        ("error", errors), ("pruned", len(pruned)),
    ):
        candidates.labels(outcome=outcome).inc(count)
    registry.histogram(
        obs_names.STRATEGY_SECONDS,
        "Wall time of one joint strategy × bandwidth search.",
    ).observe(elapsed)

    width = len(budgets)
    return StrategySearchResult(
        workload=workload,
        topology=topology,
        scheme=scheme,
        budgets_gbps=budgets,
        runs=[
            StrategyRun(
                strategy=strategy,
                results=tuple(sweep.results[index * width:(index + 1) * width]),
            )
            for index, strategy in enumerate(strategies)
        ],
        pruned=pruned,
        diagnostics={
            "strategies": len(strategies),
            "pruned": len(pruned),
            "cells": len(points),
            "solved": solved,
            "cached": sweep.cache_hits,
            "errors": errors,
            # Read by e2ebench/layers.py (_search_outcome, line 90); no
            # cell takes a seed from another any more.
            "cross_warm_accepted": 0,
            "search_s": elapsed,
        },
    )
