"""Joint parallelization-strategy × topology co-optimization.

The TopoOpt-style outer loop over the bandwidth solver: enumerate valid
(tp, cp, ep, pp, dp) factorizations of the node count
(:mod:`repro.strategy.space`), solve every strategy's bandwidth column in
one sweep with warm-start reuse within and across strategies through the
shared result cache (:mod:`repro.strategy.search`), and report the
decision surface —
best strategy per budget, the strategy × bandwidth Pareto set, and
per-strategy binding-dimension attribution
(:mod:`repro.strategy.frontier`).

This package sits *above* the api/explore layers (it drives
``LibraService`` solves through :func:`~repro.explore.executor.run_sweep`)
— nothing below may import it.
"""

from repro.strategy.frontier import (
    STRATEGY_FRONTIER_SCHEMA_VERSION,
    FrontierCell,
    StrategyAttribution,
    StrategyFrontier,
    build_frontier,
)
from repro.strategy.search import (
    StrategyRun,
    StrategySearchResult,
    base_workload_name,
    joint_search,
    tagged_workload,
)
from repro.strategy.space import (
    PrunedStrategy,
    StrategySpace,
    strategy_slug,
)

__all__ = [
    "STRATEGY_FRONTIER_SCHEMA_VERSION",
    "FrontierCell",
    "StrategyAttribution",
    "StrategyFrontier",
    "build_frontier",
    "StrategyRun",
    "StrategySearchResult",
    "base_workload_name",
    "joint_search",
    "tagged_workload",
    "PrunedStrategy",
    "StrategySpace",
    "strategy_slug",
]
