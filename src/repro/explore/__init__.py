"""Design-space exploration engine (sweeps, caching, Pareto analysis).

The paper's headline results are all *sweeps* — optimize a workload across
bandwidth budgets, topologies, and schemes, then compare frontiers. This
package makes that a first-class subsystem instead of hand-rolled loops:

* :class:`SweepSpec` / :class:`ExplorationPoint` — declarative grids over
  workloads × topologies × budgets × schemes × cost models.
* :func:`run_sweep` — parallel, cached, failure-contained execution with
  deterministic row ordering; grids partition into budget-ordered chains
  (:func:`build_chains`), the unit of execution and pool fan-out.
* :class:`ResultCache` / :func:`point_key` — content-addressed result reuse
  (re-running a sweep or widening an axis only solves new cells).
* :func:`pareto_frontier` and friends — trade-off analysis over any two
  result metrics.

Typical session::

    from repro.explore import ResultCache, SweepSpec, pareto_frontier, run_sweep

    spec = SweepSpec(
        workloads=("GPT-3", "Turing-NLG"),
        topologies=("3D-4K", "4D-4K"),
        bandwidths_gbps=(100, 300, 500, 1000),
        schemes=("perf", "perf-per-cost"),
    )
    sweep = run_sweep(spec, cache=ResultCache(".repro-cache"), workers=4)
    frontier = pareto_frontier(sweep.results, x="network_cost", y="step_time_ms")
"""

from repro.explore.cache import ResultCache
from repro.explore.chains import build_chains, chain_signature
from repro.explore.executor import run_sweep, solve_point
from repro.explore.keys import (
    ENGINE_VERSION,
    canonical_json,
    point_key,
    point_payload,
    resolve_topology,
)
from repro.explore.pareto import (
    best_per_budget,
    frontier_indices,
    pareto_frontier,
    summary_rows,
)
from repro.explore.records import (
    METRICS,
    ExplorationResult,
    SweepProfile,
    SweepResult,
)
from repro.explore.spec import (
    SCHEME_ALIASES,
    ExplorationPoint,
    SweepSpec,
    load_sweep_spec,
    resolve_scheme,
)

__all__ = [
    "ResultCache",
    "build_chains",
    "chain_signature",
    "run_sweep",
    "solve_point",
    "ENGINE_VERSION",
    "canonical_json",
    "point_key",
    "point_payload",
    "resolve_topology",
    "best_per_budget",
    "frontier_indices",
    "pareto_frontier",
    "summary_rows",
    "METRICS",
    "ExplorationResult",
    "SweepProfile",
    "SweepResult",
    "SCHEME_ALIASES",
    "ExplorationPoint",
    "SweepSpec",
    "load_sweep_spec",
    "resolve_scheme",
]
