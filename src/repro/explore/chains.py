"""Continuation-chain partitioning for sweep grids.

Neighboring cells of a sweep column — same workload × topology × scheme ×
cost model × caps, different budget — are near-identical optimizations, so
their optima make excellent warm starts for each other. This module turns a
flat set of grid cells into *continuation chains*: within a chain, cells
are sorted by ascending budget and the executor solves them sequentially,
threading each optimum into the next cell's ``warm_start``.

The partition is a pure function of the cell list: every cell lands in
exactly one chain (the property the test suite pins), chains appear in
first-cell-encounter order, and equal budgets keep their input order — so
serial and parallel executions of one grid see identical chains.

Chains whose signatures differ only in the workload's strategy tag form a
*family* (:func:`chain_family`), which the executor runs in one process so
each column can seed from the previous one; families are the unit of
process-pool fan-out (warm-start propagation never has to cross a process
boundary). Untagged chains are families of one.

The chain signature is a *grouping heuristic*, not a correctness boundary:
two cells that share a signature but would not actually continue well
(e.g. distinct custom workloads registered under one name) merely hand the
solver a poor warm seed, which the trust check in
:mod:`repro.core.solver` demotes to one extra cold start.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

from repro.explore.spec import ExplorationPoint

T = TypeVar("T")

#: Separator between a preset name and a strategy slug in a tagged
#: per-strategy workload name (``"Turing-NLG#tp2-dp4"``).
STRATEGY_TAG = "#"


def chain_signature(point: ExplorationPoint) -> tuple:
    """The continuation-family key of one grid cell.

    Everything but the budget axis: cells differing only in
    ``total_bw_gbps`` share a signature and therefore a chain.
    """
    return (
        point.workload_name,
        point.topology,
        point.scheme.value,
        point.cost_model_name,
        point.dim_caps_gbps,
    )


def chain_family(point: ExplorationPoint) -> tuple:
    """The chain signature with the strategy tag cut from the workload name
    (every strategy column of one joint search shares it)."""
    name, *rest = chain_signature(point)
    return (name.split(STRATEGY_TAG, 1)[0], *rest)


def chain_label(point: ExplorationPoint) -> str:
    """Compact human-readable continuation-family label.

    The executor stamps this onto chain progress events so streaming
    clients (``repro.serve``) can say *which* column of the grid is
    advancing without reverse-engineering the signature tuple.
    """
    caps = (
        "" if not point.dim_caps_gbps
        else " caps=" + ",".join(
            f"{dim}:{cap:g}" for dim, cap in point.dim_caps_gbps
        )
    )
    return (
        f"{point.workload_name} @ {point.topology} "
        f"[{point.scheme.value}/{point.cost_model_name}]{caps}"
    )


def build_chains(
    items: Sequence[tuple[T, ExplorationPoint]],
) -> list[list[tuple[T, ExplorationPoint]]]:
    """Partition ``(tag, point)`` pairs into budget-ordered chains.

    ``tag`` is opaque payload carried alongside each point (the executor
    passes cache keys). Each input pair appears in exactly one chain;
    within a chain, pairs are sorted by ascending ``total_bw_gbps`` with
    ties keeping input order (``sorted`` is stable).
    """
    groups: dict[tuple, list[tuple[T, ExplorationPoint]]] = {}
    for tag, point in items:
        groups.setdefault(chain_signature(point), []).append((tag, point))
    return [
        sorted(group, key=lambda item: item[1].total_bw_gbps)
        for group in groups.values()
    ]
