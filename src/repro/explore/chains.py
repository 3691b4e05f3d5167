"""Chain partitioning for sweep grids.

The cells of one sweep column — same workload × topology × scheme × cost
model × caps, different budget — share a compiled engine, so the executor
solves them together. This module turns a flat set of grid cells into
*chains*: within a chain, cells are sorted by ascending budget. A chain is
the executor's unit of inline execution, of process-pool fan-out and of
``chain`` progress events; no solve reads another cell's answer, so the
grouping shapes only scheduling, never a row.

The partition is a pure function of the cell list: every cell lands in
exactly one chain (the property the test suite pins), chains appear in
first-cell-encounter order, and equal budgets keep their input order — so
serial and parallel executions of one grid see identical chains.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

from repro.explore.spec import ExplorationPoint

T = TypeVar("T")

def chain_signature(point: ExplorationPoint) -> tuple:
    """The chain key of one grid cell.

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


def chain_label(point: ExplorationPoint) -> str:
    """Compact human-readable chain label.

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
