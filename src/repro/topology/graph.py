"""Physical-graph construction for a multi-dimensional network.

The analytical model and the dimension-level simulator only need per-dimension
bandwidths, but the TACOS-style collective synthesizer (Sec. VI-D) operates on
the physical link graph. This module expands a :class:`MultiDimNetwork` into a
:class:`networkx.DiGraph` whose nodes are NPUs (and switches, for ``SW``
dimensions) and whose edges carry per-link bandwidth attributes.

Link bandwidth convention: a dimension allocated ``B`` bytes/s per NPU splits
that bandwidth across the NPU's ports in that dimension:

* Ring: 2 ports (1 for size-2 rings) → ``B/2`` per direction per link.
* FullyConnected: ``size - 1`` peer links → ``B/(size-1)`` each.
* Switch: a single uplink of ``B`` (the switch crossbar is non-blocking).

This keeps the aggregate injection bandwidth per NPU per dimension equal to
``B`` regardless of topology, matching the analytical model's assumption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.topology.building_blocks import BlockKind
from repro.topology.network import MultiDimNetwork
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # networkx loads on first graph build, not at import
    import networkx as nx


def switch_node(dim: int, group_index: int) -> tuple[str, int, int]:
    """Stable node key for the switch serving ``group_index`` on dimension ``dim``."""
    return ("switch", dim, group_index)


def per_link_bandwidth(kind: BlockKind, size: int, dim_bandwidth: float) -> float:
    """Bandwidth of one directed physical link given the per-NPU dimension BW."""
    if dim_bandwidth <= 0:
        raise ConfigurationError(f"dimension bandwidth must be positive, got {dim_bandwidth}")
    if kind is BlockKind.RING:
        ports = 1 if size == 2 else 2
        return dim_bandwidth / ports
    if kind is BlockKind.FULLY_CONNECTED:
        return dim_bandwidth / (size - 1)
    return dim_bandwidth  # switch uplink carries the full dimension bandwidth


def build_graph(
    network: MultiDimNetwork,
    bandwidths: tuple[float, ...] | list[float],
) -> nx.DiGraph:
    """Expand ``network`` into a directed physical graph.

    Args:
        network: The multi-dimensional network shape.
        bandwidths: Per-NPU bandwidth of each dimension, bytes/s, Dim 1 first.

    Returns:
        A DiGraph with NPU nodes (ints) and switch nodes (tuples); every edge
        has attributes ``bandwidth`` (bytes/s), ``dim`` (zero-based dimension
        index), and ``kind`` (the block kind's tag).
    """
    if len(bandwidths) != network.num_dims:
        raise ConfigurationError(
            f"expected {network.num_dims} bandwidths, got {len(bandwidths)}"
        )
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.num_npus), kind="npu")

    for dim, block in enumerate(network.blocks):
        link_bw = per_link_bandwidth(block.kind, block.size, float(bandwidths[dim]))
        seen_groups: set[tuple[int, ...]] = set()
        for npu in range(network.num_npus):
            group = tuple(network.peers_along_dim(npu, dim))
            if group in seen_groups:
                continue
            seen_groups.add(group)
            _add_group_links(graph, block.kind, block.size, group, dim, link_bw,
                             group_index=len(seen_groups) - 1)
    return graph


def _add_group_links(
    graph: nx.DiGraph,
    kind: BlockKind,
    size: int,
    group: tuple[int, ...],
    dim: int,
    link_bw: float,
    group_index: int,
) -> None:
    """Add the directed links of one dimension-group to ``graph``."""

    def add_bidirectional(a: Hashable, b: Hashable) -> None:
        graph.add_edge(a, b, bandwidth=link_bw, dim=dim, kind=kind.value)
        graph.add_edge(b, a, bandwidth=link_bw, dim=dim, kind=kind.value)

    if kind is BlockKind.RING:
        if size == 2:
            add_bidirectional(group[0], group[1])
        else:
            for i in range(size):
                add_bidirectional(group[i], group[(i + 1) % size])
    elif kind is BlockKind.FULLY_CONNECTED:
        for i in range(size):
            for j in range(i + 1, size):
                add_bidirectional(group[i], group[j])
    else:
        hub = switch_node(dim, group_index)
        graph.add_node(hub, kind="switch")
        for npu in group:
            add_bidirectional(npu, hub)


def count_physical_links(network: MultiDimNetwork) -> dict[int, int]:
    """Undirected physical link count per dimension (switch uplinks included).

    Useful for sanity checks: a ``RI(4)_RI(4)_RI(4)`` torus has
    ``4*16 = 64`` links per dimension.
    """
    counts: dict[int, int] = {}
    for dim, block in enumerate(network.blocks):
        groups = network.num_npus // block.size
        counts[dim] = groups * len(block.links())
    return counts
