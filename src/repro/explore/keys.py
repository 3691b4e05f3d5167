"""Content-addressed keys for exploration points.

A point's cache key is the SHA-256 digest of a canonical JSON payload
assembled from the ``canonical()`` hooks of every model object the solve
reads: the workload, the network (notation + tiers), the constraint set the
point induces, the cost model, and the scheme. Anything that changes the
answer changes the key; anything cosmetic (names, labels, axis ordering)
does not. A version salt invalidates all cached entries when the engine's
result schema or solve semantics change.
"""

from __future__ import annotations

from repro.api.registry import resolve_topology  # noqa: F401
from repro.core.constraints import ConstraintSet
from repro.cost.model import default_cost_model
from repro.utils.canonical import canonical_json, digest  # noqa: F401
from repro.utils.units import gbps
from repro.workloads.workload import Workload

from repro.explore.spec import ExplorationPoint

# resolve_topology now lives in repro.api.registry (so user-registered
# topology presets are sweepable) and canonical_json/digest in
# repro.utils.canonical; both are re-exported here for compatibility.

#: Bump to invalidate every cached exploration result (schema / semantics).
#: v2: continuation solving — sweep cells may be warm-started from chain
#: neighbors, so results carry new diagnostics and can differ from v1
#: entries within the documented objective tolerance.
#: v3: PerfOptBW cells are one certified interior-point run, so cached
#: SLSQP PerfOpt rows are not replayed.
ENGINE_VERSION = 3


def point_constraints(point: ExplorationPoint, num_dims: int) -> ConstraintSet:
    """The constraint set an exploration point induces on an ``num_dims``-D net.

    Single source of truth: the executor solves under exactly this set and
    :func:`point_payload` hashes exactly this set, so the cache key can
    never drift from the problem actually solved.
    """
    constraints = ConstraintSet(num_dims).with_total_bandwidth(
        gbps(point.total_bw_gbps)
    )
    for dim, cap in point.dim_caps_gbps:
        constraints.with_dim_cap(dim, gbps(cap))
    return constraints


def point_payload(point: ExplorationPoint) -> dict:
    """Canonical content payload of one exploration point.

    Preset workloads hash as ``(preset name, NPU count)`` — the builders are
    pure functions of that pair — while concrete :class:`Workload` objects
    hash their full layer-level fingerprint, so custom workloads from files
    participate in caching too. That fingerprint is the workload's
    pre-encoded :meth:`~repro.workloads.workload.Workload.encoded` fragment,
    which :func:`digest` splices in verbatim.
    """
    network = resolve_topology(point.topology)
    if isinstance(point.workload, Workload):
        workload_payload = point.workload.encoded()
    else:
        workload_payload = {"preset": point.workload, "num_npus": network.num_npus}
    cost_model = point.cost_model or default_cost_model()
    constraints = point_constraints(point, network.num_dims)
    return {
        "engine_version": ENGINE_VERSION,
        "workload": workload_payload,
        "network": network.canonical(),
        "constraints": constraints.canonical(),
        "cost_model": cost_model.canonical(),
        "scheme": point.scheme.value,
    }


def point_key(point: ExplorationPoint) -> str:
    """Content address of one exploration point (SHA-256 hex)."""
    return digest(point_payload(point))
