"""End-to-end training-time estimation (Sec. IV-C).

This module wires everything together on the analytical path:

1. place the workload's parallelization on the network
   (:func:`repro.workloads.parallelism.map_parallelism`);
2. resolve every scope-tagged communication requirement into a concrete
   :class:`~repro.collectives.types.CollectiveOp` over physical dimensions;
3. convert collectives into :class:`~repro.training.expr.CommTerm` nodes and
   compose them with compute constants through the training loop;
4. return one simplified expression — training time as a function of the
   bandwidth vector — ready for evaluation or optimization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.collectives.traffic import traffic_coefficients
from repro.collectives.types import CollectiveOp
from repro.training.expr import CommTerm, Const, Expr, Sum, simplify
from repro.topology.network import MultiDimNetwork
from repro.training.compute import ComputeModel, a100_compute_model
from repro.training.loops import LayerComponents, NoOverlapLoop, TrainingLoop
from repro.workloads.layers import CommRequirement, Layer
from repro.workloads.parallelism import GroupMapping, map_parallelism
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class ResolvedComm:
    """A communication requirement bound to physical network dimensions."""

    layer_name: str
    phase: str  # "fwd" / "tp" / "dp"
    op: CollectiveOp


def resolve_comm(
    requirement: CommRequirement,
    mapping: GroupMapping,
    label: str = "",
) -> CollectiveOp:
    """Bind a scope-tagged requirement to the group's physical spans."""
    spans = mapping.spans_for(requirement.scope)
    return CollectiveOp(
        kind=requirement.kind,
        size_bytes=requirement.size_bytes,
        spans=spans,
        label=label or requirement.label,
    )


def resolve_workload_comms(
    workload: Workload,
    network: MultiDimNetwork,
) -> list[ResolvedComm]:
    """Every collective of one training step, bound to the network.

    The returned list is in execution order (per layer: forward, TP-backward,
    DP comms) and feeds both the analytical estimator and the simulator.
    """
    mapping = map_parallelism(network, workload.parallelism)
    resolved = []
    for layer in workload.layers:
        for phase, comms in (
            ("fwd", layer.fwd_comms),
            ("tp", layer.tp_comms),
            ("dp", layer.dp_comms),
        ):
            for comm in comms:
                label = f"{workload.name}/{layer.name}/{phase}"
                if comm.label:
                    label = f"{label}/{comm.label}"
                resolved.append(
                    ResolvedComm(layer.name, phase, resolve_comm(comm, mapping, label))
                )
    return resolved


def _comm_expr(
    comms: tuple[CommRequirement, ...],
    mapping: GroupMapping,
    in_network_dims: frozenset[int],
    label: str,
) -> Expr:
    """Expression for a layer phase's communications (sequential)."""
    terms: list[Expr] = []
    for comm in comms:
        op = resolve_comm(comm, mapping, label)
        coefficients = traffic_coefficients(op, in_network_dims)
        if coefficients:
            terms.append(CommTerm(coefficients, label=op.label))
    if not terms:
        return Const(0.0)
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def layer_components(
    layer: Layer,
    mapping: GroupMapping,
    compute_model: ComputeModel,
    in_network_dims: frozenset[int] = frozenset(),
) -> LayerComponents:
    """One layer's time components under a network mapping."""
    return LayerComponents(
        fwd_compute=compute_model.time_for(layer.fwd_compute_flops),
        fwd_comm=_comm_expr(layer.fwd_comms, mapping, in_network_dims, f"{layer.name}/fwd"),
        tp_compute=compute_model.time_for(layer.tp_compute_flops),
        tp_comm=_comm_expr(layer.tp_comms, mapping, in_network_dims, f"{layer.name}/tp"),
        dp_compute=compute_model.time_for(layer.dp_compute_flops),
        dp_comm=_comm_expr(layer.dp_comms, mapping, in_network_dims, f"{layer.name}/dp"),
    )


def training_time_expression(
    workload: Workload,
    network: MultiDimNetwork,
    compute_model: ComputeModel | None = None,
    loop: TrainingLoop | None = None,
    in_network_dims: frozenset[int] | set[int] = frozenset(),
) -> Expr:
    """Training-step time of ``workload`` on ``network`` as a function of B.

    Args:
        workload: The (already parallelism-concrete) workload.
        network: Target multi-dimensional network.
        compute_model: NPU compute model; defaults to the paper's A100.
        loop: Training loop; defaults to :class:`NoOverlapLoop` (Fig. 5(b)).
        in_network_dims: Dimensions with in-network collective offload.

    Returns:
        A simplified :class:`~repro.training.expr.Expr`.

    Each distinct layer is built once: layers with the same compute FLOPs
    and communication requirements (a transformer's repeated blocks) share
    the first one's expression object. Only comm labels differ between
    such layers, and :func:`~repro.training.expr.simplify` keeps the first
    occurrence's label when it merges identical terms anyway, so the
    result is the tree a layer-by-layer build produces.
    """
    compute = compute_model or a100_compute_model()
    loop = loop or NoOverlapLoop()
    mapping = map_parallelism(network, workload.parallelism)
    frozen_dims = frozenset(in_network_dims)
    built: dict[tuple, Expr] = {}
    layer_exprs = []
    for layer in workload.layers:
        content = (
            layer.fwd_compute_flops, layer.fwd_comms,
            layer.tp_compute_flops, layer.tp_comms,
            layer.dp_compute_flops, layer.dp_comms,
        )
        expr = built.get(content)
        if expr is None:
            expr = built[content] = loop.layer_time(
                layer_components(layer, mapping, compute, frozen_dims)
            )
        layer_exprs.append(expr)
    return simplify(Sum(tuple(layer_exprs)))


def estimate_step_time(
    workload: Workload,
    network: MultiDimNetwork,
    bandwidths: Sequence[float],
    compute_model: ComputeModel | None = None,
    loop: TrainingLoop | None = None,
    in_network_dims: frozenset[int] | set[int] = frozenset(),
) -> float:
    """Numeric training-step time at a concrete bandwidth vector (seconds)."""
    expression = training_time_expression(
        workload, network, compute_model, loop, in_network_dims
    )
    return expression.evaluate(bandwidths)


def compute_only_time(
    workload: Workload,
    compute_model: ComputeModel | None = None,
) -> float:
    """Pure compute time per step — Fig. 10's "no exposed communication" floor."""
    compute = compute_model or a100_compute_model()
    return compute.time_for(workload.total_compute_flops)
