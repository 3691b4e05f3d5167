"""Symbolic training-time expressions in the bandwidth vector.

LIBRA's key modeling move (Sec. IV-C) is capturing end-to-end training time
as a *function of the per-dimension bandwidths* ``B``. This module is that
function's representation: a small expression tree with four node kinds —

* :class:`Const` — bandwidth-independent time (compute),
* :class:`CommTerm` — one collective: ``max_j coeff_j / B[dim_j]``,
* :class:`Sum` — sequential composition (optionally weighted children),
* :class:`MaxExpr` — overlap composition (Fig. 5(c)'s
  ``max(TP_Comm, DP_Comp + DP_Comm)``).

The tree supports direct numeric evaluation (for sweeps and baselines) and
structural compilation into the epigraph form the solver optimizes: every
``max`` becomes an auxiliary variable with one inequality per operand. That
reformulation is what makes ``PerfOptBW`` a convex program.

Every node is a frozen, hashable dataclass, which buys two things: exact
structural deduplication in :func:`simplify`, and cheap memoization —
:func:`simplify` and :func:`vector_evaluator` are LRU-cached on the
expression itself, so repeat solves over the same workload never redo the
tree work. For hot numeric paths, :class:`VectorEvaluator` flattens a tree
once into coefficient arrays evaluated with a segment-max, replacing the
per-node Python recursion of :meth:`Expr.evaluate`.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.utils.errors import ConfigurationError


def _node_hash(node: "Expr", content: tuple) -> int:
    """``hash(content)``, computed once per node and kept on it.

    Equal to the dataclass-generated hash over the same fields. Trees share
    subtrees — a transformer's repeated layers are one object — and every
    memo keyed on an expression hashes the tree again on each lookup, so
    without this the same subtree is re-hashed once per reference.
    """
    cached = node.__dict__.get("_hash")
    if cached is None:
        cached = node.__dict__["_hash"] = hash(content)
    return cached


class Expr(abc.ABC):
    """A non-negative time expression over the bandwidth vector."""

    @abc.abstractmethod
    def evaluate(self, bandwidths: Sequence[float]) -> float:
        """Numeric value at the given per-dimension bandwidths (bytes/s)."""

    @abc.abstractmethod
    def max_dim(self) -> int:
        """Largest dimension index referenced (-1 when bandwidth-free)."""


@dataclass(frozen=True)
class Const(Expr):
    """A bandwidth-independent time contribution (compute, fixed latency)."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConfigurationError(f"Const must be >= 0, got {self.value}")

    def evaluate(self, bandwidths: Sequence[float]) -> float:
        return self.value

    def max_dim(self) -> int:
        return -1


@dataclass(frozen=True)
class CommTerm(Expr):
    """One collective's time: ``max_j coeff_j / B[dim_j]``.

    Attributes:
        coefficients: ``(dim, traffic_bytes)`` pairs, ascending by dim; the
            output of :func:`repro.collectives.traffic.traffic_coefficients`.
        label: Tag for reports. Excluded from equality/hashing so that
            structurally identical terms from different layers deduplicate
            under :func:`simplify`.
    """

    coefficients: tuple[tuple[int, float], ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        dims = [dim for dim, _ in self.coefficients]
        if dims != sorted(dims) or len(set(dims)) != len(dims):
            raise ConfigurationError(f"coefficients must have unique ascending dims: {dims}")
        for dim, coeff in self.coefficients:
            if dim < 0 or coeff < 0:
                raise ConfigurationError(f"bad coefficient ({dim}, {coeff})")

    def evaluate(self, bandwidths: Sequence[float]) -> float:
        worst = 0.0
        for dim, coeff in self.coefficients:
            if dim >= len(bandwidths):
                raise ConfigurationError(
                    f"CommTerm references dim {dim} but got {len(bandwidths)} bandwidths"
                )
            worst = max(worst, coeff / bandwidths[dim])
        return worst

    def max_dim(self) -> int:
        return max((dim for dim, _ in self.coefficients), default=-1)

    def __hash__(self) -> int:
        return _node_hash(self, (self.coefficients,))


@dataclass(frozen=True)
class Sum(Expr):
    """Weighted sum of child expressions (sequential composition)."""

    children: tuple[Expr, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        weights = self.weights or tuple(1.0 for _ in self.children)
        if len(weights) != len(self.children):
            raise ConfigurationError(
                f"{len(self.weights)} weights for {len(self.children)} children"
            )
        if any(weight < 0 for weight in weights):
            raise ConfigurationError(f"weights must be >= 0, got {weights}")
        object.__setattr__(self, "weights", weights)

    def evaluate(self, bandwidths: Sequence[float]) -> float:
        return sum(
            weight * child.evaluate(bandwidths)
            for weight, child in zip(self.weights, self.children)
        )

    def max_dim(self) -> int:
        return max((child.max_dim() for child in self.children), default=-1)

    def __hash__(self) -> int:
        return _node_hash(self, (self.children, self.weights))


@dataclass(frozen=True)
class MaxExpr(Expr):
    """Maximum of child expressions (overlap composition)."""

    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ConfigurationError("MaxExpr needs at least one child")

    def evaluate(self, bandwidths: Sequence[float]) -> float:
        return max(child.evaluate(bandwidths) for child in self.children)

    def max_dim(self) -> int:
        return max(child.max_dim() for child in self.children)

    def __hash__(self) -> int:
        return _node_hash(self, (self.children,))


@lru_cache(maxsize=1024)
def simplify(expr: Expr) -> Expr:
    """Flatten nested sums, merge constants, and deduplicate repeat terms.

    Identical subtrees under a :class:`Sum` are merged by summing their
    weights (every node is a frozen, hashable dataclass, so structural
    equality is exact). This matters enormously for real workloads: a
    96-layer transformer whose layers are identical collapses from hundreds
    of comm terms to a handful, which is what keeps the solver's compiled
    program — and hence optimization time — small.

    Memoized on the expression: the recursion flows through the cache, so
    shared subtrees simplify once and repeat solves of the same workload
    (e.g. both schemes of one cell, or a budget sweep revisiting one
    expression) skip the tree walk entirely.
    """
    if isinstance(expr, Sum):
        merged: dict[Expr, float] = {}
        const_total = 0.0

        def accumulate(child: Expr, weight: float) -> None:
            nonlocal const_total
            if weight == 0:
                return
            if isinstance(child, Const):
                const_total += weight * child.value
            elif isinstance(child, Sum):
                for inner_weight, inner_child in zip(child.weights, child.children):
                    accumulate(inner_child, weight * inner_weight)
            else:
                merged[child] = merged.get(child, 0.0) + weight

        for weight, child in zip(expr.weights, expr.children):
            accumulate(simplify(child), weight)

        flat_children = list(merged)
        flat_weights = [merged[child] for child in flat_children]
        if const_total > 0 or not flat_children:
            flat_children.append(Const(const_total))
            flat_weights.append(1.0)
        if len(flat_children) == 1 and flat_weights[0] == 1.0:
            return flat_children[0]
        return Sum(tuple(flat_children), tuple(flat_weights))
    if isinstance(expr, MaxExpr):
        children = tuple(dict.fromkeys(simplify(child) for child in expr.children))
        if len(children) == 1:
            return children[0]
        return MaxExpr(children)
    if isinstance(expr, CommTerm) and not expr.coefficients:
        return Const(0.0)
    return expr


#: Op kinds of the flat evaluator's combine stage.
_OP_SUM = 0
_OP_MAX = 1


class VectorEvaluator:
    """Flat, vectorized evaluator for one expression tree.

    Compiles the tree once into coefficient arrays: every collective's
    ``coeff / B[dim]`` ratios are computed in one vectorized division and
    reduced per term with a segment-max (``np.maximum.reduceat``), so the
    Python-level work per evaluation is one pass over the handful of
    ``Sum``/``MaxExpr`` combine ops that survive :func:`simplify` — not one
    call per tree node. Numerically identical to :meth:`Expr.evaluate`.

    Instances are thread-safe: the slot buffer is kept per thread
    (seeded once from a constants template), so the memoized
    :func:`vector_evaluator` can be shared by concurrent solves — the
    `repro.serve` worker pool drives exactly that — while each thread
    still reuses its buffer across calls instead of allocating per
    evaluation.
    """

    __slots__ = (
        "_comm_coeffs",
        "_comm_dims",
        "_comm_slots",
        "_comm_starts",
        "_local",
        "_max_dim",
        "_ops",
        "_root",
        "_template",
    )

    def __init__(self, expr: Expr):
        comm_dims: list[int] = []
        comm_coeffs: list[float] = []
        comm_starts: list[int] = []
        comm_slots: list[int] = []
        const_slots: list[int] = []
        const_values: list[float] = []
        ops: list[tuple[int, int, np.ndarray, np.ndarray | None]] = []
        num_slots = 0

        def visit(node: Expr) -> int:
            nonlocal num_slots
            slot = num_slots
            num_slots += 1
            if isinstance(node, Const):
                const_slots.append(slot)
                const_values.append(node.value)
            elif isinstance(node, CommTerm):
                if node.coefficients:
                    comm_starts.append(len(comm_dims))
                    comm_slots.append(slot)
                    for dim, coeff in node.coefficients:
                        comm_dims.append(dim)
                        comm_coeffs.append(coeff)
                else:
                    const_slots.append(slot)
                    const_values.append(0.0)
            elif isinstance(node, Sum):
                children = np.array(
                    [visit(child) for child in node.children], dtype=np.intp
                )
                ops.append(
                    (_OP_SUM, slot, children, np.asarray(node.weights, dtype=float))
                )
            elif isinstance(node, MaxExpr):
                children = np.array(
                    [visit(child) for child in node.children], dtype=np.intp
                )
                ops.append((_OP_MAX, slot, children, None))
            else:
                raise ConfigurationError(
                    f"unknown expression node {type(node).__name__}"
                )
            return slot

        self._root = visit(expr)
        self._max_dim = expr.max_dim()
        self._template = np.zeros(num_slots)
        self._template[const_slots] = const_values
        self._local = threading.local()
        self._comm_dims = np.asarray(comm_dims, dtype=np.intp)
        self._comm_coeffs = np.asarray(comm_coeffs, dtype=float)
        self._comm_starts = np.asarray(comm_starts, dtype=np.intp)
        self._comm_slots = np.asarray(comm_slots, dtype=np.intp)
        self._ops = ops

    def __call__(self, bandwidths: Sequence[float]) -> float:
        """Numeric value at the given per-dimension bandwidths (bytes/s)."""
        values = np.asarray(bandwidths, dtype=float)
        if self._max_dim >= values.shape[0]:
            raise ConfigurationError(
                f"expression references dim {self._max_dim} "
                f"but got {values.shape[0]} bandwidths"
            )
        # Per-thread working buffer: const slots come pre-filled from the
        # template and are never overwritten, comm/op slots are rewritten
        # on every call — so one copy per thread is both safe and enough.
        buffer = getattr(self._local, "values", None)
        if buffer is None:
            buffer = self._template.copy()
            self._local.values = buffer
        if self._comm_dims.size:
            ratios = self._comm_coeffs / values[self._comm_dims]
            buffer[self._comm_slots] = np.maximum.reduceat(
                ratios, self._comm_starts
            )
        for kind, out, children, weights in self._ops:
            if kind == _OP_SUM:
                buffer[out] = weights @ buffer[children]
            else:
                buffer[out] = buffer[children].max()
        return float(buffer[self._root])


@lru_cache(maxsize=256)
def vector_evaluator(expr: Expr) -> VectorEvaluator:
    """A memoized :class:`VectorEvaluator` for ``expr``.

    Sweeps and the solver's candidate re-evaluation call this with the same
    expression over and over; the flattening cost is paid once per
    expression per process.
    """
    return VectorEvaluator(expr)


def count_nodes(expr: Expr) -> int:
    """Total node count of the tree (diagnostics and tests)."""
    if isinstance(expr, (Const, CommTerm)):
        return 1
    if isinstance(expr, Sum):
        return 1 + sum(count_nodes(child) for child in expr.children)
    if isinstance(expr, MaxExpr):
        return 1 + sum(count_nodes(child) for child in expr.children)
    raise ConfigurationError(f"unknown expression node {type(expr).__name__}")
