"""Constrained bandwidth optimizer (Sec. IV-E, IV-F).

The paper drives a commercial QP solver (Gurobi); this module implements the
same optimization with numpy, in three layers:

1. **Epigraph compilation** — the symbolic training-time expression
   (:mod:`repro.training.expr`) is compiled so every ``max`` node becomes an
   auxiliary variable ``u`` with one inequality per operand, and every
   collective term contributes smooth constraints ``t ≥ coeff / B_dim``.
   After compilation the objective is *linear* in the auxiliaries, and all
   the nonlinearity lives in those hyperbolic constraints — which describe a
   convex region over ``B > 0``. ``PerfOptBW`` is therefore a convex
   program.

2. **PerfOptBW: one certified interior-point run** —
   :func:`minimize_training_time` runs the primal–dual interior-point
   kernel (:func:`repro.core.kernel.interior_point`) once, from one
   interior start (:func:`interior_start`), with variables scaled to GB/s.
   The result carries the run's Lagrange multipliers and its certified
   primal–dual gap.

3. **PerfPerCostOptBW: the same kernel on a perspective program** — time ×
   cost is bilinear in ``B``, but every step-time term is a ``Const``
   (degree 0 in ``B``) or a ``CommTerm`` (degree −1) under non-negative
   ``Sum`` weights and ``max``. The Charnes–Cooper change of variables
   ``y = B·G/(r·B)``, ``u = S·G/(r·B)`` (so ``B = y·S/u``) turns
   ``T(B)·(r·B)`` into ``G·T'(y, u)``, where ``T'`` is ``T`` with every
   ``Const k`` replaced by the collective ``k·S / u`` on one extra
   dimension (:func:`perspective_expression`). ``T'`` is a PerfOpt-shaped
   convex expression; the normalization ``r·y = G`` and the designer rows,
   homogenized in ``u``, are linear (:func:`perspective_program`). So
   :func:`minimize_time_cost_product` is one run of the same kernel with
   the same certificate.

Each scheme is one kernel run from one deterministic start, so an answer
depends only on the expression, the constraint set and the cost rates.
The certified gap is the program's one claim of optimality: a run whose
gap exceeds :data:`~repro.core.kernel.CERTIFIED_GAP` raises
:class:`~repro.utils.errors.OptimizationError`, so every answer that
exists is certified. Both share one compiled-program form and one
matrix-form constraint-block builder. Answers are checked without a
second solver: the returned objective is a direct re-evaluation of the
expression, and :func:`repro.core.sensitivity.audit_solution` is the
optimality oracle the tests and ``repro bench`` share (a dual bound
re-derived from the returned multipliers, for both schemes).

A memoization tier keyed on the frozen expression —
:func:`compile_expression`, :func:`perspective_expression`,
:func:`traffic_totals`, and (in :mod:`repro.training.expr`) ``simplify`` /
``vector_evaluator`` — makes repeat solves over one workload (budget
sweeps, both schemes) skip all tree work, and the max-slack LP of a start
is memoized on its content (:func:`repro.core.constraints.feasible_point`),
so each distinct constraint set that needs one pays for HiGHS once.
:func:`clear_solver_caches` resets every tier (used by benchmarks for
cold-path timing).
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.constraints import (
    DEFAULT_MAX_BANDWIDTH,
    FEASIBILITY_TOLERANCE,
    ConstraintSet,
    feasible_point,
)
from repro.core.kernel import (
    CERTIFIED_GAP,
    ConstraintBlocks,
    interior_point,
)
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.training.expr import (
    CommTerm,
    Const,
    Expr,
    MaxExpr,
    Sum,
    simplify,
    vector_evaluator,
)
from repro.utils.errors import JobCancelled, OptimizationError
from repro.utils.units import GBPS

#: Internal bandwidth unit (GB/s) — keeps decision variables O(1)–O(1000).
_SCALE = GBPS

#: Relative margin above tight of the interior-point start's aux values.
START_AUX_MARGIN = 0.01

#: Relative room a budget-only start keeps from every box side; a start
#: any closer takes the max-slack LP point instead.
_BOX_MARGIN = 1e-6

#: The perspective program's bandwidth scale ``S`` (bytes/s): ``B = y·S/u``
#: and the start has ``u = S``. Any positive constant works; a fixed one
#: keeps answers content-pure.
PERSPECTIVE_SCALE = 100 * GBPS

#: Shares of the way to the start an answer may move to clear a designer
#: row it misses by round-off (see ``_result``).
_ROUND_OFF_PULLS = (1e-12, 1e-10, 1e-8)

#: Relative widening of the perspective program's implied cost range, so
#: a start on its edge (equal rates under a budget equality) stays strictly
#: inside the implied boxes.
_IMPLIED_MARGIN = 1e-3

# Placeholders for lookup sites that e2ebench/layers.py still wraps
# (line 156: ``build_seeds``, line 165: ``minimize_slsqp``); nothing calls
# them since the multi-start SLSQP solver was removed.
build_seeds = None
minimize_slsqp = None


# ---------------------------------------------------------------------------
# Epigraph compilation
# ---------------------------------------------------------------------------


@dataclass
class _Affine:
    """``const + Σ weight_a · aux_a`` — the value of a compiled subtree."""

    const: float = 0.0
    aux_weights: dict[int, float] = field(default_factory=dict)

    def add(self, other: "_Affine", weight: float = 1.0) -> None:
        self.const += weight * other.const
        for aux, aux_weight in other.aux_weights.items():
            self.aux_weights[aux] = self.aux_weights.get(aux, 0.0) + weight * aux_weight


@dataclass(frozen=True)
class CommConstraint:
    """``aux_t ≥ coeff / B_dim`` (coefficients pre-scaled to GB/s units)."""

    aux: int
    dim: int
    coeff: float


@dataclass(frozen=True)
class MaxConstraint:
    """``aux_u ≥ const + Σ weight_a · aux_a`` (linear in the variables)."""

    aux: int
    const: float
    aux_weights: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class _AuxPlan:
    """Flat arrays for vectorized tight-aux evaluation (see ``initial_aux``).

    Comm aux values come from one gathered division plus a segment-max;
    max aux values are folded in descending aux order — compilation
    allocates every max aux *before* visiting its children, so a max row
    only ever references strictly larger aux indices.
    """

    comm_aux: np.ndarray  # (num_comm_aux,) aux index per segment
    comm_dims: np.ndarray  # (num_comm_rows,)
    comm_coeffs: np.ndarray  # (num_comm_rows,) scaled coefficients
    comm_starts: np.ndarray  # (num_comm_aux,) reduceat segment offsets
    max_rows: tuple[tuple[int, float, np.ndarray, np.ndarray], ...]
    max_aux_ids: np.ndarray  # aux indices that are max nodes


@dataclass
class CompiledProgram:
    """The epigraph form of one training-time expression.

    Variables are ``x = [B_scaled (num_dims), aux (num_aux)]`` with
    bandwidths in GB/s. ``objective(x) = objective_const + w · aux`` equals
    the expression value at any point where every aux is tight.

    Instances returned by :func:`compile_expression` are memoized and shared
    across solves — treat them as immutable.
    """

    num_dims: int
    num_aux: int
    objective_const: float
    objective_weights: np.ndarray  # length num_aux
    comm_constraints: list[CommConstraint]
    max_constraints: list[MaxConstraint]
    aux_expressions: list[Expr]  # defining subtree per aux, for reference
    _aux_plan: _AuxPlan | None = field(default=None, repr=False, compare=False)

    def objective_value(self, x: np.ndarray) -> float:
        return self.objective_const + float(
            self.objective_weights @ x[self.num_dims:]
        )

    def _ensure_aux_plan(self) -> _AuxPlan:
        if self._aux_plan is None:
            comm_aux: list[int] = []
            starts: list[int] = []
            for index, row in enumerate(self.comm_constraints):
                if not comm_aux or comm_aux[-1] != row.aux:
                    comm_aux.append(row.aux)  # rows are grouped per aux
                    starts.append(index)
            max_rows = tuple(
                (
                    row.aux,
                    row.const,
                    np.asarray([aux for aux, _ in row.aux_weights], dtype=np.intp),
                    np.asarray([w for _, w in row.aux_weights], dtype=float),
                )
                for row in sorted(
                    self.max_constraints, key=lambda row: -row.aux
                )
            )
            self._aux_plan = _AuxPlan(
                comm_aux=np.asarray(comm_aux, dtype=np.intp),
                comm_dims=np.asarray(
                    [row.dim for row in self.comm_constraints], dtype=np.intp
                ),
                comm_coeffs=np.asarray(
                    [row.coeff for row in self.comm_constraints], dtype=float
                ),
                comm_starts=np.asarray(starts, dtype=np.intp),
                max_rows=max_rows,
                max_aux_ids=np.asarray(
                    sorted({row.aux for row in self.max_constraints}),
                    dtype=np.intp,
                ),
            )
        return self._aux_plan

    def initial_aux(
        self, bandwidths_scaled: np.ndarray, margin: float = 0.0
    ) -> np.ndarray:
        """Aux values at a bandwidth point (feasible by construction).

        Tight by default. A positive ``margin`` raises every comm aux and
        every max row's value by that relative amount, children before
        parents, so each comm and max row with a nonzero value keeps
        positive slack: a strictly feasible interior-point start.
        """
        if self.num_aux == 0:
            return np.zeros(0)
        plan = self._ensure_aux_plan()
        aux = np.zeros(self.num_aux)
        if plan.comm_aux.size:
            ratios = plan.comm_coeffs / np.asarray(bandwidths_scaled, dtype=float)[
                plan.comm_dims
            ]
            aux[plan.comm_aux] = np.maximum.reduceat(ratios, plan.comm_starts)
            if margin:
                aux[plan.comm_aux] *= 1.0 + margin
        if plan.max_aux_ids.size:
            aux[plan.max_aux_ids] = -np.inf
            for aux_id, const, children, weights in plan.max_rows:
                value = const + (weights @ aux[children] if children.size else 0.0)
                if margin:
                    value += margin * abs(value)
                if value > aux[aux_id]:
                    aux[aux_id] = value
        return aux

    def tight_objective(self, bandwidths_scaled: np.ndarray) -> float:
        """The objective at a bandwidth point with every aux tight."""
        return self.objective_const + float(
            self.objective_weights @ self.initial_aux(bandwidths_scaled)
        )


@lru_cache(maxsize=128)
def compile_expression(expr: Expr, num_dims: int) -> CompiledProgram:
    """Compile ``expr`` into epigraph form over ``num_dims`` bandwidths.

    Memoized on ``(expr, num_dims)``: both schemes of one cell and sweeps
    revisiting one workload reuse the compiled program instead of
    re-walking the tree.
    """
    expr = simplify(expr)
    if expr.max_dim() >= num_dims:
        raise OptimizationError(
            f"expression references dimension {expr.max_dim()} "
            f"but the network has {num_dims}"
        )
    comm_constraints: list[CommConstraint] = []
    max_constraints: list[MaxConstraint] = []
    aux_expressions: list[Expr] = []

    def visit(node: Expr) -> _Affine:
        if isinstance(node, Const):
            return _Affine(const=node.value)
        if isinstance(node, CommTerm):
            if not node.coefficients:
                return _Affine()
            aux = len(aux_expressions)
            aux_expressions.append(node)
            for dim, coeff in node.coefficients:
                comm_constraints.append(CommConstraint(aux, dim, coeff / _SCALE))
            value = _Affine()
            value.aux_weights[aux] = 1.0
            return value
        if isinstance(node, Sum):
            value = _Affine()
            for weight, child in zip(node.weights, node.children):
                value.add(visit(child), weight)
            return value
        if isinstance(node, MaxExpr):
            aux = len(aux_expressions)
            aux_expressions.append(node)
            for child in node.children:
                child_value = visit(child)
                max_constraints.append(
                    MaxConstraint(
                        aux,
                        child_value.const,
                        tuple(child_value.aux_weights.items()),
                    )
                )
            value = _Affine()
            value.aux_weights[aux] = 1.0
            return value
        raise OptimizationError(f"unknown expression node {type(node).__name__}")

    root = visit(expr)
    num_aux = len(aux_expressions)
    weights = np.zeros(num_aux)
    for aux, weight in root.aux_weights.items():
        weights[aux] = weight
    return CompiledProgram(
        num_dims=num_dims,
        num_aux=num_aux,
        objective_const=root.const,
        objective_weights=weights,
        comm_constraints=comm_constraints,
        max_constraints=max_constraints,
        aux_expressions=aux_expressions,
    )


# ---------------------------------------------------------------------------
# Starts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def traffic_totals(expr: Expr, num_dims: int) -> np.ndarray:
    """Aggregate collective traffic per dimension (bytes), tree-wide.

    The interior start allocates bandwidth mostly in proportion to this —
    the exact optimum for a single collective under a pure budget
    constraint, and a well-centred start otherwise.

    Memoized on ``(expr, num_dims)``; the returned array is marked
    read-only because it is shared between callers.
    """
    totals = np.zeros(num_dims)

    def visit(node: Expr, weight: float) -> None:
        if isinstance(node, CommTerm):
            for dim, coeff in node.coefficients:
                totals[dim] += weight * coeff
        elif isinstance(node, Sum):
            for child_weight, child in zip(node.weights, node.children):
                if child_weight > 0:
                    visit(child, weight * child_weight)
        elif isinstance(node, MaxExpr):
            for child in node.children:
                visit(child, weight)

    visit(simplify(expr), 1.0)
    totals.flags.writeable = False
    return totals


def _proportional_split(
    shares: np.ndarray, constraints: ConstraintSet
) -> np.ndarray | None:
    """Distribute the budget along ``shares``, clipped into the box bounds."""
    if constraints.total_bandwidth is None:
        return None
    total = constraints.total_bandwidth
    positive = np.maximum(shares, 0.0)
    if positive.sum() <= 0:
        return None
    point = total * positive / positive.sum()
    lower = constraints.lower_bounds
    upper = constraints.upper_bounds
    point = np.clip(point, lower, upper)
    # Re-distribute any clipping slack onto unclamped dimensions.
    for _ in range(constraints.num_dims):
        slack = total - point.sum()
        if abs(slack) < 1e-9 * total:
            break
        room = (upper - point) if slack > 0 else (point - lower)
        movable = room > 1e-12
        if not movable.any():
            break
        point[movable] += slack * room[movable] / room[movable].sum()
        point = np.clip(point, lower, upper)
    return point


def interior_start(expr: Expr, constraints: ConstraintSet) -> np.ndarray:
    """The interior-point run's start bandwidths (bytes/s).

    When the budget equality is the only designer row, the start is
    0.9 × the traffic-proportional split + 0.1 × the equal split, if that
    point lies strictly inside the box. Otherwise it is the memoized LP
    point that maximizes the smallest slack over the rows and the box
    sides (:meth:`ConstraintSet.find_interior_point`).
    """
    rows = constraints.rows
    if (
        constraints.total_bandwidth is not None
        and len(rows) == 1
        and rows[0].is_equality
    ):
        equal = constraints.equal_split()
        proportional = _proportional_split(
            traffic_totals(expr, constraints.num_dims), constraints
        )
        point = 0.1 * equal + 0.9 * (equal if proportional is None else proportional)
        lower, upper = constraints.lower_bounds, constraints.upper_bounds
        if np.all(point - lower > _BOX_MARGIN * point) and np.all(
            upper - point > _BOX_MARGIN * point
        ):
            return point
    return constraints.find_interior_point()


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one bandwidth optimization; it exists only certified.

    Attributes:
        bandwidths: Optimal per-dimension bandwidths, bytes/s.
        objective: Final objective value (seconds for PerfOpt; seconds ×
            dollars for PerfPerCost), re-evaluated at ``bandwidths``.
        message: The interior-point run's status, iterations and gap.
        gap: The certified relative primal–dual gap,
            ``(primal − dual) / primal``, at most
            :data:`~repro.core.kernel.CERTIFIED_GAP`.
        iterations: Newton steps of the kernel run (0 for a
            bandwidth-independent objective, which needs no run).
        multipliers: The Lagrange multipliers that certify the gap, one
            per row of the solved program's constraint blocks in block row
            order: :func:`build_constraint_blocks` for PerfOpt,
            :func:`perspective_program` for PerfPerCost.
        starts: Always 1, and ``warm_start`` always ``""``:
            e2ebench/layers.py (line 71, ``_solve_outcome``) still reads
            both.
    """

    bandwidths: tuple[float, ...]
    objective: float
    message: str
    gap: float
    iterations: int
    multipliers: tuple[float, ...]
    starts: int = 1
    warm_start: str = ""


def _stack_blocks(
    program: CompiledProgram,
    equalities: list[tuple[np.ndarray, float]],
    inequalities: list[tuple[np.ndarray, float]],
    lower: np.ndarray,
    upper: np.ndarray,
) -> ConstraintBlocks:
    """Blocks of ``program`` under linear rows over its leading dimensions.

    ``equalities`` are ``(a, b)`` pairs for ``a·x = b`` and
    ``inequalities`` pairs for ``a·x ≥ b``, with ``a`` over the program's
    ``num_dims`` leading variables; ``lower``/``upper`` box those
    variables. The max-epigraph rows follow the designer rows in the
    linear block, and the comm rows stay hyperbolic.
    """
    num_dims = program.num_dims
    num_vars = num_dims + program.num_aux
    a_eq = np.zeros((len(equalities), num_vars))
    for index, (coeffs, _) in enumerate(equalities):
        a_eq[index, :num_dims] = coeffs
    a_in = np.zeros((len(inequalities) + len(program.max_constraints), num_vars))
    b_in = [shift for _, shift in inequalities]
    for index, (coeffs, _) in enumerate(inequalities):
        a_in[index, :num_dims] = coeffs
    for index, max_row in enumerate(program.max_constraints, len(inequalities)):
        a_in[index, num_dims + max_row.aux] = 1.0
        for aux, weight in max_row.aux_weights:
            a_in[index, num_dims + aux] -= weight
        b_in.append(max_row.const)
    return ConstraintBlocks(
        num_vars=num_vars,
        a_eq=a_eq,
        b_eq=np.asarray([shift for _, shift in equalities], dtype=float),
        a_in=a_in,
        b_in=np.asarray(b_in, dtype=float),
        comm_aux=np.asarray(
            [num_dims + row.aux for row in program.comm_constraints],
            dtype=np.intp,
        ),
        comm_dim=np.asarray(
            [row.dim for row in program.comm_constraints], dtype=np.intp
        ),
        comm_coeff=np.asarray(
            [row.coeff for row in program.comm_constraints], dtype=float
        ),
        lower=np.concatenate([lower, np.zeros(program.num_aux)]),
        upper=np.concatenate([upper, np.full(program.num_aux, np.inf)]),
        num_dims=num_dims,
        cost=np.concatenate([np.zeros(num_dims), program.objective_weights]),
        cost_const=program.objective_const,
    )


def build_constraint_blocks(
    program: CompiledProgram, constraints: ConstraintSet
) -> ConstraintBlocks:
    """The PerfOptBW program: the compiled expression under the designer set.

    Designer rows are scaled to GB/s: an equality row joins the equality
    block; an inequality row contributes its upper side, then its lower
    side, to the linear block.
    """
    equalities = []
    inequalities = []
    for row in constraints.rows:
        coeffs = np.asarray(row.coeffs, dtype=float)
        if row.is_equality:
            equalities.append((coeffs, float(row.lower) / _SCALE))
            continue
        if row.upper is not None:
            inequalities.append((-coeffs, -row.upper / _SCALE))
        if row.lower is not None:
            inequalities.append((coeffs, row.lower / _SCALE))
    return _stack_blocks(
        program, equalities, inequalities,
        constraints.lower_bounds / _SCALE, constraints.upper_bounds / _SCALE,
    )


@lru_cache(maxsize=128)
def perspective_expression(expr: Expr, num_dims: int) -> Expr:
    """``T'``: ``expr`` with every ``Const k`` made the collective ``k·S/u``.

    ``u`` is dimension ``num_dims`` and ``S`` is :data:`PERSPECTIVE_SCALE`.
    Collectives keep their coefficients, so with ``B = y·S/u`` the
    identity ``T(B)·(r·B) = (r·y)·T'(y, u)`` holds term by term.
    Memoized on ``(expr, num_dims)``, like :func:`compile_expression`.
    """

    def visit(node: Expr) -> Expr:
        if isinstance(node, Const):
            if node.value == 0:
                return node
            return CommTerm(((num_dims, node.value * PERSPECTIVE_SCALE),))
        if isinstance(node, Sum):
            return Sum(tuple(visit(child) for child in node.children), node.weights)
        if isinstance(node, MaxExpr):
            return MaxExpr(tuple(visit(child) for child in node.children))
        return node

    return simplify(visit(simplify(expr)))


@dataclass(frozen=True)
class PerspectiveProgram:
    """PerfPerCostOptBW as a PerfOpt-shaped program over ``[y, u, aux]``.

    Attributes:
        program: The compiled ``T'`` (:func:`perspective_expression`).
        blocks: Its constraint blocks, in GB/s: the normalization row
            ``(r / max r)·y = G / max r`` first, then the designer
            equalities and fixed dimensions as ``a·y = (lo/S)·u``; the
            linear block holds ``a·y ≥ (lo/S)·u`` and ``a·y ≤ (hi/S)·u``
            for every designer row side and box side (finite designer caps
            only), then the max rows. ``y`` and ``u`` sit in the implied
            boxes of the cost range ``[r·lo, min(r·hi, max(r)·total)]``.
        scale: ``G = r·B0``, the cost of the start, in dollars.
        start: The kernel's start ``[B0, S, aux]`` in GB/s, with aux 1 %
            above tight.
    """

    program: CompiledProgram
    blocks: ConstraintBlocks
    scale: float
    start: np.ndarray

    def bandwidths(self, x: np.ndarray) -> np.ndarray:
        """``B = y·S/u`` in bytes/s at a kernel point ``x``."""
        num_dims = self.program.num_dims - 1
        return x[:num_dims] * (PERSPECTIVE_SCALE / x[num_dims])


def perspective_program(
    expr: Expr, constraints: ConstraintSet, cost_rates: Sequence[float]
) -> PerspectiveProgram:
    """Build the perspective program of one PerfPerCostOptBW problem.

    A pure function of its arguments: ``G`` comes from the deterministic
    :func:`interior_start`, so the solver and the auditor build the same
    program. Raises :class:`OptimizationError` for rates that are not
    finite and non-negative, or that price the box's lower corner at zero.
    """
    num_dims = constraints.num_dims
    rates = np.asarray(cost_rates, dtype=float)
    if rates.shape != (num_dims,):
        raise OptimizationError(
            f"expected {num_dims} cost rates, got {rates.shape}"
        )
    lower, upper = constraints.lower_bounds, constraints.upper_bounds
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise OptimizationError(
            f"cost rates must be finite and non-negative, got {rates}"
        )
    cost_min = float(rates @ lower)
    if not cost_min > 0:
        raise OptimizationError(
            "cost rates price every bandwidth at zero at the box's lower corner"
        )
    cost_max = float(rates @ upper)
    if constraints.total_bandwidth is not None:
        cost_max = min(cost_max, float(rates.max()) * constraints.total_bandwidth)
        upper = np.minimum(upper, constraints.total_bandwidth)
    cost_min *= 1.0 - _IMPLIED_MARGIN
    cost_max *= 1.0 + _IMPLIED_MARGIN

    start = interior_start(expr, constraints)
    scale = float(rates @ start)
    ratio = 1.0 / PERSPECTIVE_SCALE

    def row(coeffs: Sequence[float], u_coeff: float) -> np.ndarray:
        return np.append(np.asarray(coeffs, dtype=float), u_coeff)

    equalities = [(row(rates / rates.max(), 0.0), scale / rates.max() / _SCALE)]
    inequalities = []
    for designer in constraints.rows:
        if designer.is_equality:
            equalities.append((row(designer.coeffs, -designer.lower * ratio), 0.0))
            continue
        if designer.upper is not None:
            inequalities.append(
                (row(np.negative(designer.coeffs), designer.upper * ratio), 0.0)
            )
        if designer.lower is not None:
            inequalities.append((row(designer.coeffs, -designer.lower * ratio), 0.0))
    identity = np.eye(num_dims)
    for dim in range(num_dims):
        low, high = constraints.lower_bounds[dim], constraints.upper_bounds[dim]
        if low == high:
            equalities.append((row(identity[dim], -low * ratio), 0.0))
            continue
        inequalities.append((row(identity[dim], -low * ratio), 0.0))
        if high < DEFAULT_MAX_BANDWIDTH:
            inequalities.append((row(-identity[dim], high * ratio), 0.0))

    program = compile_expression(
        perspective_expression(expr, num_dims), num_dims + 1
    )
    box_lower = np.append(lower * scale / cost_max, PERSPECTIVE_SCALE * scale / cost_max)
    box_upper = np.append(upper * scale / cost_min, PERSPECTIVE_SCALE * scale / cost_min)
    blocks = _stack_blocks(
        program, equalities, inequalities, box_lower / _SCALE, box_upper / _SCALE
    )
    point = np.append(start, PERSPECTIVE_SCALE) / _SCALE
    return PerspectiveProgram(
        program=program,
        blocks=blocks,
        scale=scale,
        start=np.concatenate([point, program.initial_aux(point, START_AUX_MARGIN)]),
    )


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def _checkpoint(should_stop: Callable[[], bool] | None, context: str) -> None:
    """Cooperative cancellation checkpoint, polled before a kernel run.

    One run takes milliseconds, so a cancel request is observed promptly
    without polluting the kernel's inner loop. Raising
    :class:`JobCancelled` (never returning a partial result) keeps the
    solver's contract simple — a cancelled solve produced nothing.
    """
    if should_stop is not None and should_stop():
        raise JobCancelled(f"optimization cancelled {context}")


def clear_solver_caches() -> None:
    """Reset every memoization tier (cold-path timing, test isolation)."""
    from repro.training.expr import simplify as _simplify
    from repro.training.expr import vector_evaluator as _vector_evaluator

    compile_expression.cache_clear()
    perspective_expression.cache_clear()
    traffic_totals.cache_clear()
    _simplify.cache_clear()
    _vector_evaluator.cache_clear()
    feasible_point.cache_clear()


def _observed_solve(scheme: str):
    """Wrap a solver entry point in a ``solve`` span plus solver metrics.

    When both the tracer and the registry are their null singletons the
    wrapper is two global reads and a tail call — the zero-overhead
    default the BENCH_solver floor pins.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = obs_trace.get_tracer()
            registry = obs_metrics.get_registry()
            if (
                tracer is obs_trace.NULL_TRACER
                and registry is obs_metrics.NULL_REGISTRY
            ):
                return fn(*args, **kwargs)
            begin = time.perf_counter()
            with tracer.span("solve", attrs={"scheme": scheme}) as span:
                result = fn(*args, **kwargs)
                span.set("objective", result.objective)
                span.set("gap", result.gap)
            elapsed = time.perf_counter() - begin
            registry.counter(
                obs_names.SOLVER_SOLVES,
                "Solver entry-point solves by scheme.",
                labels=("scheme",),
            ).labels(scheme=scheme).inc()
            registry.histogram(
                obs_names.SOLVER_SECONDS,
                "Wall time of one solver entry-point call.",
                labels=("scheme",),
            ).labels(scheme=scheme).observe(elapsed)
            return result

        return wrapper

    return decorate


def _run_kernel(
    blocks: ConstraintBlocks, x0: np.ndarray, program: CompiledProgram
):
    """One kernel run from ``x0``; a start that is not strictly feasible
    means the constraint set has no interior."""
    try:
        return interior_point(
            blocks, x0, lambda x: program.tight_objective(x[: program.num_dims])
        )
    except ValueError as exc:
        raise OptimizationError(
            f"no strictly feasible start for the constraint set: {exc}"
        ) from exc


def _result(
    bandwidths: np.ndarray,
    start: np.ndarray,
    constraints: ConstraintSet,
    objective_at: Callable[[np.ndarray], float],
    run,
) -> SolverResult:
    """The run's answer, held to the designer constraint set and certified.

    The kernel's active inequality rows can end a round-off below zero,
    and a row bounded by zero (an ordering) is checked to an absolute
    :data:`FEASIBILITY_TOLERANCE` bytes/s. Such a point moves toward the
    strictly feasible ``start`` by the smallest of :data:`_ROUND_OFF_PULLS`
    that satisfies every row, and the certified gap is re-stated for the
    moved point against the same dual bound. An answer whose gap exceeds
    :data:`~repro.core.kernel.CERTIFIED_GAP` raises
    :class:`OptimizationError`: no uncertified answer leaves the solver.
    """
    objective = objective_at(bandwidths)
    gap = run.gap
    if not constraints.is_feasible(bandwidths, FEASIBILITY_TOLERANCE):
        for pull in _ROUND_OFF_PULLS:
            moved = bandwidths + pull * (start - bandwidths)
            if constraints.is_feasible(moved, FEASIBILITY_TOLERANCE):
                break
        else:
            raise OptimizationError(
                f"the interior-point run ended infeasible ({run.status})"
            )
        bound = (1.0 - gap) * objective
        bandwidths, objective = moved, objective_at(moved)
        gap = 1.0 - bound / objective
    message = (
        f"interior point: {run.status} after {run.iterations} "
        f"iterations, gap {gap:.1e}"
    )
    if not gap <= CERTIFIED_GAP:
        raise OptimizationError(
            f"uncertified answer ({message}, above {CERTIFIED_GAP:.0e})"
        )
    return SolverResult(
        bandwidths=tuple(float(b) for b in bandwidths),
        objective=objective,
        message=message,
        gap=float(gap),
        iterations=run.iterations,
        multipliers=tuple(run.multipliers.tolist()),
    )


def _constant_result(
    start: np.ndarray, objective: float, blocks: ConstraintBlocks
) -> SolverResult:
    """A bandwidth-independent objective: any feasible point is optimal,
    and zero multipliers certify it (the dual bound is the constant)."""
    return SolverResult(
        bandwidths=tuple(float(b) for b in start),
        objective=objective,
        message="bandwidth-independent objective",
        gap=0.0,
        iterations=0,
        multipliers=(0.0,) * blocks.num_rows,
    )


@_observed_solve("perf")
def minimize_training_time(
    expr: Expr,
    constraints: ConstraintSet,
    should_stop: Callable[[], bool] | None = None,
) -> SolverResult:
    """PerfOptBW: minimize the training-time expression (convex program).

    One interior-point run from :func:`interior_start`. The answer depends
    only on ``expr`` and ``constraints``. The result carries the run's
    multipliers and certified gap; a run that ends uncertified raises
    :class:`OptimizationError`.

    Args:
        expr: Training-time expression.
        constraints: Designer constraint set.
        should_stop: Cooperative cancellation predicate, polled before the
            run; a true return raises :class:`JobCancelled`.
    """
    _checkpoint(should_stop, "before the solve")
    program = compile_expression(expr, constraints.num_dims)
    start = interior_start(expr, constraints)
    blocks = build_constraint_blocks(program, constraints)
    if program.num_aux == 0:
        return _constant_result(start, program.objective_const, blocks)
    scaled = start / _SCALE
    run = _run_kernel(
        blocks,
        np.concatenate([scaled, program.initial_aux(scaled, START_AUX_MARGIN)]),
        program,
    )
    bandwidths = np.maximum(run.x[: program.num_dims] * _SCALE, 0.0)
    return _result(
        bandwidths, start, constraints, vector_evaluator(simplify(expr)), run
    )


@_observed_solve("ppc")
def minimize_time_cost_product(
    expr: Expr,
    constraints: ConstraintSet,
    cost_rates: Sequence[float],
    should_stop: Callable[[], bool] | None = None,
) -> SolverResult:
    """PerfPerCostOptBW: minimize time × dollar-cost.

    One interior-point run over the perspective program
    (:func:`perspective_program`), which is convex although time × cost
    is bilinear in ``B``. The result carries the run's multipliers (in
    the perspective program's row order) and certified gap; a run that
    ends uncertified raises :class:`OptimizationError`.

    Args:
        expr: Training-time expression.
        constraints: Designer constraint set.
        cost_rates: ``$ per (byte/s)`` per dimension — network-cost slope,
            *already multiplied by the NPU count* (see
            :func:`repro.cost.estimator.cost_rates`).
        should_stop: Cooperative cancellation predicate, polled before the
            run; a true return raises :class:`JobCancelled`.
    """
    _checkpoint(should_stop, "before the solve")
    perspective = perspective_program(expr, constraints, cost_rates)
    rates = np.asarray(cost_rates, dtype=float)
    program = perspective.program
    start = perspective.bandwidths(perspective.start)
    if program.num_aux == 0:
        return _constant_result(start, 0.0, perspective.blocks)
    run = _run_kernel(perspective.blocks, perspective.start, program)
    evaluate = vector_evaluator(simplify(expr))
    return _result(
        perspective.bandwidths(run.x),
        start,
        constraints,
        lambda bandwidths: evaluate(bandwidths) * float(rates @ bandwidths),
        run,
    )
