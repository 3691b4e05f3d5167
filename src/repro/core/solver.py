"""Constrained bandwidth optimizer (Sec. IV-E, IV-F).

The paper drives a commercial QP solver (Gurobi); this module implements the
same optimization with numpy and scipy, in three layers:

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
   There is no seed family, multi-start or warm start, so an answer
   depends only on the expression and the constraint set. The result
   carries the run's Lagrange multipliers and its certified primal–dual
   gap.

3. **PerfPerCostOptBW: multi-start SLSQP** — time × cost is bilinear (the
   same nonconvexity Gurobi's QP handles); deterministic multi-start from
   the seed family (:func:`build_seeds`, plus a two-start SLSQP PerfOpt
   solve) recovers the global design point in practice, and the result
   records which start won. Each start is one SLSQP run with analytic
   gradients through :func:`repro.core.kernel.minimize_slsqp`; a longer,
   looser re-run is the fallback when a run fails without stalling.

Both schemes share one compiled program and one set of stacked
matrix-form constraint blocks (:func:`build_constraint_blocks`). Answers
are checked without a second solver: the returned objective is a direct
re-evaluation of the expression, and
:func:`repro.core.sensitivity.audit_solution` is the optimality oracle the
tests and ``repro bench`` share (for PerfOptBW, a dual bound re-derived
from the returned multipliers).

A memoization tier keyed on the frozen expression —
:func:`compile_expression`, :func:`traffic_totals`, and (in
:mod:`repro.training.expr`) ``simplify`` / ``vector_evaluator`` — makes
repeat solves over one workload (budget sweeps, both schemes) skip all
tree work, and the feasibility LPs are memoized on their content
(:func:`repro.core.constraints.feasible_point`), so every cell of one
budget pays for HiGHS once. :func:`clear_solver_caches` resets every tier
(used by benchmarks for cold-path timing).

**Continuation solving (PerfPerCostOptBW)** — :func:`minimize_time_cost_product`
accepts ``warm_start``: a prior optimum (e.g. the neighboring cell of a
budget sweep). The warm point is projected onto the new feasible region
(budget-rescaled, box-clipped) and solved first; the full multi-start
family then runs *only* when that warm run's achieved objective drifts
past :data:`WARM_TRUST_RTOL` relative to the best raw seed evaluation (the
adaptive fan-out that keeps correctness from silently degrading).
``warm_start=None`` is the cold path and stays the default everywhere.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from repro.core.constraints import (
    FEASIBILITY_TOLERANCE,
    ConstraintSet,
    feasible_point,
)
from repro.core.kernel import (
    CERTIFIED_GAP,
    ConstraintBlocks,
    interior_point,
    minimize_slsqp,
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

#: Relative objective drift past which a warm-started PerfPerCostOptBW
#: solve is distrusted.
#: A warm run is accepted only when it converged (or stopped on a
#: line-search stall of the same trajectory), its iterate is feasible, and
#: its *true* (re-evaluated) objective is within this factor of the best
#: raw seed evaluation; otherwise the full multi-start family runs with
#: the warm run's result kept as one more candidate. The
#: documented continuation tolerance: accepted warm results match the cold
#: path's objective within ~1e-2 relative in practice, and never sit above
#: the seed family's own evaluations by more than this threshold.
WARM_TRUST_RTOL = 1e-4

#: Seed-family truncation of PerfPerCostOptBW's internal SLSQP PerfOpt
#: solve (:func:`_perf_seed`).
DEFAULT_PERF_WARM_STARTS = 2

#: Relative margin above tight of the interior-point start's aux values.
START_AUX_MARGIN = 0.01


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

    Memoized on ``(expr, num_dims)``: ``PerfPerCostOptBW`` warm-starting
    through ``PerfOptBW`` and sweeps revisiting one workload reuse the
    compiled program instead of re-walking the tree.
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
# Seeds
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def traffic_totals(expr: Expr, num_dims: int) -> np.ndarray:
    """Aggregate collective traffic per dimension (bytes), tree-wide.

    The water-filling seed allocates bandwidth proportionally to this — the
    exact optimum for a single collective under a pure budget constraint,
    and an excellent starting point otherwise.

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


def _seed_close(a: Sequence[float], b: Sequence[float]) -> bool:
    """``np.allclose(a, b, rtol=1e-6)`` for finite vectors of one length.

    For finite values numpy's rule is exactly this scalar test, which costs
    far less than an ``allclose`` call on vectors this short.
    """
    return all(abs(x - y) <= 1e-8 + 1e-6 * abs(y) for x, y in zip(a, b))


def build_seeds(
    expr: Expr,
    constraints: ConstraintSet,
    cost_rates: Sequence[float] | None = None,
) -> list[np.ndarray]:
    """Deterministic multi-start seed family (bytes/s)."""
    seeds: list[np.ndarray] = []
    kept: list[list[float]] = []

    def push(point: np.ndarray | None) -> None:
        if point is None:
            return
        values = point.tolist()
        if any(_seed_close(existing, values) for existing in kept):
            return
        seeds.append(point)
        kept.append(values)

    totals = traffic_totals(expr, constraints.num_dims)
    if constraints.total_bandwidth is not None:
        push(constraints.equal_split())
        proportional = _proportional_split(totals, constraints)
        push(proportional)
        if cost_rates is not None and np.any(totals > 0):
            rates = np.asarray(cost_rates, dtype=float)
            value_density = np.divide(
                totals, np.maximum(rates, 1e-30), out=np.zeros(totals.shape),
                where=rates > 0,
            )
            push(_proportional_split(value_density, constraints))
        # Mild skews of the proportional seed to escape flat regions.
        if proportional is not None:
            for exponent in (0.5, 2.0):
                push(_proportional_split(proportional ** exponent, constraints))
    try:
        push(constraints.find_feasible_point())
    except OptimizationError:
        pass
    if not seeds:
        raise OptimizationError("no feasible seed point found for the constraint set")
    return seeds


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
        if np.all(point > constraints.lower_bounds) and np.all(
            point < constraints.upper_bounds
        ):
            return point
    return constraints.find_interior_point()


def project_warm_start(
    warm_start: Sequence[float], constraints: ConstraintSet
) -> np.ndarray | None:
    """Project a prior optimum onto a constraint set's feasible region.

    Continuation neighbors usually differ only by the budget scalar, so the
    projection keeps the warm point's *shape*: the bandwidth shares are
    redistributed onto the new budget and clipped into the box bounds
    (general linear rows are left to SLSQP, exactly as for the cold seed
    family). Returns ``None`` when the point cannot seed this set — wrong
    dimensionality, non-finite, or all-zero — which callers treat as
    "fall back to cold".
    """
    point = np.asarray(warm_start, dtype=float)
    if point.shape != (constraints.num_dims,):
        return None
    if not np.all(np.isfinite(point)) or np.sum(np.maximum(point, 0.0)) <= 0:
        return None
    if constraints.total_bandwidth is not None:
        return _proportional_split(point, constraints)
    return np.clip(point, constraints.lower_bounds, constraints.upper_bounds)


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one bandwidth optimization.

    Attributes:
        bandwidths: Optimal per-dimension bandwidths, bytes/s.
        objective: Final objective value (seconds for PerfOpt; seconds ×
            dollars for PerfPerCost).
        success: PerfOpt: the certified gap is at most
            :data:`~repro.core.kernel.CERTIFIED_GAP`. PerfPerCost: an SLSQP
            run converged; when False the best feasible iterate (a
            line-search stall point or a seed evaluation) is returned
            instead.
        message: Solver diagnostics (the interior-point status, or which
            start won and the fallbacks used).
        starts: Number of runs: 1 for PerfOpt, the seed points tried for
            PerfPerCost.
        warm_start: PerfPerCost continuation diagnostics — empty for cold
            solves (and always for PerfOpt), ``"accepted"`` when the warm
            run passed the trust check and the multi-start family was
            skipped, ``"rejected:<reason>"`` when the solve fell back to
            the full fan-out.
        gap: PerfOpt: the certified relative primal–dual gap,
            ``(primal − dual) / primal``; ``None`` for PerfPerCost.
        multipliers: PerfOpt: the Lagrange multipliers that certify the
            gap, one per row of the problem's constraint blocks
            (:func:`build_constraint_blocks`) in block row order; empty
            for PerfPerCost and for bandwidth-independent objectives.
    """

    bandwidths: tuple[float, ...]
    objective: float
    success: bool
    message: str
    starts: int
    warm_start: str = ""
    gap: float | None = None
    multipliers: tuple[float, ...] = ()


def build_constraint_blocks(
    program: CompiledProgram, constraints: ConstraintSet
) -> ConstraintBlocks:
    """Stack the program + designer rows into vectorized constraint blocks.

    Built **once** per solve and shared by the interior-point run, every
    multi-start seed and PerfPerCost's inner PerfOpt solve. The blocks
    carry the epigraph objective too. Designer rows are scaled to GB/s
    (an equality row joins the equality block; an inequality row
    contributes its upper side, then its lower side, to the linear block),
    max-epigraph rows follow them in the linear block, and comm rows stay
    hyperbolic.
    """
    num_dims = program.num_dims
    num_vars = num_dims + program.num_aux

    eq_rows: list[np.ndarray] = []
    eq_shift: list[float] = []
    lin_rows: list[np.ndarray] = []
    lin_shift: list[float] = []
    for row in constraints.rows:
        coeffs = np.zeros(num_vars)
        coeffs[:num_dims] = row.coeffs
        if row.is_equality:
            eq_rows.append(coeffs)
            eq_shift.append(float(row.lower) / _SCALE)  # type: ignore[arg-type]
            continue
        if row.upper is not None:
            lin_rows.append(-coeffs)
            lin_shift.append(-row.upper / _SCALE)
        if row.lower is not None:
            lin_rows.append(coeffs)
            lin_shift.append(row.lower / _SCALE)
    for max_row in program.max_constraints:
        coeffs = np.zeros(num_vars)
        coeffs[num_dims + max_row.aux] = 1.0
        for aux, weight in max_row.aux_weights:
            coeffs[num_dims + aux] -= weight
        lin_rows.append(coeffs)
        lin_shift.append(max_row.const)

    lower = np.concatenate(
        [constraints.lower_bounds / _SCALE, np.zeros(program.num_aux)]
    )
    upper = np.concatenate(
        [constraints.upper_bounds / _SCALE, np.full(program.num_aux, np.inf)]
    )
    return ConstraintBlocks(
        num_vars=num_vars,
        a_eq=(
            np.asarray(eq_rows) if eq_rows else np.zeros((0, num_vars))
        ),
        b_eq=np.asarray(eq_shift, dtype=float),
        a_in=(
            np.asarray(lin_rows) if lin_rows else np.zeros((0, num_vars))
        ),
        b_in=np.asarray(lin_shift, dtype=float),
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
        lower=lower,
        upper=upper,
        num_dims=num_dims,
        cost=np.concatenate([np.zeros(num_dims), program.objective_weights]),
        cost_const=program.objective_const,
    )


def _solve_from_seed(
    program: CompiledProgram,
    blocks: ConstraintBlocks,
    objective: Callable[[np.ndarray], float],
    objective_grad: Callable[[np.ndarray], np.ndarray],
    seed: np.ndarray,
) -> tuple[np.ndarray, float, bool, str]:
    """One SLSQP run (long-retry fallback) from one bandwidth seed."""
    tracer = obs_trace.get_tracer()
    if tracer is obs_trace.NULL_TRACER:
        return _solve_from_seed_impl(
            program, blocks, objective, objective_grad, seed
        )
    with tracer.span("solve.seed") as span:
        result = _solve_from_seed_impl(
            program, blocks, objective, objective_grad, seed
        )
        span.set("converged", result[2])
        span.set("path", result[3])
        return result


def _solve_from_seed_impl(
    program: CompiledProgram,
    blocks: ConstraintBlocks,
    objective: Callable[[np.ndarray], float],
    objective_grad: Callable[[np.ndarray], np.ndarray],
    seed: np.ndarray,
) -> tuple[np.ndarray, float, bool, str]:
    seed_scaled = seed / _SCALE
    x0 = np.concatenate([seed_scaled, program.initial_aux(seed_scaled) * 1.0001])

    result = minimize_slsqp(
        objective, objective_grad, x0, blocks, maxiter=400, ftol=1e-12
    )
    if result.success:
        return result.x, result.fun, True, "slsqp"
    if result.status == 8:
        # "Positive directional derivative for linesearch": the line search
        # hit machine precision. SLSQP's iterate path does not depend on
        # ftol (it only gates the stopping tests), so the looser re-solve
        # below would stop at an *earlier* point of this same trajectory —
        # the stall iterate is already at least as optimized. Keep it as a
        # candidate; `_finish` re-checks feasibility and true value.
        return result.x, result.fun, False, f"stalled: {result.message}"
    fallback = minimize_slsqp(
        objective, objective_grad, x0, blocks, maxiter=1500, ftol=1e-10
    )
    if fallback.success:
        return fallback.x, fallback.fun, True, "slsqp-long"
    return result.x, result.fun, False, f"failed: {result.message}"


def _finish(
    program: CompiledProgram,
    constraints: ConstraintSet,
    evaluate_true: Callable[[np.ndarray], float],
    candidates: list[tuple[np.ndarray, float, bool, str]],
    starts: int,
) -> SolverResult:
    """Pick the best feasible candidate and re-evaluate the true objective."""
    best: tuple[np.ndarray, float, bool, str] | None = None
    for x, value, success, message in candidates:
        bandwidths = np.maximum(x[: program.num_dims] * _SCALE, 0.0)
        if not constraints.is_feasible(bandwidths, FEASIBILITY_TOLERANCE):
            continue
        true_value = evaluate_true(bandwidths)
        if best is None or true_value < best[1]:
            best = (bandwidths, true_value, success, message)
    if best is None:
        raise OptimizationError(
            "no solver run produced a feasible design point "
            f"(tried {starts} starts)"
        )
    bandwidths, value, success, message = best
    return SolverResult(
        bandwidths=tuple(float(b) for b in bandwidths),
        objective=value,
        success=success,
        message=message,
        starts=starts,
    )


def _seed_fallbacks(
    program: CompiledProgram,
    seeds: Sequence[np.ndarray],
    value_at: Callable[[np.ndarray], float],
) -> list[tuple[np.ndarray, float, bool, str]]:
    """Feasible tight-aux candidates at every seed (the no-solve floor)."""
    fallbacks = []
    for seed in seeds:
        scaled = seed / _SCALE
        x = np.concatenate([scaled, program.initial_aux(scaled)])
        fallbacks.append((x, value_at(x), False, "seed"))
    return fallbacks


def _try_warm(
    program: CompiledProgram,
    constraints: ConstraintSet,
    objective: Callable[[np.ndarray], float],
    objective_grad: Callable[[np.ndarray], np.ndarray],
    evaluate_true: Callable[[np.ndarray], float],
    warm_seed: np.ndarray,
    seeds: list[np.ndarray],
    blocks: ConstraintBlocks,
) -> tuple[tuple[np.ndarray, float, bool, str], str]:
    """One SLSQP run from the projected warm point, trust-checked.

    Returns ``(candidate, "")`` when the run is trustworthy: it either
    converged or stopped on a line-search stall (a point of the same
    iterate trajectory — see :func:`_solve_from_seed`), its iterate is
    feasible, and its *re-evaluated* objective is no worse (within
    :data:`WARM_TRUST_RTOL`, read at call time) than the tightest cheap
    floor available — the best raw
    seed evaluation *and* the projected warm seed's own evaluation, so an
    SLSQP run that wanders into a stale basin below its feasible starting
    point is rejected. Returns ``(candidate, reason)`` when the caller
    must fan out cold; the candidate is still returned so the fallback
    can pool it instead of re-running the identical deterministic solve.

    This floor is deliberately evaluation-only: the cold PerfPerCost
    path's PerfOpt-anchored guarantee would cost the inner solve that
    continuation exists to skip. The residual risk — a basin shift the
    floor cannot see — is bounded by the documented continuation
    tolerance and measured by the sweep benchmark's per-cell gate.
    """
    tracer = obs_trace.get_tracer()
    if tracer is obs_trace.NULL_TRACER:
        return _try_warm_impl(
            program, constraints, objective, objective_grad,
            evaluate_true, warm_seed, seeds, blocks,
        )
    with tracer.span("solve.warm_trust") as span:
        candidate, reason = _try_warm_impl(
            program, constraints, objective, objective_grad,
            evaluate_true, warm_seed, seeds, blocks,
        )
        span.set("accepted", not reason)
        if reason:
            span.set("reason", reason)
        return candidate, reason


def _try_warm_impl(
    program: CompiledProgram,
    constraints: ConstraintSet,
    objective: Callable[[np.ndarray], float],
    objective_grad: Callable[[np.ndarray], np.ndarray],
    evaluate_true: Callable[[np.ndarray], float],
    warm_seed: np.ndarray,
    seeds: list[np.ndarray],
    blocks: ConstraintBlocks,
) -> tuple[tuple[np.ndarray, float, bool, str], str]:
    candidate = _solve_from_seed(
        program, blocks, objective, objective_grad, warm_seed
    )
    if not candidate[2] and not candidate[3].startswith("stalled"):
        return candidate, "solver-failure"
    bandwidths = np.maximum(candidate[0][: program.num_dims] * _SCALE, 0.0)
    if not constraints.is_feasible(bandwidths, FEASIBILITY_TOLERANCE):
        return candidate, "infeasible-iterate"
    warm_true = evaluate_true(bandwidths)
    floor = min(
        min(evaluate_true(seed) for seed in seeds),
        evaluate_true(warm_seed),
    )
    if warm_true > floor * (1.0 + WARM_TRUST_RTOL):
        return candidate, "drift"
    return candidate, ""


def _checkpoint(should_stop: Callable[[], bool] | None, context: str) -> None:
    """Cooperative cancellation checkpoint (between multi-start seeds).

    Seeds are the natural granularity: one SLSQP run is seconds at most,
    so a cancel request is observed promptly without polluting the kernel
    inner loop. Raising :class:`JobCancelled` (never returning a partial
    result) keeps the solver's contract simple — a cancelled solve
    produced nothing.
    """
    if should_stop is not None and should_stop():
        raise JobCancelled(f"optimization cancelled {context}")


def clear_solver_caches() -> None:
    """Reset every memoization tier (cold-path timing, test isolation)."""
    from repro.training.expr import simplify as _simplify
    from repro.training.expr import vector_evaluator as _vector_evaluator

    compile_expression.cache_clear()
    traffic_totals.cache_clear()
    _simplify.cache_clear()
    _vector_evaluator.cache_clear()
    feasible_point.cache_clear()


def _warm_label(warm_start: str) -> str:
    """Collapse the warm diagnostic to a bounded metric label value."""
    if not warm_start:
        return "cold"
    return "accepted" if warm_start == "accepted" else "rejected"


def _observed_solve(scheme: str):
    """Wrap a solver entry point in a ``solve`` span plus solver metrics.

    When both the tracer and the registry are their null singletons the
    wrapper is two global reads and a tail call — the zero-overhead
    default the BENCH_solver floor pins. The PerfOpt solve that
    PerfPerCost runs internally is counted as its own ``scheme="perf"``
    solve (it goes through this same wrapper).
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
                warm = _warm_label(result.warm_start)
                span.set("warm", warm)
                span.set("starts", result.starts)
                span.set("objective", result.objective)
            elapsed = time.perf_counter() - begin
            registry.counter(
                obs_names.SOLVER_SOLVES,
                "Solver entry-point solves by scheme and warm-start outcome.",
                labels=("scheme", "warm"),
            ).labels(scheme=scheme, warm=warm).inc()
            registry.counter(
                obs_names.SOLVER_STARTS,
                "Multi-start seed attempts by scheme.",
                labels=("scheme",),
            ).labels(scheme=scheme).inc(result.starts)
            registry.histogram(
                obs_names.SOLVER_SECONDS,
                "Wall time of one solver entry-point call.",
                labels=("scheme",),
            ).labels(scheme=scheme).observe(elapsed)
            return result

        return wrapper

    return decorate


@_observed_solve("perf")
def minimize_training_time(
    expr: Expr,
    constraints: ConstraintSet,
    should_stop: Callable[[], bool] | None = None,
) -> SolverResult:
    """PerfOptBW: minimize the training-time expression (convex program).

    One interior-point run from :func:`interior_start`. The answer depends
    only on ``expr`` and ``constraints``: no warm start, no seed order. The
    result carries the run's multipliers and certified gap, and
    ``starts`` is 1.

    Args:
        expr: Training-time expression.
        constraints: Designer constraint set.
        should_stop: Cooperative cancellation predicate, polled before the
            run (one run takes milliseconds); a true return raises
            :class:`JobCancelled`.
    """
    _checkpoint(should_stop, "before the solve")
    program = compile_expression(expr, constraints.num_dims)
    start = interior_start(expr, constraints)
    blocks = build_constraint_blocks(program, constraints)
    if program.num_aux == 0:
        # Pure-compute workload: any feasible point is optimal, and zero
        # multipliers certify it (the dual bound is the constant).
        return SolverResult(
            bandwidths=tuple(float(b) for b in start),
            objective=program.objective_const,
            success=True,
            message="bandwidth-independent objective",
            starts=1,
            gap=0.0,
            multipliers=(0.0,) * blocks.num_rows,
        )
    scaled = start / _SCALE
    try:
        run = interior_point(
            blocks,
            np.concatenate([scaled, program.initial_aux(scaled, START_AUX_MARGIN)]),
            lambda x: program.tight_objective(x[: program.num_dims]),
        )
    except ValueError as exc:
        raise OptimizationError(
            f"no strictly feasible start for the constraint set: {exc}"
        ) from exc
    bandwidths = np.maximum(run.x[: program.num_dims] * _SCALE, 0.0)
    if not constraints.is_feasible(bandwidths, FEASIBILITY_TOLERANCE):
        raise OptimizationError(
            f"the interior-point run ended infeasible ({run.status})"
        )
    return SolverResult(
        bandwidths=tuple(float(b) for b in bandwidths),
        objective=vector_evaluator(simplify(expr))(bandwidths),
        success=run.gap <= CERTIFIED_GAP,
        message=(
            f"interior point: {run.status} after {run.iterations} "
            f"iterations, gap {run.gap:.1e}"
        ),
        starts=1,
        gap=run.gap,
        multipliers=tuple(run.multipliers.tolist()),
    )


@_observed_solve("perf")
def _perf_seed(
    expr: Expr,
    constraints: ConstraintSet,
    blocks: ConstraintBlocks | None,
    should_stop: Callable[[], bool] | None,
) -> SolverResult:
    """PerfPerCostOptBW's inner PerfOpt solve: two SLSQP starts, best kept.

    PerfPerCost seeds its multi-start with this point, so it stays the
    SLSQP solve PerfPerCost was tuned with (an interior-point seed moves
    PerfPerCost answers both ways). It goes once PerfPerCost has a
    certified solver of its own.
    """
    _checkpoint(should_stop, "before the first start")
    program = compile_expression(expr, constraints.num_dims)
    if program.num_aux == 0:
        point = build_seeds(expr, constraints)[0]
        return SolverResult(
            bandwidths=tuple(float(b) for b in point),
            objective=program.objective_const,
            success=True,
            message="bandwidth-independent objective",
            starts=1,
        )
    gradient = np.concatenate([np.zeros(program.num_dims), program.objective_weights])
    num_dims = program.num_dims
    objective_const = program.objective_const
    objective_weights = program.objective_weights

    def objective(x: np.ndarray) -> float:
        return objective_const + objective_weights @ x[num_dims:]

    def objective_grad(x: np.ndarray) -> np.ndarray:
        return gradient

    seeds = build_seeds(expr, constraints)[:DEFAULT_PERF_WARM_STARTS]
    candidates = []
    for index, seed in enumerate(seeds):
        _checkpoint(should_stop, f"before start {index + 1} of {len(seeds)}")
        candidates.append(
            _solve_from_seed(
                program, blocks, objective, objective_grad, seed
            )
        )
    # The seeds themselves are feasible fallbacks (aux tight = true value).
    candidates.extend(_seed_fallbacks(program, seeds, program.objective_value))
    return _finish(
        program, constraints, vector_evaluator(simplify(expr)), candidates,
        len(seeds),
    )


@_observed_solve("ppc")
def minimize_time_cost_product(
    expr: Expr,
    constraints: ConstraintSet,
    cost_rates: Sequence[float],
    max_starts: int | None = None,
    warm_start: Sequence[float] | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> SolverResult:
    """PerfPerCostOptBW: minimize time × dollar-cost (bilinear objective).

    Args:
        expr: Training-time expression.
        constraints: Designer constraint set.
        cost_rates: ``$ per (byte/s)`` per dimension — network-cost slope,
            *already multiplied by the NPU count* (see
            :func:`repro.cost.estimator.cost_rates`).
        max_starts: Cap on the multi-start seed family (the PerfOpt warm
            start is appended on top); ``None`` keeps every seed.
        warm_start: Prior optimum (bytes/s) used as a continuation seed;
            a trusted warm run skips both the seed fan-out *and* the inner
            PerfOpt warm-start solve. ``None`` is the cold path (default).
        should_stop: Cooperative cancellation predicate, polled between
            multi-start seeds (including the inner PerfOpt solve's); a
            true return raises :class:`JobCancelled`.
    """
    _checkpoint(should_stop, "before the first start")
    program = compile_expression(expr, constraints.num_dims)
    rates = np.asarray(cost_rates, dtype=float)
    if rates.shape != (constraints.num_dims,):
        raise OptimizationError(
            f"expected {constraints.num_dims} cost rates, got {rates.shape}"
        )
    rates_scaled = rates * _SCALE  # $ per GB/s

    blocks: ConstraintBlocks | None = None
    if program.num_aux > 0:
        blocks = build_constraint_blocks(program, constraints)

    time_evaluator = vector_evaluator(simplify(expr))

    def evaluate_true(bandwidths: np.ndarray) -> float:
        return time_evaluator(bandwidths) * float(rates @ bandwidths)

    seeds = build_seeds(expr, constraints, cost_rates=rates)
    if max_starts is not None:
        seeds = seeds[: max(1, max_starts)]

    # Normalize the product objective to O(1): raw time×dollar values reach
    # 1e7+, which defeats SLSQP's convergence tests and line search.
    scale = max(evaluate_true(seeds[0]), 1e-30)

    num_dims = program.num_dims
    objective_const = program.objective_const
    objective_weights = program.objective_weights

    def objective(x: np.ndarray) -> float:
        return (
            (objective_const + objective_weights @ x[num_dims:])
            * (rates_scaled @ x[:num_dims])
            / scale
        )

    # One reusable gradient buffer: SLSQP consumes the values before the
    # next gradient evaluation, so in-place rewrites are safe and avoid a
    # per-iteration allocation.
    gradient_buffer = np.zeros(num_dims + program.num_aux)

    def objective_grad(x: np.ndarray) -> np.ndarray:
        time_value = objective_const + objective_weights @ x[num_dims:]
        cost_value = rates_scaled @ x[:num_dims]
        gradient_buffer[:num_dims] = time_value * rates_scaled / scale
        gradient_buffer[num_dims:] = cost_value * objective_weights / scale
        return gradient_buffer

    # Continuation: a trusted warm run skips the whole fan-out below —
    # including the inner PerfOpt solve, the dominant cost of a cold
    # PerfPerCost call. A distrusted warm run joins the candidate pool.
    warm_tag = ""
    warm_candidates: list[tuple[np.ndarray, float, bool, str]] = []
    if warm_start is not None and program.num_aux > 0:
        warm_seed = project_warm_start(warm_start, constraints)
        if warm_seed is None:
            warm_tag = "rejected:unprojectable"
        else:
            candidate, reason = _try_warm(
                program, constraints, objective, objective_grad,
                evaluate_true, warm_seed, seeds, blocks,
            )
            if not reason:
                # The projected warm seed is the continuation anchor and
                # joins the fallback pool: the returned point can never be
                # worse than the prior optimum reshaped onto this budget.
                result = _finish(
                    program, constraints, evaluate_true,
                    [candidate] + _seed_fallbacks(
                        program, seeds + [warm_seed], objective
                    ),
                    starts=1,
                )
                return replace(result, warm_start="accepted")
            warm_tag = f"rejected:{reason}"
            # Pool the warm run instead of re-seeding: _solve_from_seed is
            # deterministic, so re-running from warm_seed would just pay
            # the dominant per-cell cost twice for the identical result.
            warm_candidates = [candidate]

    # Seed from the PerfOpt solution: the time-cost product is bilinear,
    # and the pure-performance optimum is both a strong basin and a
    # guarantee that PerfPerCostOpt never reports a worse perf-per-cost
    # than PerfOpt (its evaluation joins the candidate pool below). The
    # compiled program and constraint blocks are shared with that inner
    # solve, so it never recompiles anything.
    try:
        perf_result = _perf_seed(expr, constraints, blocks, should_stop)
        seeds.append(np.asarray(perf_result.bandwidths, dtype=float))
    except OptimizationError:
        pass
    if program.num_aux == 0:
        # Compute-bound: minimizing cost alone is optimal — push bandwidth to
        # the cheapest feasible corner via the linear cost objective.
        candidates = []
        for seed in seeds:
            x = seed / _SCALE
            candidates.append((x, evaluate_true(seed), True, "cost-only"))
        result = _finish(
            program, constraints, evaluate_true, candidates, len(seeds)
        )
        if warm_start is not None:
            return replace(result, warm_start="rejected:bandwidth-independent")
        return result

    candidates = list(warm_candidates)
    for index, seed in enumerate(seeds):
        _checkpoint(should_stop, f"before start {index + 1} of {len(seeds)}")
        candidates.append(
            _solve_from_seed(
                program, blocks, objective, objective_grad, seed
            )
        )
    candidates.extend(_seed_fallbacks(program, seeds, objective))
    result = _finish(
        program, constraints, evaluate_true, candidates,
        len(seeds) + len(warm_candidates),
    )
    return replace(result, warm_start=warm_tag) if warm_tag else result
