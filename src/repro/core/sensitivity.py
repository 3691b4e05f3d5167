"""Bandwidth sensitivity analysis and the solver's optimality oracle.

Once LIBRA proposes an allocation, a designer's next question is *where the
next GB/s should go* — which dimension's bandwidth is the binding resource,
and how flat the optimum is. This module differentiates the symbolic
training-time expression numerically and turns the result into a marginal-
value report:

* ``dT/dB_i`` — seconds saved per extra byte/s on dimension *i* (≤ 0);
* the *binding set* — dimensions whose marginal value is within tolerance
  of the best;
* transfer gradients — the benefit of moving budget from one dimension to
  another at fixed total, exposing constraint pressure.

The objective has a kink at a water-filling optimum (several dimensions
co-bottleneck a ``max``), where the two one-sided slopes genuinely differ:
shrinking a loaded dimension costs ``~T/B_i`` while growing it buys
nothing. ``mode="central"`` (the historical default) averages the two and
reports half-slopes — fine for ranking *off-optimum* points, misleading at
the kink itself. ``mode="backward"`` measures the loss from *taking
bandwidth away* (what "binding" means at an optimum) and ``mode="forward"``
the gain from adding it; :func:`one_sided_gap` exposes the difference as a
per-dimension kink detector. :func:`certify_optimum` probes budget-
preserving transfers by direct re-evaluation (the bottleneck-structure
report reads it); it is a local probe and passes points that are not
optimal.

:func:`audit_solution` is the solver's optimality oracle. A PerfOptBW
answer is checked against :func:`dual_bound`, the closed-form Lagrange
dual of the epigraph program at the multipliers the solver returned: any
multipliers give a valid lower bound on the optimum, so a small
primal − dual gap proves the answer optimal.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.constraints import FEASIBILITY_TOLERANCE, ConstraintSet
from repro.core.kernel import CERTIFIED_GAP, ConstraintBlocks
from repro.core.solver import (
    SolverResult,
    build_constraint_blocks,
    compile_expression,
)
from repro.training.expr import Expr
from repro.utils.errors import ConfigurationError

#: Finite-difference modes accepted by :func:`bandwidth_sensitivity`.
SENSITIVITY_MODES = ("central", "forward", "backward")

#: Relative slack :func:`audit_solution` allows between a reported
#: objective and the same value re-evaluated on the expression tree (the
#: solver evaluates through the flat vector evaluator; only the summation
#: order differs).
REEVALUATION_RTOL = 1e-12


@dataclass(frozen=True)
class SensitivityReport:
    """Marginal values of bandwidth at one design point.

    Every field is a plain Python float — the payload round-trips through
    ``json.dumps`` with no custom encoder.

    Attributes:
        bandwidths: The evaluated point, bytes/s.
        step_time: Training-step seconds at the point.
        marginals: ``dT/dB_i`` in seconds per (byte/s); non-positive.
        mode: Finite-difference mode the marginals were computed with.
    """

    bandwidths: tuple[float, ...]
    step_time: float
    marginals: tuple[float, ...]
    mode: str = "central"

    @property
    def most_valuable_dim(self) -> int:
        """Dimension where an extra unit of bandwidth helps most."""
        return int(np.argmin(self.marginals))  # most negative

    def binding_dims(self, tolerance: float = 0.05) -> tuple[int, ...]:
        """Dimensions whose marginal value is within ``tolerance`` (relative)
        of the best. A singleton means one dimension bottlenecks the step;
        at a clean water-filling optimum every loaded dimension appears
        (use ``mode="backward"`` there — see the module docstring)."""
        best = min(self.marginals)
        if best >= 0.0:
            return ()
        return tuple(
            dim
            for dim, value in enumerate(self.marginals)
            if value <= best * (1 - tolerance)
        )

    def transfer_gradient(self, source: int, target: int) -> float:
        """Seconds saved per byte/s moved from ``source`` to ``target``.

        Positive = the move helps. Zero across all pairs characterizes an
        interior optimum of the budget-constrained problem.
        """
        num = len(self.marginals)
        if not (0 <= source < num and 0 <= target < num):
            raise ConfigurationError(f"dimension out of range: {source}, {target}")
        return self.marginals[source] - self.marginals[target]

    def seconds_per_extra_gbps(self) -> tuple[float, ...]:
        """Marginals rescaled to seconds saved per extra GB/s (≥ 0)."""
        return tuple(-value * 1e9 for value in self.marginals)

    def to_dict(self) -> dict:
        """A ``json.dumps``-able payload (plain floats throughout)."""
        return {
            "bandwidths": list(self.bandwidths),
            "step_time": self.step_time,
            "marginals": list(self.marginals),
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> SensitivityReport:
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"sensitivity payload must be a mapping, got {type(payload).__name__}"
            )
        try:
            return cls(
                bandwidths=tuple(float(v) for v in payload["bandwidths"]),
                step_time=float(payload["step_time"]),
                marginals=tuple(float(v) for v in payload["marginals"]),
                mode=str(payload.get("mode", "central")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad sensitivity payload: {exc}") from exc


@dataclass(frozen=True)
class OptimalityCertificate:
    """Result of certifying a point by direct re-evaluation.

    Attributes:
        step_time: Step seconds at the certified point.
        relative_delta: Transfer size as a fraction of the smallest
            bandwidth at the point.
        tolerance: Relative improvement below which a move counts as noise.
        best_gain: Largest relative step-time *reduction* any probed
            budget-preserving transfer achieved (≥ 0; ≤ ``tolerance``
            iff the point certifies).
        best_move: ``(source, target)`` of the most improving transfer,
            or ``None`` when nothing helped at all.
        certified: True when no transfer beats the tolerance.
    """

    step_time: float
    relative_delta: float
    tolerance: float
    best_gain: float
    best_move: tuple[int, int] | None
    certified: bool

    def to_dict(self) -> dict:
        return {
            "step_time": self.step_time,
            "relative_delta": self.relative_delta,
            "tolerance": self.tolerance,
            "best_gain": self.best_gain,
            "best_move": list(self.best_move) if self.best_move else None,
            "certified": self.certified,
        }


def _validated_point(bandwidths: Sequence[float]) -> np.ndarray:
    point = np.asarray(bandwidths, dtype=float)
    if point.ndim != 1 or point.size == 0:
        raise ConfigurationError("bandwidths must be a non-empty vector")
    if np.any(point <= 0):
        raise ConfigurationError(f"bandwidths must be positive, got {point}")
    return point


def bandwidth_sensitivity(
    expression: Expr,
    bandwidths: Sequence[float],
    relative_step: float = 1e-4,
    mode: str = "central",
) -> SensitivityReport:
    """Finite-difference sensitivity of a time expression at a point.

    Args:
        expression: Symbolic step time (from the estimator or pipeline
            model).
        bandwidths: Evaluation point, bytes/s; all entries must be positive.
        relative_step: Finite-difference step as a fraction of each
            bandwidth.
        mode: ``"central"`` (default), ``"forward"`` (slope of adding
            bandwidth), or ``"backward"`` (slope of removing it). At a
            water-filling kink the one-sided modes are exact where central
            reports half-slopes.
    """
    point = _validated_point(bandwidths)
    if not 0 < relative_step < 0.5:
        raise ConfigurationError(f"relative_step must be in (0, 0.5), got {relative_step}")
    if mode not in SENSITIVITY_MODES:
        raise ConfigurationError(
            f"mode must be one of {SENSITIVITY_MODES}, got {mode!r}"
        )

    base_time = float(expression.evaluate(point))
    marginals = []
    for dim in range(point.size):
        step = point[dim] * relative_step
        upper = point.copy()
        lower = point.copy()
        upper[dim] += step
        lower[dim] -= step
        if mode == "forward":
            slope = (float(expression.evaluate(upper)) - base_time) / step
        elif mode == "backward":
            slope = (base_time - float(expression.evaluate(lower))) / step
        else:
            slope = (
                float(expression.evaluate(upper)) - float(expression.evaluate(lower))
            ) / (2 * step)
        marginals.append(float(slope))
    return SensitivityReport(
        bandwidths=tuple(float(value) for value in point),
        step_time=base_time,
        marginals=tuple(marginals),
        mode=mode,
    )


def one_sided_gap(
    expression: Expr,
    bandwidths: Sequence[float],
    relative_step: float = 1e-4,
) -> tuple[float, ...]:
    """Per-dimension ``forward − backward`` slope gap (≥ 0 up to noise).

    Zero where the objective is smooth; ``~T/B_i`` where dimension *i*
    sits on a water-filling kink (the backward slope is steeply negative
    there while the forward slope vanishes) — a direct kink detector.
    """
    forward = bandwidth_sensitivity(
        expression, bandwidths, relative_step, mode="forward"
    )
    backward = bandwidth_sensitivity(
        expression, bandwidths, relative_step, mode="backward"
    )
    return tuple(
        float(f - b) for f, b in zip(forward.marginals, backward.marginals)
    )


def certify_optimum(
    expression: Expr,
    bandwidths: Sequence[float],
    relative_delta: float = 0.01,
    tolerance: float = 1e-6,
    constraints: ConstraintSet | None = None,
) -> OptimalityCertificate:
    """Certify a budget-constrained optimum by direct re-evaluation.

    Probes every ordered pair ``(source, target)`` with a budget-preserving
    transfer of ``relative_delta × min(bandwidths)`` and reports the best
    relative improvement found. This is the statement the optimality tests
    make and the one that stays correct at water-filling kinks, where
    derivative-based checks mis-rank.

    Args:
        expression: Symbolic step time.
        bandwidths: Candidate optimum, bytes/s; all entries positive.
        relative_delta: Transfer size as a fraction of the smallest
            bandwidth (keeps every probe strictly positive).
        tolerance: Relative improvement below which the point certifies.
        constraints: The designer constraint set the point was solved
            under. Probes it rejects at :data:`~repro.core.constraints.
            FEASIBILITY_TOLERANCE` (the solver's own acceptance tolerance)
            are skipped: a transfer into a capped dimension or across an
            active ordering row is no available improvement.
    """
    point = _validated_point(bandwidths)
    if not 0 < relative_delta < 1:
        raise ConfigurationError(
            f"relative_delta must be in (0, 1), got {relative_delta}"
        )
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    base = float(expression.evaluate(point))
    delta = float(point.min()) * relative_delta
    best_gain = 0.0
    best_move: tuple[int, int] | None = None
    for source in range(point.size):
        for target in range(point.size):
            if source == target:
                continue
            moved = point.copy()
            moved[source] -= delta
            moved[target] += delta
            if constraints is not None and not constraints.is_feasible(
                moved, FEASIBILITY_TOLERANCE
            ):
                continue
            time = float(expression.evaluate(moved))
            gain = (base - time) / base if base > 0 else 0.0
            if gain > best_gain:
                best_gain = gain
                best_move = (source, target)
    return OptimalityCertificate(
        step_time=base,
        relative_delta=relative_delta,
        tolerance=tolerance,
        best_gain=best_gain,
        best_move=best_move,
        certified=best_gain <= tolerance,
    )


def dual_bound(blocks: ConstraintBlocks, multipliers: Sequence[float]) -> float:
    """Lagrange dual lower bound on the epigraph program of ``blocks``.

    Reads only the blocks (their rows and the epigraph objective) and one
    multiplier per block row, in block row order: ``ν`` for the equality
    rows ``A_eq·x = b_eq``, ``μ ≥ 0`` for the linear rows ``A_in·x ≥ b_in``
    and ``λ ≥ 0`` for the comm rows ``aux − coeff/B ≥ 0`` (negative ``μ``
    and ``λ`` count as zero). The Lagrangian separates per variable:

    * an aux variable (box ``[0, ∞)``) adds nothing when its reduced cost
      is ≥ 0, and ``-inf`` otherwise. Aux columns are visited parents
      first (a max row's own aux is its first aux column); when one
      would go negative, the multipliers of the rows it owns — its max
      rows or its comm rows — are scaled down until it is zero;
    * a bandwidth ``B_d`` adds ``min r_d·B + α_d/B`` over its box, where
      ``r_d`` is its reduced cost and ``α_d = Σ λ·coeff`` over its comm
      rows.

    Any multipliers give a valid bound, so the bound never exceeds the
    optimum, and it reaches it at the optimal multipliers.
    """
    values = np.asarray(multipliers, dtype=float)
    num_eq, num_lin = blocks.num_eq, len(blocks.b_in)
    if values.shape != (blocks.num_rows,):
        raise ConfigurationError(
            f"expected {blocks.num_rows} multipliers, got {values.shape}"
        )
    nu = values[:num_eq]
    mu = np.maximum(values[num_eq:num_eq + num_lin], 0.0)
    lam = np.maximum(values[num_eq + num_lin:], 0.0)
    num_dims = blocks.num_dims
    for column in range(num_dims, blocks.num_vars):
        owned = [
            row for row in range(num_lin)
            if blocks.a_in[row, column] > 0
            and not np.any(blocks.a_in[row, num_dims:column])
        ]
        comm = blocks.comm_aux == column
        reduced = (
            blocks.cost[column]
            - nu @ blocks.a_eq[:, column]
            - mu @ blocks.a_in[:, column]
            - lam[comm].sum()
        )
        if reduced >= 0:
            continue
        supply = mu[owned] @ blocks.a_in[owned, column] + lam[comm].sum()
        if reduced + supply < 0:
            return -np.inf  # no scaling of its own rows repairs it
        keep = (reduced + supply) / supply
        mu[owned] *= keep
        lam[comm] *= keep
    bound = blocks.cost_const + nu @ blocks.b_eq + mu @ blocks.b_in
    rates = blocks.cost[:num_dims] - nu @ blocks.a_eq[:, :num_dims] - (
        mu @ blocks.a_in[:, :num_dims]
    )
    for dim in range(num_dims):
        rate = float(rates[dim])
        alpha = float(lam[blocks.comm_dim == dim] @ blocks.comm_coeff[
            blocks.comm_dim == dim
        ])
        low, high = float(blocks.lower[dim]), float(blocks.upper[dim])
        if rate <= 0:
            if np.isinf(high):
                if rate < 0:
                    return -np.inf
                continue  # 0·B + α/B tends to 0
            point = high
        else:
            point = min(max(np.sqrt(alpha / rate), low), high)
        bound += rate * point + alpha / point
    return float(bound)


def audit_solution(
    expression: Expr,
    constraints: ConstraintSet,
    result: SolverResult,
    cost_rates: Sequence[float] | None = None,
    perf_bandwidths: Sequence[float] | None = None,
) -> list[str]:
    """The solver's optimality oracle: checks that need no second solver.

    PerfOptBW is convex and PerfPerCostOptBW bilinear, so a correct solve
    pins the objective and its optimality, not the argmin (which is not
    unique on a flat face). The tests and ``repro bench`` both gate on:

    * the point is feasible at :data:`~repro.core.constraints.
      FEASIBILITY_TOLERANCE`;
    * ``result.objective`` equals direct re-evaluation at the point
      (relative :data:`REEVALUATION_RTOL`) — step time, or step time ×
      ``cost_rates · B`` for PerfPerCostOptBW;
    * PerfOptBW (no ``cost_rates``): the re-evaluated objective is within
      :data:`~repro.core.kernel.CERTIFIED_GAP` (relative) of
      :func:`dual_bound` at ``result.multipliers``, which proves it
      optimal to that tolerance;
    * PerfPerCostOptBW: the product is no worse than at the EqualBW split
      (when it is feasible) and, when given, at ``perf_bandwidths`` — the
      PerfOptBW answer of the same problem.

    Args:
        expression: Symbolic step time the point was solved for.
        constraints: The designer constraint set it was solved under.
        result: The solver's answer.
        cost_rates: ``$ per (byte/s)`` per dimension for a
            PerfPerCostOptBW answer; ``None`` audits a PerfOptBW answer.
        perf_bandwidths: PerfOptBW answer to compare a PerfPerCostOptBW
            answer against, bytes/s.

    Returns:
        One message per failed check; an empty list passes.
    """
    point = _validated_point(result.bandwidths)
    rates = None if cost_rates is None else np.asarray(cost_rates, dtype=float)

    def value_at(bandwidths: np.ndarray) -> float:
        step_time = float(expression.evaluate(bandwidths))
        return step_time if rates is None else step_time * float(rates @ bandwidths)

    faults = [
        f"infeasible: {message}"
        for message in constraints.violations(point, FEASIBILITY_TOLERANCE)
    ]
    direct = value_at(point)
    if abs(result.objective - direct) > REEVALUATION_RTOL * abs(direct):
        faults.append(
            f"reported objective {result.objective!r} differs from its "
            f"re-evaluation {direct!r}"
        )
    if rates is None:
        if not result.multipliers:
            faults.append("not certified: the result carries no multipliers")
            return faults
        program = compile_expression(expression, constraints.num_dims)
        bound = dual_bound(
            build_constraint_blocks(program, constraints), result.multipliers
        )
        if direct - bound > CERTIFIED_GAP * abs(direct):
            faults.append(
                f"not certified: objective {direct!r} is "
                f"{(direct - bound) / abs(direct):.3e} above its dual bound "
                f"{bound!r}"
            )
        return faults
    references = {}
    if constraints.total_bandwidth is not None:
        equal = constraints.equal_split()
        if constraints.is_feasible(equal, FEASIBILITY_TOLERANCE):
            references["the EqualBW split"] = equal
    if perf_bandwidths is not None:
        references["the PerfOptBW point"] = np.asarray(perf_bandwidths, dtype=float)
    for name, reference in references.items():
        bound = value_at(reference)
        if direct > bound * (1.0 + REEVALUATION_RTOL):
            faults.append(
                f"time x cost {direct!r} is worse than {bound!r} at {name}"
            )
    return faults
