"""The solver's optimality oracle.

:func:`audit_solution` checks an answer of either scheme against
:func:`dual_bound`, the closed-form Lagrange dual of the program the
solver ran, at the multipliers it returned: any multipliers give a valid
lower bound on the optimum, so a small primal − dual gap proves the answer
optimal. The oracle shares no code with the kernel that produced the
multipliers, and re-evaluates the objective on the expression tree rather
than the solver's flat evaluator. The marginal values of bandwidth at a
point — which dimension binds, where the next GB/s helps — live in
:mod:`repro.analysis.structure`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.constraints import FEASIBILITY_TOLERANCE, ConstraintSet
from repro.core.kernel import CERTIFIED_GAP, ConstraintBlocks
from repro.core.solver import (
    SolverResult,
    build_constraint_blocks,
    compile_expression,
    perspective_program,
)
from repro.training.expr import Expr
from repro.utils.errors import ConfigurationError

#: Relative slack :func:`audit_solution` allows between a reported
#: objective and the same value re-evaluated on the expression tree (the
#: solver evaluates through the flat vector evaluator; only the summation
#: order differs).
REEVALUATION_RTOL = 1e-12


def _validated_point(bandwidths: Sequence[float]) -> np.ndarray:
    point = np.asarray(bandwidths, dtype=float)
    if point.ndim != 1 or point.size == 0:
        raise ConfigurationError("bandwidths must be a non-empty vector")
    if np.any(point <= 0):
        raise ConfigurationError(f"bandwidths must be positive, got {point}")
    return point


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
) -> list[str]:
    """The solver's optimality oracle: checks that need no second solver.

    Both schemes are convex programs after compilation (PerfPerCostOptBW
    through its perspective change of variables), so a correct solve pins
    the objective and its optimality, not the argmin (which is not unique
    on a flat face). The tests and ``repro bench`` both gate on:

    * the point is feasible at :data:`~repro.core.constraints.
      FEASIBILITY_TOLERANCE`;
    * ``result.objective`` equals direct re-evaluation at the point
      (relative :data:`REEVALUATION_RTOL`) — step time, or step time ×
      ``cost_rates · B`` for PerfPerCostOptBW;
    * the re-evaluated objective is within
      :data:`~repro.core.kernel.CERTIFIED_GAP` (relative) of
      :func:`dual_bound` at ``result.multipliers``, which proves it
      optimal to that tolerance. The bound is taken over the program the
      solver ran: :func:`~repro.core.solver.build_constraint_blocks` for
      PerfOptBW; for PerfPerCostOptBW the perspective program
      (:func:`~repro.core.solver.perspective_program`), whose bound on
      ``T'`` times its cost scale ``G`` bounds time × cost.

    Args:
        expression: Symbolic step time the point was solved for.
        constraints: The designer constraint set it was solved under.
        result: The solver's answer.
        cost_rates: ``$ per (byte/s)`` per dimension for a
            PerfPerCostOptBW answer; ``None`` audits a PerfOptBW answer.

    Returns:
        One message per failed check; an empty list passes.
    """
    point = _validated_point(result.bandwidths)
    direct = float(expression.evaluate(point))
    if cost_rates is not None:
        direct *= float(np.asarray(cost_rates, dtype=float) @ point)
    faults = [
        f"infeasible: {message}"
        for message in constraints.violations(point, FEASIBILITY_TOLERANCE)
    ]
    if abs(result.objective - direct) > REEVALUATION_RTOL * abs(direct):
        faults.append(
            f"reported objective {result.objective!r} differs from its "
            f"re-evaluation {direct!r}"
        )
    if not result.multipliers:
        faults.append("not certified: the result carries no multipliers")
        return faults
    if cost_rates is None:
        program = compile_expression(expression, constraints.num_dims)
        blocks, scale = build_constraint_blocks(program, constraints), 1.0
    else:
        perspective = perspective_program(expression, constraints, cost_rates)
        blocks, scale = perspective.blocks, perspective.scale
    bound = scale * dual_bound(blocks, result.multipliers)
    if direct - bound > CERTIFIED_GAP * abs(direct):
        faults.append(
            f"not certified: objective {direct!r} is "
            f"{(direct - bound) / abs(direct):.3e} above its dual bound "
            f"{bound!r}"
        )
    return faults
