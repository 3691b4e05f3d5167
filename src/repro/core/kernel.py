"""The solver's kernel: a primal–dual interior-point method over
matrix-form constraint blocks.

A compiled epigraph program (:mod:`repro.core.solver`) becomes three
stacked blocks plus a linear objective, built once per solve:

* **equality block** — equality rows as ``A_eq · x = b_eq``;
* **linear inequality block** — inequality rows *and* every max-epigraph
  row ``u ≥ const + Σ w·aux`` stacked into ``A_in · x ≥ b_in`` (the max
  rows are sparse: one ``+1`` and a few ``-w`` entries in the aux columns);
* **comm block** — the hyperbolic rows ``aux ≥ coeff / B[dim]`` as gathered
  index/coefficient arrays.

Both schemes are such programs: PerfOptBW directly, PerfPerCostOptBW after
a perspective change of variables (:func:`repro.core.solver.
perspective_program`). :func:`interior_point` solves one in one run from
one strictly feasible start. It writes each comm row in log form,
``ln aux + ln B − ln coeff ≥ 0``, which is concave and O(1)-scaled
whatever the aux magnitude; linear rows and finite box sides are
inequality rows that stay exactly feasible; the equality rows sit in the
Newton KKT system. Steps are Mehrotra predictor–corrector steps. Every run
returns its multipliers and a certified gap: the best closed-form Lagrange
dual bound over its iterates, against the objective at the returned
point. :func:`repro.core.sensitivity.dual_bound` re-derives that bound
from the blocks and the multipliers alone, as the auditor.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf as getrf
from scipy.linalg.lapack import dgetrs as getrs

# Placeholder for the lookup site e2ebench/layers.py still wraps (line 166,
# the compiled SLSQP core); nothing calls it since SLSQP was removed.
_slsqp_core = None


@dataclass
class ConstraintBlocks:
    """Stacked matrix form of one compiled program + designer constraint set.

    Variables are ``x = [B_scaled (num_dims), aux (num_aux)]``. Row order is
    equalities, then linear inequalities (designer rows followed by max
    rows), then comm rows, assembled once and evaluated vectorized. The
    epigraph objective is ``cost_const + cost · x``.
    """

    num_vars: int
    a_eq: np.ndarray  # (num_eq, num_vars)
    b_eq: np.ndarray  # (num_eq,)
    a_in: np.ndarray  # (num_lin, num_vars) — rows satisfy a_in · x >= b_in
    b_in: np.ndarray  # (num_lin,)
    comm_aux: np.ndarray  # (num_comm,) variable index of each row's aux
    comm_dim: np.ndarray  # (num_comm,) variable index of each row's bandwidth
    comm_coeff: np.ndarray  # (num_comm,) scaled traffic coefficients
    lower: np.ndarray  # (num_vars,) box lower bounds (np.inf never)
    upper: np.ndarray  # (num_vars,) box upper bounds (np.inf = open)
    num_dims: int  # leading bandwidth variables; the rest are aux
    cost: np.ndarray  # (num_vars,) epigraph objective weights
    cost_const: float  # epigraph objective constant

    @property
    def num_eq(self) -> int:
        return len(self.b_eq)

    @property
    def num_rows(self) -> int:
        return len(self.b_eq) + len(self.b_in) + len(self.comm_aux)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Every row's value at ``x``, in block row order: ``A_eq·x − b_eq``,
        ``A_in·x − b_in``, then ``aux − coeff/B`` per comm row."""
        return np.concatenate([
            self.a_eq @ x - self.b_eq,
            self.a_in @ x - self.b_in,
            x[self.comm_aux] - self.comm_coeff / x[self.comm_dim],
        ])


# ---------------------------------------------------------------------------
# Interior point
# ---------------------------------------------------------------------------

#: Fraction of the distance to the boundary one interior-point step takes.
STEP_FRACTION = 0.995

#: Relative certified gap at which a run stops.
INTERIOR_RTOL = 1e-11

#: Iteration cap of one run (the figure and tier-1 grids need at most 17,
#: the seeded PerfPerCost fuzz of ``tests/core`` at most 63).
INTERIOR_MAX_ITER = 100

#: Relative primal–dual gap up to which an answer of either scheme counts
#: as certified optimal; :func:`repro.core.sensitivity.audit_solution` checks
#: the same bound.
CERTIFIED_GAP = 1e-6

#: Largest share of a comm-row variable (an aux or a bandwidth) one primal
#: step may remove: the log form's linearization is trusted no further.
#: Without it, a start far from the optimum (the max-slack LP point) can
#: send a bandwidth down by 100× in one step and the run never recovers.
LOG_STEP_SHRINK = 0.5

#: Smallest centring share of the interior gap while the Lagrangian's
#: stationarity residual is larger than the gap.
MIN_CENTRING = 0.1

#: Relative interior gap below which every iterate is certified.
_CERTIFY_BELOW = 1e-8

#: Step length below which a run counts as stalled on round-off.
_STALL_STEP = 1e-8

#: Floor of a step-length denominator (keeps the ratio test vectorized).
_STEP_FLOOR = 1e-200


@dataclass(frozen=True)
class InteriorResult:
    """Outcome of one :func:`interior_point` run.

    Attributes:
        x: The certified iterate with the lowest ``primal`` value (the last
            iterate when none was certified).
        multipliers: Lagrange multipliers in block row order (equalities,
            linear inequalities, comm rows) for rows written as
            ``A_eq·x = b_eq``, ``A_in·x ≥ b_in`` and ``aux − coeff/B ≥ 0``:
            the ones that gave the best Lagrange dual bound over the
            certified iterates.
        gap: ``(primal(x) − bound) / |primal(x)|``, the certified gap
            (``inf`` when no iterate gave a finite bound).
        iterations: Newton steps taken.
        status: ``"certified"`` (gap test), ``"singular"`` (the Newton system
            could not be solved), ``"stalled"`` (its steps shrank to
            nothing) or ``"iteration limit"``.
    """

    x: np.ndarray
    multipliers: np.ndarray
    gap: float
    iterations: int
    status: str


def interior_point(
    blocks: ConstraintBlocks,
    x0: np.ndarray,
    primal: Callable[[np.ndarray], float],
) -> InteriorResult:
    """Minimize ``blocks.cost_const + blocks.cost · x`` over the blocks.

    Args:
        blocks: The program. Every comm row's aux and bandwidth variable
            needs a positive finite lower box side, which keeps its log
            form defined along the run.
        x0: A strictly feasible start: positive slack on every linear
            inequality row, finite box side and comm row; equality rows
            hold.
        primal: The objective of a feasible point with ``x``'s bandwidths
            (aux raised to tight), so a valid upper bound on the optimum.

    Every iterate whose interior gap ``s·z`` is below ``_CERTIFY_BELOW``
    of the objective is certified, and the run stops when the certified
    gap is at most :data:`INTERIOR_RTOL`. It keeps the best bound and the
    best point over the certified iterates, so a run that ends on
    round-off still returns its best certified iterate.
    """
    n = blocks.num_vars
    lower, upper = blocks.lower, blocks.upper
    fixed = lower == upper
    low = np.flatnonzero(np.isfinite(lower) & ~fixed)
    high = np.flatnonzero(np.isfinite(upper) & ~fixed)
    identity = np.eye(n)
    # Rows g(x) ≥ 0 with slacks s: the linear rows g·x − h (designer and
    # max rows, then the finite box sides), then the comm rows in log form.
    # A variable fixed by its box is an equality row instead.
    g_rows = np.vstack([blocks.a_in, identity[low], -identity[high]])
    h_rows = np.concatenate([blocks.b_in, lower[low], -upper[high]])
    num_linear = len(h_rows)
    live, owners = _bound_structure(blocks)
    aux, dim = blocks.comm_aux[live], blocks.comm_dim[live]
    log_coeff = np.log(blocks.comm_coeff[live])
    num_rows = num_linear + len(live)
    comm_rows = np.arange(len(live))
    logged = np.union1d(aux, dim)  # the variables inside a log
    jacobian = np.zeros((num_rows, n))
    jacobian[:num_linear] = g_rows
    comm_jacobian = jacobian[num_linear:]  # a view: rewritten per iterate
    a_eq = np.vstack([blocks.a_eq, identity[fixed]])
    b_eq = np.concatenate([blocks.b_eq, lower[fixed]])
    kkt = np.zeros((n + len(b_eq), n + len(b_eq)))
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    rhs = np.empty(n + len(b_eq))
    diagonal = np.arange(n)
    cost, cost_const = blocks.cost, blocks.cost_const

    x = np.array(x0, dtype=float)
    slack = np.concatenate([
        g_rows @ x - h_rows,
        np.log(x[aux]) + np.log(x[dim]) - log_coeff,
    ])
    if not np.all(slack > 0):
        raise ValueError("interior_point needs a strictly feasible start")
    # Start centred: every row's s·z is the same share of the objective.
    dual = abs(cost_const + cost @ x) / num_rows / slack
    eq_dual = np.zeros(len(b_eq))
    # The linear rows' slacks move with x exactly, so only the comm rows
    # carry a residual g(x) − s.
    residual = np.zeros(num_rows)

    best_x, best_value = x, np.inf
    best_bound, best_multipliers = -np.inf, np.zeros(blocks.num_rows)

    def certify(x: np.ndarray, dual: np.ndarray, eq_dual: np.ndarray) -> bool:
        nonlocal best_x, best_value, best_bound, best_multipliers
        value = primal(x)
        if value < best_value:
            best_x, best_value = x, value
        nu = eq_dual[: blocks.num_eq]
        mu = dual[: len(blocks.b_in)]
        lam = dual[num_linear:] / x[aux]
        bound = _lagrange_bound(blocks, nu, mu, lam, live, owners)
        if bound > best_bound:
            best_bound = bound
            best_multipliers = np.zeros(blocks.num_rows)
            best_multipliers[: len(nu)] = nu
            best_multipliers[len(nu): len(nu) + len(mu)] = mu
            best_multipliers[len(nu) + len(mu) + live] = lam
        return best_value - best_bound <= INTERIOR_RTOL * abs(best_value)

    def newton(push: np.ndarray) -> tuple[np.ndarray, ...]:
        """Steps of x, the equality multipliers, the row multipliers and
        the slacks for ``push = (σμ − corrector − z·residual) / s``."""
        rhs[:n] = base + push @ jacobian
        solution, _ = getrs(lu, pivots, rhs)
        dx = solution[:n]
        moved = jacobian @ dx
        return dx, -solution[n:], push - dual - weight * moved, moved + residual

    status, iterations = "iteration limit", INTERIOR_MAX_ITER
    for iteration in range(INTERIOR_MAX_ITER + 1):
        x_aux, x_dim = x[aux], x[dim]
        comm = np.log(x_aux) + np.log(x_dim) - log_coeff
        residual[num_linear:] = comm - slack[num_linear:]
        objective = abs(cost_const + cost @ x)
        gap = slack @ dual
        if not gap >= 0.0:  # a non-finite iterate
            status, iterations = "singular", iteration
            break
        if gap <= _CERTIFY_BELOW * objective and certify(x, dual, eq_dual):
            status, iterations = "certified", iteration
            break
        if iteration == INTERIOR_MAX_ITER:
            break

        comm_jacobian[comm_rows, aux] = 1.0 / x_aux
        comm_jacobian[comm_rows, dim] = 1.0 / x_dim
        # The Lagrangian's stationarity residual, in objective units.
        stationarity = np.abs(cost - eq_dual @ a_eq - dual @ jacobian) @ np.abs(x)
        weight = dual / slack
        # Hessian of the Lagrangian: Σ z·(1/aux², 1/B²) over the comm rows.
        normal = (jacobian.T * weight) @ jacobian
        normal[diagonal, diagonal] += dual[num_linear:] @ (
            comm_jacobian * comm_jacobian
        )
        kkt[:n, :n] = normal
        lu, pivots, info = getrf(kkt)
        if info > 0:
            status, iterations = "singular", iteration
            break
        mean = gap / num_rows
        base = eq_dual @ a_eq - cost
        rhs[n:] = b_eq - a_eq @ x
        feasibility_push = -weight * residual

        # Predictor (affine scaling), then Mehrotra's corrector. The
        # predicted gap honours the primal step's log-form limit, and the
        # centring keeps at least MIN_CENTRING of the gap while the
        # stationarity residual exceeds it: a gap that falls faster than
        # the residual strands the multipliers short of a certificate.
        dx, _, d_dual, d_slack = newton(feasibility_push)
        predicted = (
            slack + min(
                _step_to_boundary(slack, d_slack),
                LOG_STEP_SHRINK * _step_to_boundary(x[logged], dx[logged]),
                1.0,
            ) * d_slack
        ) @ (dual + min(_step_to_boundary(dual, d_dual), 1.0) * d_dual)
        centring = (predicted / num_rows / mean) ** 3 * mean
        if stationarity > gap:
            centring = max(centring, MIN_CENTRING * mean)
        dx, d_eq_dual, d_dual, d_slack = newton(
            feasibility_push + (centring - d_slack * d_dual) / slack
        )
        primal_step = min(
            STEP_FRACTION * _step_to_boundary(slack, d_slack),
            LOG_STEP_SHRINK * _step_to_boundary(x[logged], dx[logged]),
            1.0,
        )
        dual_step = min(STEP_FRACTION * _step_to_boundary(dual, d_dual), 1.0)
        if max(primal_step, dual_step) < _STALL_STEP:
            # The Newton system has lost its accuracy to round-off: its
            # steps stall at the boundary. The best certified point stands.
            status, iterations = "stalled", iteration
            break
        x = x + primal_step * dx
        slack = slack + primal_step * d_slack
        dual = dual + dual_step * d_dual
        eq_dual = eq_dual + dual_step * d_eq_dual
    if status != "certified":
        certify(x, dual, eq_dual)
    return InteriorResult(
        x=best_x,
        multipliers=best_multipliers,
        gap=(best_value - best_bound) / abs(best_value),
        iterations=iterations,
        status=status,
    )


def _step_to_boundary(value: np.ndarray, step: np.ndarray) -> float:
    """Largest ``t ≥ 0`` with ``value + t·step ≥ 0`` (huge when unlimited)."""
    ratios = value / np.maximum(-step, _STEP_FLOOR)
    return max(float(ratios.min(initial=np.inf)), 0.0)


def _bound_structure(
    blocks: ConstraintBlocks,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The live comm rows (positive coefficient) and, per max aux, the max
    rows it owns: each max row's own aux is its first aux column (parents
    come first)."""
    live = np.flatnonzero(blocks.comm_coeff > 0)
    aux_block = blocks.a_in[:, blocks.num_dims:] != 0
    first = np.argmax(aux_block, axis=1) + blocks.num_dims
    max_rows = np.flatnonzero(aux_block.any(axis=1))
    owners = [
        (column, max_rows[first[max_rows] == column])
        for column in np.unique(first[max_rows])
    ]
    return live, owners


def _lagrange_bound(
    blocks: ConstraintBlocks,
    eq_dual: np.ndarray,
    mu: np.ndarray,
    lam: np.ndarray,
    live: np.ndarray,
    owners: list[tuple[int, np.ndarray]],
) -> float:
    """The closed-form Lagrange dual at one iterate's multipliers.

    ``lam`` holds the live comm rows' multipliers and ``owners`` lists
    each max aux with the max rows it owns, parents first. An aux whose
    reduced cost would go negative has its own rows' multipliers scaled
    down until it is zero: the max rows of a max aux, the comm rows of a
    comm aux. Every bandwidth then adds ``min r·B + α/B`` over its box.
    """
    num_dims = blocks.num_dims
    if owners:
        mu = mu.copy()
        for column, rows in owners:
            reduced = (
                blocks.cost[column] - eq_dual @ blocks.a_eq[:, column]
                - mu @ blocks.a_in[:, column]
            )
            if reduced < 0:
                supply = mu[rows] @ blocks.a_in[rows, column]
                if reduced + supply < 0:
                    return -np.inf
                mu[rows] *= (reduced + supply) / supply
    reduced = blocks.cost - eq_dual @ blocks.a_eq - mu @ blocks.a_in
    aux = blocks.comm_aux[live]
    comm_reduced = reduced[aux]
    if np.any(comm_reduced < 0):
        return -np.inf
    supply = np.bincount(aux, lam, blocks.num_vars)[aux]
    lam = lam * np.minimum(
        1.0, comm_reduced / np.maximum(supply, _STEP_FLOOR)
    )
    alpha = np.bincount(
        blocks.comm_dim[live], lam * blocks.comm_coeff[live], num_dims
    )
    rate = reduced[:num_dims]
    high = blocks.upper[:num_dims]
    # The minimizer of r·B + α/B over the box: the stationary point
    # clipped into it when r > 0, else the upper side (also for α = 0).
    best = np.where(
        rate > 0,
        np.clip(
            np.sqrt(alpha / np.where(rate > 0, rate, 1.0)),
            blocks.lower[:num_dims], high,
        ),
        high,
    )
    bound = (
        blocks.cost_const + eq_dual @ blocks.b_eq + mu @ blocks.b_in
        + float(np.sum(rate * np.where(rate != 0, best, 0.0) + alpha / best))
    )
    return bound if np.isfinite(bound) else -np.inf
