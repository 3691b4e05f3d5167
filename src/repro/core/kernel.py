"""The solver's two kernels over one set of matrix-form constraint blocks.

The epigraph program compiled by :mod:`repro.core.solver` becomes three
stacked blocks plus a linear objective, built once per solve:

* **equality block** — the designer's equality rows as ``A_eq · x = b_eq``;
* **linear inequality block** — inequality rows *and* every max-epigraph
  row ``u ≥ const + Σ w·aux`` stacked into ``A_in · x ≥ b_in`` (the max
  rows are sparse: one ``+1`` and a few ``-w`` entries in the aux columns);
* **comm block** — the hyperbolic rows ``aux ≥ coeff / B[dim]`` as gathered
  index/coefficient arrays.

Two kernels run over them:

1. :func:`interior_point`, a primal–dual interior-point method that solves
   PerfOptBW (a convex program) in one run from one interior start. It
   writes each comm row in log form, ``ln aux + ln B − ln coeff ≥ 0``,
   which is concave and O(1)-scaled whatever the aux magnitude; linear
   rows and finite box sides are inequality rows that stay exactly
   feasible; the equality rows sit in the Newton KKT system. Steps are
   Mehrotra predictor–corrector steps. Every run returns its multipliers
   and a certified gap: the best closed-form Lagrange dual bound over its
   iterates, against the objective at the returned point.
   :func:`repro.core.sensitivity.dual_bound` re-derives that bound from
   the blocks and the multipliers alone, as the auditor.
2. :func:`minimize_slsqp`, SLSQP over the same blocks, used by
   PerfPerCostOptBW's multi-start (a bilinear objective). It runs on one
   of two paths, chosen by :data:`HAS_FAST_SLSQP`: a reverse-communication
   loop around scipy's compiled SLSQP core (``scipy.optimize._slsqplib``,
   a private ABI first shipped in scipy 1.16; ``pyproject.toml`` pins the
   releases it is written against), a faithful transcription of scipy's
   ``_minimize_slsqp`` minus the per-iteration ``ScalarFunction`` /
   per-constraint dict machinery; or, when that module does not import,
   ``scipy.optimize.minimize`` over the same blocks as two vector-valued
   constraint dicts (:meth:`ConstraintBlocks.scipy_constraints`). The tests
   run the PerfPerCost oracle grid on both paths.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf as getrf
from scipy.linalg.lapack import dgetrs as getrs

try:  # scipy >= 1.16 ships the SLSQP core as a C extension with this ABI.
    from scipy.optimize._slsqplib import slsqp as _slsqp_core

    HAS_FAST_SLSQP = True
except ImportError:  # pragma: no cover - depends on installed scipy
    _slsqp_core = None
    HAS_FAST_SLSQP = False

#: SLSQP exit modes (mirrors scipy's table; mode 0 is success).
EXIT_MESSAGES = {
    -1: "Gradient evaluation required (g & a)",
    0: "Optimization terminated successfully",
    1: "Function evaluation required (f & c)",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}

#: Guard against division blow-up at B = 0.
_TINY = 1e-12


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
    _meq: int = field(init=False, repr=False)
    _nlin: int = field(init=False, repr=False)
    _comm_rows: np.ndarray = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._meq = len(self.b_eq)
        self._nlin = len(self.b_in)
        offset = self._meq + self._nlin
        self._comm_rows = offset + np.arange(len(self.comm_aux))
        # Per-call scratch for the comm block (instances are not shared
        # across threads; the solver is single-threaded per process).
        self._scratch = np.empty(len(self.comm_aux))
        # The overwhelmingly common designer set is one budget equality;
        # special-case it to scalar math in the per-iteration hot path.
        self._eq_row = self.a_eq[0] if self._meq == 1 else None
        self._eq_shift = float(self.b_eq[0]) if self._meq == 1 else 0.0

    @property
    def num_eq(self) -> int:
        return self._meq

    @property
    def num_rows(self) -> int:
        return self._meq + self._nlin + len(self.comm_aux)

    # -- fast-driver interface (in-place writes into SLSQP work arrays) ------

    def values_into(self, d: np.ndarray, x: np.ndarray) -> None:
        """Write every constraint's value at ``x`` into ``d`` (length m)."""
        meq, nlin = self._meq, self._nlin
        if self._eq_row is not None:
            d[0] = np.dot(self._eq_row, x) - self._eq_shift
        elif meq:
            d[:meq] = self.a_eq @ x - self.b_eq
        if nlin:
            d[meq:meq + nlin] = self.a_in @ x - self.b_in
        if self.comm_aux.size:
            scratch = self._scratch
            np.take(x, self.comm_dim, out=scratch)
            np.maximum(scratch, _TINY, out=scratch)
            np.divide(self.comm_coeff, scratch, out=scratch)
            np.subtract(
                np.take(x, self.comm_aux), scratch, out=d[meq + nlin:]
            )

    def init_normals(self, c: np.ndarray) -> None:
        """Write the constant part of the constraint Jacobian into ``c``.

        Everything except the comm rows' bandwidth columns is constant, so
        the per-iteration update (:meth:`normals_into`) only rewrites one
        entry per comm row.
        """
        meq, nlin = self._meq, self._nlin
        if meq:
            c[:meq, :] = self.a_eq
        if nlin:
            c[meq:meq + nlin, :] = self.a_in
        if self.comm_aux.size:
            c[meq + nlin:, :] = 0.0
            c[self._comm_rows, self.comm_aux] = 1.0

    def normals_into(self, c: np.ndarray, x: np.ndarray) -> None:
        """Refresh the state-dependent Jacobian entries at ``x``."""
        if self.comm_aux.size:
            scratch = self._scratch
            np.take(x, self.comm_dim, out=scratch)
            np.maximum(scratch, _TINY, out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.divide(self.comm_coeff, scratch, out=scratch)
            c[self._comm_rows, self.comm_dim] = scratch

    # -- scipy.optimize.minimize fallback ------------------------------------

    def scipy_constraints(self) -> list[dict]:
        """The blocks as at most two vector-valued SLSQP constraint dicts."""
        rows: list[dict] = []
        if self.num_eq:
            a_eq, b_eq = self.a_eq, self.b_eq

            rows.append(
                {
                    "type": "eq",
                    "fun": lambda x: a_eq @ x - b_eq,
                    "jac": lambda x: a_eq,
                }
            )
        num_ineq = len(self.b_in) + len(self.comm_aux)
        if num_ineq:
            nlin = len(self.b_in)
            jac = np.zeros((num_ineq, self.num_vars))
            jac[:nlin, :] = self.a_in
            comm_rows = nlin + np.arange(len(self.comm_aux))
            jac[comm_rows, self.comm_aux] = 1.0

            def fun(x: np.ndarray) -> np.ndarray:
                values = np.empty(num_ineq)
                values[:nlin] = self.a_in @ x - self.b_in
                values[nlin:] = x[self.comm_aux] - self.comm_coeff / np.maximum(
                    x[self.comm_dim], _TINY
                )
                return values

            def jacobian(x: np.ndarray) -> np.ndarray:
                jac[comm_rows, self.comm_dim] = self.comm_coeff / np.maximum(
                    x[self.comm_dim], _TINY
                ) ** 2
                return jac

            rows.append({"type": "ineq", "fun": fun, "jac": jacobian})
        return rows

    def scipy_bounds(self) -> list[tuple[float, float | None]]:
        """Old-style bounds for ``scipy.optimize.minimize``."""
        return [
            (float(lo), None if np.isinf(up) else float(up))
            for lo, up in zip(self.lower, self.upper)
        ]


# ---------------------------------------------------------------------------
# Interior point (PerfOptBW)
# ---------------------------------------------------------------------------

#: Fraction of the distance to the boundary one interior-point step takes.
STEP_FRACTION = 0.995

#: Relative tolerance of the stopping tests: the interior gap ``s·z``, the
#: objective-weighted comm-row infeasibility, and the certified gap.
INTERIOR_RTOL = 1e-11

#: Iteration cap of one run (the figure and tier-1 grids need at most 17).
INTERIOR_MAX_ITER = 100

#: Relative primal–dual gap up to which a PerfOptBW answer counts as
#: certified optimal; :func:`repro.core.sensitivity.audit_solution` checks
#: the same bound.
CERTIFIED_GAP = 1e-6

#: Largest share of a comm-row variable (an aux or a bandwidth) one primal
#: step may remove: the log form's linearization is trusted no further.
#: Without it, a start far from the optimum (the max-slack LP point) can
#: send a bandwidth down by 100× in one step and the run never recovers.
LOG_STEP_SHRINK = 0.5

#: Relative interior gap below which every iterate is also certified.
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
        status: ``"converged"`` (interior gap and infeasibility tests),
            ``"certified"`` (gap test), ``"singular"`` (the Newton system
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

    The run stops when the interior gap ``s·z`` and the comm rows'
    infeasibility, weighted per aux by its multipliers, are both at most
    :data:`INTERIOR_RTOL` of the objective, or when the certified gap is.
    Every iterate whose interior gap is below ``_CERTIFY_BELOW`` is
    certified; the run keeps the best bound and the best point over them,
    so a run that ends on round-off still returns its best certified
    iterate.
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
    live = np.flatnonzero(blocks.comm_coeff > 0)
    aux, dim = blocks.comm_aux[live], blocks.comm_dim[live]
    log_coeff = np.log(blocks.comm_coeff[live])
    num_rows = num_linear + len(live)
    comm_rows = np.arange(len(live))
    # Comm rows are grouped per aux (compilation emits them that way).
    groups = np.flatnonzero(np.r_[True, aux[1:] != aux[:-1]])
    logged = np.union1d(aux, dim)  # the variables inside a log
    # Each max row's own aux is its first aux column (parents come first).
    aux_block = blocks.a_in[:, blocks.num_dims:] != 0
    first = np.argmax(aux_block, axis=1) + blocks.num_dims
    max_rows = np.flatnonzero(aux_block.any(axis=1))
    owners = [
        (column, max_rows[first[max_rows] == column])
        for column in np.unique(first[max_rows])
    ]
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
        comm_dual = dual[num_linear:]
        objective = abs(cost_const + cost @ x)
        gap = slack @ dual
        if not gap >= 0.0:  # a non-finite iterate
            status, iterations = "singular", iteration
            break
        if gap <= INTERIOR_RTOL * objective and (
            np.add.reduceat(comm_dual, groups)
            @ np.maximum.reduceat(np.maximum(-comm, 0.0), groups)
            if len(live) else 0.0
        ) <= INTERIOR_RTOL * objective:
            status, iterations = "converged", iteration
            break
        if gap <= _CERTIFY_BELOW * objective and certify(x, dual, eq_dual):
            status, iterations = "certified", iteration
            break
        if iteration == INTERIOR_MAX_ITER:
            break

        comm_jacobian[comm_rows, aux] = 1.0 / x_aux
        comm_jacobian[comm_rows, dim] = 1.0 / x_dim
        weight = dual / slack
        # Hessian of the Lagrangian: Σ z·(1/aux², 1/B²) over the comm rows.
        normal = (jacobian.T * weight) @ jacobian
        normal[diagonal, diagonal] += comm_dual @ (comm_jacobian * comm_jacobian)
        kkt[:n, :n] = normal
        lu, pivots, info = getrf(kkt)
        if info > 0:
            status, iterations = "singular", iteration
            break
        mean = gap / num_rows
        base = eq_dual @ a_eq - cost
        rhs[n:] = b_eq - a_eq @ x
        feasibility_push = -weight * residual

        # Predictor (affine scaling), then Mehrotra's corrector.
        _, _, d_dual, d_slack = newton(feasibility_push)
        predicted = (
            slack + min(_step_to_boundary(slack, d_slack), 1.0) * d_slack
        ) @ (dual + min(_step_to_boundary(dual, d_dual), 1.0) * d_dual)
        centring = (predicted / num_rows / mean) ** 3 * mean
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
    return max(float((value / np.maximum(-step, _STEP_FLOOR)).min()), 0.0)


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
    best = np.clip(
        np.sqrt(alpha / np.maximum(rate, _STEP_FLOOR)),
        blocks.lower[:num_dims], blocks.upper[:num_dims],
    )
    bound = (
        blocks.cost_const + eq_dual @ blocks.b_eq + mu @ blocks.b_in
        + float(np.sum(rate * best + alpha / best))
    )
    return bound if np.isfinite(bound) else -np.inf


# ---------------------------------------------------------------------------
# SLSQP (PerfPerCostOptBW)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one SLSQP run through either execution path."""

    x: np.ndarray
    fun: float
    nit: int
    status: int
    success: bool
    message: str


def minimize_slsqp(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    blocks: ConstraintBlocks,
    maxiter: int,
    ftol: float,
) -> KernelResult:
    """One SLSQP run over vectorized blocks, bypassing scipy's wrappers.

    Transcribes the reverse-communication loop of scipy's
    ``_minimize_slsqp`` (state dict, workspace sizing, nan convention for
    open bounds) while writing constraint values/normals in place via the
    blocks. Falls back to ``scipy.optimize.minimize`` when the compiled
    core is unavailable.
    """
    if not HAS_FAST_SLSQP:
        return _minimize_slsqp_fallback(
            objective, gradient, x0, blocks, maxiter, ftol
        )

    n = len(x0)
    m, meq = blocks.num_rows, blocks.num_eq
    mineq = m - meq
    x = np.clip(np.asarray(x0, dtype=np.float64), blocks.lower, blocks.upper)

    xl = blocks.lower.astype(np.float64).copy()
    xu = blocks.upper.astype(np.float64).copy()
    xl[~np.isfinite(xl)] = np.nan  # the core marks open bounds with nan
    xu[~np.isfinite(xu)] = np.nan

    state = {
        "acc": float(ftol),
        "alpha": 0.0,
        "f0": 0.0,
        "gs": 0.0,
        "h1": 0.0,
        "h2": 0.0,
        "h3": 0.0,
        "h4": 0.0,
        "t": 0.0,
        "t0": 0.0,
        "tol": 10.0 * float(ftol),
        "exact": 0,
        "inconsistent": 0,
        "reset": 0,
        "iter": 0,
        "itermax": int(maxiter),
        "line": 0,
        "m": m,
        "meq": meq,
        "mode": 0,
        "n": n,
    }

    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    buffer_size = (
        n * (n + 1) // 2
        + 3 * m * n
        - (m + 5 * n + 7) * meq
        + 9 * m
        + 8 * n * n
        + 35 * n
        + meq * meq
        + 28
    )
    if mineq == 0:
        buffer_size += 2 * n * (n + 1)
    buffer = np.zeros(max(buffer_size, 1), dtype=np.float64)
    mult = np.zeros(max(1, m + 2 * n + 2), dtype=np.float64)

    c = np.zeros((max(1, m), n), dtype=np.float64, order="F")
    d = np.zeros(max(1, m), dtype=np.float64)
    values_into = blocks.values_into
    normals_into = blocks.normals_into
    blocks.init_normals(c)
    normals_into(c, x)
    values_into(d, x)
    fx = float(objective(x))
    g = np.asarray(gradient(x), dtype=np.float64)

    while True:
        _slsqp_core(state, fx, g, c, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:  # objective and constraint values required
            fx = float(objective(x))
            values_into(d, x)
        elif mode == -1:  # gradients and constraint normals required
            g = np.asarray(gradient(x), dtype=np.float64)
            normals_into(c, x)
        else:
            break

    return KernelResult(
        x=x,
        fun=fx,
        nit=state["iter"],
        status=mode,
        success=(mode == 0),
        message=EXIT_MESSAGES.get(mode, f"exit mode {mode}"),
    )


def _minimize_slsqp_fallback(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    blocks: ConstraintBlocks,
    maxiter: int,
    ftol: float,
) -> KernelResult:
    """Same vectorized blocks through the public scipy entry point."""
    from scipy.optimize import minimize

    result = minimize(
        objective,
        x0,
        jac=gradient,
        method="SLSQP",
        bounds=blocks.scipy_bounds(),
        constraints=blocks.scipy_constraints(),
        options={"maxiter": maxiter, "ftol": ftol},
    )
    return KernelResult(
        x=result.x,
        fun=float(result.fun),
        nit=result.nit,
        status=result.status,
        success=bool(result.success),
        message=str(result.message),
    )
