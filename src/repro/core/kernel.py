"""Vectorized SLSQP kernel: matrix-form constraint blocks + a slim driver.

This is the solver's one kernel. The epigraph program compiled by
:mod:`repro.core.solver` becomes three stacked blocks, built **once** per
compiled program and shared across all multi-start seeds and both schemes:

* **equality block** — the designer's equality rows as ``A_eq · x = b_eq``;
* **linear inequality block** — inequality rows *and* every max-epigraph
  row ``u ≥ const + Σ w·aux`` stacked into ``A_in · x ≥ b_in`` (the max
  rows are sparse: one ``+1`` and a few ``-w`` entries in the aux columns);
* **comm block** — the hyperbolic rows ``aux ≥ coeff / B[dim]`` as gathered
  index/coefficient arrays with one vectorized value/Jacobian evaluation.

:func:`minimize_slsqp` runs SLSQP over the blocks on one of two paths,
chosen by :data:`HAS_FAST_SLSQP`:

1. a reverse-communication driver around scipy's compiled SLSQP core
   (``scipy.optimize._slsqplib``, a private ABI first shipped in scipy
   1.16; ``pyproject.toml`` pins the releases it is written against). It
   is a faithful transcription of scipy's ``_minimize_slsqp`` minus the
   per-iteration ``ScalarFunction`` / per-constraint dict machinery:
   constraint values and normals are written straight into the solver's
   work arrays by the blocks. Same iterates, same exit modes, a fraction
   of the Python overhead.
2. when that module does not import, ``scipy.optimize.minimize`` over the
   same blocks as two vector-valued constraint dicts
   (:meth:`ConstraintBlocks.scipy_constraints`). The tests run the solver
   oracle grid on this path too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

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
    rows), then comm rows, assembled once and evaluated vectorized.
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
