"""Designer constraint DSL (Sec. IV-F).

LIBRA accepts flexible linear constraints on the bandwidth vector, e.g.:

* total bandwidth per NPU: ``Σ B_i = 1000 GB/s``,
* per-dimension caps: ``B_4 ≤ 50 GB/s``,
* relations: ``B_1 + B_2 = 500 GB/s``, ``B_1 ≥ B_2 ≥ B_3``,
* ranges: ``25 ≤ B_3 ≤ 150 GB/s``.

All of these are rows of a single canonical form ``lower ≤ cᵀB ≤ upper``,
which :class:`ConstraintSet` accumulates and hands to the solver. Bandwidths
are in bytes/s everywhere; benchmarks convert from GB/s at the boundary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.utils.errors import ConfigurationError, OptimizationError
from repro.utils.units import GBPS
from repro.utils.validation import check_positive

#: Dimensions may never be sized to zero — a zero-bandwidth dimension would
#: make collective times infinite. 0.01 GB/s is far below any design point
#: of interest and keeps the solver away from the singularity at B = 0.
DEFAULT_MIN_BANDWIDTH: float = 0.01 * GBPS

#: Upper sanity bound (1 PB/s) used only when the designer supplies no cap.
DEFAULT_MAX_BANDWIDTH: float = 1e15

#: Relative row tolerance at which the solver accepts a candidate as
#: feasible; the optimality certificate and oracle judge points by it too.
FEASIBILITY_TOLERANCE: float = 1e-4


@dataclass(frozen=True)
class LinearConstraint:
    """One row ``lower ≤ coeffs · B ≤ upper`` (either side may be open)."""

    coeffs: tuple[float, ...]
    lower: float | None = None
    upper: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ConfigurationError(f"constraint {self.label!r} has neither bound")
        numbers = (*self.coeffs, self.lower, self.upper)
        if not all(math.isfinite(v) for v in numbers if v is not None):
            raise ConfigurationError(
                f"constraint {self.label!r} must be finite, got "
                f"coefficients {self.coeffs}, bounds [{self.lower}, {self.upper}]"
            )
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise ConfigurationError(
                f"constraint {self.label!r} has lower {self.lower} > upper {self.upper}"
            )
        if not any(self.coeffs):
            raise ConfigurationError(f"constraint {self.label!r} has all-zero coefficients")

    @property
    def is_equality(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def violation(self, bandwidths: Sequence[float]) -> float:
        """Amount by which ``bandwidths`` violates this row (0 when satisfied)."""
        value = float(np.dot(self.coeffs, bandwidths))
        worst = 0.0
        if self.lower is not None:
            worst = max(worst, self.lower - value)
        if self.upper is not None:
            worst = max(worst, value - self.upper)
        return worst


class ConstraintSet:
    """Accumulates linear constraints and per-dimension bounds.

    The builder methods return ``self`` so constraints chain fluently::

        ConstraintSet(4).with_total_bandwidth(gbps(1000)).with_dim_cap(3, gbps(50))
    """

    def __init__(self, num_dims: int, min_bandwidth: float = DEFAULT_MIN_BANDWIDTH):
        if num_dims < 1:
            raise ConfigurationError(f"num_dims must be >= 1, got {num_dims}")
        check_positive(min_bandwidth, "min_bandwidth")
        self.num_dims = num_dims
        self.min_bandwidth = min_bandwidth
        self.rows: list[LinearConstraint] = []
        self._lower_bounds = np.full(num_dims, min_bandwidth)
        self._upper_bounds = np.full(num_dims, DEFAULT_MAX_BANDWIDTH)
        self.total_bandwidth: float | None = None

    # -- builders ------------------------------------------------------------

    def with_total_bandwidth(self, total: float, equality: bool = True) -> "ConstraintSet":
        """Budget the aggregate per-NPU bandwidth: ``Σ B_i = total`` (or ≤)."""
        check_positive(total, "total bandwidth")
        if total < self.num_dims * self.min_bandwidth:
            raise ConfigurationError(
                f"total bandwidth {total} cannot cover {self.num_dims} dimensions "
                f"at the minimum of {self.min_bandwidth} each"
            )
        coeffs = tuple(1.0 for _ in range(self.num_dims))
        lower = total if equality else None
        self.rows.append(
            LinearConstraint(coeffs, lower=lower, upper=total, label="total-bandwidth")
        )
        self.total_bandwidth = total
        return self

    def with_dim_bounds(
        self,
        dim: int,
        lower: float | None = None,
        upper: float | None = None,
    ) -> "ConstraintSet":
        """Clamp one dimension's bandwidth: ``lower ≤ B_dim ≤ upper``."""
        self._check_dim(dim)
        if lower is not None:
            check_positive(lower, f"dim {dim} lower bound")
            if lower < self.min_bandwidth:
                raise ConfigurationError(
                    f"dim {dim} lower bound {lower} is below the minimum bandwidth "
                    f"{self.min_bandwidth}"
                )
            self._lower_bounds[dim] = max(self._lower_bounds[dim], lower)
        if upper is not None:
            check_positive(upper, f"dim {dim} upper bound")
            self._upper_bounds[dim] = min(self._upper_bounds[dim], upper)
        if self._lower_bounds[dim] > self._upper_bounds[dim]:
            raise ConfigurationError(
                f"dim {dim} bounds are empty: "
                f"[{self._lower_bounds[dim]}, {self._upper_bounds[dim]}]"
            )
        return self

    def with_dim_cap(self, dim: int, cap: float) -> "ConstraintSet":
        """Shorthand for an upper bound on one dimension (``B_4 ≤ 50 GB/s``)."""
        return self.with_dim_bounds(dim, upper=cap)

    def with_linear(
        self,
        coeffs: Sequence[float],
        lower: float | None = None,
        upper: float | None = None,
        label: str = "",
    ) -> "ConstraintSet":
        """General row ``lower ≤ coeffs · B ≤ upper`` (``B_1 + B_2 = 500`` etc.)."""
        if len(coeffs) != self.num_dims:
            raise ConfigurationError(
                f"expected {self.num_dims} coefficients, got {len(coeffs)}"
            )
        self.rows.append(LinearConstraint(tuple(coeffs), lower, upper, label))
        return self

    def with_ordering(self, dims: Sequence[int]) -> "ConstraintSet":
        """Require ``B_{dims[0]} ≥ B_{dims[1]} ≥ …`` (e.g. lower dims fatter)."""
        if len(dims) < 2:
            raise ConfigurationError("ordering needs at least two dimensions")
        for left, right in zip(dims, dims[1:]):
            self._check_dim(left)
            self._check_dim(right)
            coeffs = [0.0] * self.num_dims
            coeffs[left] = 1.0
            coeffs[right] = -1.0
            self.rows.append(
                LinearConstraint(tuple(coeffs), lower=0.0, label=f"B{left}>=B{right}")
            )
        return self

    # -- queries ---------------------------------------------------------------

    @property
    def lower_bounds(self) -> np.ndarray:
        return self._lower_bounds.copy()

    @property
    def upper_bounds(self) -> np.ndarray:
        return self._upper_bounds.copy()

    def violations(
        self, bandwidths: Sequence[float], tolerance: float = 1e-6
    ) -> list[str]:
        """Human-readable list of violated constraints (empty = feasible).

        ``tolerance`` is relative to each row's scale.
        """
        if len(bandwidths) != self.num_dims:
            raise ConfigurationError(
                f"expected {self.num_dims} bandwidths, got {len(bandwidths)}"
            )
        messages = []
        values = np.asarray(bandwidths, dtype=float)
        for dim in range(self.num_dims):
            scale = max(abs(self._lower_bounds[dim]), 1.0)
            if values[dim] < self._lower_bounds[dim] - tolerance * scale:
                messages.append(
                    f"B{dim} = {values[dim]:.4g} below lower bound {self._lower_bounds[dim]:.4g}"
                )
            if values[dim] > self._upper_bounds[dim] + tolerance * max(self._upper_bounds[dim], 1.0):
                messages.append(
                    f"B{dim} = {values[dim]:.4g} above upper bound {self._upper_bounds[dim]:.4g}"
                )
        for row in self.rows:
            scale = max(abs(row.lower or 0.0), abs(row.upper or 0.0), 1.0)
            amount = row.violation(values)
            if amount > tolerance * scale:
                messages.append(f"{row.label or 'linear row'} violated by {amount:.4g}")
        return messages

    def is_feasible(self, bandwidths: Sequence[float], tolerance: float = 1e-6) -> bool:
        return not self.violations(bandwidths, tolerance)

    def canonical(self) -> dict:
        """Content-identity payload for hashing and result caching.

        Covers every input the solver reads: box bounds, the linear rows
        (order-normalized, labels excluded), and the budget. Two constraint
        sets built through different chains of builder calls hash equally
        when they describe the same feasible region rows.
        """
        rows = sorted(
            ((list(row.coeffs), row.lower, row.upper) for row in self.rows),
            key=lambda row: (
                row[0],
                row[1] is not None,
                row[1] or 0.0,
                row[2] is not None,
                row[2] or 0.0,
            ),
        )
        return {
            "num_dims": self.num_dims,
            "min_bandwidth": self.min_bandwidth,
            "lower_bounds": [float(b) for b in self._lower_bounds],
            "upper_bounds": [float(b) for b in self._upper_bounds],
            "rows": [
                {"coeffs": coeffs, "lower": lower, "upper": upper}
                for coeffs, lower, upper in rows
            ],
            "total_bandwidth": self.total_bandwidth,
        }

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        Unlike :meth:`canonical`, this keeps row labels and row order so a
        round-tripped set reports the same diagnostics — but the two sets
        still hash identically under :meth:`canonical`.
        """
        return {
            "num_dims": self.num_dims,
            "min_bandwidth": self.min_bandwidth,
            "lower_bounds": [float(b) for b in self._lower_bounds],
            "upper_bounds": [float(b) for b in self._upper_bounds],
            "rows": [
                {
                    "coeffs": [float(c) for c in row.coeffs],
                    "lower": row.lower,
                    "upper": row.upper,
                    "label": row.label,
                }
                for row in self.rows
            ],
            "total_bandwidth": self.total_bandwidth,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConstraintSet":
        """Rebuild a constraint set from :meth:`to_dict` output."""
        try:
            built = cls(
                num_dims=int(payload["num_dims"]),
                min_bandwidth=float(payload.get("min_bandwidth", DEFAULT_MIN_BANDWIDTH)),
            )
            lower = payload.get("lower_bounds")
            upper = payload.get("upper_bounds")
            if lower is not None:
                if len(lower) != built.num_dims:
                    raise ConfigurationError(
                        f"expected {built.num_dims} lower bounds, got {len(lower)}"
                    )
                built._lower_bounds = np.asarray(
                    [check_positive(float(b), "lower bounds") for b in lower]
                )
            if upper is not None:
                if len(upper) != built.num_dims:
                    raise ConfigurationError(
                        f"expected {built.num_dims} upper bounds, got {len(upper)}"
                    )
                built._upper_bounds = np.asarray(
                    [check_positive(float(b), "upper bounds") for b in upper]
                )
            if np.any(built._lower_bounds > built._upper_bounds):
                raise ConfigurationError("constraint payload has empty box bounds")
            for row in payload.get("rows", ()):
                if len(row["coeffs"]) != built.num_dims:
                    raise ConfigurationError(
                        f"constraint row {row.get('label') or ''!r} has "
                        f"{len(row['coeffs'])} coefficients for "
                        f"{built.num_dims} dims"
                    )
                built.rows.append(
                    LinearConstraint(
                        coeffs=tuple(float(c) for c in row["coeffs"]),
                        lower=None if row.get("lower") is None else float(row["lower"]),
                        upper=None if row.get("upper") is None else float(row["upper"]),
                        label=str(row.get("label", "")),
                    )
                )
            total = payload.get("total_bandwidth")
            built.total_bandwidth = (
                None if total is None
                else check_positive(float(total), "total bandwidth")
            )
            return built
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed constraint-set payload: {exc}"
            ) from exc

    def equal_split(self) -> np.ndarray:
        """The EqualBW baseline point: the total budget divided evenly.

        Requires a total-bandwidth budget (the paper's EqualBW baseline is
        defined relative to one). The point ignores general linear rows —
        EqualBW is a straw-person allocation, not an optimized one — but it
        is projected into the box bounds with the clipped surplus
        redistributed, so it always honours the budget and per-dim caps.
        """
        if self.total_bandwidth is None:
            raise OptimizationError(
                "EqualBW requires a total-bandwidth budget "
                "(call with_total_bandwidth first)"
            )
        total = self.total_bandwidth
        point = np.clip(
            np.full(self.num_dims, total / self.num_dims),
            self._lower_bounds,
            self._upper_bounds,
        )
        # Redistribute whatever clipping removed (or added) onto dimensions
        # that still have room, keeping the budget row satisfied.
        for _ in range(self.num_dims):
            slack = total - point.sum()
            if abs(slack) < 1e-9 * total:
                break
            room = (self._upper_bounds - point) if slack > 0 else (point - self._lower_bounds)
            movable = room > 1e-12
            if not movable.any():
                break
            point[movable] += slack * room[movable] / room[movable].sum()
            point = np.clip(point, self._lower_bounds, self._upper_bounds)
        return point

    def find_feasible_point(self) -> np.ndarray:
        """A strictly feasible bandwidth vector, via linear programming.

        No solver path calls it any more (the interior-point start uses
        :meth:`find_interior_point`); ``e2ebench/layers.py`` still wraps it
        (line 159). The LP is memoized on its exact content
        (:func:`feasible_point`), so every set with the same bounds and
        rows pays for HiGHS once.
        """
        rows = tuple((row.coeffs, row.lower, row.upper) for row in self.rows)
        return feasible_point(
            self.num_dims,
            tuple(self._lower_bounds.tolist()),
            tuple(self._upper_bounds.tolist()),
            rows,
        ).copy()

    def find_interior_point(self) -> np.ndarray:
        """The point that maximizes the smallest slack, box sides included.

        The interior-point solver's start when the constraint set has more
        than a budget row. Unlike :meth:`find_feasible_point`, the box
        sides count as rows, so the point sits strictly inside every
        bound that leaves room. Memoized with it (:func:`feasible_point`).
        """
        rows = tuple((row.coeffs, row.lower, row.upper) for row in self.rows)
        return feasible_point(
            self.num_dims,
            tuple(self._lower_bounds.tolist()),
            tuple(self._upper_bounds.tolist()),
            rows,
            box_slack=True,
        ).copy()

    def _check_dim(self, dim: int) -> None:
        if not 0 <= dim < self.num_dims:
            raise ConfigurationError(
                f"dimension {dim} out of range for {self.num_dims} dims"
            )


@lru_cache(maxsize=1024)
def feasible_point(
    num_dims: int,
    lower_bounds: tuple[float, ...],
    upper_bounds: tuple[float, ...],
    rows: tuple[tuple[tuple[float, ...], float | None, float | None], ...],
    box_slack: bool = False,
) -> np.ndarray:
    """Interior point of ``lower ≤ B ≤ upper`` and ``lo ≤ coeffs·B ≤ hi`` rows.

    The LP behind :meth:`ConstraintSet.find_feasible_point` and, with
    ``box_slack``, :meth:`ConstraintSet.find_interior_point`, memoized on
    its exact content: the box bounds and the ``(coeffs, lower, upper)``
    rows in order, labels excluded. HiGHS is deterministic, so a memoized
    point is the point a fresh solve would return. The returned array is
    shared and read-only. ``clear_solver_caches()`` resets the memo;
    infeasible sets raise and are not memoized.
    """
    from scipy.optimize import linprog

    # Feasibility LP with a slack-maximizing twist: maximize the margin s
    # subject to every inequality having slack >= s (equalities exact).
    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    a_eq: list[list[float]] = []
    b_eq: list[float] = []
    for coeffs, lower, upper in rows:
        scale = max(float(np.abs(coeffs).sum()), 1e-12)
        if lower is not None and lower == upper:
            a_eq.append(list(coeffs) + [0.0])
            b_eq.append(float(lower))
            continue
        if upper is not None:
            a_ub.append(list(coeffs) + [scale])
            b_ub.append(upper)
        if lower is not None:
            a_ub.append([-c for c in coeffs] + [scale])
            b_ub.append(-lower)
    if box_slack:
        for dim, (lower, upper) in enumerate(zip(lower_bounds, upper_bounds)):
            if lower == upper:
                continue  # a fixed dimension has no interior
            side = [0.0] * (num_dims + 1)
            side[dim], side[-1] = -1.0, 1.0
            a_ub.append(side)
            b_ub.append(-lower)
            side = [0.0] * (num_dims + 1)
            side[dim], side[-1] = 1.0, 1.0
            a_ub.append(side)
            b_ub.append(upper)
    bounds = list(zip(lower_bounds, upper_bounds))
    # The slack margin must be bounded or a constraint set with only
    # equality rows (where the slack never appears) makes the LP
    # unbounded. Any finite cap works; it only shapes the interior point.
    bounds.append((0.0, float(max(upper_bounds))))
    objective = [0.0] * num_dims + [-1.0]
    result = linprog(
        objective,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise OptimizationError(
            f"constraint set is infeasible: {result.message}"
        )
    point = np.asarray(result.x[:num_dims], dtype=float)
    point.flags.writeable = False
    return point
