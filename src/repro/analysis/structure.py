"""Bottleneck-structure computation for a solved design point.

LIBRA answers *which* allocation is optimal; this module answers *why*.
Given the training-time expression and a bandwidth vector, it computes:

* the **binding set** — kink-aware, via one-sided backward differences
  (at a water-filling optimum the backward slope is the real price of
  losing bandwidth; the forward slope is ~0 on every loaded dimension);
* the per-dimension **kink gap** (``backward − forward`` slope), a direct
  detector of which dimensions sit on a water-filling kink;
* **constraint-row attribution** — every row of the compiled
  :class:`~repro.core.kernel.ConstraintBlocks` (designer equalities and
  inequalities, max-epigraph rows, hyperbolic comm rows) evaluated at the
  point, with binding rows flagged, so "the budget binds" or "dimension 2
  attains the all-reduce max" is a statement about a named row;
* the **transfer-gradient matrix** ``G[i][j] = m_i − m_j`` (antisymmetric
  by construction) — the benefit of moving budget between dimensions;
* the **wasteless-baseline gap** — distance from the traffic-proportional
  allocation, the exact optimum of a single collective under a pure
  budget (the water-filling seed of ``core/solver.py``).

Everything here is read-only over ``core``: it compiles the same cached
programs the solver uses and never mutates solver state.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.sensitivity import (
    bandwidth_sensitivity,
    certify_optimum,
)
from repro.core.solver import (
    _SCALE,
    _proportional_split,
    build_constraint_blocks,
    compile_expression,
    traffic_totals,
)
from repro.training.expr import Expr
from repro.utils.errors import ConfigurationError

#: Relative slack below which a constraint row counts as binding.
ROW_BINDING_RTOL = 1e-6


@dataclass(frozen=True)
class ConstraintAttribution:
    """One constraint row evaluated at the analyzed point.

    Attributes:
        kind: ``"equality"`` | ``"inequality"`` | ``"max"`` | ``"comm"``.
        label: Human-readable row name (designer label, aux id, or dim).
        value: Row residual in solver units — 0 means satisfied exactly
            for equalities; slack (≥ 0 when feasible) for the rest.
        binding: Whether the row is active at the point (residual within
            :data:`ROW_BINDING_RTOL` of zero, relative to the row scale).
        dims: Bandwidth dimensions the row reads (empty for pure-aux rows).
    """

    kind: str
    label: str
    value: float
    binding: bool
    dims: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "value": self.value,
            "binding": self.binding,
            "dims": list(self.dims),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> ConstraintAttribution:
        try:
            return cls(
                kind=str(payload["kind"]),
                label=str(payload["label"]),
                value=float(payload["value"]),
                binding=bool(payload["binding"]),
                dims=tuple(int(d) for d in payload["dims"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad attribution payload: {exc}") from exc


@dataclass(frozen=True)
class BottleneckStructure:
    """The full bottleneck decomposition of one design point.

    Bandwidth-valued fields are bytes/s (library convention); GB/s appears
    only in the wire-format :class:`~repro.analysis.report.AnalysisReport`.

    Attributes:
        bandwidths: Analyzed point, bytes/s.
        step_time: Step seconds at the point.
        marginals: Backward (kink-correct) ``dT/dB_i``, s per byte/s.
        forward_marginals: Forward slopes — ~0 on kinked dimensions.
        kink_gaps: ``forward − backward`` slope per dimension (≥ 0 up to
            noise; ``~T/B_i`` on a water-filling kink).
        binding_dims: Dimensions binding under the backward marginals.
        transfer_matrix: ``G[i][j] = marginals[i] − marginals[j]``.
        attributions: Every compiled constraint row at the point (empty
            when no constraint set was supplied).
        wasteless: Traffic-proportional baseline allocation, bytes/s
            (``None`` when the expression moves no traffic).
        certificate: Direct-re-evaluation optimality certificate payload.
    """

    bandwidths: tuple[float, ...]
    step_time: float
    marginals: tuple[float, ...]
    forward_marginals: tuple[float, ...]
    kink_gaps: tuple[float, ...]
    binding_dims: tuple[int, ...]
    transfer_matrix: tuple[tuple[float, ...], ...]
    attributions: tuple[ConstraintAttribution, ...]
    wasteless: tuple[float, ...] | None
    certificate: dict

    @property
    def most_valuable_dim(self) -> int:
        return int(np.argmin(self.marginals))

    def bandwidths_gbps(self) -> tuple[float, ...]:
        return tuple(b / _SCALE for b in self.bandwidths)

    def wasteless_gap(self) -> tuple[float, ...] | None:
        """Per-dimension ``B_i − wasteless_i`` (bytes/s), or ``None``."""
        if self.wasteless is None:
            return None
        return tuple(
            b - w for b, w in zip(self.bandwidths, self.wasteless)
        )

    def binding_rows(self) -> tuple[ConstraintAttribution, ...]:
        return tuple(row for row in self.attributions if row.binding)


def _row_dims(coeffs: np.ndarray, num_dims: int) -> tuple[int, ...]:
    return tuple(
        int(dim) for dim in np.nonzero(coeffs[:num_dims])[0]
    )


def _attribute_rows(
    program, constraints: ConstraintSet, x: np.ndarray
) -> tuple[ConstraintAttribution, ...]:
    """Label every ConstraintBlocks row, mirroring assembly order exactly.

    The label walk below must track :func:`build_constraint_blocks` —
    equalities in designer order, then inequality expansions (upper before
    lower per row), then max-epigraph rows, then comm rows.
    """
    blocks = build_constraint_blocks(program, constraints)
    values = np.empty(blocks.num_rows)
    blocks.values_into(values, x)
    num_dims = program.num_dims

    rows: list[ConstraintAttribution] = []
    cursor = 0

    def binding(value: float, scale: float) -> bool:
        return abs(value) <= ROW_BINDING_RTOL * max(abs(scale), 1.0)

    for index, row in enumerate(constraints.rows):
        if not row.is_equality:
            continue
        label = row.label or f"eq[{index}]"
        value = float(values[cursor])
        rows.append(
            ConstraintAttribution(
                kind="equality",
                label=label,
                value=value,
                binding=True,  # an equality is active by definition
                dims=tuple(
                    int(d) for d in np.nonzero(np.asarray(row.coeffs))[0]
                ),
            )
        )
        cursor += 1
    for index, row in enumerate(constraints.rows):
        if row.is_equality:
            continue
        label = row.label or f"row[{index}]"
        dims = tuple(int(d) for d in np.nonzero(np.asarray(row.coeffs))[0])
        if row.upper is not None:
            value = float(values[cursor])
            rows.append(
                ConstraintAttribution(
                    kind="inequality",
                    label=f"{label}<=upper",
                    value=value,
                    binding=binding(value, row.upper / _SCALE),
                    dims=dims,
                )
            )
            cursor += 1
        if row.lower is not None:
            value = float(values[cursor])
            rows.append(
                ConstraintAttribution(
                    kind="inequality",
                    label=f"{label}>=lower",
                    value=value,
                    binding=binding(value, row.lower / _SCALE),
                    dims=dims,
                )
            )
            cursor += 1
    for max_row in program.max_constraints:
        value = float(values[cursor])
        rows.append(
            ConstraintAttribution(
                kind="max",
                label=f"max-epigraph aux{max_row.aux}",
                value=value,
                binding=binding(value, float(x[num_dims + max_row.aux])),
                dims=(),
            )
        )
        cursor += 1
    for comm in program.comm_constraints:
        value = float(values[cursor])
        rows.append(
            ConstraintAttribution(
                kind="comm",
                label=f"comm aux{comm.aux} dim{comm.dim}",
                value=value,
                binding=binding(value, float(x[num_dims + comm.aux])),
                dims=(int(comm.dim),),
            )
        )
        cursor += 1
    assert cursor == blocks.num_rows
    return tuple(rows)


def wasteless_baseline(
    expression: Expr,
    bandwidths: Sequence[float],
    constraints: ConstraintSet | None = None,
) -> tuple[float, ...] | None:
    """Traffic-proportional allocation of the point's total budget, bytes/s.

    With a budget constraint the split is clipped into the designer box
    (the solver's water-filling seed); otherwise the point's own total is
    distributed along the traffic shares. ``None`` when the expression
    moves no traffic.
    """
    point = np.asarray(bandwidths, dtype=float)
    shares = traffic_totals(expression, point.size)
    if constraints is not None and constraints.total_bandwidth is not None:
        split = _proportional_split(shares, constraints)
        if split is not None:
            return tuple(float(v) for v in split)
    positive = np.maximum(shares, 0.0)
    if positive.sum() <= 0:
        return None
    split = float(point.sum()) * positive / positive.sum()
    return tuple(float(v) for v in split)


def bottleneck_structure(
    expression: Expr,
    bandwidths: Sequence[float],
    constraints: ConstraintSet | None = None,
    relative_step: float = 1e-4,
    binding_tolerance: float = 0.05,
) -> BottleneckStructure:
    """Compute the full bottleneck structure at one point.

    Args:
        expression: Combined training-time expression (e.g.
            ``Libra.combined_expression()``).
        bandwidths: The design point, bytes/s; all entries positive.
        constraints: The designer constraint set the point was solved
            under. Optional — without it, row attribution is empty and
            the wasteless baseline uses the point's own total.
        relative_step: Finite-difference step for the marginals.
        binding_tolerance: Relative tolerance of the marginal binding set.
    """
    point = np.asarray(bandwidths, dtype=float)
    backward = bandwidth_sensitivity(
        expression, point, relative_step, mode="backward"
    )
    forward = bandwidth_sensitivity(
        expression, point, relative_step, mode="forward"
    )
    marginals = backward.marginals
    transfer = tuple(
        tuple(float(mi - mj) for mj in marginals) for mi in marginals
    )

    attributions: tuple[ConstraintAttribution, ...] = ()
    if constraints is not None:
        if constraints.num_dims != point.size:
            raise ConfigurationError(
                f"constraint set covers {constraints.num_dims} dims, "
                f"point has {point.size}"
            )
        program = compile_expression(expression, point.size)
        scaled = point / _SCALE
        x = np.concatenate([scaled, program.initial_aux(scaled)])
        attributions = _attribute_rows(program, constraints, x)

    certificate = certify_optimum(expression, point, constraints=constraints)
    return BottleneckStructure(
        bandwidths=tuple(float(v) for v in point),
        step_time=backward.step_time,
        marginals=marginals,
        forward_marginals=forward.marginals,
        kink_gaps=tuple(
            float(f - b) for f, b in zip(forward.marginals, marginals)
        ),
        binding_dims=backward.binding_dims(binding_tolerance),
        transfer_matrix=transfer,
        attributions=attributions,
        wasteless=wasteless_baseline(expression, point, constraints),
        certificate=certificate.to_dict(),
    )
