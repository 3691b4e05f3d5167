"""The wire- and human-facing shape of one analysis.

:class:`AnalysisReport` flattens a :class:`~repro.analysis.structure.
BottleneckStructure` plus its what-if results into a JSON-stable payload
(plain floats, GB/s at this boundary per the library convention) with the
same versioned ``to_dict``/``from_dict`` discipline as ``DesignPoint`` —
``json.dumps`` round-trips with no custom encoder. :func:`format_report`
renders the table the ``repro analyze`` CLI prints.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.analysis.structure import BottleneckStructure, ConstraintAttribution
from repro.analysis.whatif import WhatIfResult
from repro.utils.errors import ConfigurationError
from repro.utils.units import GBPS

#: Layout version of the :meth:`AnalysisReport.to_dict` payload.
#: v2 drops the ``certificate`` object: a solved or cached point carries
#: the solver's certificate (``AnalyzeResponse.source`` says which), and
#: an inline point makes no claim. v1 payloads still read, the
#: certificate ignored.
ANALYSIS_SCHEMA_VERSION = 2

#: Layout versions :meth:`AnalysisReport.from_dict` reads.
_READABLE_VERSIONS = (1, ANALYSIS_SCHEMA_VERSION)


@dataclass(frozen=True)
class AnalysisReport:
    """One design point's bottleneck structure and what-if outcomes.

    Bandwidths are GB/s (this is a wire boundary); marginal-value fields
    are seconds per GB/s with the analytic sign (≤ 0 — more bandwidth
    never hurts).

    Attributes:
        scheme: Scheme the analyzed point was produced under.
        bandwidths_gbps: The analyzed allocation.
        step_time: Step seconds at the point.
        marginals_per_gbps: Backward (kink-correct) ``dT/dB_i``.
        kink_gaps_per_gbps: ``forward − backward`` slope per dimension;
            ≈ 0 where smooth, ``~T/B_i`` on a water-filling kink.
        binding_dims: Dimensions binding under the backward marginals.
        most_valuable_dim: Where the next GB/s helps most.
        transfer_matrix_per_gbps: ``G[i][j]`` seconds saved per GB/s
            moved i→j (antisymmetric).
        attributions: Constraint rows at the point (may be empty).
        wasteless_gbps: Traffic-proportional baseline, or ``None``.
        wasteless_gap_gbps: ``B − baseline`` per dimension, or ``None``.
        whatifs: Evaluated perturbation queries.
    """

    scheme: str
    bandwidths_gbps: tuple[float, ...]
    step_time: float
    marginals_per_gbps: tuple[float, ...]
    kink_gaps_per_gbps: tuple[float, ...]
    binding_dims: tuple[int, ...]
    most_valuable_dim: int
    transfer_matrix_per_gbps: tuple[tuple[float, ...], ...]
    attributions: tuple[ConstraintAttribution, ...]
    wasteless_gbps: tuple[float, ...] | None
    wasteless_gap_gbps: tuple[float, ...] | None
    whatifs: tuple[WhatIfResult, ...]

    def to_dict(self) -> dict:
        return {
            "analysis_schema_version": ANALYSIS_SCHEMA_VERSION,
            "scheme": self.scheme,
            "bandwidths_gbps": list(self.bandwidths_gbps),
            "step_time": self.step_time,
            "marginals_per_gbps": list(self.marginals_per_gbps),
            "kink_gaps_per_gbps": list(self.kink_gaps_per_gbps),
            "binding_dims": list(self.binding_dims),
            "most_valuable_dim": self.most_valuable_dim,
            "transfer_matrix_per_gbps": [
                list(row) for row in self.transfer_matrix_per_gbps
            ],
            "attributions": [row.to_dict() for row in self.attributions],
            "wasteless_gbps": (
                None if self.wasteless_gbps is None
                else list(self.wasteless_gbps)
            ),
            "wasteless_gap_gbps": (
                None if self.wasteless_gap_gbps is None
                else list(self.wasteless_gap_gbps)
            ),
            "whatifs": [result.to_dict() for result in self.whatifs],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> AnalysisReport:
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"analysis payload must be a mapping, got {type(payload).__name__}"
            )
        version = payload.get("analysis_schema_version")
        if version not in _READABLE_VERSIONS:
            raise ConfigurationError(
                f"unsupported analysis_schema_version {version!r} "
                f"(this release reads {_READABLE_VERSIONS})"
            )
        try:
            return cls(
                scheme=str(payload["scheme"]),
                bandwidths_gbps=tuple(
                    float(v) for v in payload["bandwidths_gbps"]
                ),
                step_time=float(payload["step_time"]),
                marginals_per_gbps=tuple(
                    float(v) for v in payload["marginals_per_gbps"]
                ),
                kink_gaps_per_gbps=tuple(
                    float(v) for v in payload["kink_gaps_per_gbps"]
                ),
                binding_dims=tuple(int(d) for d in payload["binding_dims"]),
                most_valuable_dim=int(payload["most_valuable_dim"]),
                transfer_matrix_per_gbps=tuple(
                    tuple(float(v) for v in row)
                    for row in payload["transfer_matrix_per_gbps"]
                ),
                attributions=tuple(
                    ConstraintAttribution.from_dict(row)
                    for row in payload["attributions"]
                ),
                wasteless_gbps=(
                    None if payload.get("wasteless_gbps") is None
                    else tuple(float(v) for v in payload["wasteless_gbps"])
                ),
                wasteless_gap_gbps=(
                    None if payload.get("wasteless_gap_gbps") is None
                    else tuple(float(v) for v in payload["wasteless_gap_gbps"])
                ),
                whatifs=tuple(
                    WhatIfResult.from_dict(row) for row in payload["whatifs"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad analysis payload: {exc}") from exc


def build_report(
    structure: BottleneckStructure,
    whatifs: Sequence[WhatIfResult] = (),
    scheme: str = "",
) -> AnalysisReport:
    """Assemble the wire report from the computed structure (GB/s boundary)."""
    gap = structure.wasteless_gap()
    return AnalysisReport(
        scheme=scheme,
        bandwidths_gbps=structure.bandwidths_gbps(),
        step_time=structure.step_time,
        marginals_per_gbps=tuple(m * GBPS for m in structure.marginals),
        kink_gaps_per_gbps=tuple(g * GBPS for g in structure.kink_gaps),
        binding_dims=structure.binding_dims,
        most_valuable_dim=structure.most_valuable_dim,
        transfer_matrix_per_gbps=tuple(
            tuple(v * GBPS for v in row) for row in structure.transfer_matrix
        ),
        attributions=structure.attributions,
        wasteless_gbps=(
            None if structure.wasteless is None
            else tuple(b / GBPS for b in structure.wasteless)
        ),
        wasteless_gap_gbps=(
            None if gap is None else tuple(b / GBPS for b in gap)
        ),
        whatifs=tuple(whatifs),
    )


def format_report(report: AnalysisReport) -> str:
    """Render the report as the human table ``repro analyze`` prints."""
    lines: list[str] = []
    scheme = f" ({report.scheme})" if report.scheme else ""
    lines.append(f"Analysis{scheme}: step time {report.step_time * 1e3:.3f} ms")
    lines.append("")
    lines.append(
        f"{'dim':>3}  {'GB/s':>9}  {'dT/dGBps':>11}  {'kink gap':>10}  "
        f"{'wasteless':>9}  {'gap':>8}  flags"
    )
    for dim, bandwidth in enumerate(report.bandwidths_gbps):
        flags = []
        if dim in report.binding_dims:
            flags.append("binding")
        if dim == report.most_valuable_dim:
            flags.append("best")
        wasteless = (
            f"{report.wasteless_gbps[dim]:9.1f}"
            if report.wasteless_gbps is not None else f"{'—':>9}"
        )
        gap = (
            f"{report.wasteless_gap_gbps[dim]:8.1f}"
            if report.wasteless_gap_gbps is not None else f"{'—':>8}"
        )
        lines.append(
            f"{dim:>3}  {bandwidth:9.1f}  "
            f"{report.marginals_per_gbps[dim]:11.3e}  "
            f"{report.kink_gaps_per_gbps[dim]:10.3e}  "
            f"{wasteless}  {gap}  {' '.join(flags)}"
        )
    binding_rows = [row for row in report.attributions if row.binding]
    if binding_rows:
        lines.append("")
        lines.append("binding constraint rows:")
        for row in binding_rows:
            lines.append(f"  [{row.kind}] {row.label}")
    if report.whatifs:
        lines.append("")
        lines.append(f"{'what-if':<34}  {'step ms':>9}  {'delta ms':>10}  {'speedup':>8}")
        for result in report.whatifs:
            lines.append(
                f"{result.query.label():<34}  "
                f"{result.step_time * 1e3:9.3f}  "
                f"{result.delta_step_time * 1e3:+10.3f}  "
                f"{result.speedup:8.3f}"
            )
    return "\n".join(lines)
