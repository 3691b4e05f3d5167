"""Declarative sweep specifications for design-space exploration.

A :class:`SweepSpec` names the *axes* of a study — workloads, topologies,
total-bandwidth budgets, optimization schemes, cost models — and expands to
the full grid of :class:`ExplorationPoint`\\ s in a deterministic order
(workload-major, scheme varying fastest). Each point is a self-contained,
picklable description of one solve, so the executor can ship it to a worker
process and the cache can hash it into a content address.

Specs can also be loaded from a small JSON file (the ``repro explore --spec``
input)::

    {
      "workloads": ["GPT-3", "Turing-NLG"],
      "topologies": ["3D-4K", "4D-4K"],
      "bandwidths_gbps": [100, 300, 500, 1000],
      "schemes": ["perf", "perf-per-cost"],
      "dim_caps_gbps": {"3": 50}
    }
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.api.registry import SCHEME_ALIASES, resolve_scheme  # noqa: F401
from repro.core.results import Scheme
from repro.cost.model import CostModel
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive
from repro.workloads.workload import Workload

# SCHEME_ALIASES / resolve_scheme moved to repro.api.registry (the one
# registry for every name the API accepts); re-exported here so existing
# `from repro.explore.spec import SCHEME_ALIASES` imports keep working.


@dataclass(frozen=True)
class ExplorationPoint:
    """One cell of an exploration grid: a single constrained optimization.

    Attributes:
        workload: Preset workload name (Table II) or a concrete
            :class:`~repro.workloads.workload.Workload` object.
        topology: Preset topology name (Table III / Fig. 11) or notation.
        total_bw_gbps: Per-NPU aggregate bandwidth budget, GB/s.
        scheme: Optimization scheme to run at this cell.
        cost_model: Cost table override; ``None`` means Table I defaults.
        dim_caps_gbps: Per-dimension bandwidth caps as ``(dim, GB/s)`` pairs.
    """

    workload: str | Workload
    topology: str
    total_bw_gbps: float
    scheme: Scheme
    cost_model: CostModel | None = None
    dim_caps_gbps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "total_bw_gbps",
            check_positive(float(self.total_bw_gbps), "bandwidth budget"),
        )
        object.__setattr__(
            self,
            "dim_caps_gbps",
            tuple(
                (int(dim), check_positive(float(cap), "dimension caps"))
                for dim, cap in self.dim_caps_gbps
            ),
        )

    @property
    def workload_name(self) -> str:
        return self.workload.name if isinstance(self.workload, Workload) else self.workload

    @property
    def cost_model_name(self) -> str:
        return self.cost_model.name if self.cost_model is not None else "table1-default"

    def label(self) -> str:
        """Compact human-readable cell label for progress lines and errors."""
        return (
            f"{self.workload_name} @ {self.topology} "
            f"@ {self.total_bw_gbps:g} GB/s [{self.scheme.value}]"
        )

    def to_dict(self) -> dict:
        """JSON-ready description (used by result artifacts and the cache)."""
        return {
            "workload": self.workload_name,
            "topology": self.topology,
            "total_bw_gbps": self.total_bw_gbps,
            "scheme": self.scheme.value,
            "cost_model": self.cost_model_name,
            "dim_caps_gbps": [list(pair) for pair in self.dim_caps_gbps],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExplorationPoint":
        """Rebuild a (preset-workload) point from :meth:`to_dict` output."""
        return cls(
            workload=str(payload["workload"]),
            topology=str(payload["topology"]),
            total_bw_gbps=float(payload["total_bw_gbps"]),
            scheme=resolve_scheme(payload["scheme"]),
            dim_caps_gbps=tuple(
                (int(dim), float(cap))
                for dim, cap in payload.get("dim_caps_gbps", ())
            ),
        )


@dataclass(frozen=True)
class SweepSpec:
    """Axes of a design-space exploration study.

    Every combination of the five axes becomes one :class:`ExplorationPoint`;
    :meth:`expand` enumerates them deterministically so two runs of the same
    spec — serial or parallel, cached or cold — see the identical grid in
    the identical order.
    """

    workloads: tuple[str | Workload, ...]
    topologies: tuple[str, ...]
    bandwidths_gbps: tuple[float, ...]
    schemes: tuple[Scheme, ...] = (Scheme.PERF_OPT,)
    cost_models: tuple[CostModel | None, ...] = (None,)
    dim_caps_gbps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(
            self, "bandwidths_gbps", tuple(float(b) for b in self.bandwidths_gbps)
        )
        object.__setattr__(
            self, "schemes", tuple(resolve_scheme(s) for s in self.schemes)
        )
        object.__setattr__(self, "cost_models", tuple(self.cost_models))
        object.__setattr__(
            self,
            "dim_caps_gbps",
            tuple(
                (int(dim), check_positive(float(cap), "dimension caps"))
                for dim, cap in self.dim_caps_gbps
            ),
        )
        for name, axis in (
            ("workloads", self.workloads),
            ("topologies", self.topologies),
            ("bandwidths_gbps", self.bandwidths_gbps),
            ("schemes", self.schemes),
            ("cost_models", self.cost_models),
        ):
            if not axis:
                raise ConfigurationError(f"sweep axis {name!r} must not be empty")
        for budget in self.bandwidths_gbps:
            check_positive(budget, "bandwidth budgets")

    @property
    def num_points(self) -> int:
        """Grid size: the product of all axis lengths."""
        return (
            len(self.workloads)
            * len(self.topologies)
            * len(self.bandwidths_gbps)
            * len(self.schemes)
            * len(self.cost_models)
        )

    def expand(self) -> list[ExplorationPoint]:
        """The full grid, workload-major with the scheme varying fastest."""
        points = []
        for workload in self.workloads:
            for topology in self.topologies:
                for cost_model in self.cost_models:
                    for budget in self.bandwidths_gbps:
                        for scheme in self.schemes:
                            points.append(
                                ExplorationPoint(
                                    workload=workload,
                                    topology=topology,
                                    total_bw_gbps=budget,
                                    scheme=scheme,
                                    cost_model=cost_model,
                                    dim_caps_gbps=self.dim_caps_gbps,
                                )
                            )
        return points

    def to_dict(self) -> dict:
        """JSON-ready description for result artifacts and spec files."""
        return {
            "workloads": [
                w.name if isinstance(w, Workload) else w for w in self.workloads
            ],
            "topologies": list(self.topologies),
            "bandwidths_gbps": list(self.bandwidths_gbps),
            "schemes": [scheme.value for scheme in self.schemes],
            "cost_models": [
                model.name if model is not None else "table1-default"
                for model in self.cost_models
            ],
            "dim_caps_gbps": {
                str(dim): cap for dim, cap in self.dim_caps_gbps
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepSpec":
        """Build a spec from a parsed JSON mapping (spec-file schema)."""
        unknown = set(payload) - {
            "workloads", "topologies", "bandwidths_gbps", "schemes",
            "dim_caps_gbps", "cost_models",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown sweep-spec fields: {sorted(unknown)}"
            )
        for required in ("workloads", "topologies", "bandwidths_gbps"):
            if required not in payload:
                raise ConfigurationError(f"sweep spec is missing {required!r}")
        caps_payload = payload.get("dim_caps_gbps", {})
        if isinstance(caps_payload, Mapping):
            caps = tuple(
                (int(dim), float(cap)) for dim, cap in sorted(caps_payload.items())
            )
        else:
            caps = tuple((int(dim), float(cap)) for dim, cap in caps_payload)
        # Cost models are objects, not names — a spec file (or a round-tripped
        # to_dict) can only ever describe the default table.
        models = payload.get("cost_models", ["table1-default"])
        if any(model != "table1-default" for model in models):
            raise ConfigurationError(
                "spec files cannot carry custom cost models; pass CostModel "
                "objects to SweepSpec directly"
            )
        return cls(
            workloads=tuple(payload["workloads"]),
            topologies=tuple(payload["topologies"]),
            bandwidths_gbps=tuple(payload["bandwidths_gbps"]),
            schemes=tuple(payload.get("schemes", ("perf",))),
            dim_caps_gbps=caps,
        )


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load a :class:`SweepSpec` from a JSON file."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read sweep spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"sweep spec {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise ConfigurationError(f"sweep spec {path} must be a JSON object")
    return SweepSpec.from_dict(payload)
