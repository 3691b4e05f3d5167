"""Request and response value types for :class:`~repro.api.service.LibraService`.

Every interaction with the service is a frozen request value and a frozen
response value, both JSON round-trippable:

* :class:`OptimizeRequest` — one scenario plus a scheme. Three shapes:
  a *solve* (``scheme`` is ``PerfOptBW``/``PerfPerCostOptBW``), an
  *EqualBW baseline* (``scheme`` is ``EqualBW``), or an *explicit
  evaluation* (``bandwidths_gbps`` set — no solver involved).
* :class:`OptimizeResponse` — the resulting design point, the EqualBW
  baseline when a budget exists, and the two headline comparison metrics.
* :class:`BatchRequest` — a whole :class:`~repro.explore.spec.SweepSpec`
  grid routed through the explore engine and its content-addressed cache.

Requests and responses carry :data:`REQUEST_SCHEMA_VERSION` /
:data:`RESPONSE_SCHEMA_VERSION` so downstream consumers (CI validation,
future HTTP front ends) can detect layout drift.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.report import AnalysisReport
from repro.analysis.whatif import WhatIfQuery
from repro.api.registry import resolve_scheme
from repro.api.scenario import Scenario
from repro.core.results import DesignPoint, Scheme
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # explore/strategy sit above the api layer; never import here
    from repro.explore.records import SweepResult
    from repro.explore.spec import ExplorationPoint, SweepSpec
    from repro.strategy.frontier import StrategyFrontier
    from repro.strategy.space import StrategySpace

#: Bump when the response payload layout changes incompatibly.
#: v2: added the ``diagnostics`` object (multi-start / warm-start telemetry).
#: v3: batch responses carry sweep ``diagnostics`` (fan-out, warm-hit rate,
#: per-stage timings) and responses may arrive wrapped in a ``job``
#: envelope (:mod:`repro.serve`). v4: adds the ``analyze`` response shape
#: (bottleneck-structure reports); optimize/batch layouts are unchanged,
#: so v2 and v3 payloads are still readable. v5: adds the ``costrategy``
#: response shape (strategy frontiers); every earlier layout is unchanged,
#: so v2–v4 payloads remain readable.
RESPONSE_SCHEMA_VERSION = 5

#: Bump when the request payload layout changes incompatibly.
#: v1 payloads (no ``schema_version`` field) predate continuation solving
#: and are still readable — the warm-start fields simply default to cold.
#: v2 payloads (continuation fields, no ``kind`` envelope) up-convert via
#: :func:`request_from_dict`. v3 adds the typed job envelope
#: ``{"kind": "optimize"|"batch", "request": {...}}`` so one wire endpoint
#: (``POST /v3/jobs``) can carry both request shapes. v4 adds the
#: ``analyze`` kind to the envelope; the optimize/batch layouts are
#: unchanged, so v3 envelopes up-convert transparently. v5 adds the
#: ``costrategy`` kind (joint strategy × bandwidth co-optimization); the
#: earlier kinds are unchanged, so v4 envelopes up-convert transparently.
REQUEST_SCHEMA_VERSION = 5

#: Request schema versions :func:`OptimizeRequest.from_dict` still reads.
_READABLE_REQUEST_VERSIONS = (1, 2, 3, 4, REQUEST_SCHEMA_VERSION)

#: Response schema versions :func:`OptimizeResponse.from_dict` still reads
#: (the v2 → v3 layout change touched only batch responses; v3 → v4 only
#: added the analyze shape; v4 → v5 only added the costrategy shape).
_READABLE_RESPONSE_VERSIONS = (2, 3, 4, RESPONSE_SCHEMA_VERSION)


def check_schema_version(
    payload: Mapping,
    readable: tuple[int, ...],
    what: str,
    default: int | None = None,
) -> int:
    """The one schema-version gate every ``from_dict`` goes through.

    Reads ``payload["schema_version"]`` (falling back to ``default`` when
    the field is absent — pass ``None`` to make it required) and raises a
    located :class:`ConfigurationError` unless it is in ``readable``.
    Centralized so a future v4 bump changes one place, not every codec.
    """
    version = payload.get("schema_version", default)
    if version not in readable:
        shown = readable[0] if len(readable) == 1 else readable
        raise ConfigurationError(
            f"unsupported {what} schema version {version!r}; this "
            f"library reads {'version' if len(readable) == 1 else 'versions'} "
            f"{shown}"
        )
    return version

#: The ``warm_start`` sentinel asking the service to consult its own
#: per-engine solution memo instead of an explicitly provided point.
WARM_START_AUTO = "auto"


@dataclass(frozen=True)
class OptimizeRequest:
    """One optimization (or evaluation) of a scenario.

    Attributes:
        scenario: The problem statement.
        scheme: Allocation scheme to run; ignored as a solver choice when
            ``bandwidths_gbps`` is given (it then only tags the point).
        bandwidths_gbps: Explicit per-dimension bandwidths to evaluate
            instead of solving, GB/s.
        include_baseline: Attach the EqualBW baseline and comparison
            metrics when the scenario carries a total-bandwidth budget.
        warm_start: Continuation seed for the PerfPerCostOptBW solver.
            ``None`` (default) is the cold path; a bandwidth tuple (GB/s)
            is an explicit prior optimum (e.g. the neighboring sweep
            cell); the string :data:`WARM_START_AUTO` asks the service to
            look up its solution memo for this engine × scheme ×
            constraint family. Ignored for PerfOptBW (one interior-point
            run that depends on the problem alone), EqualBW and explicit
            evaluations.
        max_starts: Cap on the PerfPerCostOptBW multi-start seed family;
            ``None`` keeps the full family (the historical default).
            Ignored for PerfOptBW.
    """

    scenario: Scenario
    scheme: Scheme = Scheme.PERF_OPT
    bandwidths_gbps: tuple[float, ...] | None = None
    include_baseline: bool = True
    warm_start: tuple[float, ...] | str | None = None
    max_starts: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", resolve_scheme(self.scheme))
        if isinstance(self.warm_start, str):
            if self.warm_start != WARM_START_AUTO:
                raise ConfigurationError(
                    f"warm_start must be a bandwidth tuple, None, or "
                    f"{WARM_START_AUTO!r}; got {self.warm_start!r}"
                )
        elif self.warm_start is not None:
            values = tuple(float(b) for b in self.warm_start)
            if len(values) != self.scenario.network.num_dims:
                raise ConfigurationError(
                    f"warm_start needs {self.scenario.network.num_dims} "
                    f"bandwidths, got {len(values)}"
                )
            for value in values:
                check_positive(value, "warm_start bandwidths")
            object.__setattr__(self, "warm_start", values)
        if self.max_starts is not None and self.max_starts < 1:
            raise ConfigurationError(
                f"max_starts must be >= 1, got {self.max_starts}"
            )
        if self.bandwidths_gbps is not None:
            values = tuple(float(b) for b in self.bandwidths_gbps)
            if len(values) != self.scenario.network.num_dims:
                raise ConfigurationError(
                    f"expected {self.scenario.network.num_dims} bandwidths, "
                    f"got {len(values)}"
                )
            for value in values:
                check_positive(value, "bandwidths")
            object.__setattr__(self, "bandwidths_gbps", values)
        elif self.scenario.constraints is None:
            raise ConfigurationError(
                "scenario has no constraints; either give the scenario a "
                "constraint set or pass explicit bandwidths_gbps"
            )

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        warm = self.warm_start
        return {
            "schema_version": REQUEST_SCHEMA_VERSION,
            "scenario": self.scenario.to_dict(),
            "scheme": self.scheme.value,
            "bandwidths_gbps": (
                None if self.bandwidths_gbps is None else list(self.bandwidths_gbps)
            ),
            "include_baseline": self.include_baseline,
            "warm_start": list(warm) if isinstance(warm, tuple) else warm,
            "max_starts": self.max_starts,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OptimizeRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Accepts version-1 payloads (no ``schema_version`` field), which
        predate the continuation fields and parse as cold requests, and
        version-2 payloads (same field layout as v3, minus the job
        envelope handled by :func:`request_from_dict`). A ``kernel`` key,
        which payloads and job records written before the solver had one
        kernel carry, is ignored.
        """
        check_schema_version(
            payload, _READABLE_REQUEST_VERSIONS, "request", default=1
        )
        try:
            bandwidths = payload.get("bandwidths_gbps")
            warm = payload.get("warm_start")
            max_starts = payload.get("max_starts")
            return cls(
                scenario=Scenario.from_dict(payload["scenario"]),
                scheme=resolve_scheme(payload.get("scheme", "perf")),
                bandwidths_gbps=(
                    None if bandwidths is None
                    else tuple(float(b) for b in bandwidths)
                ),
                include_baseline=bool(payload.get("include_baseline", True)),
                warm_start=(
                    warm if warm is None or isinstance(warm, str)
                    else tuple(float(b) for b in warm)
                ),
                max_starts=None if max_starts is None else int(max_starts),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed optimize-request payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class OptimizeResponse:
    """The answer to one :class:`OptimizeRequest`.

    Attributes:
        scenario_key: Content address of the scenario that was solved.
        scheme: Scheme the point was produced under.
        point: The resulting design point.
        baseline: The scenario's EqualBW baseline (``None`` when the
            scenario has no budget or the request declined it).
        speedup_over_baseline: ``T_base / T_point`` on the weighted group
            objective; ``None`` without a baseline.
        ppc_gain_over_baseline: ``(T·C)_base / (T·C)_point``; ``None``
            without a baseline.
        diagnostics: Solver telemetry for solve requests (``None`` for
            EqualBW and explicit evaluations): ``starts`` — seeds the
            multi-start actually ran (1 for PerfOptBW's interior-point
            run); ``max_starts`` — the requested cap;
            ``warm_start`` — ``"cold"``, ``"accepted"``, or
            ``"rejected:<reason>"``; ``warm_source`` — where the warm seed
            came from (``"none"``, ``"explicit"``, ``"memo-hit"``,
            ``"memo-miss"``).
    """

    scenario_key: str
    scheme: Scheme
    point: DesignPoint
    baseline: DesignPoint | None = None
    speedup_over_baseline: float | None = None
    ppc_gain_over_baseline: float | None = None
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready payload (``json.dumps``-able without custom encoders)."""
        return {
            "schema_version": RESPONSE_SCHEMA_VERSION,
            "scenario_key": self.scenario_key,
            "scheme": self.scheme.value,
            "point": self.point.to_dict(),
            "baseline": None if self.baseline is None else self.baseline.to_dict(),
            "speedup_over_baseline": self.speedup_over_baseline,
            "ppc_gain_over_baseline": self.ppc_gain_over_baseline,
            "diagnostics": (
                None if self.diagnostics is None else dict(self.diagnostics)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OptimizeResponse":
        """Rebuild a response from :meth:`to_dict` output (v2 or v3)."""
        check_schema_version(payload, _READABLE_RESPONSE_VERSIONS, "response")
        try:
            baseline = payload.get("baseline")
            speedup = payload.get("speedup_over_baseline")
            ppc = payload.get("ppc_gain_over_baseline")
            diagnostics = payload.get("diagnostics")
            return cls(
                scenario_key=str(payload["scenario_key"]),
                scheme=resolve_scheme(payload["scheme"]),
                point=DesignPoint.from_dict(payload["point"]),
                baseline=(
                    None if baseline is None else DesignPoint.from_dict(baseline)
                ),
                speedup_over_baseline=None if speedup is None else float(speedup),
                ppc_gain_over_baseline=None if ppc is None else float(ppc),
                diagnostics=None if diagnostics is None else dict(diagnostics),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed optimize-response payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class BatchRequest:
    """A whole exploration grid as one request.

    Routed through :func:`repro.explore.executor.run_sweep`, so batch
    submissions get the parallel executor, per-cell failure containment,
    and the content-addressed result cache for free.

    Attributes:
        spec: The sweep grid (workloads × topologies × budgets × schemes).
        workers: Process-pool width; 1 solves inline.
        cache_dir: Content-addressed on-disk result cache directory;
            ``None`` uses a per-service in-memory cache.
    """

    spec: "SweepSpec"
    workers: int = 1
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        Only name-addressable specs serialize (a spec carrying concrete
        ``Workload`` or ``CostModel`` objects round-trips through the
        registry names it was built from, exactly as spec files do).
        ``cache_dir`` is interpreted by whichever process executes the
        request — for remote submission it names a *server-side* cache.
        """
        return {
            "schema_version": REQUEST_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "workers": self.workers,
            "cache_dir": self.cache_dir,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchRequest":
        """Rebuild a batch request from :meth:`to_dict` output."""
        from repro.explore.spec import SweepSpec

        check_schema_version(
            payload, _READABLE_REQUEST_VERSIONS, "request",
            default=REQUEST_SCHEMA_VERSION,
        )
        try:
            workers = payload.get("workers", 1)
            cache_dir = payload.get("cache_dir")
            return cls(
                spec=SweepSpec.from_dict(payload["spec"]),
                workers=int(workers),
                cache_dir=None if cache_dir is None else str(cache_dir),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed batch-request payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class BatchResponse:
    """The answer to one :class:`BatchRequest`: the assembled sweep rows.

    Attributes:
        sweep: The grid rows plus execution accounting.
        diagnostics: Sweep telemetry remote clients would otherwise lose
            (``repro explore --profile`` prints the same numbers locally):
            ``fanout_cells`` — duplicate grid cells served by copying;
            ``cache_hits`` / ``solver_calls`` — the cache split;
            ``warm_hit_rate`` plus the ``profile`` object — per-stage
            timings and warm-start accounting of this particular
            execution. ``None`` on payloads that predate schema v3.
    """

    sweep: "SweepResult"
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready payload (row schema is the explore artifact format)."""
        return {
            "schema_version": RESPONSE_SCHEMA_VERSION,
            "sweep": self.sweep.to_dict(),
            "diagnostics": (
                None if self.diagnostics is None else dict(self.diagnostics)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchResponse":
        """Rebuild a batch response from :meth:`to_dict` output (v2 or v3)."""
        from repro.explore.records import SweepResult

        check_schema_version(payload, _READABLE_RESPONSE_VERSIONS, "response")
        try:
            diagnostics = payload.get("diagnostics")
            return cls(
                sweep=SweepResult.from_dict(payload["sweep"]),
                diagnostics=None if diagnostics is None else dict(diagnostics),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed batch-response payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class AnalyzeRequest:
    """Ask *why* a design point looks the way it does (schema v4).

    The target point resolves one of three ways, cheapest first:

    * ``cell`` — a cached sweep cell (:class:`~repro.explore.spec.
      ExplorationPoint`): the service reads the point from the result
      cache and **never runs the solver** (a cache miss is an error —
      analysis is read-only by contract);
    * ``scenario`` + ``bandwidths_gbps`` — an inline point evaluated
      directly (no solver);
    * ``scenario`` alone — the service solves (or serves from its
      solution memo) under ``scheme`` first, then analyzes the optimum.

    Attributes:
        scenario: Problem statement for inline/solve targets.
        cell: Cached sweep cell to analyze (mutually exclusive with
            ``scenario``).
        cache_dir: On-disk result cache holding ``cell``; ``None`` uses
            the service's in-memory batch cache.
        scheme: Scheme of the analyzed point.
        bandwidths_gbps: Explicit point to analyze (GB/s) instead of the
            scheme optimum; requires ``scenario``.
        queries: What-if perturbations to evaluate; empty runs the
            deterministic default probe set.
    """

    scenario: Scenario | None = None
    cell: "ExplorationPoint | None" = None
    cache_dir: str | None = None
    scheme: Scheme = Scheme.PERF_OPT
    bandwidths_gbps: tuple[float, ...] | None = None
    queries: tuple[WhatIfQuery, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", resolve_scheme(self.scheme))
        if (self.scenario is None) == (self.cell is None):
            raise ConfigurationError(
                "analyze request needs exactly one target: a scenario or "
                "a cached sweep cell"
            )
        if self.bandwidths_gbps is not None:
            if self.scenario is None:
                raise ConfigurationError(
                    "explicit bandwidths_gbps require a scenario target "
                    "(a cell names its own cached point)"
                )
            values = tuple(float(b) for b in self.bandwidths_gbps)
            if len(values) != self.scenario.network.num_dims:
                raise ConfigurationError(
                    f"expected {self.scenario.network.num_dims} bandwidths, "
                    f"got {len(values)}"
                )
            for value in values:
                check_positive(value, "bandwidths")
            object.__setattr__(self, "bandwidths_gbps", values)
        object.__setattr__(self, "queries", tuple(self.queries))
        for query in self.queries:
            if not isinstance(query, WhatIfQuery):
                raise ConfigurationError(
                    f"queries must be WhatIfQuery values, got "
                    f"{type(query).__name__}"
                )

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "schema_version": REQUEST_SCHEMA_VERSION,
            "scenario": (
                None if self.scenario is None else self.scenario.to_dict()
            ),
            "cell": None if self.cell is None else self.cell.to_dict(),
            "cache_dir": self.cache_dir,
            "scheme": self.scheme.value,
            "bandwidths_gbps": (
                None if self.bandwidths_gbps is None
                else list(self.bandwidths_gbps)
            ),
            "queries": [query.to_dict() for query in self.queries],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AnalyzeRequest":
        """Rebuild an analyze request from :meth:`to_dict` output."""
        from repro.explore.spec import ExplorationPoint

        check_schema_version(
            payload, _READABLE_REQUEST_VERSIONS, "request",
            default=REQUEST_SCHEMA_VERSION,
        )
        try:
            scenario = payload.get("scenario")
            cell = payload.get("cell")
            cache_dir = payload.get("cache_dir")
            bandwidths = payload.get("bandwidths_gbps")
            return cls(
                scenario=(
                    None if scenario is None else Scenario.from_dict(scenario)
                ),
                cell=(
                    None if cell is None else ExplorationPoint.from_dict(cell)
                ),
                cache_dir=None if cache_dir is None else str(cache_dir),
                scheme=resolve_scheme(payload.get("scheme", "perf")),
                bandwidths_gbps=(
                    None if bandwidths is None
                    else tuple(float(b) for b in bandwidths)
                ),
                queries=tuple(
                    WhatIfQuery.from_dict(query)
                    for query in payload.get("queries", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed analyze-request payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class AnalyzeResponse:
    """The answer to one :class:`AnalyzeRequest`.

    Attributes:
        scenario_key: Content address of the analyzed scenario.
        scheme: Scheme of the analyzed point.
        report: The bottleneck-structure + what-if report.
        source: How the target point was obtained — ``"cache"`` (a cached
            sweep cell), ``"inline"`` (explicit bandwidths), or
            ``"solve"`` (the service solved/memo-served the optimum).
        memo_hit: True when the whole response came from the service's
            analyze memo (no re-computation at all).
        diagnostics: What-if memo accounting and resolution telemetry.
    """

    scenario_key: str
    scheme: Scheme
    report: AnalysisReport
    source: str
    memo_hit: bool = False
    diagnostics: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready payload (``json.dumps``-able without custom encoders)."""
        return {
            "schema_version": RESPONSE_SCHEMA_VERSION,
            "scenario_key": self.scenario_key,
            "scheme": self.scheme.value,
            "report": self.report.to_dict(),
            "source": self.source,
            "memo_hit": self.memo_hit,
            "diagnostics": (
                None if self.diagnostics is None else dict(self.diagnostics)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AnalyzeResponse":
        """Rebuild an analyze response (introduced in v4; unchanged in v5)."""
        check_schema_version(payload, (4, RESPONSE_SCHEMA_VERSION), "response")
        try:
            diagnostics = payload.get("diagnostics")
            return cls(
                scenario_key=str(payload["scenario_key"]),
                scheme=resolve_scheme(payload["scheme"]),
                report=AnalysisReport.from_dict(payload["report"]),
                source=str(payload["source"]),
                memo_hit=bool(payload.get("memo_hit", False)),
                diagnostics=None if diagnostics is None else dict(diagnostics),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed analyze-response payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class CostrategyRequest:
    """Joint parallelization-strategy × bandwidth co-optimization (v5).

    The service enumerates the :class:`~repro.strategy.space.StrategySpace`
    over the topology's node count, solves every surviving strategy across
    ``budgets_gbps`` through the shared result cache (warm-starting within
    and across strategies), and answers with the
    :class:`~repro.strategy.frontier.StrategyFrontier`.

    Attributes:
        workload: Registered workload preset name (the strategy axis
            re-parallelizes it, so only presets are accepted — a concrete
            workload already fixes its parallelism).
        topology: Topology preset name; its node count is the number the
            strategy space factorizes.
        budgets_gbps: Total-bandwidth budgets (GB/s) forming the grid's
            bandwidth axis.
        scheme: Allocation scheme for every solved cell.
        space: Strategy-space bounds; ``None`` means the default space
            (power-of-two TP degrees up to the node count, no CP/EP/PP).
        dim_caps_gbps: Per-dimension bandwidth caps as ``(dim, GB/s)``
            pairs, applied to every cell (the sweep-spec convention).
        cache_dir: On-disk result cache directory; ``None`` uses the
            service's shared in-memory batch cache.
        attribution: Attach per-strategy binding-dimension attribution to
            the frontier (read-only analyze calls; never fails the search).
    """

    workload: str
    topology: str
    budgets_gbps: tuple[float, ...]
    scheme: Scheme = Scheme.PERF_OPT
    space: "StrategySpace | None" = None
    dim_caps_gbps: tuple[tuple[int, float], ...] = ()
    cache_dir: str | None = None
    attribution: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", resolve_scheme(self.scheme))
        if not isinstance(self.workload, str) or not self.workload:
            raise ConfigurationError(
                "costrategy request needs a workload preset name"
            )
        if not isinstance(self.topology, str) or not self.topology:
            raise ConfigurationError(
                "costrategy request needs a topology preset name"
            )
        budgets = tuple(float(b) for b in self.budgets_gbps)
        if not budgets:
            raise ConfigurationError(
                "costrategy request needs at least one bandwidth budget"
            )
        for budget in budgets:
            check_positive(budget, "bandwidth budgets")
        object.__setattr__(self, "budgets_gbps", budgets)
        caps = tuple(
            (int(dim), float(cap)) for dim, cap in self.dim_caps_gbps
        )
        for _, cap in caps:
            check_positive(cap, "dimension caps")
        object.__setattr__(self, "dim_caps_gbps", caps)

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "schema_version": REQUEST_SCHEMA_VERSION,
            "workload": self.workload,
            "topology": self.topology,
            "budgets_gbps": list(self.budgets_gbps),
            "scheme": self.scheme.value,
            "space": None if self.space is None else self.space.to_dict(),
            "dim_caps_gbps": [list(pair) for pair in self.dim_caps_gbps],
            "cache_dir": self.cache_dir,
            "attribution": self.attribution,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CostrategyRequest":
        """Rebuild a costrategy request from :meth:`to_dict` output.

        A ``cross_warm`` key, which payloads and job records written while
        cross-strategy seeding was optional carry, is ignored.
        """
        from repro.strategy.space import StrategySpace

        check_schema_version(
            payload, _READABLE_REQUEST_VERSIONS, "request",
            default=REQUEST_SCHEMA_VERSION,
        )
        try:
            space = payload.get("space")
            cache_dir = payload.get("cache_dir")
            return cls(
                workload=str(payload["workload"]),
                topology=str(payload["topology"]),
                budgets_gbps=tuple(
                    float(b) for b in payload.get("budgets_gbps", ())
                ),
                scheme=resolve_scheme(payload.get("scheme", "perf")),
                space=(
                    None if space is None else StrategySpace.from_dict(space)
                ),
                dim_caps_gbps=tuple(
                    (int(dim), float(cap))
                    for dim, cap in payload.get("dim_caps_gbps", ())
                ),
                cache_dir=None if cache_dir is None else str(cache_dir),
                attribution=bool(payload.get("attribution", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed costrategy-request payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class CostrategyResponse:
    """The answer to one :class:`CostrategyRequest`.

    Attributes:
        frontier: The joint search's decision surface — best strategy per
            budget, the strategy × bandwidth Pareto set, per-strategy
            attribution, and every underlying cell (its ``diagnostics``
            carry the warm-start accounting).
    """

    frontier: "StrategyFrontier"

    def to_dict(self) -> dict:
        """JSON-ready payload (``json.dumps``-able without custom encoders)."""
        return {
            "schema_version": RESPONSE_SCHEMA_VERSION,
            "frontier": self.frontier.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CostrategyResponse":
        """Rebuild a costrategy response (v5 — the shape's first version)."""
        from repro.strategy.frontier import StrategyFrontier

        check_schema_version(payload, (RESPONSE_SCHEMA_VERSION,), "response")
        try:
            return cls(
                frontier=StrategyFrontier.from_dict(payload["frontier"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed costrategy-response payload: {exc}"
            ) from exc


# ---------------------------------------------------------------------------
# The job envelope: one wire shape for every request kind
# ---------------------------------------------------------------------------

#: ``kind`` discriminator values of the request envelope. ``analyze`` and
#: ``costrategy`` are envelope-only on the wire (a bare analyze payload
#: would sniff as an optimize request via its ``scenario`` field; a bare
#: costrategy payload has no historical bare shape to honor).
REQUEST_KINDS = ("optimize", "batch", "analyze", "costrategy")

#: Any request value the service dispatches on.
ServiceRequest = (
    OptimizeRequest | BatchRequest | AnalyzeRequest | CostrategyRequest
)


def request_kind(request: "ServiceRequest") -> str:
    """The envelope ``kind`` discriminator for a request value."""
    if isinstance(request, BatchRequest):
        return "batch"
    if isinstance(request, AnalyzeRequest):
        return "analyze"
    if isinstance(request, CostrategyRequest):
        return "costrategy"
    if isinstance(request, OptimizeRequest):
        return "optimize"
    raise ConfigurationError(
        f"unknown request type {type(request).__name__}; expected "
        "OptimizeRequest, BatchRequest, AnalyzeRequest, or CostrategyRequest"
    )


def request_to_dict(request: "ServiceRequest") -> dict:
    """Wrap a request in the job envelope; inverse of
    :func:`request_from_dict`.

    The envelope is what ``POST /v3/jobs`` accepts and what job ids are
    derived from::

        {"schema_version": 5, "kind": "optimize", "request": {...}}
    """
    return {
        "schema_version": REQUEST_SCHEMA_VERSION,
        "kind": request_kind(request),
        "request": request.to_dict(),
    }


def request_from_dict(payload: Mapping) -> "ServiceRequest":
    """Parse a request payload, enveloped or bare, any readable version.

    Three accepted shapes:

    * the v3–v5 envelope (``kind`` + ``request``; ``analyze`` and
      ``costrategy`` require it),
    * a bare v1/v2/v3 :class:`OptimizeRequest` payload (up-converted — the
      historical wire format, identified by its ``scenario`` field),
    * a bare :class:`BatchRequest` payload (identified by ``spec``).
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"request payload must be an object, got {type(payload).__name__}"
        )
    if "kind" in payload:
        kind = payload["kind"]
        if kind not in REQUEST_KINDS:
            raise ConfigurationError(
                f"unknown request kind {kind!r}; expected one of {REQUEST_KINDS}"
            )
        check_schema_version(
            payload, _READABLE_REQUEST_VERSIONS, "request",
            default=REQUEST_SCHEMA_VERSION,
        )
        body = payload.get("request")
        if not isinstance(body, Mapping):
            raise ConfigurationError(
                "request envelope is missing its 'request' object"
            )
        if kind == "batch":
            return BatchRequest.from_dict(body)
        if kind == "analyze":
            return AnalyzeRequest.from_dict(body)
        if kind == "costrategy":
            return CostrategyRequest.from_dict(body)
        return OptimizeRequest.from_dict(body)
    # Bare payloads: v1/v2 optimize requests (and their v3 equivalents)
    # carry a scenario; batch payloads carry a spec.
    if "scenario" in payload:
        return OptimizeRequest.from_dict(payload)
    if "spec" in payload:
        return BatchRequest.from_dict(payload)
    raise ConfigurationError(
        "request payload has neither a 'kind' envelope, a 'scenario' "
        "(optimize request), nor a 'spec' (batch request)"
    )
