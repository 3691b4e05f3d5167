"""Result records produced by the exploration executor.

An :class:`ExplorationResult` flattens one solved cell into plain scalars —
the optimized split, step times, dollar cost, and the two headline metrics
relative to the cell's own EqualBW baseline — so it serializes to JSON
losslessly and compares exactly across serial, parallel, and cached runs. A
failed solve is a first-class row with ``error`` set instead of a sweep
abort.

A :class:`SweepResult` is the ordered collection for a whole grid plus the
execution accounting (cache hits, solver calls, failures).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.core.results import Scheme
from repro.utils.errors import ConfigurationError

from repro.explore.spec import ExplorationPoint, resolve_scheme


@dataclass(frozen=True)
class ExplorationResult:
    """One solved (or failed) exploration cell.

    Attributes:
        point: The cell this result answers.
        key: Content address of the cell (empty until the executor sets it).
        bandwidths_gbps: Optimized per-dimension split, GB/s.
        step_times_ms: Per-workload training-step time, milliseconds.
        network_cost: Dollar cost of the optimized network.
        speedup_over_equal: Training speedup vs the EqualBW baseline.
        ppc_gain_over_equal: Perf-per-cost gain vs the EqualBW baseline.
        solver_message: Optimizer diagnostics.
        solver_starts: Seeds the multi-start actually ran, 1 for a PerfOpt
            interior-point run (0 when unknown, e.g. EqualBW rows and
            pre-continuation cache entries).
        warm_start: Continuation diagnostics — ``"cold"``, ``"accepted"``,
            or ``"rejected:<reason>"``; empty when the solve predates
            continuation or never reached the solver.
        error: Failure description; empty for successful solves.
        from_cache: True when this run served the row from the cache.
    """

    point: ExplorationPoint
    key: str = ""
    bandwidths_gbps: tuple[float, ...] = ()
    step_times_ms: dict[str, float] = field(default_factory=dict)
    network_cost: float = 0.0
    speedup_over_equal: float = 0.0
    ppc_gain_over_equal: float = 0.0
    solver_message: str = ""
    solver_starts: int = 0
    warm_start: str = ""
    error: str = ""
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell solved successfully."""
        return not self.error

    @property
    def step_time_ms(self) -> float:
        """Aggregate step time across the cell's workloads (unit weights)."""
        return sum(self.step_times_ms.values())

    def metric(self, name: str) -> float:
        """Look up a named result metric (the Pareto/summary axes)."""
        try:
            extractor = METRICS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown metric {name!r}; known: {sorted(METRICS)}"
            ) from None
        return extractor(self)

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "point": self.point.to_dict(),
            "key": self.key,
            "bandwidths_gbps": list(self.bandwidths_gbps),
            "step_times_ms": dict(self.step_times_ms),
            "network_cost": self.network_cost,
            "speedup_over_equal": self.speedup_over_equal,
            "ppc_gain_over_equal": self.ppc_gain_over_equal,
            "solver_message": self.solver_message,
            "solver_starts": self.solver_starts,
            "warm_start": self.warm_start,
            "error": self.error,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExplorationResult":
        """Rebuild a result row from :meth:`to_dict` output."""
        try:
            return cls(
                point=ExplorationPoint.from_dict(payload["point"]),
                key=str(payload.get("key", "")),
                bandwidths_gbps=tuple(
                    float(b) for b in payload.get("bandwidths_gbps", ())
                ),
                step_times_ms={
                    str(name): float(t)
                    for name, t in payload.get("step_times_ms", {}).items()
                },
                network_cost=float(payload.get("network_cost", 0.0)),
                speedup_over_equal=float(payload.get("speedup_over_equal", 0.0)),
                ppc_gain_over_equal=float(payload.get("ppc_gain_over_equal", 0.0)),
                solver_message=str(payload.get("solver_message", "")),
                solver_starts=int(payload.get("solver_starts", 0)),
                warm_start=str(payload.get("warm_start", "")),
                error=str(payload.get("error", "")),
                from_cache=bool(payload.get("from_cache", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed exploration-result payload: {exc}"
            ) from exc


#: Named result metrics available to Pareto analysis and summary tables.
METRICS: dict[str, Callable[[ExplorationResult], float]] = {
    "total_bw_gbps": lambda r: r.point.total_bw_gbps,
    "step_time_ms": lambda r: r.step_time_ms,
    "network_cost": lambda r: r.network_cost,
    "speedup": lambda r: r.speedup_over_equal,
    "ppc_gain": lambda r: r.ppc_gain_over_equal,
}


@dataclass(frozen=True)
class SweepProfile:
    """Per-stage timing and warm-start telemetry of one ``run_sweep`` call.

    Wall-clock numbers are never serialized with the sweep rows (they vary
    run to run and would break row-identity comparisons); the profile rides
    on :attr:`SweepResult.profile` for the CLI's ``--profile`` report and
    the sweep benchmark's cache-hit breakdown.

    Attributes:
        lookup_s: Phase-1 time — content-addressing cells, cache lookups.
        solve_s: Phase-2 time — chain solving (inline or pool drain).
        assemble_s: Row re-assembly and completeness accounting.
        total_s: End-to-end ``run_sweep`` wall time.
        chains: Continuation chains the grid partitioned into.
        warm_accepted: Solved cells whose warm start passed the trust check.
        warm_rejected: Solved cells that fell back to the full fan-out.
        cold_solves: Solved cells that never had a warm seed.
        cross_warm_accepted: Of ``warm_accepted``, those seeded by the
            previous strategy column's optimum at the same budget.
    """

    lookup_s: float = 0.0
    solve_s: float = 0.0
    assemble_s: float = 0.0
    total_s: float = 0.0
    chains: int = 0
    warm_accepted: int = 0
    warm_rejected: int = 0
    cold_solves: int = 0
    cross_warm_accepted: int = 0

    @property
    def warm_hit_rate(self) -> float:
        """Trusted warm starts over all solver calls (0.0 when none ran)."""
        solves = self.warm_accepted + self.warm_rejected + self.cold_solves
        return self.warm_accepted / solves if solves else 0.0

    def to_dict(self) -> dict:
        """JSON-ready payload (benchmark artifacts only, never cache rows)."""
        return {
            "lookup_s": self.lookup_s,
            "solve_s": self.solve_s,
            "assemble_s": self.assemble_s,
            "total_s": self.total_s,
            "chains": self.chains,
            "warm_accepted": self.warm_accepted,
            "warm_rejected": self.warm_rejected,
            "cold_solves": self.cold_solves,
            "cross_warm_accepted": self.cross_warm_accepted,
            "warm_hit_rate": self.warm_hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        (``warm_hit_rate`` is a derived property and is ignored on input.)
        """
        try:
            return cls(
                lookup_s=float(payload.get("lookup_s", 0.0)),
                solve_s=float(payload.get("solve_s", 0.0)),
                assemble_s=float(payload.get("assemble_s", 0.0)),
                total_s=float(payload.get("total_s", 0.0)),
                chains=int(payload.get("chains", 0)),
                warm_accepted=int(payload.get("warm_accepted", 0)),
                warm_rejected=int(payload.get("warm_rejected", 0)),
                cold_solves=int(payload.get("cold_solves", 0)),
                cross_warm_accepted=int(payload.get("cross_warm_accepted", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed sweep-profile payload: {exc}"
            ) from exc

    def format(self) -> str:
        """Human-readable per-stage summary (the ``--profile`` report)."""
        solves = self.warm_accepted + self.warm_rejected + self.cold_solves
        lines = [
            "sweep profile:",
            f"  cache lookup: {self.lookup_s * 1e3:>9.1f} ms",
            f"  solving:      {self.solve_s * 1e3:>9.1f} ms "
            f"({solves} solves in {self.chains} chains)",
            f"  assembly:     {self.assemble_s * 1e3:>9.1f} ms",
            f"  total:        {self.total_s * 1e3:>9.1f} ms",
            f"  warm starts:  {self.warm_accepted} accepted / "
            f"{self.warm_rejected} rejected / {self.cold_solves} cold "
            f"({self.warm_hit_rate:.1%} hit rate)",
        ]
        return "\n".join(lines)


@dataclass
class SweepResult:
    """All rows of one sweep, in grid order, plus execution accounting.

    Attributes:
        results: One row per grid cell, in :meth:`SweepSpec.expand` order.
        cache_hits: Rows served from the cache without solving.
        solver_calls: Distinct optimizations actually executed.
        fanout_cells: Cells resolved by copying another identical cell's
            result (grid duplicates) — so ``cache_hits + solver_calls +
            fanout_cells + error rows`` accounts for every cell exactly
            once and progress callbacks never over-report.
        profile: Per-stage timing/warm-start telemetry; excluded from
            :meth:`to_dict` because wall-clock numbers are not row data.
    """

    results: list[ExplorationResult]
    cache_hits: int = 0
    solver_calls: int = 0
    fanout_cells: int = 0
    profile: SweepProfile | None = None

    @property
    def cache_misses(self) -> int:
        return len(self.results) - self.cache_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of rows served from the cache (0.0 for an empty sweep)."""
        return self.cache_hits / len(self.results) if self.results else 0.0

    @property
    def num_errors(self) -> int:
        return sum(1 for result in self.results if not result.ok)

    def ok_results(self) -> list[ExplorationResult]:
        """The successfully solved rows, in grid order."""
        return [result for result in self.results if result.ok]

    def get(
        self,
        workload: str | None = None,
        topology: str | None = None,
        total_bw_gbps: float | None = None,
        scheme: Scheme | str | None = None,
    ) -> ExplorationResult:
        """The unique row matching the given coordinates.

        Raises :class:`ConfigurationError` when no row or several rows match
        — a misaddressed lookup is a bug in the caller, not an empty answer.
        """
        matches = self.filter(
            workload=workload,
            topology=topology,
            total_bw_gbps=total_bw_gbps,
            scheme=scheme,
        )
        if len(matches) != 1:
            raise ConfigurationError(
                f"expected exactly one row for workload={workload!r} "
                f"topology={topology!r} bw={total_bw_gbps!r} scheme={scheme!r}, "
                f"found {len(matches)}"
            )
        return matches[0]

    def filter(
        self,
        workload: str | None = None,
        topology: str | None = None,
        total_bw_gbps: float | None = None,
        scheme: Scheme | str | None = None,
    ) -> list[ExplorationResult]:
        """Rows matching every given coordinate, in grid order."""
        wanted_scheme = resolve_scheme(scheme) if scheme is not None else None
        matches = []
        for result in self.results:
            point = result.point
            if workload is not None and point.workload_name != workload:
                continue
            if topology is not None and point.topology != topology:
                continue
            if total_bw_gbps is not None and point.total_bw_gbps != float(total_bw_gbps):
                continue
            if wanted_scheme is not None and point.scheme is not wanted_scheme:
                continue
            matches.append(result)
        return matches

    def to_dict(self) -> dict:
        """JSON-ready payload for result artifacts."""
        return {
            "results": [result.to_dict() for result in self.results],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "solver_calls": self.solver_calls,
            "fanout_cells": self.fanout_cells,
            "num_errors": self.num_errors,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepResult":
        """Rebuild a sweep from :meth:`to_dict` output.

        The inverse remote clients (``repro.serve.client``) need to turn a
        batch-job result payload back into first-class rows. Derived
        accounting (``cache_misses``, ``hit_rate``, ``num_errors``) is
        recomputed, not read; the profile is wall-clock telemetry and is
        never serialized with the rows, so it comes back ``None``.
        """
        try:
            return cls(
                results=[
                    ExplorationResult.from_dict(row)
                    for row in payload.get("results", ())
                ],
                cache_hits=int(payload.get("cache_hits", 0)),
                solver_calls=int(payload.get("solver_calls", 0)),
                fanout_cells=int(payload.get("fanout_cells", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed sweep-result payload: {exc}"
            ) from exc
