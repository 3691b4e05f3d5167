"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
experiment once, prints the same rows/series the paper reports (so the
output can be compared side by side with the publication), asserts the
qualitative *shape* (who wins, rough factors, crossovers), and hands a
representative kernel to pytest-benchmark for timing.

Absolute numbers are not expected to match the authors' ASTRA-sim testbed.
Each benchmark prints its paper reference next to the measured value, and
states in place any known gap between the two.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.api import OptimizeRequest, build_scenario, get_service
from repro.core import Scheme
from repro.core.results import DesignPoint
from repro.explore import ResultCache, SweepResult, SweepSpec, run_sweep
from repro.topology import MultiDimNetwork

#: The Fig. 13/14 sweep range: 100–1,000 GB/s per NPU (Sec. VI-A).
BW_SWEEP_GBPS: tuple[int, ...] = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)

#: Session-wide in-memory exploration cache. Figs. 13 and 14 sweep the
#: identical grid (they report different metrics of the same design points),
#: so whichever benchmark runs second gets its panels as pure cache hits.
EXPLORE_CACHE = ResultCache()


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Fixed-width table printer for benchmark reports."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    print(line)
    print("  ".join("-" * width for width in widths))
    for row in materialized:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def optimize_workload(
    workload_name: str,
    topology_name: str,
    total_bw_gbps: float,
    scheme: Scheme,
) -> tuple[DesignPoint, DesignPoint]:
    """(optimized point, EqualBW baseline) for one sweep cell.

    Stated as a request against the Scenario/Service API; the per-process
    service memoizes the compiled engine, so benchmarks revisiting one
    workload × topology pair share its expression tree.
    """
    scenario = build_scenario(
        topology=topology_name,
        workloads=[workload_name],
        total_bw_gbps=total_bw_gbps,
    )
    response = get_service().submit(
        OptimizeRequest(scenario=scenario, scheme=scheme)
    )
    assert response.baseline is not None
    return response.point, response.baseline


def sweep_panel(
    workload_name: str,
    topology_name: str,
    schemes: Sequence[Scheme],
    bw_points: Sequence[int] = BW_SWEEP_GBPS,
) -> SweepResult:
    """One figure panel as an exploration sweep, served via the shared cache.

    Every cell must solve — a panel with a failed design point would print a
    silently incomplete figure, so errors surface immediately.
    """
    spec = SweepSpec(
        workloads=(workload_name,),
        topologies=(topology_name,),
        bandwidths_gbps=tuple(float(bw) for bw in bw_points),
        schemes=tuple(schemes),
    )
    sweep = run_sweep(spec, cache=EXPLORE_CACHE)
    failed = [result for result in sweep.results if not result.ok]
    assert not failed, f"panel cell failed: {failed[0].point.label()}: {failed[0].error}"
    return sweep


def sweep_speedups(
    workload_name: str,
    topology_name: str,
    scheme: Scheme,
    bw_points: Sequence[int] = BW_SWEEP_GBPS,
) -> list[tuple[int, float, float]]:
    """Rows of (BW GB/s, speedup over EqualBW, perf-per-cost over EqualBW)."""
    sweep = sweep_panel(workload_name, topology_name, (scheme,), bw_points)
    return [
        (bw, result.speedup_over_equal, result.ppc_gain_over_equal)
        for bw, result in zip(bw_points, sweep.results)
    ]


def merged_2d_topology() -> MultiDimNetwork:
    """The 2D companion of 4D-4K: all scale-up dims merged (Fig. 10)."""
    return MultiDimNetwork.from_notation("RI(128)_SW(32)", name="2D-4K")
