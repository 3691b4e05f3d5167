"""Strategy-search wall-clock benchmark: warm-start reuse vs cold columns.

Where :mod:`repro.perfbench.sweep` times one budget column, this module
times the whole joint strategy × bandwidth search twice — once with every
cell solved cold (``continuation=False``: each strategy's column pays the
full multi-start bill independently) and once with the
default warm-start threading (within columns and across adjacent
strategies) — and writes the ``BENCH_strategy.json`` artifact: end-to-end
wall clock, candidates per second, the warm-hit breakdown, and the
solver-start reduction the reuse actually buys. It runs PerfPerCostOptBW
cells by default: that scheme is the one with continuation (a PerfOptBW
cell is one interior-point run that takes no warm start).

The equivalence check is the benchmark's gate, same contract as the sweep
bench: for every strategy × budget cell the warm path's achieved objective
must not sit *above* the cold path's by more than ``objective_rtol`` or
the run raises :class:`~repro.perfbench.harness.BenchEquivalenceError` and
no artifact is written. One-sided: a warm seed landing on a *better* point
is reported (``max_objective_gain``), never a failure.

Both runs start from cleared solver caches, a fresh service, and a fresh
result cache, so the measured ratio isolates warm-start reuse itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api.service import reset_service
from repro.core.solver import clear_solver_caches
from repro.obs import Tracer, use_tracer
from repro.perfbench.harness import BenchEquivalenceError
from repro.utils.errors import ReproError

#: Bump when the BENCH_strategy.json layout changes.
STRATEGY_BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class StrategyBenchConfig:
    """One strategy-benchmark invocation.

    Attributes:
        workload: Preset workload the strategy axis re-parallelizes.
        topology: Topology whose node count the space factorizes.
        budgets_gbps: The bandwidth column every strategy solves.
        max_tp: Strategy-space TP bound (power-of-two degrees below it).
        scheme: Scheme every cell runs (registry alias).
        repeats: Best-of-N wall-clock repetitions per path.
        objective_rtol: Per-cell relative objective tolerance, warm vs
            cold (the documented continuation tolerance).
        quick: True for the seconds-scale CI smoke configuration.
        label: Free-form tag recorded in the artifact.
    """

    workload: str = "Turing-NLG"
    topology: str = "3D-512"
    budgets_gbps: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0)
    max_tp: int = 8
    scheme: str = "perf-per-cost"
    repeats: int = 3
    objective_rtol: float = 2e-2
    quick: bool = False
    label: str = ""


def quick_strategy_config() -> StrategyBenchConfig:
    """A seconds-scale configuration for CI smoke runs."""
    return StrategyBenchConfig(
        workload="Turing-NLG",
        topology="Google TPUv2",
        budgets_gbps=(100.0, 200.0, 300.0),
        max_tp=2,
        repeats=2,
        quick=True,
        label="quick",
    )


def _cell_objective(result) -> float:
    """The scheme-appropriate scalar a cell optimizes (for equivalence)."""
    if result.point.scheme.value == "PerfPerCostOptBW":
        return result.step_time_ms * result.network_cost
    return result.step_time_ms


def _timed_search(config: StrategyBenchConfig, warm: bool):
    """Best-of-N cold-cache run of one joint search; (seconds, result)."""
    from repro.api.registry import resolve_scheme
    from repro.explore import ResultCache
    from repro.strategy import StrategySpace, joint_search, tagged_workload

    best = float("inf")
    search = None
    for _ in range(max(1, config.repeats)):
        # Every repetition pays the full pipeline — workload construction,
        # expression compilation, solving — like a fresh CLI invocation.
        clear_solver_caches()
        tagged_workload.cache_clear()
        reset_service()
        start = time.perf_counter()
        candidate = joint_search(
            config.workload,
            config.topology,
            config.budgets_gbps,
            space=StrategySpace(max_tp=config.max_tp),
            scheme=resolve_scheme(config.scheme),
            cache=ResultCache(),
            continuation=warm,
        )
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            search = candidate
    return best, search


def _equivalence(cold, warm, rtol: float) -> dict:
    """Per-cell objective comparison; raises on drift past ``rtol``."""
    cold_rows, warm_rows = cold.rows(), warm.rows()
    if len(cold_rows) != len(warm_rows):
        raise ReproError(
            f"search shape drifted: cold has {len(cold_rows)} cells, "
            f"warm {len(warm_rows)}"
        )
    worst = 0.0  # warm worse than cold (the failure direction)
    best_gain = 0.0  # warm better than cold (reported, never a failure)
    worst_label = ""
    for cold_row, warm_row in zip(cold_rows, warm_rows):
        if cold_row.ok != warm_row.ok:
            raise BenchEquivalenceError(
                f"warm-start reuse changed cell outcome at "
                f"{cold_row.point.label()}: cold ok={cold_row.ok}, "
                f"warm ok={warm_row.ok}"
            )
        if not cold_row.ok:
            continue
        reference = _cell_objective(cold_row)
        drift = (_cell_objective(warm_row) - reference) / max(
            abs(reference), 1e-30
        )
        if drift > worst:
            worst = drift
            worst_label = cold_row.point.label()
        best_gain = max(best_gain, -drift)
    if worst > rtol:
        raise BenchEquivalenceError(
            f"warm-start reuse drifted past tolerance: objective rel diff "
            f"{worst:.3e} > {rtol:g} at {worst_label}"
        )
    return {
        "max_objective_rel_diff": worst,
        "max_objective_gain": best_gain,
        "rtol": rtol,
        "ok": True,
    }


def _total_starts(search) -> int:
    """Multi-start seed attempts the whole search paid for."""
    return sum(row.solver_starts for row in search.rows() if row.ok)


def run_strategy_benchmark(config: StrategyBenchConfig) -> dict:
    """Run the warm-vs-cold strategy benchmark; returns the artifact.

    Raises :class:`BenchEquivalenceError` when the warm path's design
    points drift past ``config.objective_rtol`` — drifted timings cannot
    be trusted, so no artifact escapes.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        cold_s, cold = _timed_search(config, warm=False)
        warm_s, warm = _timed_search(config, warm=True)
    equivalence = _equivalence(cold, warm, config.objective_rtol)

    cells = len(warm.rows())
    diag = warm.diagnostics
    starts_cold = _total_starts(cold)
    starts_warm = _total_starts(warm)
    return {
        "schema_version": STRATEGY_BENCH_SCHEMA_VERSION,
        "unix_time": time.time(),
        "config": {
            "workload": config.workload,
            "topology": config.topology,
            "budgets_gbps": list(config.budgets_gbps),
            "max_tp": config.max_tp,
            "scheme": config.scheme,
            "repeats": config.repeats,
            "objective_rtol": config.objective_rtol,
            "quick": config.quick,
            "label": config.label,
        },
        "strategies": diag.get("strategies", len(warm.runs)),
        "pruned": diag.get("pruned", 0),
        "cells": cells,
        "errors": diag.get("errors", 0),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / max(warm_s, 1e-12),
        "candidates_per_sec_cold": cells / max(cold_s, 1e-12),
        "candidates_per_sec_warm": cells / max(warm_s, 1e-12),
        "breakdown": {
            "warm_accepted": diag.get("warm_accepted", 0),
            "warm_rejected": diag.get("warm_rejected", 0),
            "cold_solves": diag.get("cold_solves", 0),
            "cross_warm_accepted": diag.get("cross_warm_accepted", 0),
            "warm_hit_rate": diag.get("warm_hit_rate", 0.0),
            "solver_starts_cold": starts_cold,
            "solver_starts_warm": starts_warm,
            # The reuse metric the CI floor gates on: the fraction of the
            # cold baseline's multi-start work the warm path never runs.
            "start_reduction": (
                1.0 - starts_warm / starts_cold if starts_cold else 0.0
            ),
        },
        "equivalence": equivalence,
        "spans": tracer.summary(),
    }


def format_strategy_report(artifact: dict) -> str:
    """Human-readable summary of one BENCH_strategy.json payload."""
    config = artifact["config"]
    breakdown = artifact["breakdown"]
    equivalence = artifact["equivalence"]
    return "\n".join([
        f"strategy bench — {config['workload']} on {config['topology']}, "
        f"{artifact['strategies']} strategies × "
        f"{len(config['budgets_gbps'])} budgets = {artifact['cells']} cells "
        f"(repeats={config['repeats']})",
        f"  cold (independent):  {artifact['cold_s'] * 1e3:>9.1f} ms "
        f"({artifact['candidates_per_sec_cold']:.1f} candidates/s)",
        f"  warm (reuse):        {artifact['warm_s'] * 1e3:>9.1f} ms "
        f"({artifact['candidates_per_sec_warm']:.1f} candidates/s)",
        f"  speedup:             {artifact['speedup']:>9.2f}x",
        f"  warm starts: {breakdown['warm_accepted']} accepted / "
        f"{breakdown['warm_rejected']} rejected / "
        f"{breakdown['cold_solves']} cold "
        f"({breakdown['warm_hit_rate']:.1%} hit rate, "
        f"{breakdown['cross_warm_accepted']} across strategies)",
        f"  solver starts: {breakdown['solver_starts_cold']} cold → "
        f"{breakdown['solver_starts_warm']} warm "
        f"({breakdown['start_reduction']:.1%} reduction)",
        f"  equivalence: ok (max objective rel diff "
        f"{equivalence['max_objective_rel_diff']:.1e}, "
        f"tolerance {equivalence['rtol']:g})",
    ])
