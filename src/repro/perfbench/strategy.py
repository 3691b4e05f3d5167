"""Strategy-search wall-clock benchmark: cells per second of a joint search.

Where :mod:`repro.perfbench.sweep` times one budget column, this module
times the whole joint strategy × bandwidth search and writes the
``BENCH_strategy.json`` artifact: end-to-end wall clock, cells per
second, the strategy counts, and the audit of every cell. It runs
PerfPerCostOptBW cells by default, the scheme of the paper's co-design
studies.

The audit is the benchmark's gate, same contract as the sweep bench:
every solved strategy × budget cell is solved again with its multipliers
and must match its row and pass the optimality oracle
(:func:`~repro.perfbench.harness.audit_cells`), or the run raises
:class:`~repro.perfbench.harness.BenchEquivalenceError` and no artifact is
written.

Every repetition starts from cleared solver caches, a fresh service, and
a fresh result cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api.service import reset_service
from repro.core.solver import clear_solver_caches
from repro.obs import Tracer, use_tracer
from repro.perfbench.harness import audit_cells

#: Bump when the BENCH_strategy.json layout changes.
#: v2: one timed run and an audit of every cell replace the warm-vs-cold
#: pair, its equivalence check and the solver-start reduction.
STRATEGY_BENCH_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class StrategyBenchConfig:
    """One strategy-benchmark invocation.

    Attributes:
        workload: Preset workload the strategy axis re-parallelizes.
        topology: Topology whose node count the space factorizes.
        budgets_gbps: The bandwidth column every strategy solves.
        max_tp: Strategy-space TP bound (power-of-two degrees below it).
        scheme: Scheme every cell runs (registry alias).
        repeats: Best-of-N wall-clock repetitions.
        quick: True for the seconds-scale CI smoke configuration.
        label: Free-form tag recorded in the artifact.
    """

    workload: str = "Turing-NLG"
    topology: str = "3D-512"
    budgets_gbps: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0)
    max_tp: int = 8
    scheme: str = "perf-per-cost"
    repeats: int = 3
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


def _timed_search(config: StrategyBenchConfig):
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
        )
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            search = candidate
    return best, search


def run_strategy_benchmark(config: StrategyBenchConfig) -> dict:
    """Run the strategy benchmark; returns the artifact.

    Raises :class:`~repro.perfbench.harness.BenchEquivalenceError` when a
    cell fails its audit — timings of a wrong answer cannot be trusted,
    so no artifact escapes.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        wall_s, search = _timed_search(config)
    rows = search.rows()
    audit = audit_cells(rows)

    diag = search.diagnostics
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
            "quick": config.quick,
            "label": config.label,
        },
        "strategies": diag.get("strategies", len(search.runs)),
        "pruned": diag.get("pruned", 0),
        "cells": len(rows),
        "errors": diag.get("errors", 0),
        "wall_s": wall_s,
        "cells_per_s": len(rows) / max(wall_s, 1e-12),
        "audit": audit,
        "spans": tracer.summary(),
    }


def format_strategy_report(artifact: dict) -> str:
    """Human-readable summary of one BENCH_strategy.json payload."""
    config = artifact["config"]
    audit = artifact["audit"]
    return "\n".join([
        f"strategy bench — {config['workload']} on {config['topology']}, "
        f"{artifact['strategies']} strategies × "
        f"{len(config['budgets_gbps'])} budgets = {artifact['cells']} cells "
        f"({config['scheme']}, repeats={config['repeats']})",
        f"  wall:  {artifact['wall_s'] * 1e3:>9.1f} ms "
        f"({artifact['cells_per_s']:.1f} cells/s)",
        f"  audit: ok ({audit['cells']} cells certified, max gap "
        f"{audit['max_gap']:.1e})",
    ])
