"""Sweep-level wall-clock benchmark: cells per second over a whole grid.

Where :mod:`repro.perfbench.harness` times one solve, this module times a
whole fig13-style budget column through the real explore engine and
writes the ``BENCH_sweep.json`` artifact: end-to-end wall clock, cells per
second, the chain count, and the audit of every cell.

The audit is the benchmark's gate: every solved cell is solved again with
its multipliers and must match its row and pass the optimality oracle
(:func:`~repro.perfbench.harness.audit_cells`), or the run raises
:class:`~repro.perfbench.harness.BenchEquivalenceError` and no artifact is
written. Speed that costs solution quality is a bug, not a result.

Every repetition starts from cleared solver caches, a fresh service and a
fresh result cache, like a fresh CLI invocation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api.service import reset_service
from repro.core.solver import clear_solver_caches
from repro.obs import Tracer, use_tracer
from repro.perfbench.harness import audit_cells

#: Bump when the BENCH_sweep.json layout changes.
#: v2: one timed run and an audit of every cell replace the warm-vs-cold
#: pair and its equivalence check.
SWEEP_BENCH_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SweepBenchConfig:
    """One sweep-benchmark invocation (defaults are a fig13-style column).

    Attributes:
        workloads: Workload axis (each workload is one chain per scheme).
        topology: Topology every cell shares.
        budgets_gbps: The budget axis.
        schemes: Scheme axis (registry aliases).
        repeats: Best-of-N wall-clock repetitions.
        quick: True for the seconds-scale CI smoke configuration.
        label: Free-form tag recorded in the artifact.
    """

    workloads: tuple[str, ...] = ("GPT-3",)
    topology: str = "4D-4K"
    budgets_gbps: tuple[float, ...] = (
        100.0, 200.0, 300.0, 400.0, 500.0, 700.0, 1000.0,
    )
    schemes: tuple[str, ...] = ("perf", "perf-per-cost")
    repeats: int = 3
    quick: bool = False
    label: str = ""


def quick_sweep_config() -> SweepBenchConfig:
    """A seconds-scale configuration for CI smoke runs."""
    return SweepBenchConfig(
        workloads=("Turing-NLG",),
        topology="3D-512",
        budgets_gbps=(100.0, 150.0, 200.0, 300.0, 400.0, 500.0),
        repeats=2,
        quick=True,
        label="quick",
    )


def _timed_sweep(spec, repeats: int):
    """Best-of-N cold-cache run of one grid; returns (seconds, SweepResult)."""
    from repro.explore import ResultCache, run_sweep

    best = float("inf")
    sweep = None
    for _ in range(max(1, repeats)):
        # Every repetition pays the full pipeline — expression compilation,
        # the feasibility LP, solving — exactly like a fresh CLI invocation.
        clear_solver_caches()
        reset_service()
        start = time.perf_counter()
        candidate = run_sweep(spec, cache=ResultCache())
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            sweep = candidate
    return best, sweep


def run_sweep_benchmark(config: SweepBenchConfig) -> dict:
    """Run the sweep benchmark; returns the artifact payload.

    Raises :class:`~repro.perfbench.harness.BenchEquivalenceError` when a
    cell fails its audit — timings of a wrong answer cannot be trusted,
    so no artifact escapes.
    """
    from repro.explore import SweepSpec

    spec = SweepSpec(
        workloads=config.workloads,
        topologies=(config.topology,),
        bandwidths_gbps=config.budgets_gbps,
        schemes=config.schemes,
    )
    # The artifact's "spans" aggregates say where the grid spent its time.
    tracer = Tracer()
    with use_tracer(tracer):
        wall_s, sweep = _timed_sweep(spec, config.repeats)
    audit = audit_cells(sweep.results)

    cells = len(sweep.results)
    return {
        "schema_version": SWEEP_BENCH_SCHEMA_VERSION,
        "unix_time": time.time(),
        "config": {
            "workloads": list(config.workloads),
            "topology": config.topology,
            "budgets_gbps": list(config.budgets_gbps),
            "schemes": list(config.schemes),
            "repeats": config.repeats,
            "quick": config.quick,
            "label": config.label,
        },
        "cells": cells,
        "errors": sweep.num_errors,
        "wall_s": wall_s,
        "cells_per_s": cells / max(wall_s, 1e-12),
        "chains": sweep.profile.chains if sweep.profile else 0,
        "audit": audit,
        "spans": tracer.summary(),
    }


def format_sweep_report(artifact: dict) -> str:
    """Human-readable summary of one BENCH_sweep.json payload."""
    config = artifact["config"]
    audit = artifact["audit"]
    return "\n".join([
        f"sweep bench — {'+'.join(config['workloads'])} on "
        f"{config['topology']}, {artifact['cells']} cells "
        f"({len(config['budgets_gbps'])} budgets × "
        f"{len(config['schemes'])} schemes, {artifact['chains']} chains, "
        f"repeats={config['repeats']})",
        f"  wall:  {artifact['wall_s'] * 1e3:>9.1f} ms "
        f"({artifact['cells_per_s']:.1f} cells/s)",
        f"  audit: ok ({audit['cells']} cells certified, max gap "
        f"{audit['max_gap']:.1e})",
    ])
