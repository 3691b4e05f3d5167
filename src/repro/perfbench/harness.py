"""Microbenchmarks for the solver, memoization, and sweep hot paths.

Every benchmark here is an *end-to-end* timing of a public code path at
Table-II scale, never a synthetic kernel:

* ``solver_perf`` / ``solver_perf_per_cost`` — one full
  ``minimize_training_time`` / ``minimize_time_cost_product`` call, timed
  with the memoization tier cleared before each repetition
  (``memo_cleared_s``) and with it populated (``memo_hit_s``).
* ``compile_memo`` — cold vs. warm ``simplify`` + ``compile_expression`` +
  ``traffic_totals``, demonstrating the memoization tier.
* ``sweep`` — a small cached ``run_sweep`` grid through the explore engine.

Solver benchmarks double as a correctness gate: each answer must pass the
optimality oracle the solver tests use
(:func:`repro.core.sensitivity.audit_solution` — feasibility, objective
re-evaluation, and the certified primal–dual gap of either scheme).
``repro bench`` fails the run on any oracle fault, which is what the CI
smoke job enforces. :func:`audit_cells` applies the same oracle to every
cell of the sweep and strategy benchmarks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.scenario import build_scenario
from repro.api.service import get_service
from repro.core.results import Scheme
from repro.core.sensitivity import audit_solution
from repro.core.solver import (
    clear_solver_caches,
    compile_expression,
    minimize_time_cost_product,
    minimize_training_time,
    traffic_totals,
)
from repro.cost.estimator import cost_rates
from repro.obs import Tracer, use_tracer
from repro.training.expr import simplify
from repro.utils.errors import ReproError
from repro.utils.units import gbps

#: Bump when the BENCH_solver.json layout changes.
#: v2: one solver kernel — no ``closures_s`` / ``speedup_*`` /
#: ``equivalence``; records carry the oracle-checked ``objective``.
#: v3: the solver records' ``vectorized_cold_s`` / ``vectorized_warm_s``
#: are ``memo_cleared_s`` / ``memo_hit_s``, named after what differs
#: between them.
BENCH_SCHEMA_VERSION = 3


class BenchEquivalenceError(ReproError):
    """A benchmarked answer failed its correctness gate: the optimality
    oracle, or (sweep and strategy benches) a fresh solve of a cell that
    differs from its row."""


@dataclass(frozen=True)
class BenchConfig:
    """One harness invocation (defaults are the GPT-3-scale hot path)."""

    workloads: tuple[str, ...] = ("GPT-3",)
    topology: str = "4D-4K"
    total_bw_gbps: float = 500.0
    repeats: int = 3
    sweep_budgets_gbps: tuple[float, ...] = (300.0, 500.0, 1000.0)
    quick: bool = False
    label: str = ""


def quick_config() -> BenchConfig:
    """A seconds-scale configuration for CI smoke runs."""
    return BenchConfig(
        workloads=("Turing-NLG",),
        topology="3D-512",
        total_bw_gbps=300.0,
        repeats=1,
        sweep_budgets_gbps=(200.0, 300.0),
        quick=True,
        label="quick",
    )


def _build_problem(config: BenchConfig):
    """Expression + constraint factory + cost rates for one configuration.

    The benchmark states its problem as a :class:`~repro.api.scenario
    .Scenario` and pulls the compiled engine from the service, exactly as
    production requests do; only the solver calls below are hand-timed.
    """
    scenario = build_scenario(
        topology=config.topology,
        workloads=config.workloads,
        total_bw_gbps=config.total_bw_gbps,
    )
    engine = get_service().engine(scenario)
    network = scenario.network
    expression = engine.combined_expression()
    rates = np.asarray(cost_rates(network, engine.cost_model)) * network.num_npus

    def make_constraints():
        # Fresh per solve so every repetition pays the feasibility LP, as
        # the pre-API harness did (timings stay comparable across PRs).
        return engine.constraints().with_total_bandwidth(gbps(config.total_bw_gbps))

    return expression, make_constraints, rates


def _time_solves(solve, repeats: int, cold: bool) -> tuple[float, Any]:
    """Best-of-N wall time of one end-to-end solve.

    ``cold=True`` clears the memoization tier before every repetition (the
    first-ever solve of a workload). ``cold=False`` measures
    the steady state — what every sweep cell after the first pays, with
    ``simplify``/``compile_expression``/``traffic_totals`` warm.
    """
    best = float("inf")
    result = None
    if not cold:
        clear_solver_caches()
        solve()  # untimed warm-up populates the memo tier
    for _ in range(max(1, repeats)):
        if cold:
            clear_solver_caches()
        start = time.perf_counter()
        result = solve()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_solver(config: BenchConfig) -> list[dict]:
    """End-to-end solver timings with the memo tier cleared and warm,
    gated on the oracle."""
    expression, make_constraints, rates = _build_problem(config)
    schemes = [
        (
            "solver_perf",
            lambda: minimize_training_time(expression, make_constraints()),
            None,
        ),
        (
            "solver_perf_per_cost",
            lambda: minimize_time_cost_product(
                expression, make_constraints(), rates
            ),
            rates,
        ),
    ]
    records = []
    for name, solve, cost_rates in schemes:
        cleared_s, result = _time_solves(solve, config.repeats, cold=True)
        hit_s, _ = _time_solves(solve, config.repeats, cold=False)
        faults = audit_solution(
            expression, make_constraints(), result, cost_rates=cost_rates
        )
        if faults:
            raise BenchEquivalenceError(
                f"{name} failed the optimality oracle: {'; '.join(faults)}"
            )
        records.append(
            {
                "name": name,
                "memo_cleared_s": cleared_s,
                "memo_hit_s": hit_s,
                "objective": result.objective,
            }
        )
    return records


def audit_cells(rows) -> dict:
    """Audit every solved cell of a sweep or strategy benchmark.

    Rows carry no multipliers, so each PerfOpt or PerfPerCost cell is
    solved again from its own scenario. The fresh answer must equal the
    row, since a cell depends on its content alone, and must pass the
    optimality oracle. An error row is a fault too: a benchmark grid
    holds no cell the solver may leave unanswered, and an answer the
    solver cannot certify is an error row. Raises
    :class:`BenchEquivalenceError` on the first fault; returns the
    audited cell count and the largest certified gap.
    """
    from repro.explore.executor import point_scenario

    service = get_service()
    audited, max_gap = 0, 0.0
    for row in rows:
        if not row.ok:
            raise BenchEquivalenceError(
                f"{row.point.label()} has no answer: {row.error}"
            )
        scheme = row.point.scheme
        if scheme is Scheme.EQUAL_BW:
            continue
        scenario = point_scenario(row.point)
        engine = service.engine(scenario)
        point, result = engine.optimize_result(scheme, scenario.constraints)
        rates = None
        if scheme is Scheme.PERF_PER_COST_OPT:
            network = scenario.network
            rates = (
                np.asarray(cost_rates(network, engine.cost_model))
                * network.num_npus
            )
        faults = audit_solution(
            engine.combined_expression(), scenario.constraints, result,
            cost_rates=rates,
        )
        if point.bandwidths_gbps() != row.bandwidths_gbps:
            faults.append(
                f"a fresh solve gives {point.bandwidths_gbps()}, the row "
                f"{row.bandwidths_gbps}"
            )
        if faults:
            raise BenchEquivalenceError(
                f"{row.point.label()} failed the audit: {'; '.join(faults)}"
            )
        audited += 1
        max_gap = max(max_gap, result.gap)
    return {"cells": audited, "max_gap": max_gap}


def bench_compile_memo(config: BenchConfig) -> dict:
    """Cold vs. warm tree pipeline (simplify → compile → traffic totals)."""
    expression, make_constraints, _ = _build_problem(config)
    num_dims = make_constraints().num_dims

    def pipeline() -> None:
        simplify(expression)
        compile_expression(expression, num_dims)
        traffic_totals(expression, num_dims)

    clear_solver_caches()
    start = time.perf_counter()
    pipeline()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    pipeline()
    warm_s = time.perf_counter() - start
    hits_after = compile_expression.cache_info().hits
    return {
        "name": "compile_memo",
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / max(warm_s, 1e-12),
        "warm_hits": hits_after,
    }


def bench_sweep(config: BenchConfig) -> dict:
    """A small cached exploration grid through the real sweep engine."""
    from repro.explore import ResultCache, SweepSpec, run_sweep

    spec = SweepSpec(
        workloads=tuple(config.workloads[:1]),
        topologies=(config.topology,),
        bandwidths_gbps=tuple(config.sweep_budgets_gbps),
        schemes=("perf",),
    )
    cache = ResultCache()
    clear_solver_caches()
    start = time.perf_counter()
    cold = run_sweep(spec, cache=cache)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_sweep(spec, cache=cache)
    warm_s = time.perf_counter() - start
    return {
        "name": "sweep",
        "cells": len(cold.results),
        "cold_s": cold_s,
        "warm_cached_s": warm_s,
        "cold_errors": cold.num_errors,
        "warm_cache_hits": warm.cache_hits,
    }


def run_benchmarks(config: BenchConfig) -> dict:
    """Run every benchmark; returns the ``BENCH_solver.json`` payload.

    An oracle fault raises :class:`BenchEquivalenceError` and the
    in-progress payload is discarded — timings of a wrong answer cannot be
    trusted, so no artifact escapes (the CLI maps this to exit code 3).
    """
    artifact: dict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "unix_time": time.time(),
        "config": {
            "workloads": list(config.workloads),
            "topology": config.topology,
            "total_bw_gbps": config.total_bw_gbps,
            "repeats": config.repeats,
            "quick": config.quick,
            "label": config.label,
        },
        "benchmarks": [],
    }
    # The harness is the one caller that always opts into tracing: the
    # artifact carries per-span aggregates ("spans") next to the timings,
    # so a regression bisects to a stage (feasibility LP? kernel?
    # compile?) without rerunning anything. Production stays no-op.
    tracer = Tracer()
    with use_tracer(tracer):
        artifact["benchmarks"].extend(bench_solver(config))
        artifact["benchmarks"].append(bench_compile_memo(config))
        artifact["benchmarks"].append(bench_sweep(config))
    artifact["spans"] = tracer.summary()
    return artifact


def write_artifact(path: str, artifact: dict) -> None:
    """Write the payload as deterministic, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")


def format_report(artifact: dict) -> str:
    """Human-readable table of one artifact (CLI / script output)."""
    lines = [
        f"perf bench — {'+'.join(artifact['config']['workloads'])} on "
        f"{artifact['config']['topology']} @ "
        f"{artifact['config']['total_bw_gbps']:.0f} GB/s "
        f"(repeats={artifact['config']['repeats']})",
        f"{'benchmark':<22} {'cold':>10} {'warm':>10}",
    ]
    for bench in artifact["benchmarks"]:
        name = bench["name"]
        if name.startswith("solver_"):
            lines.append(
                f"{name:<22} {bench['memo_cleared_s'] * 1e3:>8.1f}ms "
                f"{bench['memo_hit_s'] * 1e3:>8.1f}ms"
                f"  oracle ok (objective {bench['objective']:.6g})"
            )
        elif name == "compile_memo":
            lines.append(
                f"{name:<22} {bench['cold_s'] * 1e3:>8.2f}ms "
                f"{bench['warm_s'] * 1e3:>9.3f}ms {bench['speedup']:>7.0f}x  "
                f"(cold vs memoized)"
            )
        elif name == "sweep":
            lines.append(
                f"{name:<22} {bench['cold_s'] * 1e3:>8.1f}ms "
                f"{bench['warm_cached_s'] * 1e3:>9.1f}ms {'':>8}  "
                f"({bench['cells']} cells, warm = {bench['warm_cache_hits']} "
                f"cache hits)"
            )
    return "\n".join(lines)
