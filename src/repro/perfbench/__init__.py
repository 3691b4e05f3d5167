"""Performance microbenchmark harness (``repro bench``).

Times the solver/compile/sweep hot paths on Table-II-scale workloads,
checks every solver answer with the optimality oracle, and writes the
``BENCH_solver.json`` artifact that records the perf trajectory across PRs.
:mod:`repro.perfbench.sweep` benchmarks whole grids — continuation (warm)
vs cold — into ``BENCH_sweep.json`` with a per-cell equivalence gate.
:mod:`repro.perfbench.analyze` times cached what-if probes into
``BENCH_analyze.json`` with a p95 latency floor.
:mod:`repro.perfbench.strategy` benchmarks the joint strategy × bandwidth
search — warm-start reuse vs independent cold columns — into
``BENCH_strategy.json`` with a solver-start reduction floor.
See ``benchmarks/perf/README.md`` for the artifact schemas.
"""

from repro.perfbench.analyze import (
    ANALYZE_BENCH_SCHEMA_VERSION,
    AnalyzeBenchConfig,
    format_analyze_report,
    quick_analyze_config,
    run_analyze_benchmark,
)
from repro.perfbench.harness import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    format_report,
    quick_config,
    run_benchmarks,
    write_artifact,
)
from repro.perfbench.strategy import (
    STRATEGY_BENCH_SCHEMA_VERSION,
    StrategyBenchConfig,
    format_strategy_report,
    quick_strategy_config,
    run_strategy_benchmark,
)
from repro.perfbench.sweep import (
    SWEEP_BENCH_SCHEMA_VERSION,
    SweepBenchConfig,
    format_sweep_report,
    quick_sweep_config,
    run_sweep_benchmark,
)

__all__ = [
    "ANALYZE_BENCH_SCHEMA_VERSION",
    "AnalyzeBenchConfig",
    "format_analyze_report",
    "quick_analyze_config",
    "run_analyze_benchmark",
    "BENCH_SCHEMA_VERSION",
    "BenchConfig",
    "format_report",
    "quick_config",
    "run_benchmarks",
    "write_artifact",
    "STRATEGY_BENCH_SCHEMA_VERSION",
    "StrategyBenchConfig",
    "format_strategy_report",
    "quick_strategy_config",
    "run_strategy_benchmark",
    "SWEEP_BENCH_SCHEMA_VERSION",
    "SweepBenchConfig",
    "format_sweep_report",
    "quick_sweep_config",
    "run_sweep_benchmark",
]
