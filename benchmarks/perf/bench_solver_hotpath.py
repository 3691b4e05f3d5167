"""Solver hot-path microbenchmark: cold and warm end-to-end solves.

Times one end-to-end ``PerfOptBW`` and ``PerfPerCostOptBW`` solve at
GPT-3 scale (GPT-3 on 4D-4K, 4,096 NPUs, 500 GB/s budget by default),
cold (memoization tier cleared) and warm, checks each answer with the
solver's optimality oracle, and writes a ``BENCH_solver.json`` artifact.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_solver_hotpath.py
    PYTHONPATH=src python benchmarks/perf/bench_solver_hotpath.py --group

Exit status: 1 when an answer fails the optimality oracle, 0 otherwise.
(``repro bench`` is the packaged equivalent; this script exists so the
perf trajectory can be measured without installing.)
"""

from __future__ import annotations

import argparse
import sys

from repro.perfbench.harness import (
    BenchConfig,
    BenchEquivalenceError,
    format_report,
    run_benchmarks,
    write_artifact,
)
from repro.workloads.presets import workload_names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload(s); repeat for a group (default GPT-3)")
    parser.add_argument("--topology", default="4D-4K")
    parser.add_argument("--total-bw", type=float, default=500.0,
                        help="budget in GB/s (default 500)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N repetitions (default 5)")
    parser.add_argument("--group", action="store_true",
                        help="benchmark the full Table-II group objective "
                             "(hundreds of epigraph constraints)")
    parser.add_argument("--output", default="BENCH_solver.json")
    args = parser.parse_args(argv)

    workloads = tuple(args.workload) or (
        tuple(workload_names()) if args.group else ("GPT-3",)
    )
    config = BenchConfig(
        workloads=workloads,
        topology=args.topology,
        total_bw_gbps=args.total_bw,
        repeats=args.repeats,
        label="group" if args.group else "hotpath",
    )
    try:
        artifact = run_benchmarks(config)
    except BenchEquivalenceError as exc:
        print(f"ORACLE FAILURE: {exc}", file=sys.stderr)
        return 1
    print(format_report(artifact))
    write_artifact(args.output, artifact)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
