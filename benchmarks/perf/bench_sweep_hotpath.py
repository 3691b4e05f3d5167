"""Sweep hot-path benchmark: cells per second over a whole grid.

Times a fig13-style budget sweep (GPT-3 on 4D-4K across seven budgets,
both schemes, by default) through the real explore engine, audits every
cell's certificate, and writes a ``BENCH_sweep.json`` artifact (wall
clock, cells/sec, the audit).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_sweep_hotpath.py
    PYTHONPATH=src python benchmarks/perf/bench_sweep_hotpath.py --quick
    PYTHONPATH=src python benchmarks/perf/bench_sweep_hotpath.py \
        --min-cells-per-s 40

Exit status: 1 when a cell fails its audit or the ``--min-cells-per-s``
floor is unmet, 0 otherwise. (``repro bench --sweep`` is the
packaged equivalent; this script exists so the perf trajectory can be
measured without installing.)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.perfbench.harness import BenchEquivalenceError
from repro.perfbench.sweep import (
    SweepBenchConfig,
    format_sweep_report,
    quick_sweep_config,
    run_sweep_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload axis entry (repeatable; default GPT-3)")
    parser.add_argument("--topology", default="4D-4K")
    parser.add_argument("--bw", action="append", type=float, default=[],
                        metavar="GBPS",
                        help="budget axis entry in GB/s (repeatable; "
                             "default 100..1000, 7 points)")
    parser.add_argument("--scheme", action="append", default=[],
                        help="scheme axis entry (repeatable; default "
                             "perf + perf-per-cost)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repetitions (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale smoke configuration "
                             "(Turing-NLG on 3D-512)")
    parser.add_argument("--min-cells-per-s", type=float, default=0.0,
                        help="fail below this many cells per second "
                             "(default 0 = report only)")
    parser.add_argument("--output", default="BENCH_sweep.json")
    args = parser.parse_args(argv)

    if args.quick:
        config = quick_sweep_config()
    else:
        defaults = SweepBenchConfig()
        config = SweepBenchConfig(
            workloads=tuple(args.workload) or defaults.workloads,
            topology=args.topology,
            budgets_gbps=tuple(args.bw) or defaults.budgets_gbps,
            schemes=tuple(args.scheme) or defaults.schemes,
            repeats=args.repeats,
            label="hotpath",
        )
    try:
        artifact = run_sweep_benchmark(config)
    except BenchEquivalenceError as exc:
        print(f"AUDIT FAILED: {exc}", file=sys.stderr)
        return 1
    print(format_sweep_report(artifact))
    with open(args.output, "w") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    floor = args.min_cells_per_s
    if floor > 0 and artifact["cells_per_s"] < floor:
        print(
            f"FAIL: {artifact['cells_per_s']:.1f} cells/s < floor {floor:g}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
