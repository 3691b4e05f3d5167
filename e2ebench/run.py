"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced and traced quarters of the run, with every
layer wrapped in the traced ones (see ``layers.py``), prints the per-layer
table, writes the spans as a Chrome trace under ``e2ebench/out/`` (``repro
obs trace FILE`` summarizes it), and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("serve-mixed", "sweep-grid", "costrategy", "all"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in ("serve-mixed", "sweep-grid", "costrategy"):
        completed = subprocess.run(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        worst = max(worst, completed.returncode)
    return worst


def measure(workload, seconds: float):
    started = time.perf_counter()
    tally = workload.run(seconds)
    return tally, time.perf_counter() - started


#: A traced run's stretches, each a quarter of the run: untraced (False) and
#: traced (True) in this order, so drift over the run and state that grows
#: through it (the serve job table) weigh on both sides alike.
STRETCHES = (False, True, True, False)


def traced_run(workload, seconds: float):
    """Alternate untraced and traced stretches of one workload.

    Returns ``(tally, tracer, stats, values, traced_s)``: the tally of the
    whole run, the tracer with its spans, per-layer ``[calls, inclusive_s,
    self_s]``, the per-layer metric values, and the traced seconds.
    ``trace.overhead_pct`` is how much higher ``requests_per_s`` is in the
    untraced stretches than in the traced ones.
    """
    import report
    from layers import LayerTracer, installed
    from repro.core import solver
    from workloads import Tally

    tracer = LayerTracer()
    whole, traced = Tally(), Tally()
    rates: dict[bool, list[float]] = {False: [], True: []}
    memo_hits = memo_misses = 0
    traced_s = 0.0
    for tracing in STRETCHES:
        if tracing:
            workload.tracer = tracer
            before = solver.compile_expression.cache_info()
            with installed(tracer):
                tally, elapsed = measure(workload, seconds / len(STRETCHES))
            after = solver.compile_expression.cache_info()
            workload.tracer = None
            memo_hits += after.hits - before.hits
            memo_misses += after.misses - before.misses
            traced_s += elapsed
            traced.merge(tally)
        else:
            tally, _ = measure(workload, seconds / len(STRETCHES))
        rates[tracing].append(report.throughput(tally.completions)[0])
        whole.merge(tally)
    stats, counts = tracer.totals()
    counts.update(traced.counts)
    overhead_pct = 100 * (sum(rates[False]) / sum(rates[True]) - 1)
    values = report.per_layer(
        stats, counts, traced, (memo_hits, memo_misses), overhead_pct
    )
    return whole, tracer, stats, values, traced_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Every request goes to the in-process server on the loopback address;
    # never route it through a proxy from the environment.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.solver import clear_solver_caches

    import report
    from workloads import WORKLOADS

    import_s = time.perf_counter() - started
    scratch = OUT / f"tmp-{args.workload}-{args.seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        setup_times = []
        for _ in range(SETUPS):
            workload.close()
            clear_solver_caches()
            begin = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - begin)

        if not args.trace:
            tally, _ = measure(workload, args.seconds)
            # A fixed count of requests, so quality and memory do not
            # depend on how far a run got.
            untimed = workload.finish_prefix()
            values = report.end_to_end(tally, setup_times, workload.prefix)
            report.print_end_to_end(workload, values, tally, import_s)
            print(f"  {'prefix requests sent untimed':<30} {untimed.attempted:>14}")
            tally.merge(untimed)
            specs = report.END_TO_END
        else:
            tally, tracer, stats, values, traced_s = traced_run(
                workload, args.seconds
            )
            report.print_per_layer(workload, stats, values, traced_s)
            path = tracer.write_chrome(
                OUT / f"trace-{args.workload}-seed{args.seed}.json"
            )
            print(f"  chrome trace: {path.relative_to(ROOT)}")
            specs = report.per_layer_specs()
        workload.verify(tally)
        report.print_errors(tally)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    correct = tally.failed == 0
    metrics = {}
    for name, unit, _ in specs:
        value = float(values[name])
        if not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
