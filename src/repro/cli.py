"""Command-line interface for the LIBRA reproduction.

Every subcommand is a thin request builder over the
:mod:`repro.api` Scenario/Service layer::

    repro-libra topologies
    repro-libra workloads
    repro-libra optimize --topology 4D-4K --workload GPT-3 \\
        --total-bw 500 --scheme perf
    repro-libra optimize --scenario gpt3.json --scheme perf-per-cost --json
    repro-libra optimize --scenario - < gpt3.json
    repro-libra scenario --topology 4D-4K --workload GPT-3 \\
        --total-bw 500 --output gpt3.json
    repro-libra serve --port 8350 --workers 2
    repro-libra serve --port 8350 --log-level info --log-json
    repro-libra submit --scenario gpt3.json --events
    repro-libra submit --url http://127.0.0.1:8350 --scenario gpt3.json --json
    repro-libra submit --url http://127.0.0.1:8350 --spec sweep.json --no-wait
    repro-libra jobs --url http://127.0.0.1:8350
    repro-libra jobs --url http://127.0.0.1:8350 --events job-abc123 --follow
    repro-libra sweep --topology 4D-4K --workload MSFT-1T \\
        --bw 100 --bw 500 --bw 1000
    repro-libra explore --workload GPT-3 --workload Turing-NLG \\
        --topology 3D-4K --topology 4D-4K --bw 100 --bw 300 --bw 500 \\
        --bw 1000 --scheme perf --scheme perf-per-cost \\
        --workers 4 --cache-dir .repro-cache --output results.json
    repro-libra explore --spec sweep.json --cache-dir .repro-cache
    repro-libra explore --spec sweep.json --profile --no-continuation
    repro-libra explore --spec sweep.json --trace trace.json
    repro-libra obs trace trace.json
    repro-libra simulate --topology 4D-4K --workload GPT-3 \\
        --bandwidths 225,138,104,33 --themis
    repro-libra cost --topology 4D-4K --bandwidths 125,125,125,125
    repro-libra bench --workload GPT-3 --topology 4D-4K --total-bw 500 \\
        --output BENCH_solver.json
    repro-libra bench --quick
    repro-libra bench --sweep --min-speedup 2.0

``--json`` on optimize / sweep / cost / simulate emits the machine-readable
response payload instead of the human report. Bandwidths are GB/s on the
command line (converted at the boundary; the library itself is bytes/s
throughout).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.api.registry import SCHEME_ALIASES as _SCHEMES
from repro.api.requests import OptimizeRequest
from repro.api.scenario import (
    Scenario,
    build_scenario,
    load_scenario,
    save_scenario,
)
from repro.api.service import get_service
from repro.core import ConstraintSet, Scheme
from repro.cost import cost_breakdown, default_cost_model
from repro.topology import (
    EVALUATION_TOPOLOGIES,
    REAL_SYSTEM_TOPOLOGIES,
    MultiDimNetwork,
    get_topology,
)
from repro.utils import gbps
from repro.utils.errors import ReproError
from repro.workloads import build_workload, load_workload_file, workload_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-libra",
        description="Workload-aware multi-dimensional network bandwidth optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies", help="list preset topologies (Table III, Fig. 11)")
    sub.add_parser("workloads", help="list preset workloads (Table II)")

    optimize = sub.add_parser("optimize", help="optimize one design point")
    optimize.add_argument(
        "--scenario", metavar="FILE",
        help="scenario JSON file, or - for stdin "
             "(replaces --topology/--workload/--total-bw)",
    )
    _add_target_args(optimize, required=False)
    optimize.add_argument(
        "--total-bw", type=float,
        help="aggregate bandwidth budget per NPU, GB/s "
             "(required without --scenario)",
    )
    optimize.add_argument(
        "--scheme", choices=sorted(_SCHEMES), default="perf",
        help="optimization objective (default: perf)",
    )
    optimize.add_argument(
        "--cap", action="append", default=[], metavar="DIM:GBPS",
        help="cap one dimension's bandwidth, e.g. --cap 3:50 (repeatable)",
    )
    optimize.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the OptimizeResponse payload as JSON",
    )

    analyze = sub.add_parser(
        "analyze",
        help="bottleneck-structure analysis of a design point: binding "
             "set, transfer gradients, what-if probes",
    )
    analyze.add_argument(
        "--scenario", metavar="FILE",
        help="scenario JSON file, or - for stdin "
             "(replaces --topology/--workload/--total-bw)",
    )
    _add_target_args(analyze, required=False)
    analyze.add_argument(
        "--total-bw", type=float,
        help="aggregate bandwidth budget per NPU, GB/s "
             "(required without --scenario)",
    )
    analyze.add_argument(
        "--scheme", choices=sorted(_SCHEMES), default="perf",
        help="optimization objective (default: perf)",
    )
    analyze.add_argument(
        "--cap", action="append", default=[], metavar="DIM:GBPS",
        help="cap one dimension's bandwidth, e.g. --cap 3:50 (repeatable)",
    )
    analyze.add_argument(
        "--bandwidths", metavar="GBPS,...",
        help="analyze this explicit allocation (comma-separated GB/s) "
             "instead of solving for the optimum",
    )
    analyze.add_argument(
        "--from-sweep", metavar="CACHE_DIR",
        help="read the point from a sweep result cache (the cell named by "
             "--topology/--workload/--total-bw/--scheme/--cap) instead of "
             "solving; errors if the cell was never swept — analysis "
             "never runs the solver",
    )
    analyze.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the AnalyzeResponse payload as JSON",
    )

    costrategy = sub.add_parser(
        "costrategy",
        help="joint parallelization-strategy × bandwidth co-optimization: "
             "enumerate (tp, cp, ep, pp, dp) factorizations of the node "
             "count, solve each across the budgets with warm-start reuse, "
             "and report the strategy frontier",
    )
    costrategy.add_argument(
        "--workload", required=True, metavar="NAME",
        help="preset workload name (the strategy axis re-parallelizes it)",
    )
    costrategy.add_argument(
        "--topology", required=True, metavar="NAME",
        help="preset topology name or notation "
             "(e.g. 3D-512 or SW(16)_SW(8)_SW(4))",
    )
    costrategy.add_argument(
        "--bw", action="append", type=float, required=True, metavar="GBPS",
        help="bandwidth budget in GB/s (repeatable)",
    )
    costrategy.add_argument(
        "--scheme", choices=sorted(_SCHEMES), default="perf",
        help="optimization objective for every cell (default: perf)",
    )
    costrategy.add_argument(
        "--max-tp", type=int, default=None, metavar="N",
        help="largest tensor-parallel degree (default: the node count)",
    )
    costrategy.add_argument(
        "--max-cp", type=int, default=1, metavar="N",
        help="largest context-parallel degree (default 1 = axis disabled)",
    )
    costrategy.add_argument(
        "--max-ep", type=int, default=1, metavar="N",
        help="largest expert-parallel degree (default 1 = axis disabled)",
    )
    costrategy.add_argument(
        "--max-pp", type=int, default=1, metavar="N",
        help="largest pipeline-parallel degree (default 1 = axis disabled)",
    )
    costrategy.add_argument(
        "--cap", action="append", default=[], metavar="DIM:GBPS",
        help="cap one dimension's bandwidth at every cell (repeatable)",
    )
    costrategy.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache; re-runs replay solved cells",
    )
    costrategy.add_argument(
        "--no-attribution", action="store_true",
        help="skip the per-strategy binding-dimension analysis",
    )
    costrategy.add_argument(
        "--progress", action="store_true",
        help="print one line per resolved strategy × budget cell",
    )
    costrategy.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the CostrategyResponse payload as JSON",
    )
    costrategy.add_argument(
        "--output", metavar="FILE",
        help="write the frontier JSON artifact here",
    )

    scenario = sub.add_parser(
        "scenario",
        help="build a scenario JSON file from flags (input to optimize --scenario)",
    )
    _add_target_args(scenario)
    scenario.add_argument(
        "--total-bw", type=float,
        help="aggregate bandwidth budget per NPU, GB/s",
    )
    scenario.add_argument(
        "--cap", action="append", default=[], metavar="DIM:GBPS",
        help="cap one dimension's bandwidth (repeatable)",
    )
    scenario.add_argument(
        "--loop", default="no-overlap",
        help="training loop registry name (default: no-overlap)",
    )
    scenario.add_argument(
        "--output", metavar="FILE",
        help="write the scenario here (default: stdout)",
    )

    sweep = sub.add_parser("sweep", help="sweep bandwidth budgets")
    _add_target_args(sweep)
    sweep.add_argument(
        "--bw", action="append", type=float, required=True, metavar="GBPS",
        help="budget point in GB/s (repeatable)",
    )
    sweep.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the sweep rows as JSON",
    )

    explore = sub.add_parser(
        "explore",
        help="design-space exploration: parallel, cached grid sweeps "
             "with Pareto analysis",
    )
    explore.add_argument(
        "--spec", help="JSON sweep-spec file (replaces the axis flags)"
    )
    explore.add_argument(
        "--workload", action="append", default=[], metavar="NAME",
        help="workload axis entry (repeatable)",
    )
    explore.add_argument(
        "--topology", action="append", default=[], metavar="NAME",
        help="topology axis entry: preset name or notation (repeatable)",
    )
    explore.add_argument(
        "--bw", action="append", type=float, default=[], metavar="GBPS",
        help="bandwidth-budget axis entry in GB/s (repeatable)",
    )
    explore.add_argument(
        "--scheme", action="append", choices=sorted(_SCHEMES), default=[],
        help="scheme axis entry (repeatable; default: perf)",
    )
    explore.add_argument(
        "--cap", action="append", default=[], metavar="DIM:GBPS",
        help="cap one dimension's bandwidth at every grid cell (repeatable)",
    )
    explore.add_argument(
        "--workers", type=int, default=1,
        help="solve cells across N worker processes (default 1 = inline)",
    )
    explore.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed result cache; re-runs only solve new cells",
    )
    explore.add_argument(
        "--output", metavar="FILE",
        help="write the JSON results artifact here",
    )
    explore.add_argument(
        "--pareto", default="network_cost:step_time_ms", metavar="X:Y",
        help="frontier metrics (default network_cost:step_time_ms); "
             "metrics: total_bw_gbps, step_time_ms, network_cost, speedup, ppc_gain",
    )
    explore.add_argument(
        "--progress", action="store_true",
        help="print one line per resolved grid cell",
    )
    explore.add_argument(
        "--profile", action="store_true",
        help="print a per-stage timing summary (cache lookup / solve / "
             "assembly) and the warm-start hit rate",
    )
    explore.add_argument(
        "--no-continuation", action="store_true",
        help="solve every cell from cold seeds instead of propagating "
             "warm starts through budget chains (the reference path)",
    )
    explore.add_argument(
        "--trace", metavar="FILE",
        help="record sweep/chain/cell/solve spans and write a Chrome "
             "trace-event JSON file (open in chrome://tracing or Perfetto; "
             "summarize with 'obs trace FILE')",
    )

    simulate = sub.add_parser(
        "simulate", help="chunk-level simulation of one training step"
    )
    _add_target_args(simulate)
    simulate.add_argument(
        "--bandwidths", required=True,
        help="comma-separated per-dimension bandwidths, GB/s",
    )
    simulate.add_argument(
        "--chunks", type=int, default=64, help="chunks per collective (default 64)"
    )
    simulate.add_argument(
        "--themis", action="store_true", help="enable the Themis chunk scheduler"
    )
    simulate.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the simulation report as JSON",
    )

    cost = sub.add_parser("cost", help="price a bandwidth configuration")
    cost.add_argument("--topology", required=True)
    cost.add_argument(
        "--bandwidths", required=True,
        help="comma-separated per-dimension bandwidths, GB/s",
    )
    cost.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the cost breakdown as JSON",
    )

    bench = sub.add_parser(
        "bench",
        help="performance microbenchmarks: solver, memoization, "
             "sweep engine (writes BENCH_solver.json)",
    )
    bench.add_argument(
        "--workload", action="append", default=[], metavar="NAME",
        help="workload(s) for the solver hot path (default: GPT-3; "
             "repeat for a group objective)",
    )
    bench.add_argument(
        "--topology", default="4D-4K", help="target topology (default 4D-4K)"
    )
    bench.add_argument(
        "--total-bw", type=float, default=500.0,
        help="bandwidth budget in GB/s (default 500)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N timing repetitions (default 3)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="seconds-scale smoke configuration (Turing-NLG on 3D-512), "
             "overrides the other target flags",
    )
    bench.add_argument(
        "--sweep", action="store_true",
        help="benchmark whole sweep grids instead of single solves: "
             "continuation (warm) vs cold, writes BENCH_sweep.json",
    )
    bench.add_argument(
        "--analyze", action="store_true",
        help="benchmark cached what-if probes against a swept cell "
             "(p50/p95 latency), writes BENCH_analyze.json",
    )
    bench.add_argument(
        "--strategy", action="store_true",
        help="benchmark the joint strategy × bandwidth search: warm-start "
             "reuse vs independent cold columns, writes BENCH_strategy.json",
    )
    bench.add_argument(
        "--min-reuse", type=float, default=0.0,
        help="with --strategy: fail (exit 3) if the warm run's solver-call "
             "reduction vs cold is below this ratio (default 0 = report only)",
    )
    bench.add_argument(
        "--probes", type=int, default=200,
        help="with --analyze: memo-served probes to sample (default 200)",
    )
    bench.add_argument(
        "--max-p95-ms", type=float, default=0.0,
        help="with --analyze: fail (exit 3) if the cached-probe p95 "
             "exceeds this many milliseconds (default 0 = report only)",
    )
    bench.add_argument(
        "--bw", action="append", type=float, default=[], metavar="GBPS",
        help="budget axis entry for --sweep, GB/s (repeatable)",
    )
    bench.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="with --sweep: fail (exit 3) if warm/cold speedup is below "
             "this floor (default 0 = report only)",
    )
    bench.add_argument(
        "--output", default=None, metavar="FILE",
        help="artifact path (default BENCH_solver.json, or "
             "BENCH_sweep.json with --sweep)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP job server (async submit/poll/stream/cancel "
             "over POST /v3/jobs)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8350, help="bind port (default 8350)"
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent jobs (default 2; batch jobs parallelize "
             "internally via their own 'workers' field)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=256,
        help="job-table bound; submissions beyond it evict finished jobs "
             "or are refused (default 256)",
    )
    serve.add_argument(
        "--cache-root", metavar="DIR",
        help="accept client-supplied batch cache_dir names, sandboxed "
             "under this directory (without it they are rejected)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR",
        help="persist jobs and their event logs under this directory; on "
             "restart, unfinished jobs are recovered and re-run (pair "
             "with --cache-root so recovered sweeps resume from "
             "already-solved cells instead of starting over)",
    )
    serve.add_argument(
        "--fleet", action="store_true",
        help="join a multi-server fleet on the shared --state-dir "
             "(required): jobs are claimed via lease files so each runs "
             "on exactly one member, dead members' jobs are reclaimed, "
             "and SIGTERM drains gracefully (pair with a shared "
             "--cache-root so reclaimed sweeps resume from cached cells)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="SECONDS",
        help="fleet lease time-to-live: how long a member can go "
             "without heartbeating before peers take its jobs over "
             "(default 15; renewals run every ttl/3)",
    )
    serve.add_argument(
        "--fleet-poll", type=float, default=1.0, metavar="SECONDS",
        help="fleet scan interval for peer-job mirroring and stale-"
             "lease takeover (default 1)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="shorthand for --log-level debug (per-request wire detail)",
    )
    serve.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default=None,
        help="structured-log threshold on stderr (default: info; the "
             "REPRO_LOG environment variable sets the same thing)",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of the human format",
    )

    obs = sub.add_parser(
        "obs", help="observability utilities (trace summaries)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_trace_cmd = obs_sub.add_parser(
        "trace",
        help="summarize a Chrome trace file written by explore --trace",
    )
    obs_trace_cmd.add_argument(
        "file", metavar="FILE", help="trace-event JSON file"
    )
    obs_trace_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the per-span aggregates as JSON",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a job: to a remote serve endpoint (--url) or an "
             "in-process queue, from the same scenario/spec files",
    )
    submit.add_argument(
        "--url", metavar="URL",
        help="serve endpoint (e.g. http://127.0.0.1:8350); omitted = "
             "run through an in-process job queue",
    )
    submit.add_argument(
        "--scenario", metavar="FILE",
        help="scenario JSON file, or - for stdin "
             "(replaces --topology/--workload/--total-bw)",
    )
    _add_target_args(submit, required=False)
    submit.add_argument(
        "--total-bw", type=float,
        help="aggregate bandwidth budget per NPU, GB/s",
    )
    submit.add_argument(
        "--scheme", choices=sorted(_SCHEMES), default=None,
        help="optimization objective (default: perf; a spec file carries "
             "its own schemes axis)",
    )
    submit.add_argument(
        "--cap", action="append", default=[], metavar="DIM:GBPS",
        help="cap one dimension's bandwidth (repeatable)",
    )
    submit.add_argument(
        "--spec", metavar="FILE",
        help="sweep-spec JSON file: submit a batch (sweep) job instead "
             "of a single optimize",
    )
    submit.add_argument(
        "--batch-workers", type=int, default=1,
        help="with --spec: the sweep's process-pool width (default 1)",
    )
    submit.add_argument(
        "--cache-dir", metavar="DIR",
        help="with --spec: content-addressed result cache the executing "
             "process should use (server-side path with --url)",
    )
    submit.add_argument(
        "--events", action="store_true",
        help="print progress events while waiting",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="with --url: print the job envelope and return without "
             "waiting (an in-process queue dies with the CLI, so local "
             "submissions always wait)",
    )
    submit.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the response payload (or job envelope with --no-wait) "
             "as JSON",
    )

    jobs = sub.add_parser(
        "jobs", help="inspect a serve endpoint's job table"
    )
    jobs.add_argument(
        "--url", required=True, metavar="URL",
        help="serve endpoint (e.g. http://127.0.0.1:8350)",
    )
    jobs.add_argument(
        "--job", metavar="ID", help="show one job's envelope (with result)"
    )
    jobs.add_argument("--cancel", metavar="ID", help="cancel one job")
    jobs.add_argument(
        "--events", metavar="ID", help="print one job's event log"
    )
    jobs.add_argument(
        "--follow", action="store_true",
        help="with --events: stream live until the job finishes",
    )
    jobs.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON",
    )
    return parser


def _add_target_args(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument(
        "--topology", required=required, help="preset name or notation"
    )
    target = parser.add_mutually_exclusive_group(required=required)
    target.add_argument("--workload", help="preset workload name (Table II)")
    target.add_argument("--workload-file", help="path to a text workload file")


def _resolve_network(name: str) -> MultiDimNetwork:
    if name in EVALUATION_TOPOLOGIES or name in REAL_SYSTEM_TOPOLOGIES:
        return get_topology(name)
    return MultiDimNetwork.from_notation(name)


def _resolve_workload(args: argparse.Namespace, network: MultiDimNetwork):
    if args.workload_file:
        return load_workload_file(args.workload_file)
    return build_workload(args.workload, network.num_npus)


def _target_scenario(
    args: argparse.Namespace, total_bw_gbps: float | None
) -> Scenario:
    """Build the scenario the --topology/--workload[-file] flags describe."""
    if args.workload_file:
        workloads = [load_workload_file(args.workload_file)]
    else:
        workloads = [args.workload]
    return build_scenario(
        topology=args.topology,
        workloads=workloads,
        total_bw_gbps=total_bw_gbps,
        dim_caps_gbps=_parse_caps(getattr(args, "cap", [])),
        loop=getattr(args, "loop", "no-overlap"),
    )


def _parse_bandwidths(text: str, num_dims: int) -> list[float]:
    values = [float(part) for part in text.split(",")]
    if len(values) != num_dims:
        raise ReproError(
            f"expected {num_dims} bandwidths, got {len(values)} in {text!r}"
        )
    return [gbps(value) for value in values]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_topologies(_args: argparse.Namespace) -> int:
    print("Table III evaluation topologies:")
    for name, notation in EVALUATION_TOPOLOGIES.items():
        network = get_topology(name)
        print(f"  {name:<10} {notation:<28} {network.num_npus:>5} NPUs")
    print("\nFig. 11 real systems:")
    for name, notation in REAL_SYSTEM_TOPOLOGIES.items():
        print(f"  {name:<20} {notation}")
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    print("Table II workloads (shown at 4,096 NPUs):")
    for name in workload_names():
        workload = build_workload(name, 4096)
        print(f"  {workload}")
    return 0


def _read_scenario(source: str) -> Scenario:
    """Load a scenario from a file path, or from stdin when ``source`` is ``-``.

    Malformed stdin payloads fail exactly like malformed files: a located
    :class:`~repro.api.scenario.ScenarioValidationError` (a
    :class:`ReproError`), which :func:`main` turns into exit code 2.
    """
    if source != "-":
        return load_scenario(source)
    try:
        payload = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise ReproError(f"scenario on stdin is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReproError(
            f"scenario on stdin must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    return Scenario.from_dict(payload)


def _optimize_scenario(args: argparse.Namespace) -> Scenario:
    """Resolve the optimize/submit flags into one scenario."""
    if args.scenario:
        if args.topology or args.workload or args.workload_file or args.cap:
            raise ReproError(
                "--scenario replaces the target flags; drop "
                "--topology/--workload/--workload-file/--cap or edit the file"
            )
        scenario = _read_scenario(args.scenario)
        has_budget = (
            scenario.constraints is not None
            and scenario.constraints.total_bandwidth is not None
        )
        if args.total_bw is not None:
            if has_budget:
                raise ReproError(
                    "the scenario file already carries a total-bandwidth "
                    "budget; drop --total-bw or edit the file"
                )
            # Augment in place so caps/orderings the file carries survive.
            constraints = scenario.constraints or ConstraintSet(
                scenario.network.num_dims
            )
            constraints.with_total_bandwidth(gbps(args.total_bw))
            scenario = scenario.with_constraints(constraints)
        elif not has_budget:
            raise ReproError(
                "the scenario has no total-bandwidth budget; pass --total-bw"
            )
        return scenario
    if not (args.topology and (args.workload or args.workload_file)):
        raise ReproError(
            "optimize needs either --scenario or --topology plus "
            "--workload/--workload-file"
        )
    if args.total_bw is None:
        raise ReproError("--total-bw is required without --scenario")
    return _target_scenario(args, args.total_bw)


def _print_optimize_response(response, as_json: bool) -> int:
    """Render one OptimizeResponse — the optimize and submit paths share it
    so local, queued, and remote execution print identically."""
    if as_json:
        print(json.dumps(response.to_dict(), indent=1, sort_keys=True))
        return 0
    print(response.point.describe())
    if response.baseline is not None:
        print(response.baseline.describe())
        print(
            f"speedup over EqualBW:       "
            f"{response.speedup_over_baseline:.3f}x"
        )
        print(
            f"perf-per-cost over EqualBW: "
            f"{response.ppc_gain_over_baseline:.3f}x"
        )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario = _optimize_scenario(args)
    response = get_service().submit(
        OptimizeRequest(scenario=scenario, scheme=_SCHEMES[args.scheme])
    )
    return _print_optimize_response(response, args.as_json)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import format_report
    from repro.api.requests import AnalyzeRequest

    if args.from_sweep:
        from repro.explore.spec import ExplorationPoint

        if args.scenario or args.workload_file or args.bandwidths:
            raise ReproError(
                "--from-sweep names a cached sweep cell by "
                "--topology/--workload/--total-bw; drop "
                "--scenario/--workload-file/--bandwidths"
            )
        if not (args.topology and args.workload and args.total_bw):
            raise ReproError(
                "--from-sweep needs --topology, --workload, and --total-bw "
                "to name the cell"
            )
        request = AnalyzeRequest(
            cell=ExplorationPoint(
                workload=args.workload,
                topology=args.topology,
                total_bw_gbps=args.total_bw,
                scheme=_SCHEMES[args.scheme],
                dim_caps_gbps=_parse_caps(args.cap),
            ),
            cache_dir=args.from_sweep,
        )
    else:
        scenario = _optimize_scenario(args)
        bandwidths = None
        if args.bandwidths:
            bandwidths = tuple(
                float(part) for part in args.bandwidths.split(",")
            )
        request = AnalyzeRequest(
            scenario=scenario,
            scheme=_SCHEMES[args.scheme],
            bandwidths_gbps=bandwidths,
        )
    response = get_service().submit(request)
    if args.as_json:
        print(json.dumps(response.to_dict(), indent=1, sort_keys=True))
        return 0
    print(format_report(response.report))
    memo = " (memo hit)" if response.memo_hit else ""
    print(f"\npoint resolved from: {response.source}{memo}")
    return 0


def _cmd_costrategy(args: argparse.Namespace) -> int:
    from repro.api.requests import CostrategyRequest
    from repro.strategy import StrategySpace, strategy_slug

    request = CostrategyRequest(
        workload=args.workload,
        topology=args.topology,
        budgets_gbps=tuple(args.bw),
        scheme=_SCHEMES[args.scheme],
        space=StrategySpace(
            max_tp=args.max_tp,
            max_cp=args.max_cp,
            max_ep=args.max_ep,
            max_pp=args.max_pp,
        ),
        dim_caps_gbps=_parse_caps(args.cap),
        cache_dir=args.cache_dir,
        attribution=not args.no_attribution,
    )

    def on_event(event: dict) -> None:
        if args.progress and event.get("type") == "cell":
            print(
                f"[{event['done']}/{event['total']}] "
                f"{event['status']:<6} {event['label']}"
            )

    response = get_service().submit(request, on_event=on_event)
    frontier = response.frontier
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(frontier.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.as_json:
        print(json.dumps(response.to_dict(), indent=1, sort_keys=True))
        return 0

    diag = frontier.diagnostics
    print(
        f"{frontier.workload} on {frontier.topology} — "
        f"{diag.get('strategies', len(frontier.runs))} strategies "
        f"({diag.get('pruned', 0)} pruned) × "
        f"{len(frontier.budgets_gbps)} budgets"
    )
    print(f"\n{'BW (GB/s)':>10}  {'best strategy':<24} {'step (ms)':>10}  {'cost':>12}")
    for cell in frontier.best_per_budget:
        print(
            f"{cell.budget_gbps:>10.0f}  "
            f"{strategy_slug(cell.strategy):<24} "
            f"{cell.step_time_ms:>10.3f}  {cell.network_cost:>12.1f}"
        )
    if frontier.attributions:
        print("\nbinding dimensions at each strategy's best cell:")
        for attr in frontier.attributions:
            dims = ", ".join(str(d) for d in attr.binding_dims) or "none"
            print(
                f"  {strategy_slug(attr.strategy):<24} binding: {dims} "
                f"(most valuable: dim {attr.most_valuable_dim})"
            )
    print(
        f"\ncells: {diag.get('cells', 0)} "
        f"(solved {diag.get('solved', 0)}, cached {diag.get('cached', 0)}, "
        f"errors {diag.get('errors', 0)}); "
        f"warm-start hit rate {diag.get('warm_hit_rate', 0.0):.0%} "
        f"({diag.get('cross_warm_accepted', 0)} across strategies); "
        f"pareto cells: {len(frontier.pareto)}"
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = _target_scenario(args, args.total_bw)
    if args.output:
        save_scenario(scenario, args.output)
        print(f"wrote {args.output} (key {scenario.key()[:12]}…)")
    else:
        print(json.dumps(scenario.to_dict(), indent=1, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    service = get_service()
    rows = []
    for budget in args.bw:
        scenario = _target_scenario(args, budget)
        perf = service.submit(
            OptimizeRequest(scenario=scenario, scheme=Scheme.PERF_OPT)
        )
        ppc = service.submit(
            OptimizeRequest(scenario=scenario, scheme=Scheme.PERF_PER_COST_OPT)
        )
        rows.append((budget, perf, ppc))
    if args.as_json:
        payload = [
            {
                "total_bw_gbps": budget,
                "perf": perf.to_dict(),
                "perf_per_cost": ppc.to_dict(),
            }
            for budget, perf, ppc in rows
        ]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"{'BW (GB/s)':>10}  {'PerfOpt speedup':>16}  {'PerfPerCost ppc':>16}")
    for budget, perf, ppc in rows:
        print(
            f"{budget:>10.0f}  {perf.speedup_over_baseline:>15.3f}x "
            f"{ppc.ppc_gain_over_baseline:>15.3f}x"
        )
    return 0


def _parse_caps(caps: Sequence[str]) -> tuple[tuple[int, float], ...]:
    parsed = []
    for cap in caps:
        dim_text, _, cap_text = cap.partition(":")
        try:
            parsed.append((int(dim_text), float(cap_text)))
        except ValueError:
            raise ReproError(
                f"malformed cap {cap!r}; expected DIM:GBPS, e.g. 3:50"
            ) from None
    return tuple(parsed)


def _explore_spec(args: argparse.Namespace):
    from repro.explore import SweepSpec, load_sweep_spec

    if args.spec:
        if args.workload or args.topology or args.bw or args.scheme or args.cap:
            raise ReproError(
                "--spec replaces the axis flags; drop "
                "--workload/--topology/--bw/--scheme/--cap or edit the spec file"
            )
        return load_sweep_spec(args.spec)
    if not (args.workload and args.topology and args.bw):
        raise ReproError(
            "explore needs either --spec or at least one --workload, "
            "--topology, and --bw"
        )
    return SweepSpec(
        workloads=tuple(args.workload),
        topologies=tuple(args.topology),
        bandwidths_gbps=tuple(args.bw),
        schemes=tuple(args.scheme) or ("perf",),
        dim_caps_gbps=_parse_caps(args.cap),
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (
        ENGINE_VERSION,
        ResultCache,
        pareto_frontier,
        run_sweep,
        summary_rows,
    )

    from repro.explore.records import METRICS

    spec = _explore_spec(args)
    x_metric, _, y_metric = args.pareto.partition(":")
    if not x_metric or not y_metric:
        raise ReproError(f"malformed --pareto {args.pareto!r}; expected X:Y")
    for metric in (x_metric, y_metric):
        if metric not in METRICS:
            # Reject before solving — a bad axis should not cost a sweep.
            raise ReproError(
                f"unknown Pareto metric {metric!r}; known: {sorted(METRICS)}"
            )

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    on_event = None
    if args.progress:
        def on_event(event: dict) -> None:
            if event["type"] == "cell":
                print(
                    f"[{event['done']}/{event['total']}] "
                    f"{event['label']}: {event['status']}"
                )

    tracer = None
    if args.trace:
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            sweep = run_sweep(
                spec,
                cache=cache,
                workers=args.workers,
                continuation=not args.no_continuation,
                on_event=on_event,
            )
    else:
        sweep = run_sweep(
            spec,
            cache=cache,
            workers=args.workers,
            continuation=not args.no_continuation,
            on_event=on_event,
        )

    print(
        f"{'workload':<12} {'topology':<10} {'scheme':<17} {'BW':>6}  "
        f"{'step (ms)':>10}  {'cost ($)':>14}  {'speedup':>8}  {'ppc gain':>8}"
    )
    for result in sweep.results:
        point = result.point
        prefix = (
            f"{point.workload_name:<12} {point.topology:<10} "
            f"{point.scheme.value:<17} {point.total_bw_gbps:>6.0f}"
        )
        if not result.ok:
            print(f"{prefix}  ERROR: {result.error}")
            continue
        suffix = " (cached)" if result.from_cache else ""
        print(
            f"{prefix}  {result.step_time_ms:>10.3f}  "
            f"{result.network_cost:>14,.0f}  {result.speedup_over_equal:>7.3f}x "
            f"{result.ppc_gain_over_equal:>7.3f}x{suffix}"
        )

    frontier = pareto_frontier(sweep.results, x=x_metric, y=y_metric)
    print(f"\nPareto frontier ({x_metric} vs {y_metric}): "
          f"{len(frontier)} of {len(sweep.ok_results())} points")
    for result in frontier:
        print(
            f"  {result.point.label():<50} "
            f"{x_metric}={result.metric(x_metric):,.3f} "
            f"{y_metric}={result.metric(y_metric):,.3f}"
        )

    print(
        f"\ncache: {sweep.cache_hits} hits / {sweep.cache_misses} misses "
        f"({sweep.hit_rate:.1%} hit rate), solver calls: {sweep.solver_calls}, "
        f"duplicate fan-out: {sweep.fanout_cells}, errors: {sweep.num_errors}"
    )
    if args.profile and sweep.profile is not None:
        print()
        print(sweep.profile.format())

    if tracer is not None:
        tracer.write(args.trace)
        print(
            f"wrote {args.trace} ({len(tracer.spans())} spans; "
            f"inspect with 'obs trace {args.trace}')"
        )

    if args.output:
        artifact = {
            "engine_version": ENGINE_VERSION,
            "spec": spec.to_dict(),
            "sweep": sweep.to_dict(),
            "pareto": {
                "x": x_metric,
                "y": y_metric,
                "points": [result.to_dict() for result in frontier],
            },
            "summary": [list(row) for row in summary_rows(sweep.results)],
        }
        with open(args.output, "w") as handle:
            json.dump(artifact, handle, indent=1, sort_keys=True)
        print(f"wrote {args.output}")

    return 2 if sweep.results and sweep.num_errors == len(sweep.results) else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.runtime import ThemisScheduler
    from repro.simulator import simulate_training_step

    network = _resolve_network(args.topology)
    workload = _resolve_workload(args, network)
    bandwidths = _parse_bandwidths(args.bandwidths, network.num_dims)
    factory = ThemisScheduler if args.themis else None
    step = simulate_training_step(
        workload, network, bandwidths, num_chunks=args.chunks,
        scheduler_factory=factory,
    )
    if args.as_json:
        payload = {
            "step_time_s": float(step.total_time),
            "compute_time_s": float(step.compute_time),
            "comm_time_s": float(step.comm_time),
            "per_dim_utilization": [
                float(u) for u in step.comm_report.per_dim_utilization
            ],
            "aggregate_utilization": float(
                step.comm_report.aggregate_utilization
            ),
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    utils = ", ".join(f"{u:.2f}" for u in step.comm_report.per_dim_utilization)
    print(f"step time:    {step.total_time * 1e3:.3f} ms")
    print(f"compute time: {step.compute_time * 1e3:.3f} ms")
    print(f"comm time:    {step.comm_time * 1e3:.3f} ms")
    print(f"per-dim utilization: [{utils}]")
    print(f"aggregate BW utilization: {step.comm_report.aggregate_utilization:.3f}")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    network = _resolve_network(args.topology)
    bandwidths = _parse_bandwidths(args.bandwidths, network.num_dims)
    model = default_cost_model()
    entries = cost_breakdown(network, bandwidths, model)
    if args.as_json:
        payload = {
            "dims": [
                {
                    "dim": entry.dim,
                    "tier": network.tiers[entry.dim].value,
                    "link": float(entry.link),
                    "switch": float(entry.switch),
                    "nic": float(entry.nic),
                    "total": float(entry.total),
                }
                for entry in entries
            ],
            "total": float(sum(entry.total for entry in entries)),
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    total = 0.0
    for entry in entries:
        tier = network.tiers[entry.dim].value
        print(
            f"dim {entry.dim} ({tier:>8}): link ${entry.link:,.0f}  "
            f"switch ${entry.switch:,.0f}  NIC ${entry.nic:,.0f}  "
            f"= ${entry.total:,.0f}"
        )
        total += entry.total
    print(f"total network cost: ${total:,.0f}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perfbench import (
        AnalyzeBenchConfig,
        BenchConfig,
        StrategyBenchConfig,
        SweepBenchConfig,
        format_analyze_report,
        format_report,
        format_strategy_report,
        format_sweep_report,
        quick_analyze_config,
        quick_config,
        quick_strategy_config,
        quick_sweep_config,
        run_analyze_benchmark,
        run_benchmarks,
        run_strategy_benchmark,
        run_sweep_benchmark,
        write_artifact,
    )
    from repro.perfbench.harness import BenchEquivalenceError

    if args.strategy:
        if args.quick:
            config = quick_strategy_config()
        else:
            defaults = StrategyBenchConfig()
            config = StrategyBenchConfig(
                workload=(
                    args.workload[0] if args.workload else defaults.workload
                ),
                topology=(
                    args.topology if args.topology != "4D-4K"
                    else defaults.topology
                ),
                budgets_gbps=tuple(args.bw) or defaults.budgets_gbps,
                repeats=args.repeats,
            )
        output = args.output or "BENCH_strategy.json"
        try:
            artifact = run_strategy_benchmark(config)
        except BenchEquivalenceError as exc:
            # Warm results that drift from the cold path are the one
            # failure CI must catch; no artifact is written because the
            # timings cannot be trusted.
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(format_strategy_report(artifact))
        write_artifact(output, artifact)
        print(f"wrote {output}")
        reduction = artifact["breakdown"]["start_reduction"]
        if args.min_reuse > 0 and reduction < args.min_reuse:
            print(
                f"error: warm-start reuse cut only {reduction:.1%} of the "
                f"cold baseline's solver starts, below the "
                f"{args.min_reuse:.1%} floor",
                file=sys.stderr,
            )
            return 3
        return 0

    if args.analyze:
        if args.quick:
            config = quick_analyze_config()
        else:
            defaults = AnalyzeBenchConfig()
            config = AnalyzeBenchConfig(
                workload=(
                    args.workload[0] if args.workload else defaults.workload
                ),
                topology=args.topology,
                budget_gbps=args.total_bw,
                probes=args.probes,
            )
        artifact = run_analyze_benchmark(config)
        output = args.output or "BENCH_analyze.json"
        print(format_analyze_report(artifact))
        write_artifact(output, artifact)
        print(f"wrote {output}")
        if args.max_p95_ms > 0 and artifact["cached_p95_ms"] > args.max_p95_ms:
            print(
                f"error: cached-probe p95 {artifact['cached_p95_ms']:.3f} ms "
                f"exceeds the {args.max_p95_ms:g} ms floor",
                file=sys.stderr,
            )
            return 3
        return 0

    if args.sweep:
        if args.quick:
            config = quick_sweep_config()
        else:
            defaults = SweepBenchConfig()
            config = SweepBenchConfig(
                workloads=tuple(args.workload) or defaults.workloads,
                topology=args.topology,
                budgets_gbps=tuple(args.bw) or defaults.budgets_gbps,
                repeats=args.repeats,
            )
        output = args.output or "BENCH_sweep.json"
        try:
            artifact = run_sweep_benchmark(config)
        except BenchEquivalenceError as exc:
            # Warm results that drift from the cold path are the one
            # failure CI must catch; no artifact is written because the
            # timings cannot be trusted.
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(format_sweep_report(artifact))
        write_artifact(output, artifact)
        print(f"wrote {output}")
        if args.min_speedup > 0 and artifact["speedup"] < args.min_speedup:
            print(
                f"error: sweep speedup {artifact['speedup']:.2f}x below "
                f"the {args.min_speedup:g}x floor",
                file=sys.stderr,
            )
            return 3
        return 0

    if args.quick:
        config = quick_config()
    else:
        config = BenchConfig(
            workloads=tuple(args.workload) or ("GPT-3",),
            topology=args.topology,
            total_bw_gbps=args.total_bw,
            repeats=args.repeats,
        )
    output = args.output or "BENCH_solver.json"
    try:
        artifact = run_benchmarks(config)
    except BenchEquivalenceError as exc:
        # An answer failing the optimality oracle is the one failure CI
        # must catch; no artifact is written because the numbers cannot
        # be trusted.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(format_report(artifact))
    write_artifact(output, artifact)
    print(f"wrote {output}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Summarize a Chrome trace file: per-name count / total / mean / max."""
    try:
        with open(args.file, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read trace file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"trace file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ReproError(
            f"{args.file!r} is not a Chrome trace (no traceEvents key)"
        )
    totals: dict[str, dict] = {}
    for event in payload["traceEvents"]:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        entry = totals.setdefault(str(event.get("name", "?")), {
            "count": 0, "total_ms": 0.0, "max_ms": 0.0, "cpu_ms": 0.0,
        })
        duration_ms = float(event.get("dur", 0.0)) / 1e3
        entry["count"] += 1
        entry["total_ms"] += duration_ms
        entry["max_ms"] = max(entry["max_ms"], duration_ms)
        entry["cpu_ms"] += float(event.get("args", {}).get("cpu_s", 0.0)) * 1e3
    if args.as_json:
        for entry in totals.values():
            for key in ("total_ms", "max_ms", "cpu_ms"):
                entry[key] = round(entry[key], 6)
        print(json.dumps(dict(sorted(totals.items())), indent=1, sort_keys=True))
        return 0
    if not totals:
        print("no spans")
        return 0
    print(
        f"{'span':<16} {'count':>6}  {'total (ms)':>11}  {'mean (ms)':>10}  "
        f"{'max (ms)':>10}  {'cpu (ms)':>10}"
    )
    for name, entry in sorted(
        totals.items(), key=lambda item: -item[1]["total_ms"]
    ):
        mean_ms = entry["total_ms"] / entry["count"]
        print(
            f"{name:<16} {entry['count']:>6}  {entry['total_ms']:>11.3f}  "
            f"{mean_ms:>10.3f}  {entry['max_ms']:>10.3f}  "
            f"{entry['cpu_ms']:>10.3f}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs import setup_logging
    from repro.serve import FleetCoordinator, JobManager, JobStore, create_server

    level = args.log_level or ("debug" if args.verbose else None)
    setup_logging(level=level, json_format=args.log_json)
    if args.fleet and not args.state_dir:
        print("repro serve: --fleet requires --state-dir", file=sys.stderr)
        return 2
    store = JobStore(args.state_dir) if args.state_dir else None
    fleet = (
        FleetCoordinator(
            store,
            lease_ttl_s=args.lease_ttl,
            poll_interval_s=args.fleet_poll,
        )
        if args.fleet else None
    )
    manager = JobManager(
        workers=args.workers, max_jobs=args.max_jobs, store=store,
        fleet=fleet,
    )
    server = create_server(
        manager, host=args.host, port=args.port, verbose=args.verbose,
        cache_root=args.cache_root,
    )
    host, port = server.server_address[:2]
    durability = (
        f"; durable state in {args.state_dir}"
        + (
            f" ({manager.recovered_jobs} jobs recovered)"
            if manager.recovered_jobs else ""
        )
        if store is not None else ""
    )
    fleet_note = (
        f"; fleet member {fleet.owner_id} (lease ttl {args.lease_ttl:g}s)"
        if fleet is not None else ""
    )
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(schema v4; {args.workers} job workers{durability}{fleet_note}; "
        f"Ctrl-C to stop)"
    )

    def _drain(signum, frame):
        # Graceful drain: stop claiming new work right away, then stop
        # the accept loop. shutdown() must run off the main thread —
        # the main thread is inside serve_forever() and shutdown()
        # blocks until that loop exits.
        if fleet is not None:
            fleet.drain()
        threading.Thread(
            target=server.shutdown, name="repro-drain", daemon=True
        ).start()

    previous_sigterm = signal.signal(signal.SIGTERM, _drain)
    try:
        server.serve_forever()
        print("\ndraining…" if fleet is not None else "\nshutting down…")
    except KeyboardInterrupt:
        print("\nshutting down…")
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        server.shutdown()
        server.server_close()
        # With a durable store, leave queued work on disk for the next
        # boot instead of cancelling it: restart is resume, not reset.
        # In fleet mode this releases still-queued leases to the peers.
        manager.shutdown(cancel_pending=store is None)
    return 0


def _submit_request(args: argparse.Namespace):
    """Build the request a submit invocation describes (optimize or batch)."""
    from repro.api.requests import BatchRequest
    from repro.explore import load_sweep_spec

    if args.spec:
        if args.scenario or args.topology or args.workload or args.workload_file:
            raise ReproError(
                "--spec submits a batch job; drop the scenario/target flags"
            )
        if args.total_bw is not None or args.cap or args.scheme is not None:
            # Never silently drop a constraint the user typed: the spec
            # file owns the budget/scheme axes and per-cell caps.
            raise ReproError(
                "--spec submits a batch job; --total-bw/--cap/--scheme "
                "belong in the spec file's axes, not on the command line"
            )
        return BatchRequest(
            spec=load_sweep_spec(args.spec),
            workers=args.batch_workers,
            cache_dir=args.cache_dir,
        )
    if args.cache_dir or args.batch_workers != 1:
        # Symmetric with the --spec conflicts above: batch-only flags on a
        # single optimize must fail loudly, not silently do nothing.
        raise ReproError(
            "--cache-dir/--batch-workers apply to batch jobs; add --spec"
        )
    scenario = _optimize_scenario(args)
    return OptimizeRequest(
        scenario=scenario, scheme=_SCHEMES[args.scheme or "perf"]
    )


def _print_event(event, file=None) -> None:
    data = json.dumps(event.data, sort_keys=True)
    print(f"[{event.seq:>3}] {event.kind:<6} {data}", file=file or sys.stderr)


def _print_batch_response(response, as_json: bool) -> int:
    if as_json:
        print(json.dumps(response.to_dict(), indent=1, sort_keys=True))
        return 0
    sweep = response.sweep
    for result in sweep.results:
        point = result.point
        status = (
            f"ERROR: {result.error}" if not result.ok
            else f"{result.step_time_ms:.3f} ms, ${result.network_cost:,.0f}"
        )
        print(f"{point.label():<55} {status}")
    diagnostics = response.diagnostics or {}
    print(
        f"cells: {len(sweep.results)}, cache hits: {sweep.cache_hits}, "
        f"solver calls: {sweep.solver_calls}, "
        f"warm hit rate: {diagnostics.get('warm_hit_rate', 0.0):.1%}, "
        f"errors: {sweep.num_errors}"
    )
    return 2 if sweep.results and sweep.num_errors == len(sweep.results) else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.requests import BatchResponse

    request = _submit_request(args)

    if args.url:
        from repro.serve.client import ServeClient

        client = ServeClient(args.url)
        info = client.submit(request)
        print(f"job {info.id}: {info.state.value}", file=sys.stderr)
        if args.no_wait:
            print(json.dumps(info.to_dict(), indent=1, sort_keys=True))
            return 0
        if args.events and not info.done:
            client.follow_to_completion(info.id, on_event=_print_event)
            response = client.result(info.id)
        else:
            # No event display wanted: poll, and decode the envelope the
            # final poll already downloaded — no second result fetch, no
            # streaming (and discarding) a huge per-cell event log.
            response = client.wait(info.id).response()
    else:
        if args.no_wait:
            # Returning without waiting only means something when the job
            # outlives this process; an in-process queue cannot offer that.
            raise ReproError(
                "--no-wait requires --url: an in-process job queue dies "
                "when the CLI exits"
            )
        from repro.serve import JobManager

        with JobManager(workers=1) as manager:
            handle = manager.submit(request)
            print(f"job {handle.id}: queued (in-process)", file=sys.stderr)
            if args.events:
                for event in handle.stream():
                    _print_event(event)
            response = handle.result()

    if isinstance(response, BatchResponse):
        return _print_batch_response(response, args.as_json)
    return _print_optimize_response(response, args.as_json)


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url)
    if args.cancel:
        info = client.cancel(args.cancel)
        print(f"job {info.id}: {info.state.value}")
        return 0
    if args.events:
        def show(event) -> None:
            if args.as_json:
                print(json.dumps(event.to_dict(), sort_keys=True))
            else:
                _print_event(event, file=sys.stdout)

        if args.follow:
            # Stall-tolerant: a quiet long solve must not abort the watch.
            client.follow_to_completion(args.events, on_event=show)
        else:
            for event in client.events(args.events):
                show(event)
        return 0
    if args.job:
        info = client.job(args.job)
        print(json.dumps(info.to_dict(), indent=1, sort_keys=True))
        return 0
    listing = client.jobs()
    if args.as_json:
        print(json.dumps(
            [info.to_dict()["job"] for info in listing],
            indent=1, sort_keys=True,
        ))
        return 0
    if not listing:
        print("no jobs")
        return 0
    print(f"{'id':<24} {'kind':<9} {'state':<10} {'events':>6}  error")
    for info in listing:
        print(
            f"{info.id:<24} {info.kind:<9} {info.state.value:<10} "
            f"{info.num_events:>6}  {info.error}"
        )
    return 0


_COMMANDS = {
    "topologies": _cmd_topologies,
    "workloads": _cmd_workloads,
    "optimize": _cmd_optimize,
    "analyze": _cmd_analyze,
    "costrategy": _cmd_costrategy,
    "scenario": _cmd_scenario,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "simulate": _cmd_simulate,
    "cost": _cmd_cost,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "obs": _cmd_obs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — the Unix convention is to
        # exit quietly (and avoid the interpreter's own flush complaining).
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
