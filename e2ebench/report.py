"""Metric definitions and the tables the benchmark prints.

End-to-end metrics come from the untraced run; per-layer metrics from the
traced stretches of a traced run. Per-layer times and call counts are per
completed request of those stretches, so they stay comparable when a
change alters how many requests fit in a run.
"""

from __future__ import annotations

import math
import resource
import statistics

from layers import layer_names

#: (name, unit, better): every workload reports every one of these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("cells_per_s", "1/s", "higher"),
    ("solve_p50_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("speedup_over_equalbw_mean", "ratio", "higher"),
    ("ppc_gain_over_equalbw_mean", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the derived per-layer metrics.
DERIVED = (
    ("serve.manager.queue_ms", "ms", "lower"),
    ("serve.manager.run_ms", "ms", "lower"),
    ("serve.manager.refused", "count", "lower"),
    ("api.service.analyze_memo_hit_ratio", "ratio", "higher"),
    ("api.service.engine_miss_ratio", "ratio", "lower"),
    ("core.solver.expression_memo_hit_ratio", "ratio", "higher"),
    ("utils.canonical.digests_per_cell", "1/cell", "lower"),
    ("core.solver.starts_per_solve", "1/solve", "lower"),
    ("explore.chains.warm_accept_ratio", "ratio", "higher"),
    ("explore.cache.hit_ratio", "ratio", "higher"),
    ("strategy.space.pruned_ratio", "ratio", "higher"),
    ("strategy.search.cross_warm_accept_ratio", "ratio", "higher"),
    ("analysis.whatif_memo_hit_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in layer_names():
        specs.append((f"{layer}_calls", "1/req", "lower"))
        specs.append((f"{layer}_ms", "ms/req", "lower"))
        specs.append((f"{layer}_self_ms", "ms/req", "lower"))
    return specs + list(DERIVED)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; ``nan`` without samples."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


#: Throughput is the median over this many equal-count stretches of a run,
#: so one stall (a collection pause, a noisy neighbour) moves it little.
THROUGHPUT_BLOCKS = 10


def throughput(completions: list[tuple[float, int, str]]) -> tuple[float, float]:
    """Median (requests/s, cells/s) over consecutive blocks of a run.

    ``completions`` holds ``(time, cells, kind)`` per completed request.
    Blocks end on every k-th *solve* completion, so each holds the same
    number of solve requests however unevenly solves and reads take time;
    a block counts the requests and cells completed after the previous
    block's end, up to and including its own.
    """
    ends = [i for i, (_, _, kind) in enumerate(completions) if kind == "solve"]
    step = max(1, (len(ends) - 1) // THROUGHPUT_BLOCKS)
    ends = ends[::step]
    requests, cells = [], []
    for first, last in zip(ends, ends[1:]):
        span = completions[last][0] - completions[first][0]
        if span <= 0:
            continue
        block = completions[first + 1:last + 1]
        requests.append(len(block) / span)
        cells.append(sum(count for _, count, _ in block) / span)
    if not requests:
        return math.nan, math.nan
    return statistics.median(requests), statistics.median(cells)


def end_to_end(tally, setup_times: list[float], prefix) -> dict:
    """name -> value for :data:`END_TO_END`.

    Timings come from the timed ``tally``; quality and memory from the
    workload's fixed quality ``prefix`` (:class:`workloads.Prefix`).
    """
    solve = tally.latencies_ms["solve"]
    read = tally.latencies_ms["read"]
    requests_per_s, cells_per_s = throughput(tally.completions)
    perf, ppc = prefix.perf_gains, prefix.ppc_gains
    return {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": requests_per_s,
        "cells_per_s": cells_per_s,
        "solve_p50_ms": statistics.median(solve) if solve else math.nan,
        "read_p50_ms": statistics.median(read) if read else math.nan,
        "speedup_over_equalbw_mean": statistics.fmean(perf) if perf else math.nan,
        "ppc_gain_over_equalbw_mean": statistics.fmean(ppc) if ppc else math.nan,
        "peak_rss_mb": prefix.peak_rss_mb,
    }


def per_layer(stats, counts, tally, expression_memo, overhead_pct) -> dict:
    """name -> value for :func:`per_layer_specs`.

    ``stats`` and ``counts`` come from :meth:`LayerTracer.totals` (plus the
    workload's own counters); ``expression_memo`` is the ``(hits, misses)``
    the compiled-expression memo gained during the traced phase.
    """
    requests = max(tally.completed, 1)
    values = {}
    for layer in layer_names():
        calls, inclusive_s, self_s = stats.get(layer, (0, 0.0, 0.0))
        values[f"{layer}_calls"] = calls / requests
        values[f"{layer}_ms"] = inclusive_s * 1e3 / requests
        values[f"{layer}_self_ms"] = self_s * 1e3 / requests

    def calls(layer: str) -> int:
        return stats.get(layer, (0,))[0]

    jobs = counts["serve.manager.jobs"]
    accepted = counts["core.solver.warm_accepted"]
    rejected = counts["core.solver.warm_rejected"]
    kept = counts["strategy.space.kept"]
    pruned = counts["strategy.space.pruned"]
    values.update({
        "serve.manager.queue_ms": _ratio(counts["serve.manager.queue_us"], jobs) / 1e3,
        "serve.manager.run_ms": _ratio(counts["serve.manager.run_us"], jobs) / 1e3,
        "serve.manager.refused": counts["serve.manager.refused"],
        "api.service.analyze_memo_hit_ratio": _ratio(
            counts["api.service.analyze_memo_hits"],
            calls("api.service.submit.analyze"),
        ),
        "api.service.engine_miss_ratio": _ratio(
            calls("api.scenario.compile"), calls("api.service.engine")
        ),
        "core.solver.expression_memo_hit_ratio": _ratio(
            expression_memo[0], sum(expression_memo)
        ),
        "utils.canonical.digests_per_cell": _ratio(
            calls("utils.canonical.digest"), tally.cells
        ),
        "core.solver.starts_per_solve": _ratio(
            counts["core.solver.starts"], calls("core.solver.solve")
        ),
        "explore.chains.warm_accept_ratio": _ratio(accepted, accepted + rejected),
        "explore.cache.hit_ratio": _ratio(
            counts["explore.cache.hits"], calls("explore.cache.get")
        ),
        "strategy.space.pruned_ratio": _ratio(pruned, kept + pruned),
        "strategy.search.cross_warm_accept_ratio": _ratio(
            counts["strategy.search.cross_warm_accepted"],
            counts["strategy.search.cross_warm_offered"],
        ),
        "analysis.whatif_memo_hit_ratio": _ratio(
            counts["analysis.whatif_memo_hits"], calls("analysis.whatif_memo")
        ),
        "trace.overhead_pct": overhead_pct,
    })
    return values


def print_end_to_end(workload, values: dict, tally, import_s: float) -> None:
    """The human-readable end-to-end table of the timed ``tally``, with
    sample counts and tails."""
    solve = tally.latencies_ms["solve"]
    read = tally.latencies_ms["read"]
    print(f"== {workload.name}: end to end (untraced) ==")
    for name, unit, _ in END_TO_END:
        note = ""
        if name == "solve_p50_ms":
            note = f"  ({workload.solve_kind}, n={len(solve)})"
        elif name == "read_p50_ms":
            note = f"  (analyze, n={len(read)})"
        print(f"  {name:<30} {values[name]:>14.6g} {unit:<6}{note}")
    # A tail is printed only where at least ten samples lie beyond it.
    for kind, samples in ((workload.solve_kind, solve), ("analyze", read)):
        if len(samples) >= 200:
            print(
                f"  {kind + '_p95_ms':<30} {percentile(samples, 95):>14.6g} "
                f"{'ms':<6}  (n={len(samples)})"
            )
    print(f"  {'import_s':<30} {import_s:>14.6g} {'s':<6}  (not a metric)")


def print_errors(tally) -> None:
    """Failed, refused or check-failed requests of the whole run."""
    error_rate = _ratio(tally.failed, tally.attempted)
    print(
        f"  {'error_rate':<30} {error_rate:>14.6g} {'ratio':<6}"
        f"  ({tally.failed} of {tally.attempted} attempted)"
    )
    for failure in tally.failures:
        print(f"  failure: {failure}")


def print_per_layer(workload, stats, values: dict, traced_s: float) -> None:
    """Per-layer table: calls, inclusive and self time per request."""
    print(f"== {workload.name}: per layer (traced, per completed request) ==")
    print(
        f"  {'layer':<34} {'calls':>9} {'incl ms':>10} {'self ms':>10}"
        f" {'self %':>7}"
    )
    for layer in layer_names():
        if layer not in stats:
            continue
        own = values[f"{layer}_self_ms"]
        total_ms = stats[layer][2] * 1e3
        print(
            f"  {layer:<34} {values[f'{layer}_calls']:>9.3f}"
            f" {values[f'{layer}_ms']:>10.4f} {own:>10.4f}"
            f" {100 * total_ms / (traced_s * 1e3):>7.2f}"
        )
    for name, unit, _ in DERIVED:
        print(f"  {name:<44} {values[name]:>12.6g} {unit}")
