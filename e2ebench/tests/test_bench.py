"""The benchmark's own tests: seeded streams, patch hygiene, metric names.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import layers  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from repro.api.requests import request_to_dict  # noqa: E402
from repro.api.scenario import build_scenario  # noqa: E402
from repro.utils.canonical import canonical_json  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _encode(item) -> str:
    """A comparable text form of one stream item."""
    if isinstance(item, tuple):
        return "|".join(_encode(part) for part in item)
    if isinstance(item, list):
        return "[" + ",".join(_encode(part) for part in item) + "]"
    if hasattr(item, "label"):
        return item.label()
    if isinstance(item, (str, float)):
        return repr(item)
    return canonical_json(request_to_dict(item))


def _streams(seed: int) -> dict:
    cells = workloads.presweep_spec(seed).expand()
    return {
        "serve-0": workloads.serve_stream(seed, 0, cells),
        "serve-1": workloads.serve_stream(seed, 1, cells),
        "sweep-grid": workloads.grid_stream(seed),
        "costrategy": workloads.costrategy_stream(seed),
    }


def _take(stream, count: int) -> list[str]:
    return [_encode(item) for item in itertools.islice(stream, count)]


@pytest.mark.parametrize("name", ["serve-0", "serve-1", "sweep-grid", "costrategy"])
def test_same_seed_same_stream_other_seed_other_stream(name):
    first = _take(_streams(3)[name], 30)
    assert first == _take(_streams(3)[name], 30)
    assert first != _take(_streams(4)[name], 30)


def test_optimize_payloads_never_repeat():
    payloads = [
        _encode(request)
        for client in ("serve-0", "serve-1")
        for kind, request in itertools.islice(_streams(5)[client], 1500)
        if kind == "optimize"
    ]
    assert len(payloads) > 1500
    assert len(set(payloads)) == len(payloads)


def test_rebudgeted_scenario_equals_a_built_one():
    template = build_scenario("3D-512", ["Turing-NLG"])
    built = build_scenario("3D-512", ["Turing-NLG"], total_bw_gbps=612.345)
    assert workloads.with_budget(template, 612.345).to_dict() == built.to_dict()


def test_grid_and_search_budgets_never_repeat():
    grid = [batch.spec.bandwidths_gbps for batch, _ in itertools.islice(
        workloads.grid_stream(6), 200)]
    budgets = [b for column in grid for b in column]
    assert len(set(budgets)) == len(budgets)
    searches = list(itertools.islice(workloads.costrategy_stream(6), 756))
    assert len({request.topology for request, _ in searches}) == 756


def test_a_run_too_short_for_the_prefix_finishes_it_untimed(tmp_path):
    workload = workloads.SweepGrid(7, tmp_path)
    workload.setup()
    timed = workload.run(0)
    untimed = workload.finish_prefix()
    assert timed.attempted == 0
    assert untimed.failed == 0 and workload.position == workload.prefix.length
    cells = workload.prefix.length * 96
    assert len(workload.prefix.perf_gains) + len(workload.prefix.ppc_gains) == cells
    assert workload.prefix.peak_rss_mb > 0


def _originals() -> list[tuple[object, str, object]]:
    found = []
    for patch in layers.PATCHES:
        owner, name = layers._resolve(patch)
        found.append((owner, name, vars(owner)[name]))
    return found


def test_wrappers_are_installed_and_removed_without_trace():
    before = _originals()
    with layers.installed(layers.LayerTracer()):
        during = _originals()
        assert all(
            now is not then
            for (_, _, now), (_, _, then) in zip(during, before)
        )
    assert all(
        vars(owner)[name] is original for owner, name, original in before
    )


def test_a_failed_install_restores_what_it_patched():
    before = _originals()
    broken = layers.PATCHES[:3] + (
        layers.Patch("nowhere", "repro.core.solver", "no_such_name"),
    )
    with pytest.raises(AttributeError):
        with layers.installed(layers.LayerTracer(), broken):
            pass
    assert all(
        vars(owner)[name] is original for owner, name, original in before
    )


def test_self_time_excludes_children_and_reentry_counts_once():
    tracer = layers.LayerTracer()
    inner = tracer.wrap(layers.Patch("inner", "m", "f"), lambda: sum(range(2000)))

    def outer_fn(depth):
        inner()
        return outer(depth - 1) if depth else 0

    outer = tracer.wrap(layers.Patch("outer", "m", "g"), outer_fn)
    outer(2)
    stats, _ = tracer.totals()
    calls, inclusive, own = stats["outer"]
    assert calls == 3 and stats["inner"][0] == 3
    assert own <= inclusive
    assert abs(own + stats["inner"][1] - inclusive) < 1e-3
    events = tracer.to_chrome()["traceEvents"]
    assert len(events) == 6 and all(e["ph"] == "X" for e in events)


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_counts_and_manifest_agree():
    end_to_end = [name for name, _, _ in report.END_TO_END]
    per_layer = [name for name, _, _ in report.per_layer_specs()]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    manifest = _manifest()
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]
    ] == list(report.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == report.per_layer_specs()
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(
        workloads.WORKLOADS
    )
