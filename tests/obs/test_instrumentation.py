"""Instrumentation must observe, never perturb.

The contract every instrumented layer makes: with tracing and metrics
enabled, the numbers coming out of the solver, the sweep engine, and the
service are bit-identical to the no-op default — observability changes
what you can *see*, never what you *get*.
"""

import pytest

from repro.api.requests import BatchRequest, OptimizeRequest
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.explore import ResultCache, SweepSpec, run_sweep
from repro.obs import MetricsRegistry, Tracer, set_registry, use_tracer
from repro.obs import names as obs_names

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"

SPEC = SweepSpec(
    workloads=(WORKLOAD,),
    topologies=(TOPOLOGY,),
    bandwidths_gbps=(100.0, 200.0),
    schemes=("perf",),
)


def _optimize():
    scenario = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
    return LibraService().submit(OptimizeRequest(scenario=scenario))


class TestNoOpEquivalence:
    def test_optimize_bit_identical_tracing_on_vs_off(self):
        baseline = _optimize()
        set_registry(MetricsRegistry())
        with use_tracer(Tracer()):
            observed = _optimize()
        assert observed.to_dict() == baseline.to_dict()
        assert observed.point.bandwidths == baseline.point.bandwidths

    def test_sweep_bit_identical_tracing_on_vs_off(self):
        baseline = run_sweep(SPEC)
        set_registry(MetricsRegistry())
        with use_tracer(Tracer()):
            observed = run_sweep(SPEC)
        assert observed.to_dict() == baseline.to_dict()


class TestSpanCoverage:
    def test_sweep_emits_the_documented_span_taxonomy(self):
        tracer = Tracer()
        with use_tracer(tracer):
            sweep = run_sweep(SPEC)
        names = {span.name for span in tracer.spans()}
        assert {"sweep", "sweep.lookup", "chain", "cell", "solve"} <= names
        assert sweep.num_errors == 0
        cells = [s for s in tracer.spans() if s.name == "cell"]
        assert len(cells) == len(sweep.results)
        assert all(cell.attrs["status"] == "solved" for cell in cells)

    def test_sweep_span_carries_result_attrs(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_sweep(SPEC)
        (sweep_span,) = [s for s in tracer.spans() if s.name == "sweep"]
        assert sweep_span.attrs["total"] == 2
        assert sweep_span.attrs["solver_calls"] == 2


class TestMetricsCoverage:
    def test_sweep_fires_cache_and_sweep_families(self):
        registry = MetricsRegistry()
        set_registry(registry)
        run_sweep(SPEC, cache=ResultCache())
        cells = registry.counter(
            obs_names.SWEEP_CELLS, labels=("status",)
        )
        assert cells.value(status="solved") == 2
        assert registry.counter(obs_names.CACHE_WRITES).value() == 2
        lookups = registry.counter(
            obs_names.CACHE_LOOKUPS, labels=("tier", "outcome")
        )
        assert lookups.value(tier="memory", outcome="miss") == 2
        assert registry.counter(obs_names.SWEEP_CHAINS).value() == 1

    def test_solver_families_fire_on_one_optimize(self):
        registry = MetricsRegistry()
        set_registry(registry)
        _optimize()
        solves = registry.counter(obs_names.SOLVER_SOLVES, labels=("scheme",))
        assert solves.value(scheme="perf") >= 1
        count, total = registry.histogram(
            obs_names.SOLVER_SECONDS, labels=("scheme",)
        ).observations(scheme="perf")
        assert count >= 1 and total > 0
        requests = registry.counter(
            obs_names.SERVICE_REQUESTS, labels=("kind",)
        )
        assert requests.value(kind="optimize") == 1


class TestBatchDiagnostics:
    def test_cache_stats_ride_batch_response(self):
        response = LibraService().submit(BatchRequest(spec=SPEC))
        stats = response.diagnostics["cache"]
        assert stats["memory_misses"] == 2
        assert stats["writes"] == 2
        assert stats["evictions"] == 0

    def test_stats_accumulate_across_submissions(self):
        """The shared server-side cache reports lifetime tallies: a repeat
        batch resolves from memory and the hit shows up in the stats."""
        service = LibraService()
        service.submit(BatchRequest(spec=SPEC))
        repeat = service.submit(BatchRequest(spec=SPEC))
        stats = repeat.diagnostics["cache"]
        assert stats["memory_hits"] == 2
        assert stats["memory_misses"] == 2
        assert stats["writes"] == 2

    def test_no_cache_reports_none(self):
        from repro.api.service import sweep_diagnostics

        sweep = run_sweep(SPEC)
        assert sweep_diagnostics(sweep)["cache"] is None
