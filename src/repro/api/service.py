"""The stateless request/response front end: :class:`LibraService`.

The service is the one true entry point for answering LIBRA questions. It
owns no problem state — every request carries its complete problem
statement as a :class:`~repro.api.scenario.Scenario` — so a single service
instance can serve arbitrarily many interleaved scenarios, and any future
HTTP/queue front end is a thin codec over :meth:`LibraService.submit`.

Building a :class:`~repro.core.framework.Libra` from a scenario (workload
construction, symbolic step-time expressions) dominates repeat-request
latency, so the service keeps a bounded memo of compiled engines keyed on
the scenario's canonical content: two structurally identical scenarios —
whatever their display names or payload field order — share one engine.
Every solve is one certified kernel run that depends on the problem alone,
so no solve reads anything an earlier request left behind.

Typical session::

    from repro.api import LibraService, OptimizeRequest, build_scenario

    service = LibraService()
    scenario = build_scenario("4D-4K", ["GPT-3"], total_bw_gbps=500)
    response = service.submit(OptimizeRequest(scenario=scenario))
    optimum = response.point           # the optimized DesignPoint
    speedup = response.speedup_over_baseline
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import replace

from repro.analysis import (
    WhatIfMemo,
    bottleneck_structure,
    build_report,
    evaluate_whatifs,
)
from repro.api.requests import (
    AnalyzeRequest,
    AnalyzeResponse,
    BatchRequest,
    BatchResponse,
    CostrategyRequest,
    CostrategyResponse,
    OptimizeRequest,
    OptimizeResponse,
    request_kind,
)
from repro.api.scenario import Scenario
from repro.core.framework import Libra
from repro.core.results import DesignPoint, Scheme
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace
from repro.utils.canonical import digest
from repro.utils.errors import (
    AnalysisCacheMiss,
    ConfigurationError,
    OptimizationError,
)
from repro.utils.units import gbps


def _engine_memo_counter():
    return obs_metrics.get_registry().counter(
        obs_names.SERVICE_ENGINE_MEMO,
        "Engine-memo consultations (a miss is a scenario compile).",
        labels=("outcome",),
    )


def _analyze_request_counter():
    return obs_metrics.get_registry().counter(
        obs_names.ANALYZE_REQUESTS,
        "Analyze requests by how the target point resolved.",
        labels=("source",),
    )


def _analyze_memo_counter():
    return obs_metrics.get_registry().counter(
        obs_names.ANALYZE_MEMO,
        "What-if probes served from a memo instead of re-evaluation.",
        labels=("layer",),
    )


def _analyze_seconds():
    return obs_metrics.get_registry().histogram(
        obs_names.ANALYZE_SECONDS,
        "Wall time of one analyze request end to end.",
    )


def register_analysis_families(registry) -> None:
    """Pre-register the analyze families so scrapes show them at zero.

    Same contract as the serve tier's durability families: a server that
    has not yet analyzed anything still renders all three families, so
    the live-scrape test can tell "never requested" from "renamed
    away". Label values are enumerated up front — they are closed sets.
    """
    requests = registry.counter(
        obs_names.ANALYZE_REQUESTS,
        "Analyze requests by how the target point resolved.",
        labels=("source",),
    )
    for source in ("cache", "inline", "solve"):
        requests.labels(source=source)
    memo = registry.counter(
        obs_names.ANALYZE_MEMO,
        "What-if probes served from a memo instead of re-evaluation.",
        labels=("layer",),
    )
    for layer in ("service", "whatif"):
        memo.labels(layer=layer)
    registry.histogram(
        obs_names.ANALYZE_SECONDS,
        "Wall time of one analyze request end to end.",
    ).labels()


def register_strategy_families(registry) -> None:
    """Pre-register the strategy families so scrapes show them at zero.

    Same contract as :func:`register_analysis_families`: a server that has
    never run a costrategy job still renders both families, so a scrape
    can tell "never requested" from "renamed away". The ``outcome`` label
    is a closed set.
    """
    candidates = registry.counter(
        obs_names.STRATEGY_CANDIDATES,
        "Joint-search candidate cells resolved, by outcome.",
        labels=("outcome",),
    )
    for outcome in ("solved", "cached", "error", "pruned"):
        candidates.labels(outcome=outcome)
    registry.histogram(
        obs_names.STRATEGY_SECONDS,
        "Wall time of one joint strategy × bandwidth search.",
    ).labels()


class LibraService:
    """Stateless scenario optimizer with bounded engine and analyze memos.

    Thread-safe: one lock guards every memo (engines, analyses, the lazy
    batch cache), so a single service instance can sit behind a
    worker pool (:class:`repro.serve.JobManager`) or any other concurrent
    caller. Engine compilation runs *outside* the lock — two threads
    racing on one cold key may both compile, but the memo stays
    consistent (last writer wins, bounded eviction preserved) and no
    request ever blocks behind another scenario's compile.

    Args:
        max_compiled: Engine-memo capacity (LRU eviction). Compiled engines
            hold symbolic expression trees, so the bound keeps a
            long-running service's footprint flat.
        max_analyses: Analyze-memo capacity (LRU eviction): whole analyze
            responses keyed on the resolved target's content, so repeat
            what-if sessions against one cached point skip all
            re-computation.
    """

    def __init__(
        self,
        max_compiled: int = 128,
        max_analyses: int = 1024,
    ):
        if max_compiled < 1:
            raise ConfigurationError(
                f"max_compiled must be >= 1, got {max_compiled}"
            )
        if max_analyses < 1:
            raise ConfigurationError(
                f"max_analyses must be >= 1, got {max_analyses}"
            )
        self._max_compiled = max_compiled
        self._max_analyses = max_analyses
        self._lock = threading.Lock()
        self._engines: OrderedDict[str, Libra] = OrderedDict()
        self._analyses: OrderedDict[str, AnalyzeResponse] = OrderedDict()
        self._whatif_memo = WhatIfMemo()
        self._batch_cache = None  # lazy per-service in-memory ResultCache

    # -- compilation ---------------------------------------------------------

    def engine(self, scenario: Scenario) -> Libra:
        """The compiled engine for a scenario.

        Memoized on :meth:`Scenario.engine_key` — the canonical payload
        *minus constraints*, which compilation never reads — so scenarios
        differing only in budget or caps share one engine.
        """
        key = scenario.engine_key()
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                _engine_memo_counter().labels(outcome="hit").inc()
                return engine
        _engine_memo_counter().labels(outcome="miss").inc()
        # Compile without holding the lock: a concurrent duplicate compile
        # is benign (identical engines; one wins the memo slot), whereas
        # serializing every request behind one compile is not.
        with obs_trace.get_tracer().span("service.compile"):
            engine = scenario.compile()
        with self._lock:
            racer = self._engines.get(key)
            if racer is not None:
                self._engines.move_to_end(key)
                return racer
            self._engines[key] = engine
            if len(self._engines) > self._max_compiled:
                self._engines.popitem(last=False)
        return engine

    @property
    def compiled_count(self) -> int:
        """How many engines the memo currently holds."""
        with self._lock:
            return len(self._engines)

    def clear(self) -> None:
        """Drop every memo: engines, analyses, the batch cache."""
        with self._lock:
            self._engines.clear()
            self._analyses.clear()
            self._whatif_memo = WhatIfMemo()
            self._batch_cache = None

    # -- dispatch ------------------------------------------------------------

    def submit(
        self,
        request: (
            OptimizeRequest | BatchRequest | AnalyzeRequest | CostrategyRequest
        ),
        *,
        should_stop: Callable[[], bool] | None = None,
        on_event: Callable[[dict], None] | None = None,
    ) -> (
        OptimizeResponse | BatchResponse | AnalyzeResponse | CostrategyResponse
    ):
        """Answer one request.

        Dispatches on the request type: single solves, explicit-bandwidth
        evaluations, and EqualBW baselines run through the compiled engine;
        batch requests route through the explore engine and its
        content-addressed cache; analyze requests resolve their target
        point (cached cell, inline bandwidths, or a fresh solve) and run
        the read-only bottleneck-structure analysis over it; costrategy
        requests run the joint strategy × bandwidth search and condense it
        into a frontier.

        Both keyword seams are *runtime* concerns, deliberately not part
        of the (serializable) request value. ``should_stop`` is a
        cooperative cancellation predicate polled before each solve and
        between sweep cells (a true return
        raises
        :class:`~repro.utils.errors.JobCancelled`). ``on_event`` receives
        structured progress dicts — the plan, per-cell and per-chain
        events of batches and costrategy searches — which
        :class:`repro.serve.JobManager` turns into streamed
        ``ProgressEvent``\\ s.
        """
        # request_kind owns the discriminator (and its rejection message);
        # the wire layer and this dispatch must never disagree.
        kind = request_kind(request)
        obs_metrics.get_registry().counter(
            obs_names.SERVICE_REQUESTS,
            "Requests dispatched through LibraService.submit.",
            labels=("kind",),
        ).labels(kind=kind).inc()
        if kind == "batch":
            return self._submit_batch(
                request, should_stop=should_stop, on_event=on_event
            )
        if kind == "analyze":
            return self._submit_analyze(request, should_stop=should_stop)
        if kind == "costrategy":
            return self._submit_costrategy(
                request, should_stop=should_stop, on_event=on_event
            )
        return self._submit_optimize(request, should_stop=should_stop)

    # -- single requests -----------------------------------------------------

    def _submit_optimize(
        self,
        request: OptimizeRequest,
        should_stop: Callable[[], bool] | None = None,
    ) -> OptimizeResponse:
        scenario = request.scenario
        engine = self.engine(scenario)
        diagnostics = None

        if request.bandwidths_gbps is not None:
            point = engine.evaluate(
                [gbps(b) for b in request.bandwidths_gbps], scheme=request.scheme
            )
        elif request.scheme is Scheme.EQUAL_BW:
            point = engine.equal_bw_point(self._budget(scenario))
        else:
            point, solver_result = engine.optimize_result(
                request.scheme, scenario.constraints, should_stop=should_stop
            )
            if solver_result is not None:
                diagnostics = {
                    "gap": solver_result.gap,
                    "iterations": solver_result.iterations,
                }

        baseline = None
        if (
            request.include_baseline
            and scenario.constraints is not None
            and scenario.constraints.total_bandwidth is not None
        ):
            baseline = engine.equal_bw_point(scenario.constraints.total_bandwidth)

        return OptimizeResponse(
            scenario_key=scenario.key(),
            scheme=request.scheme,
            point=point,
            baseline=baseline,
            speedup_over_baseline=(
                None if baseline is None
                else baseline.weighted_step_time / point.weighted_step_time
            ),
            ppc_gain_over_baseline=(
                None if baseline is None else _ppc_gain(point, baseline)
            ),
            diagnostics=diagnostics,
        )

    @staticmethod
    def _budget(scenario: Scenario) -> float:
        if (
            scenario.constraints is None
            or scenario.constraints.total_bandwidth is None
        ):
            raise OptimizationError(
                "EqualBW needs a total-bandwidth budget in the scenario's "
                "constraint set"
            )
        return scenario.constraints.total_bandwidth

    # -- analyze requests ------------------------------------------------------

    def _resolve_analyze_target(
        self,
        request: AnalyzeRequest,
        should_stop: Callable[[], bool] | None,
    ) -> tuple[Scenario, Scheme, tuple[float, ...], str]:
        """Resolve (scenario, scheme, bandwidths bytes/s, source) for analysis.

        The cache path **never solves** — analysis of a sweep cell is
        read-only by contract, so a cache miss is an error telling the
        caller to run the sweep first, not a silent re-solve.
        """
        if request.cell is not None:
            # Lazy explore imports, same circularity rationale as batch.
            from repro.explore.cache import ResultCache
            from repro.explore.executor import point_scenario
            from repro.explore.keys import point_key

            if request.cache_dir is not None:
                cache = ResultCache(request.cache_dir)
            else:
                with self._lock:
                    if self._batch_cache is None:
                        self._batch_cache = ResultCache(max_memory=4096)
                    cache = self._batch_cache
            cached = cache.get(point_key(request.cell))
            if cached is None or not cached.ok:
                raise AnalysisCacheMiss(
                    f"sweep cell {request.cell.label()!r} is not in the "
                    "result cache; analysis is read-only — run the sweep "
                    "first (repro explore / a batch request), then analyze"
                )
            scenario = point_scenario(request.cell)
            bandwidths = tuple(gbps(b) for b in cached.bandwidths_gbps)
            return scenario, request.cell.scheme, bandwidths, "cache"
        scenario = request.scenario
        if request.bandwidths_gbps is not None:
            bandwidths = tuple(gbps(b) for b in request.bandwidths_gbps)
            return scenario, request.scheme, bandwidths, "inline"
        solved = self._submit_optimize(
            OptimizeRequest(
                scenario=scenario,
                scheme=request.scheme,
                include_baseline=False,
            ),
            should_stop=should_stop,
        )
        return scenario, request.scheme, solved.point.bandwidths, "solve"

    def _submit_analyze(
        self,
        request: AnalyzeRequest,
        should_stop: Callable[[], bool] | None = None,
    ) -> AnalyzeResponse:
        started = time.perf_counter()
        tracer = obs_trace.get_tracer()
        with tracer.span("analyze") as span:
            scenario, scheme, bandwidths, source = (
                self._resolve_analyze_target(request, should_stop)
            )
            memo_key = digest(
                {
                    "engine_key": scenario.engine_key(),
                    "constraints": (
                        None if scenario.constraints is None
                        else scenario.constraints.canonical()
                    ),
                    "scheme": scheme.value,
                    "bandwidths": list(bandwidths),
                    "queries": [q.to_dict() for q in request.queries],
                }
            )
            with self._lock:
                memoized = self._analyses.get(memo_key)
                if memoized is not None:
                    self._analyses.move_to_end(memo_key)
            if memoized is not None:
                _analyze_memo_counter().labels(layer="service").inc()
                _analyze_request_counter().labels(source=source).inc()
                _analyze_seconds().observe(time.perf_counter() - started)
                span.set("memo", "hit")
                return replace(memoized, source=source, memo_hit=True)

            engine = self.engine(scenario)
            expression = engine.combined_expression()
            with tracer.span("analyze.structure"):
                structure = bottleneck_structure(
                    expression, bandwidths, scenario.constraints
                )
            with tracer.span("analyze.whatif"):
                whatifs = evaluate_whatifs(
                    expression,
                    bandwidths,
                    request.queries,
                    memo=self._whatif_memo,
                    context=f"{scenario.engine_key()}:{scheme.value}",
                )
            response = AnalyzeResponse(
                scenario_key=scenario.key(),
                scheme=scheme,
                report=build_report(structure, whatifs, scheme=scheme.value),
                source=source,
                memo_hit=False,
                diagnostics={
                    "whatif_memo": self._whatif_memo.stats(),
                    "binding_rows": len(structure.binding_rows()),
                },
            )
            with self._lock:
                self._analyses[memo_key] = response
                self._analyses.move_to_end(memo_key)
                if len(self._analyses) > self._max_analyses:
                    self._analyses.popitem(last=False)
            span.set("memo", "miss")
        _analyze_request_counter().labels(source=source).inc()
        _analyze_seconds().observe(time.perf_counter() - started)
        return response

    # -- batch requests --------------------------------------------------------

    def _submit_batch(
        self,
        request: BatchRequest,
        should_stop: Callable[[], bool] | None = None,
        on_event: Callable[[dict], None] | None = None,
    ) -> BatchResponse:
        # Imported lazily: the explore engine sits *above* the api layer
        # (its spec module pulls scheme aliases from the registry), so a
        # module-level import here would be circular.
        from repro.explore.cache import ResultCache
        from repro.explore.executor import run_sweep

        if request.cache_dir is not None:
            cache = ResultCache(request.cache_dir)
        else:
            # The documented per-service in-memory cache: repeat batch
            # submissions against one service reuse solved cells. Bounded
            # like the other memos — a long-running server must not grow
            # without limit; evicted cells simply re-solve.
            with self._lock:
                if self._batch_cache is None:
                    self._batch_cache = ResultCache(max_memory=4096)
                cache = self._batch_cache
        sweep = run_sweep(
            request.spec,
            cache=cache,
            workers=request.workers,
            on_event=on_event,
            should_stop=should_stop,
            service=self,
            # The service may be driven from a thread pool (repro.serve);
            # forking a multithreaded process can deadlock pool children
            # on locks held across the fork, so batches always spawn.
            mp_context="spawn",
        )
        return BatchResponse(
            sweep=sweep, diagnostics=sweep_diagnostics(sweep, cache=cache)
        )

    # -- costrategy requests ---------------------------------------------------

    def _submit_costrategy(
        self,
        request: CostrategyRequest,
        should_stop: Callable[[], bool] | None = None,
        on_event: Callable[[dict], None] | None = None,
    ) -> CostrategyResponse:
        # Lazy imports: repro.strategy drives this service through the
        # explore layer, so both sit above api and load at call time only.
        from repro.explore.cache import ResultCache
        from repro.strategy.frontier import build_frontier
        from repro.strategy.search import joint_search

        if request.cache_dir is not None:
            cache = ResultCache(request.cache_dir)
        else:
            # Share the batch cache: a costrategy search and a plain batch
            # sweep over the same cells replay each other's results.
            with self._lock:
                if self._batch_cache is None:
                    self._batch_cache = ResultCache(max_memory=4096)
                cache = self._batch_cache
        search = joint_search(
            request.workload,
            request.topology,
            request.budgets_gbps,
            space=request.space,
            scheme=request.scheme,
            dim_caps_gbps=request.dim_caps_gbps,
            cache=cache,
            service=self,
            should_stop=should_stop,
            on_event=on_event,
        )
        frontier = build_frontier(
            search, attribution=request.attribution, service=self
        )
        return CostrategyResponse(frontier=frontier)


def sweep_diagnostics(sweep, cache=None) -> dict:
    """The batch-response ``diagnostics`` object for one executed sweep.

    Mirrors what ``repro explore --profile`` prints locally so remote
    clients get the same telemetry: duplicate fan-out, the cache split,
    and the per-stage :class:`SweepProfile` timings of this particular execution (wall-clock numbers live here —
    on the response envelope — precisely because they are *not* row
    data and never enter cache keys or row-identity comparisons). With a
    ``cache``, its lifetime :meth:`~repro.explore.cache.ResultCache.stats`
    snapshot rides along under ``"cache"`` (lifetime of the cache object,
    not of this sweep — a shared server-side cache accumulates).
    """
    profile = sweep.profile
    return {
        "cells": len(sweep.results),
        "cache_hits": sweep.cache_hits,
        "solver_calls": sweep.solver_calls,
        "fanout_cells": sweep.fanout_cells,
        "num_errors": sweep.num_errors,
        "profile": None if profile is None else profile.to_dict(),
        "cache": None if cache is None else cache.stats(),
    }


def _ppc_gain(point: DesignPoint, baseline: DesignPoint) -> float:
    """Perf-per-cost gain on the weighted group objective."""
    ours = point.weighted_step_time * point.network_cost
    theirs = baseline.weighted_step_time * baseline.network_cost
    return theirs / ours if ours > 0 else 0.0


#: Per-process default service. Worker processes, benchmarks, and the CLI
#: share it so repeated requests against one scenario compile it once.
_DEFAULT_SERVICE: LibraService | None = None


def get_service() -> LibraService:
    """The process-wide default :class:`LibraService` (created on demand)."""
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        _DEFAULT_SERVICE = LibraService()
    return _DEFAULT_SERVICE


def reset_service() -> None:
    """Replace the process-wide default service with a fresh one.

    Benchmarks and tests use this to measure (or assert) genuinely cold
    paths — the next :func:`get_service` call builds empty memos.
    """
    global _DEFAULT_SERVICE
    _DEFAULT_SERVICE = None
