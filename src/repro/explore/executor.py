"""Sweep execution: cache lookup, chained continuation solving, assembly.

:func:`run_sweep` is the engine's entry point. It expands a spec (or takes
an explicit point list), serves every cell it can from the cache, and
partitions the remainder into *continuation chains*
(:mod:`repro.explore.chains`): same workload × topology × scheme × cost
model × caps, sorted by ascending budget. Chains solve sequentially —
each cell's optimum becomes the next cell's ``warm_start`` seed, which a
PerfPerCost cell uses and a PerfOpt cell (one interior-point run) ignores
— and run
in chain *families* (the strategy columns of a joint search, see
:func:`_iter_family`), the unit of process-pool fan-out, so warm-start
propagation survives parallel execution without any cross-process state.
Rows are assembled back in grid order, so serial, parallel, and cached
runs of the same spec are indistinguishable except for wall-clock time.

``continuation=False`` restores the cold path (every cell pays the full
multi-start bill from cold seeds) — the reference the sweep benchmark and
the warm-vs-cold equivalence suite compare against.

Failure containment: a cell that cannot be built or solved becomes an error
row (``ExplorationResult.error`` set), never a sweep abort. *Transient*
failures retry first — :class:`~repro.utils.errors.TransientError` cells
re-attempt in place (:data:`CELL_RETRY_ATTEMPTS`, exponential backoff) and
a chain whose pool worker died requeues on a fresh pool
(:data:`CHAIN_RETRY_ATTEMPTS` rounds) — and only past those budgets is the
work *quarantined* into error rows, which are never cached. Identical cells
appearing more than once in a grid are solved once and fanned back out;
``SweepResult.fanout_cells`` reports how many rows were served that way.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import lru_cache

from repro.api.registry import TOPOLOGIES, resolve_workload
from repro.api.requests import OptimizeRequest
from repro.api.scenario import Scenario, ScenarioWorkload
from repro.api.service import get_service
from repro.core.results import Scheme
from repro.serve import faults
from repro.utils.errors import JobCancelled, ReproError, TransientError
from repro.workloads.workload import Workload

from repro.explore.cache import ResultCache
from repro.explore.chains import (
    build_chains,
    chain_family,
    chain_label,
    chain_signature,
)
from repro.explore.keys import point_constraints, point_key, resolve_topology
from repro.explore.records import ExplorationResult, SweepProfile, SweepResult
from repro.explore.spec import ExplorationPoint, SweepSpec
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.obs import trace as obs_trace

#: Solve attempts per cell before a transient failure is quarantined as
#: an error row. Permanent failures (bad input, infeasible problem) never
#: retry — only :class:`~repro.utils.errors.TransientError` does.
CELL_RETRY_ATTEMPTS = 3

#: Base of the per-cell retry backoff (``base * 2**(attempt-1)`` seconds).
CELL_RETRY_BACKOFF_S = 0.05

#: Requeue rounds a chain survives after its pool worker died before its
#: remaining cells are quarantined as error rows. Worker death takes all
#: in-flight chains down with it, so attribution is round-grained: every
#: unfinished chain's counter bumps and the poisoned one exhausts the
#: budget within this many rounds.
CHAIN_RETRY_ATTEMPTS = 2

#: Base backoff between pool-rebuild rounds (seconds, exponential).
POOL_RETRY_BACKOFF_S = 0.25

#: Called with structured progress dicts (the callback seam consumers such
#: as ``repro.serve`` adapt into typed events). Every dict carries a
#: ``"type"`` discriminator:
#:
#: * ``"plan"`` — after cache lookup: ``total``, ``cached``, ``chains``,
#:   ``solver_calls``, ``fanout_cells``.
#: * ``"cell"`` — one grid cell resolved: ``done``, ``total``, ``label``,
#:   ``key``, ``status`` (``cached`` / ``solved`` / ``error``),
#:   ``warm_start``, ``error``.
#: * ``"chain"`` — continuation-chain progress: ``status``, ``chain``,
#:   ``chains``, ``cells``, ``label``. Inline runs emit ``start``/``done``
#:   around each chain; pool runs emit ``queued`` at submission (the
#:   coordinator cannot observe when a worker actually picks a chain up)
#:   and ``done`` when its family completes, plus ``requeued`` when a
#:   dead pool worker forces its family onto a fresh pool and
#:   ``quarantined`` when the family exhausts its requeue budget (its
#:   cells become error rows).
EventCallback = Callable[[dict], None]


def _init_pool_worker(registry_entries) -> None:
    """Pool-worker initializer: replay the parent's custom registrations.

    Only needed for non-``fork`` start methods, whose workers re-import
    the registry module and would otherwise know just the builtins.
    """
    from repro.api.registry import install_entries

    install_entries(registry_entries)


def _resolve_topology(name_or_notation: str):
    """A cell's network, memoized per (name, registered factory)."""
    factory = (
        TOPOLOGIES.get(name_or_notation)
        if name_or_notation in TOPOLOGIES else None
    )
    return _resolve_topology_cached(name_or_notation, factory)


@lru_cache(maxsize=64)
def _resolve_topology_cached(
    name_or_notation: str, factory: Callable[[], object] | None = None
):
    """Per-worker LRU over topology resolution.

    A budget sweep hands every cell of one grid column the same topology
    string; without this, each process-pool worker rebuilds the network
    graph for every cell it solves. Networks are treated as immutable
    downstream, so sharing one instance per worker is safe. Keyed on the
    registered factory too, like :func:`repro.api.registry._built_workload`:
    re-registering a preset (``overwrite=True``) resolves the override
    instead of the memoized stock network. Failures propagate uncached,
    preserving per-point error capture.
    """
    return resolve_topology(name_or_notation) if factory is None else factory()


def point_scenario(point: ExplorationPoint) -> Scenario:
    """The :class:`Scenario` one exploration cell describes.

    This is the payload actually shipped through the service — the worker
    no longer hand-assembles a ``Libra``; it states the problem and lets
    the per-process service compile it (memoized on the canonical key, so
    every cell of a grid column sharing one workload × topology reuses one
    compiled engine).
    """
    network = _resolve_topology(point.topology)
    if isinstance(point.workload, Workload):
        entry = ScenarioWorkload(workload=point.workload)
    else:
        entry = ScenarioWorkload(
            workload=resolve_workload(point.workload, network.num_npus),
            preset=point.workload,
        )
    return Scenario(
        network=network,
        workloads=(entry,),
        constraints=point_constraints(point, network.num_dims),
        cost_model=point.cost_model,
    )


def solve_point(
    point: ExplorationPoint,
    key: str = "",
    warm_start: tuple[float, ...] | None = None,
    should_stop: Callable[[], bool] | None = None,
    service=None,
) -> ExplorationResult:
    """Solve one exploration cell, capturing any failure as an error row.

    ``warm_start`` (GB/s) is a prior optimum from a continuation neighbor;
    ``None`` is the cold path (the default, and the only path for EqualBW
    cells, where the request layer ignores warm seeds). ``should_stop``
    reaches the solver's between-seed cancellation checkpoints; a
    :class:`JobCancelled` raised there *propagates* — cancellation is not
    a cell failure and must never be pinned as an error row. ``service``
    is the executing :class:`~repro.api.service.LibraService`; ``None``
    uses the per-process default.

    Transient failures (:class:`~repro.utils.errors.TransientError`, e.g.
    injected worker faults) are retried in place up to
    :data:`CELL_RETRY_ATTEMPTS` times with bounded exponential backoff;
    past the budget the cell is *quarantined* — an error row whose
    message says so — rather than failing the sweep. Error rows are never
    cached, so a quarantined cell re-solves on the next run.
    """
    last_transient: TransientError | None = None
    for attempt in range(CELL_RETRY_ATTEMPTS):
        if attempt:
            time.sleep(CELL_RETRY_BACKOFF_S * 2 ** (attempt - 1))
            obs_metrics.get_registry().counter(
                obs_names.JOB_RETRIES,
                "Transient-failure retries (job requeues and chain requeues).",
            ).inc()
        try:
            faults.fire("worker.solve")
            response = (
                service if service is not None else get_service()
            ).submit(
                OptimizeRequest(
                    scenario=point_scenario(point),
                    scheme=point.scheme,
                    warm_start=warm_start,
                ),
                should_stop=should_stop,
            )
            optimized = response.point
            diagnostics = response.diagnostics or {}
            return ExplorationResult(
                point=point,
                key=key,
                bandwidths_gbps=optimized.bandwidths_gbps(),
                step_times_ms={
                    name: time * 1e3
                    for name, time in optimized.step_times.items()
                },
                network_cost=optimized.network_cost,
                speedup_over_equal=response.speedup_over_baseline or 0.0,
                ppc_gain_over_equal=response.ppc_gain_over_baseline or 0.0,
                solver_message=optimized.solver_message,
                solver_starts=int(diagnostics.get("starts", 0)),
                warm_start=str(diagnostics.get("warm_start", "")),
            )
        except JobCancelled:
            raise
        except TransientError as exc:
            last_transient = exc
            continue
        except Exception as exc:  # noqa: BLE001 — error containment is the contract
            return ExplorationResult(
                point=point,
                key=key,
                error=f"{type(exc).__name__}: {exc}",
            )
    return ExplorationResult(
        point=point,
        key=key,
        error=(
            f"quarantined after {CELL_RETRY_ATTEMPTS} transient failures: "
            f"{type(last_transient).__name__}: {last_transient}"
        ),
    )


def _iter_family(
    tasks: list[tuple[int, list[tuple[str, ExplorationPoint]]]],
    columns: dict[tuple, dict[float, tuple[float, ...]]],
    should_stop: Callable[[], bool] | None = None,
    service=None,
    on_chain: Callable[[str, int], None] | None = None,
):
    """Solve one family's ``(chain index, chain)`` tasks, yielding per cell.

    A family is the chains whose signatures differ only in the strategy
    tag (:func:`~repro.explore.chains.chain_family`); ``columns`` maps each
    of its columns, in grid order, to the optima phase 1 served from the
    cache by budget, and each optimum solved here joins its column. A cell
    warm-starts from its chain's latest *successful* optimum; until there
    is one, from the cached budget of its column nearest the chain's first
    (preferring the largest at-or-below), so widening a cached grid never
    pays a cold solve; a cell with neither takes the previous column's
    optimum at its budget.
    Yields ``(key, result, cross_seeded)``. The whole family runs in one
    process, so propagation needs no cross-worker state. ``on_chain``
    hears ``("start", index)`` and ``("done", index)`` around each chain.

    Yielding cell-by-cell (rather than returning the finished family) is
    what makes cancellation lossless on the inline path: every yielded row
    is installed — and cached — before the next cell's ``should_stop``
    checkpoint can raise :class:`JobCancelled`.
    """
    order = list(columns)
    for index, chain in tasks:
        if on_chain is not None:
            on_chain("start", index)
        _, first = chain[0]
        signature = chain_signature(first)
        position = order.index(signature) if signature in columns else 0
        cross = columns[order[position - 1]] if position else {}
        column = columns.setdefault(signature, {})
        budget = first.total_bw_gbps
        below = [item for item in column.items() if item[0] <= budget]
        nearest = min(
            below or column.items(),
            key=lambda item: abs(item[0] - budget),
            default=None,
        )
        warm = None if nearest is None else nearest[1]
        with obs_trace.get_tracer().span(
            "chain", attrs={"cells": len(chain), "label": chain_label(first)}
        ):
            for key, point in chain:
                if should_stop is not None and should_stop():
                    raise JobCancelled("sweep cancelled between cells")
                seed = warm if warm is not None else cross.get(point.total_bw_gbps)
                # Cell spans record on whichever process runs the family:
                # the coordinator inline, or a pool worker — where the
                # tracer is the fresh process's no-op default, so pool
                # results stay bit-identical to serial ones whether or not
                # the coordinator traces.
                tracer = obs_trace.get_tracer()
                if tracer is obs_trace.NULL_TRACER:
                    result = solve_point(
                        point, key=key, warm_start=seed,
                        should_stop=should_stop, service=service,
                    )
                else:
                    with tracer.span(
                        "cell", attrs={"label": point.label()}
                    ) as span:
                        result = solve_point(
                            point, key=key, warm_start=seed,
                            should_stop=should_stop, service=service,
                        )
                        span.set("status", "solved" if result.ok else "error")
                        span.set("warm_start", result.warm_start)
                yield key, result, warm is None and seed is not None
                if result.ok and point.scheme is not Scheme.EQUAL_BW:
                    warm = column[point.total_bw_gbps] = result.bandwidths_gbps
        if on_chain is not None:
            on_chain("done", index)


def _solve_family(
    tasks: list[tuple[int, list[tuple[str, ExplorationPoint]]]],
    columns: dict[tuple, dict[float, tuple[float, ...]]],
) -> list[tuple[str, ExplorationResult, bool]]:
    """Pool-worker entry: one whole family, solved in its worker process.

    No ``should_stop`` here — predicates do not cross process boundaries;
    in pool mode the *coordinator* cancels between family completions.
    """
    return list(_iter_family(tasks, columns))


def run_sweep(
    spec: SweepSpec | Iterable[ExplorationPoint],
    *,
    cache: ResultCache | None = None,
    workers: int = 1,
    continuation: bool = True,
    on_event: EventCallback | None = None,
    should_stop: Callable[[], bool] | None = None,
    service=None,
    mp_context: str | None = None,
) -> SweepResult:
    """Run a sweep: cache-serve, chain-solve the rest, return grid-order rows.

    Args:
        spec: A :class:`SweepSpec` (expanded deterministically) or an
            explicit sequence of points.
        cache: Optional result cache; hits skip the solver entirely and
            fresh solves are stored back.
        workers: Process-pool width; ``1`` solves inline in this process.
            Chains (not single cells) are the unit of fan-out.
        continuation: Propagate warm starts through budget-ordered chains
            (default). ``False`` solves every cell from cold seeds — the
            reference path for benchmarks and equivalence checks.
        on_event: Structured-progress seam (see :data:`EventCallback`):
            one ``plan`` dict after cache lookup, one ``cell`` dict per
            resolved cell — cache hits first, then solves in completion
            order; each grid cell reports exactly once, so ``done`` never
            exceeds ``total`` — and ``chain`` start/done dicts around each
            continuation chain. Called from the coordinating process only.
        should_stop: Cooperative cancellation predicate, polled between
            cells (inline) or between chain completions (process pool),
            and forwarded to the solver's between-seed checkpoints on the
            inline path. When it turns true the sweep raises
            :class:`JobCancelled` — but only *after* installing every
            already-solved row, so with a cache all completed cells are
            persisted and reusable (atomic per-cell writes; no partial
            rows by construction).
        service: The :class:`~repro.api.service.LibraService` inline
            solves run through (so a caller's engine/solution memos are
            actually used); ``None`` falls back to the per-process
            default. Pool workers always use their own per-process
            service — a service cannot cross a process boundary.
        mp_context: Multiprocessing start method for the pool (``None``
            keeps the platform default). Single-threaded drivers (the
            CLI) keep the default, but multithreaded callers (the serve
            layer) must pass ``"spawn"``: forking a multithreaded
            process can deadlock children on locks held by other
            threads at fork time. Non-fork workers replay the parent's
            picklable custom registry entries via an initializer, so
            dynamically registered names keep resolving (unpicklable
            factories — lambdas, closures — cannot cross a spawn
            boundary and degrade to per-cell error rows).
    """
    tracer = obs_trace.get_tracer()
    if tracer is obs_trace.NULL_TRACER:
        return _run_sweep_impl(
            spec, cache, workers, continuation, on_event,
            should_stop, service, mp_context,
        )
    with tracer.span("sweep") as span:
        sweep = _run_sweep_impl(
            spec, cache, workers, continuation, on_event,
            should_stop, service, mp_context,
        )
        span.set("total", len(sweep.results))
        span.set("cache_hits", sweep.cache_hits)
        span.set("solver_calls", sweep.solver_calls)
        span.set("chains", sweep.profile.chains)
        return sweep


def _run_sweep_impl(
    spec: SweepSpec | Iterable[ExplorationPoint],
    cache: ResultCache | None,
    workers: int,
    continuation: bool,
    on_event: EventCallback | None,
    should_stop: Callable[[], bool] | None,
    service,
    mp_context: str | None,
) -> SweepResult:
    started = time.perf_counter()
    points = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    total = len(points)
    results: list[ExplorationResult | None] = [None] * total
    done = 0

    def emit(payload: dict) -> None:
        if on_event is not None:
            on_event(payload)

    cells_counter = obs_metrics.get_registry().counter(
        obs_names.SWEEP_CELLS,
        "Sweep grid cells resolved, by outcome.",
        labels=("status",),
    )

    def resolved(index: int, result: ExplorationResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        status = (
            "cached" if result.from_cache
            else ("error" if not result.ok else "solved")
        )
        cells_counter.labels(status=status).inc()
        emit({
            "type": "cell",
            "done": done,
            "total": total,
            "label": result.point.label(),
            "key": result.key,
            "status": status,
            "warm_start": result.warm_start,
            "error": result.error,
        })

    # Phase 1 — content-address every cell and serve what the cache knows.
    # A key failure (bad topology notation, malformed point) is itself an
    # error row: it would fail identically inside the solver.
    keys: list[str] = [""] * total
    pending: dict[str, list[int]] = {}
    cache_hits = 0
    with obs_trace.get_tracer().span("sweep.lookup") as lookup_span:
        for index, point in enumerate(points):
            try:
                keys[index] = point_key(point)
            except Exception as exc:  # noqa: BLE001 — error containment
                resolved(
                    index,
                    ExplorationResult(
                        point=point, error=f"{type(exc).__name__}: {exc}"
                    ),
                )
                continue
            cached = cache.get(keys[index]) if cache is not None else None
            if cached is not None:
                cache_hits += 1
                resolved(index, replace(cached, point=point, from_cache=True))
            else:
                pending.setdefault(keys[index], []).append(index)
        lookup_span.set("total", total)
        lookup_span.set("cache_hits", cache_hits)
    lookup_s = time.perf_counter() - started

    # Phase 2 — solve each distinct uncached cell once, chained so later
    # budgets continue from earlier optima. Duplicate grid cells fan the
    # one result back out to every index that asked for it.
    warm_accepted = 0
    warm_rejected = 0
    cold_solves = 0
    cross_warm_accepted = 0

    def install(key: str, result: ExplorationResult, crossed: bool) -> None:
        nonlocal warm_accepted, warm_rejected, cold_solves, cross_warm_accepted
        if result.warm_start == "accepted":
            warm_accepted += 1
            cross_warm_accepted += crossed
        elif result.warm_start.startswith("rejected"):
            warm_rejected += 1
        elif result.ok:
            cold_solves += 1
        if cache is not None:
            cache.put(key, result)
        for index in pending[key]:
            resolved(index, replace(result, point=points[index]))

    representatives = [(key, points[indices[0]]) for key, indices in pending.items()]
    # Family -> column signature -> budget -> optimum phase 1 served from
    # the cache, columns in grid order. Cold chains are singletons, each a
    # family of its own with no seeds.
    columns: dict[object, dict[tuple, dict[float, tuple[float, ...]]]] = {}
    if continuation:
        chains = build_chains(representatives)
        for point, row in zip(points, results):
            column = columns.setdefault(chain_family(point), {}).setdefault(
                chain_signature(point), {}
            )
            if (
                row is not None and row.from_cache and row.ok
                and point.scheme is not Scheme.EQUAL_BW
            ):
                column.setdefault(point.total_bw_gbps, row.bandwidths_gbps)
    else:
        chains = [[item] for item in representatives]
    families: dict[object, list[tuple[int, list]]] = {}
    for index, chain in enumerate(chains):
        family = chain_family(chain[0][1]) if continuation else index
        families.setdefault(family, []).append((index, chain))
    plans = [
        (tasks, columns.get(family, {})) for family, tasks in families.items()
    ]
    solver_calls = len(representatives)
    fanout_cells = sum(len(indices) - 1 for indices in pending.values())
    if chains:
        obs_metrics.get_registry().counter(
            obs_names.SWEEP_CHAINS,
            "Continuation chains executed by sweeps.",
        ).inc(len(chains))
    emit({
        "type": "plan",
        "total": total,
        "cached": cache_hits,
        "chains": len(chains),
        "solver_calls": solver_calls,
        "fanout_cells": fanout_cells,
    })

    def chain_event(status: str, index: int) -> None:
        _, first = chains[index][0]
        emit({
            "type": "chain",
            "status": status,
            "chain": index,
            "chains": len(chains),
            "cells": len(chains[index]),
            "label": chain_label(first),
        })

    solve_started = time.perf_counter()
    if workers <= 1 or len(plans) <= 1:
        for tasks, optima in plans:
            for key, result, crossed in _iter_family(
                tasks, optima, should_stop, service, on_chain=chain_event
            ):
                install(key, result, crossed)
    else:
        if mp_context:
            from repro.api.registry import custom_entries

            pool_kwargs = {
                "mp_context": multiprocessing.get_context(mp_context),
                "initializer": _init_pool_worker,
                "initargs": (custom_entries(),),
            }
        else:
            pool_kwargs = {}
        for index in range(len(chains)):
            chain_event("queued", index)
        # Family index -> requeue count. A dead pool worker poisons the
        # whole pool (BrokenProcessPool on every in-flight future), so
        # recovery is round-grained: unfinished families requeue on a
        # fresh pool with backoff, and a family that exhausts its requeue
        # budget is quarantined — its unsolved cells become error rows
        # (never cached) and the rest of the sweep completes. Attribution
        # is imprecise by construction (the coordinator cannot see which
        # family killed the worker), hence counters on every unfinished
        # family of a broken round; an innocent family pays at most
        # CHAIN_RETRY_ATTEMPTS requeues before the poisoned one is
        # quarantined with it.
        todo: dict[int, int] = dict.fromkeys(range(len(plans)), 0)
        round_index = 0
        while todo:
            if round_index:
                time.sleep(
                    min(POOL_RETRY_BACKOFF_S * 2 ** (round_index - 1), 5.0)
                )
            broken: BrokenProcessPool | None = None
            with ProcessPoolExecutor(
                max_workers=min(workers, len(todo)), **pool_kwargs
            ) as pool:
                futures = {
                    pool.submit(_solve_family, *plans[index]): index
                    for index in sorted(todo)
                }
                remaining = set(futures)
                cancelled = False
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        index = futures[future]
                        try:
                            rows = future.result()
                        except BrokenProcessPool as exc:
                            broken = exc
                            continue
                        for key, result, crossed in rows:
                            install(key, result, crossed)
                        for chain_index, _ in plans[index][0]:
                            chain_event("done", chain_index)
                        del todo[index]
                    if broken is not None:
                        break  # unfinished families requeue on a fresh pool
                    if (
                        not cancelled
                        and remaining  # a finished sweep is never "cancelled"
                        and should_stop is not None
                        and should_stop()
                    ):
                        # Predicates do not cross process boundaries, so pool
                        # cancellation is family-grained: unstarted families
                        # are withdrawn, running ones drain normally (their
                        # rows still install and cache), then the sweep raises.
                        cancelled = True
                        remaining = {
                            future for future in remaining
                            if not future.cancel()
                        }
                if cancelled:
                    raise JobCancelled(
                        f"sweep cancelled after {done} of {total} cells"
                    )
            if broken is None:
                break  # every family completed; todo is empty
            survivors: dict[int, int] = {}
            for index, requeues in sorted(todo.items()):
                tasks, _ = plans[index]
                if requeues >= CHAIN_RETRY_ATTEMPTS:
                    for chain_index, chain in tasks:
                        for key, point in chain:
                            if results[pending[key][0]] is None:
                                install(key, ExplorationResult(
                                    point=point,
                                    key=key,
                                    error=(
                                        "quarantined: pool worker died "
                                        f"{requeues + 1} times while this "
                                        f"chain was in flight ({broken})"
                                    ),
                                ), False)
                        chain_event("quarantined", chain_index)
                else:
                    survivors[index] = requeues + 1
                    for chain_index, _ in tasks:
                        chain_event("requeued", chain_index)
                    obs_metrics.get_registry().counter(
                        obs_names.JOB_RETRIES,
                        "Transient-failure retries (job requeues and "
                        "chain requeues).",
                    ).inc()
            todo = survivors
            round_index += 1
    solve_s = time.perf_counter() - solve_started

    assemble_started = time.perf_counter()
    _require_complete(results, total)
    now = time.perf_counter()
    profile = SweepProfile(
        lookup_s=lookup_s,
        solve_s=solve_s,
        assemble_s=now - assemble_started,
        total_s=now - started,
        chains=len(chains),
        warm_accepted=warm_accepted,
        warm_rejected=warm_rejected,
        cold_solves=cold_solves,
        cross_warm_accepted=cross_warm_accepted,
    )
    return SweepResult(
        results=list(results),  # type: ignore[arg-type]
        cache_hits=cache_hits,
        solver_calls=solver_calls,
        fanout_cells=fanout_cells,
        profile=profile,
    )


def _require_complete(
    results: list[ExplorationResult | None], total: int
) -> None:
    """Fail loudly if any grid cell was left unresolved.

    Must never trigger (every index is either cache-served, errored at
    keying, or installed by a solve) — but if the accounting ever breaks,
    an explicit :class:`ReproError` beats silently returning partial rows.
    A bare ``assert`` would vanish under ``python -O``.
    """
    missing = [index for index, result in enumerate(results) if result is None]
    if missing:
        shown = ", ".join(str(index) for index in missing[:10])
        suffix = "…" if len(missing) > 10 else ""
        raise ReproError(
            f"sweep accounting bug: {len(missing)} of {total} cells "
            f"unresolved (grid indices {shown}{suffix})"
        )
