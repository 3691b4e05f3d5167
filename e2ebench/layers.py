"""Per-layer tracing from outside the program.

The benchmark never edits program code. Instead, for a traced run it
replaces each layer's public entry points *where their callers look them
up* (a module global such as ``repro.core.solver.minimize_slsqp``, or a
class attribute such as ``ResultCache.get``) with a timing wrapper, and
puts every original back afterwards.

Each wrapper records, per thread, a span stack. A layer's *self* time is
its span minus the spans of the layer calls it made; its *inclusive* time
counts only the outermost call of that layer on the stack, so a layer that
re-enters itself is not double counted. Hot leaf boundaries (``leaf=True``)
aggregate counts and time into the stack but write no span, which keeps a
traced run at tens of thousands of spans instead of millions.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.api.requests import request_kind


@dataclass(frozen=True)
class Patch:
    """One lookup site to wrap.

    Attributes:
        layer: Metric prefix of the layer (``core.kernel.slsqp``).
        module: Module the caller looks the name up in.
        attr: ``name`` or ``Class.name`` inside that module.
        leaf: Aggregate only; no span in the Chrome trace.
        by_kind: One sub-layer per request kind (``args[1]`` is the request).
        outcome: Maps ``(args, result)`` to counters to add.
    """

    layer: str
    module: str
    attr: str
    leaf: bool = False
    by_kind: bool = False
    outcome: Callable[[tuple, object], dict[str, int]] | None = None


#: The sub-layers of a ``by_kind`` patch.
REQUEST_KINDS = ("optimize", "batch", "analyze", "costrategy")


def _submit_outcome(args: tuple, result) -> dict[str, int]:
    if request_kind(args[1]) != "analyze":
        return {}
    return {"api.service.analyze_memo_hits": int(result.memo_hit)}


def _hit_outcome(name: str):
    def outcome(args: tuple, result) -> dict[str, int]:
        return {name: int(result is not None)}

    return outcome


def _solve_outcome(args: tuple, result) -> dict[str, int]:
    warm = result.warm_start
    return {
        "core.solver.starts": result.starts,
        "core.solver.warm_accepted": int(warm == "accepted"),
        "core.solver.warm_rejected": int(warm.startswith("rejected")),
    }


def _split_outcome(args: tuple, result) -> dict[str, int]:
    kept, pruned = result
    return {
        "strategy.space.kept": len(kept),
        "strategy.space.pruned": len(pruned),
    }


def _search_outcome(args: tuple, result) -> dict[str, int]:
    diagnostics = result.diagnostics
    return {
        "strategy.search.cross_warm_accepted": diagnostics[
            "cross_warm_accepted"
        ],
        # Each strategy column after the first starts from the previous
        # column's optimum (unless that cell was cached).
        "strategy.search.cross_warm_offered": diagnostics["strategies"] - 1,
    }


#: Every lookup site the traced run wraps, grouped by layer. A name that is
#: imported into several modules is listed once per importing module.
PATCHES: tuple[Patch, ...] = (
    # serve (the benchmark's client and the in-process server's store)
    Patch("serve.client.submit", "repro.serve.client", "ServeClient.submit"),
    Patch(
        "serve.client.follow", "repro.serve.client",
        "ServeClient.follow_to_completion",
    ),
    Patch("serve.client.result", "repro.serve.client", "ServeClient.wait"),
    Patch("serve.store", "repro.serve.store", "JobStore.append_event"),
    Patch("serve.store", "repro.serve.store", "JobStore.save_record"),
    # api
    Patch(
        "api.service.submit", "repro.api.service", "LibraService.submit",
        by_kind=True, outcome=_submit_outcome,
    ),
    Patch("api.service.engine", "repro.api.service", "LibraService.engine"),
    Patch("api.scenario.compile", "repro.api.scenario", "Scenario.compile"),
    # utils.canonical: digest is imported by name into each of these
    Patch("utils.canonical.digest", "repro.utils.canonical", "digest"),
    Patch("utils.canonical.digest", "repro.utils", "digest"),
    Patch("utils.canonical.digest", "repro.serve.jobs", "digest"),
    Patch("utils.canonical.digest", "repro.api.service", "digest"),
    Patch("utils.canonical.digest", "repro.api.scenario", "digest"),
    Patch("utils.canonical.digest", "repro.explore.keys", "digest"),
    Patch("utils.canonical.digest", "repro.analysis.whatif", "digest"),
    # explore
    Patch("explore.executor.run_sweep", "repro.explore.executor", "run_sweep"),
    Patch(
        "explore.cache.get", "repro.explore.cache", "ResultCache.get",
        outcome=_hit_outcome("explore.cache.hits"),
    ),
    Patch("explore.cache.put", "repro.explore.cache", "ResultCache.put"),
    # core
    Patch(
        "core.framework.expression", "repro.core.framework",
        "training_time_expression",
    ),
    Patch("core.framework.simplify", "repro.core.framework", "simplify"),
    Patch("core.framework.simplify", "repro.core.solver", "simplify"),
    Patch(
        "core.solver.solve", "repro.core.framework", "minimize_training_time",
        outcome=_solve_outcome,
    ),
    Patch(
        "core.solver.solve", "repro.core.framework",
        "minimize_time_cost_product", outcome=_solve_outcome,
    ),
    Patch(
        "core.solver.compile_expression", "repro.core.solver",
        "compile_expression",
    ),
    Patch(
        "core.solver.compile_expression", "repro.analysis.structure",
        "compile_expression",
    ),
    Patch("core.solver.build_seeds", "repro.core.solver", "build_seeds"),
    Patch(
        "core.constraints.feasible_lp", "repro.core.constraints",
        "ConstraintSet.find_feasible_point",
    ),
    Patch(
        "core.constraints.is_feasible", "repro.core.constraints",
        "ConstraintSet.is_feasible",
    ),
    Patch("core.kernel.slsqp", "repro.core.solver", "minimize_slsqp"),
    Patch("core.kernel.slsqp_core", "repro.core.kernel", "_slsqp_core", leaf=True),
    # workloads
    Patch("workloads.build", "repro.api.registry", "build_workload"),
    Patch("workloads.build", "repro.strategy.search", "build_workload"),
    # strategy
    Patch(
        "strategy.space.enumerate", "repro.strategy.space",
        "StrategySpace.split", outcome=_split_outcome,
    ),
    Patch(
        "strategy.search", "repro.strategy.search", "joint_search",
        outcome=_search_outcome,
    ),
    Patch("strategy.frontier.build", "repro.strategy.frontier", "build_frontier"),
    # analysis
    Patch("analysis.structure", "repro.api.service", "bottleneck_structure"),
    Patch("analysis.whatif", "repro.api.service", "evaluate_whatifs"),
    Patch(
        "analysis.whatif_memo", "repro.analysis.whatif", "WhatIfMemo.get",
        leaf=True, outcome=_hit_outcome("analysis.whatif_memo_hits"),
    ),
)

#: The analyze GET, which the benchmark's client wraps itself: it makes the
#: request with ``urlopen``, so there is no program name to patch.
ANALYZE_GET = Patch("serve.http.analyze_get", module="", attr="")

#: Layers whose calls the benchmark times in its own code, not by patching.
OWN_LAYERS = (ANALYZE_GET.layer,)


def layer_names(patches: tuple[Patch, ...] = PATCHES) -> list[str]:
    """Every layer the table reports, in declaration order."""
    names: list[str] = []
    for patch in patches:
        if patch.by_kind:
            expanded = [f"{patch.layer}.{kind}" for kind in REQUEST_KINDS]
        else:
            expanded = [patch.layer]
        names.extend(name for name in expanded if name not in names)
    return names + list(OWN_LAYERS)


def _resolve(patch: Patch) -> tuple[object, str]:
    owner: object = importlib.import_module(patch.module)
    *path, name = patch.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _Thread:
    """One thread's span stack and its share of the totals."""

    __slots__ = ("stack", "active", "stats", "counts", "spans", "tid")

    def __init__(self):
        self.stack: list[list] = []  # [layer, start, child_s]
        self.active: Counter = Counter()  # layer -> open calls on the stack
        self.stats: dict[str, list[float]] = {}  # layer -> [calls, incl, self]
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, float, float]] = []
        self.tid = threading.get_ident()


#: Spans kept per thread for the Chrome trace; totals keep counting past it.
MAX_SPANS_PER_THREAD = 200_000


class LayerTracer:
    """Collects layer spans and counters from every thread, in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self.origin = time.perf_counter()

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, layer: str) -> list:
        state = self._thread()
        frame = [layer, time.perf_counter(), 0.0]
        state.stack.append(frame)
        state.active[layer] += 1
        return frame

    def exit(self, frame: list, leaf: bool = False) -> None:
        end = time.perf_counter()
        state = self._thread()
        layer, start, child = frame
        state.stack.pop()
        state.active[layer] -= 1
        duration = end - start
        stats = state.stats.get(layer)
        if stats is None:
            stats = state.stats[layer] = [0, 0.0, 0.0]
        stats[0] += 1
        if not state.active[layer]:
            stats[1] += duration
        stats[2] += duration - child
        if state.stack:
            state.stack[-1][2] += duration
        if not leaf and len(state.spans) < MAX_SPANS_PER_THREAD:
            state.spans.append((layer, start, duration))

    def count(self, counters: dict[str, int]) -> None:
        self._thread().counts.update(counters)

    def wrap(self, patch: Patch, original: Callable) -> Callable:
        """A stand-in for ``original`` that records one call of the layer."""
        enter, exit_, count = self.enter, self.exit, self.count
        layer, leaf, by_kind, outcome = (
            patch.layer, patch.leaf, patch.by_kind, patch.outcome
        )

        def traced(*args, **kwargs):
            name = f"{layer}.{request_kind(args[1])}" if by_kind else layer
            frame = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame, leaf)
            if outcome is not None:
                count(outcome(args, result))
            return result

        return traced

    # -- results --------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list[float]], Counter]:
        """Per-layer ``[calls, inclusive_s, self_s]`` and summed counters."""
        stats: dict[str, list[float]] = {}
        counts: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for layer, (calls, inclusive, own) in state.stats.items():
                entry = stats.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
            counts.update(state.counts)
        return stats, counts

    def to_chrome(self) -> dict:
        """Spans as Chrome trace-event JSON (``repro obs trace`` reads it)."""
        pid = os.getpid()
        with self._lock:
            threads = list(self._threads)
        events = []
        for state in threads:
            for layer, start, duration in state.spans:
                events.append({
                    "ph": "X",
                    "name": layer,
                    "cat": "e2ebench",
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": state.tid,
                })
        events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()), encoding="utf-8")
        return path


class installed:
    """Context manager: wrap every patch site, restore the originals on exit."""

    def __init__(self, tracer: LayerTracer, patches: tuple[Patch, ...] = PATCHES):
        self.tracer = tracer
        self.patches = patches
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> LayerTracer:
        try:
            for patch in self.patches:
                owner, name = _resolve(patch)
                # Read through __dict__ for classes so a descriptor is saved
                # and restored as itself, not as its bound form.
                original = (
                    owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name)
                )
                self._saved.append((owner, name, original))
                setattr(owner, name, self.tracer.wrap(patch, original))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
