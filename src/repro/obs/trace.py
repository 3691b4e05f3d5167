"""Nested spans with Chrome trace-event export.

A :class:`Tracer` collects :class:`Span` records — named, attributed
stretches of wall time with thread CPU time alongside — from any thread
of the process. Instrumented code opens spans through the module-level
accessor::

    from repro.obs import trace

    with trace.get_tracer().span("solve", attrs={"scheme": "perf"}) as sp:
        ...
        sp.set("gap", result.gap)

Nesting is implicit: spans opened while another span is active on the
same thread become its children (tracked per-thread, so concurrent
threads never interleave each other's stacks). The export is the Chrome
trace-event JSON format — ``"ph": "X"`` complete events with
microsecond ``ts``/``dur`` — loadable directly in ``chrome://tracing``
or Perfetto; viewers reconstruct the nesting from time containment per
``tid``, which the per-thread stacks guarantee.

**Off by default.** :func:`get_tracer` returns :data:`NULL_TRACER`
until a real tracer is installed (:func:`set_tracer`, or scoped with
:func:`use_tracer`). The null span is a shared singleton whose context
manager does nothing, so instrumented hot paths stay effectively free —
the invariant the BENCH_* CI floors pin down.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from pathlib import Path


class Span:
    """One named stretch of time, open until its ``with`` block exits."""

    __slots__ = (
        "name", "attrs", "tid", "depth",
        "_start_wall", "_start_perf", "_start_cpu",
        "wall_at", "duration_s", "cpu_s",
    )

    def __init__(self, name: str, attrs: dict | None, tid: int, depth: int):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.tid = tid
        self.depth = depth
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        self._start_cpu = time.thread_time()
        self.wall_at = self._start_wall
        self.duration_s = 0.0
        self.cpu_s = 0.0

    def set(self, key: str, value) -> None:
        """Attach an attribute discovered mid-span (result stats etc.)."""
        self.attrs[key] = value

    def _close(self) -> None:
        self.duration_s = time.perf_counter() - self._start_perf
        self.cpu_s = time.thread_time() - self._start_cpu


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans from every thread of the process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._stacks = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record one span; children opened inside nest under it."""
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        record = Span(
            name, attrs, tid=threading.get_ident(), depth=len(stack)
        )
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record._close()
            with self._lock:
                self._finished.append(record)

    def spans(self) -> list[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def to_chrome(self) -> dict:
        """The collected spans as a Chrome trace-event JSON object."""
        pid = os.getpid()
        events = []
        for span in self.spans():
            args = {"cpu_s": round(span.cpu_s, 9)}
            args.update(span.attrs)
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": "repro",
                "ts": round(span.wall_at * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": pid,
                "tid": span.tid,
                "args": args,
            })
        # Stable viewer order: by start time, parents before children on ties.
        events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        target = Path(path)
        target.write_text(
            json.dumps(self.to_chrome(), sort_keys=True), encoding="utf-8"
        )
        return target

    def summary(self) -> dict[str, dict]:
        """Per-span-name aggregates: count, total/max wall, total CPU."""
        totals: dict[str, dict] = {}
        for span in self.spans():
            entry = totals.setdefault(span.name, {
                "count": 0, "total_s": 0.0, "max_s": 0.0, "cpu_s": 0.0,
            })
            entry["count"] += 1
            entry["total_s"] += span.duration_s
            entry["max_s"] = max(entry["max_s"], span.duration_s)
            entry["cpu_s"] += span.cpu_s
        for entry in totals.values():
            entry["total_s"] = round(entry["total_s"], 9)
            entry["max_s"] = round(entry["max_s"], 9)
            entry["cpu_s"] = round(entry["cpu_s"], 9)
        return dict(sorted(totals.items()))


class NullTracer:
    """The default tracer: every span is the shared no-op singleton."""

    def span(self, name: str, attrs: dict | None = None) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> list[Span]:
        return []

    def to_chrome(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def summary(self) -> dict[str, dict]:
        return {}


#: The shared off-switch tracer (identity-comparable: ``is NULL_TRACER``).
NULL_TRACER = NullTracer()

_ACTIVE: Tracer | NullTracer = NULL_TRACER
_ACTIVE_LOCK = threading.Lock()


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer instrumented code opens spans on."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer | NullTracer):
    """Scope ``tracer`` to a ``with`` block, restoring the old one after.

    Process-wide, not thread-local: concurrent threads started inside the
    block (sweep coordinator threads, job workers) inherit it, which is
    exactly what ``repro explore --trace`` wants.
    """
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def reset_tracing() -> None:
    """Back to the no-op default (test isolation)."""
    set_tracer(NULL_TRACER)
