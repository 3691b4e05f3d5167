"""Deterministic fault injection for the durability test matrix.

Crash-safety claims are only as good as the crashes they were tested
against. This module lets tests (including ones that SIGKILL a live
``repro serve`` mid-sweep) drive the exact failure the durable store must survive — process death *between*
two persist steps, a worker raising mid-solve, an fsync that takes forever
— without sleeps, signals-from-outside, or races.

Instrumented code calls :func:`fire` at named *points*; the
``REPRO_FAULTS`` environment variable (or :func:`configure` in-process)
arms directives against those points:

``crash:<point>[:N]``
    Hard process death (``os._exit``, exit code :data:`CRASH_EXIT_CODE` —
    nothing flushes, no handlers run: the kill -9 model) at the Nth firing
    of ``point`` (default: the first).
``raise:<point>[:N]``
    Raise :class:`FaultInjected` (a
    :class:`~repro.utils.errors.TransientError`) at the first N firings
    (default 1), then behave normally — the shape retry layers must absorb.
``delay:<point>=<seconds>``
    Sleep that long at every firing (slow-IO injection).

Directives are comma-separated: ``REPRO_FAULTS="delay:store.fsync=0.05,
crash:store.record.after:2"``. Spawn-pool workers inherit the variable
through the environment, so worker-side points arm in child processes too
(counts are per process). Counts are thread-safe within a process.

Instrumented points (grep for ``faults.fire``):

========================  ====================================================
``store.record.before``   before a job record.json persist
``store.record.after``    after the record persist completed (atomic replace)
``store.events.before``   before an event-log append
``store.events.after``    after the append (and any fsync) completed
``store.fsync``           immediately before each event-log/record fsync
``manager.run``           in the job worker, before executing the request
``worker.solve``          in :func:`~repro.explore.executor.solve_point`,
                          before each solve attempt (fires in pool workers)
``fleet.claim``           after a lease file is created but before the claim
                          returns (``crash`` here is the mid-claim death a
                          peer's scan must clean up)
``fleet.renew``           before each lease-renewal write (``delay`` here is
                          the heartbeat stall that forces a peer takeover)
========================  ====================================================

The no-fault fast path is one module-global ``is None`` check, so
instrumentation costs nothing when ``REPRO_FAULTS`` is unset (the BENCH
floors run with it unset).
"""

from __future__ import annotations

import os
import threading
import time

from repro.utils.errors import ConfigurationError, TransientError

#: The environment variable holding the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: ``os._exit`` code for ``crash:`` directives — distinctive on purpose,
#: so a test can assert the *injected* crash happened (and not some
#: incidental failure with the same symptom).
CRASH_EXIT_CODE = 66


class FaultInjected(TransientError):
    """The error a ``raise:`` directive injects.

    Transient by construction: injected worker failures exist to exercise
    the retry/requeue machinery, which keys on
    :class:`~repro.utils.errors.TransientError`.
    """


class _Directive:
    """One armed fault. ``fire`` returns True when the point should crash."""

    __slots__ = ("action", "point", "limit", "seconds", "count")

    def __init__(self, action: str, point: str, limit: int, seconds: float):
        self.action = action
        self.point = point
        self.limit = limit  # crash: the firing to crash at; raise: how many
        self.seconds = seconds
        self.count = 0


class FaultPlan:
    """A parsed ``REPRO_FAULTS`` spec, with per-point firing counters."""

    def __init__(self, spec: str):
        self.spec = spec
        self._lock = threading.Lock()
        self._directives: dict[str, list[_Directive]] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            directive = self._parse(part)
            self._directives.setdefault(directive.point, []).append(directive)

    @staticmethod
    def _parse(part: str) -> _Directive:
        action, _, rest = part.partition(":")
        if action == "delay":
            point, _, value = rest.partition("=")
            try:
                seconds = float(value)
            except ValueError:
                seconds = -1.0
            if not point or seconds < 0:
                raise ConfigurationError(
                    f"malformed fault directive {part!r}; expected "
                    "delay:<point>=<seconds>"
                )
            return _Directive("delay", point, 0, seconds)
        if action in ("crash", "raise"):
            point, _, count = rest.rpartition(":")
            if point and count.isdigit():
                limit = int(count)
            else:
                point, limit = rest, 1
            if not point or limit < 1:
                raise ConfigurationError(
                    f"malformed fault directive {part!r}; expected "
                    f"{action}:<point>[:N] with N >= 1"
                )
            return _Directive(action, point, limit, 0.0)
        raise ConfigurationError(
            f"unknown fault action in {part!r}; expected crash:, raise:, "
            "or delay:"
        )

    def points(self) -> list[str]:
        """The instrumentation points this plan arms (for tests)."""
        return sorted(self._directives)

    def fire(self, point: str) -> None:
        """Apply every directive armed at ``point`` (see module docs)."""
        directives = self._directives.get(point)
        if not directives:
            return
        crash = False
        raise_now = False
        delay = 0.0
        with self._lock:
            for directive in directives:
                directive.count += 1
                if directive.action == "delay":
                    delay = max(delay, directive.seconds)
                elif directive.action == "crash":
                    crash = crash or directive.count == directive.limit
                elif directive.count <= directive.limit:
                    raise_now = True
        if delay:
            time.sleep(delay)
        if crash:
            # The kill -9 model: no flush, no atexit, no cleanup.
            os._exit(CRASH_EXIT_CODE)
        if raise_now:
            raise FaultInjected(f"injected fault at {point!r}")


#: The active plan. ``None`` (the overwhelmingly common case) makes
#: :func:`fire` a single attribute load and comparison.
_PLAN: FaultPlan | None = None


def _plan_from_env() -> FaultPlan | None:
    spec = os.environ.get(FAULTS_ENV, "").strip()
    return FaultPlan(spec) if spec else None


_PLAN = _plan_from_env()


def fire(point: str) -> None:
    """Fire one instrumentation point; no-op unless a plan arms it."""
    plan = _PLAN
    if plan is None:
        return
    plan.fire(point)


def configure(spec: str | None) -> FaultPlan | None:
    """Install a fault plan in this process (tests; ``None`` disarms).

    Returns the installed plan so tests can inspect firing counts.
    Spawn-pool workers do not see this — they re-read ``REPRO_FAULTS``
    from the environment at import, so worker-side faults must be armed
    via the environment variable.
    """
    global _PLAN
    _PLAN = FaultPlan(spec) if spec else None
    return _PLAN


def reset() -> None:
    """Re-arm from the environment (drop any :func:`configure` override)."""
    global _PLAN
    _PLAN = _plan_from_env()


def active_plan() -> FaultPlan | None:
    """The currently armed plan, if any."""
    return _PLAN
