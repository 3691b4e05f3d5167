"""Observability: tracing, metrics, and structured logging.

Three independent pillars, each off by default and each stdlib-only:

* :mod:`repro.obs.trace` — nested spans with Chrome trace-event export
  (``Tracer``, ``use_tracer``; ``repro explore --trace out.json``).
* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms
  with Prometheus text rendering (``enable_metrics``, ``GET /v3/metrics``).
* :mod:`repro.obs.log` — the stdlib :mod:`logging` configured once, in
  human or JSON format (``setup_logging``, ``REPRO_LOG``).

"Off" means the module-level accessors hand out shared no-op singletons
(:data:`NULL_TRACER`, :data:`NULL_REGISTRY`, a ``NullHandler`` root), so
instrumentation in hot paths costs an attribute lookup and an empty
call — the BENCH_solver / BENCH_sweep CI floors hold either way.
:mod:`repro.obs.names` is the canonical metric-name table; a tier-1
test pins it against a live scrape.
"""

from repro.obs.log import get_logger, reset_logging, setup_logging
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    enable_metrics,
    get_registry,
    reset_metrics,
    set_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    reset_tracing,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NULL_REGISTRY",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Tracer",
    "enable_metrics",
    "get_logger",
    "get_registry",
    "get_tracer",
    "reset_logging",
    "reset_metrics",
    "reset_tracing",
    "set_registry",
    "set_tracer",
    "setup_logging",
    "use_tracer",
]
