"""repro.api — the declarative, versioned Scenario/Service API.

This package is the library's public request/response surface. Instead of
hand-assembling :class:`~repro.core.framework.Libra` objects, consumers
state the whole problem as a frozen, JSON-round-trippable
:class:`Scenario`, wrap it in an :class:`OptimizeRequest` (or a whole grid
in a :class:`BatchRequest`), and submit it to a stateless
:class:`LibraService`::

    from repro.api import LibraService, OptimizeRequest, build_scenario

    scenario = build_scenario("4D-4K", ["GPT-3"], total_bw_gbps=500)
    response = LibraService().submit(OptimizeRequest(scenario=scenario))
    optimum = response.point
    speedup = response.speedup_over_baseline

Why request-shaped? Every production concern the roadmap names — batching,
caching, sharding, serving over the wire — needs the problem statement to
be a first-class serializable value rather than mutable object state. A
scenario's :meth:`~Scenario.key` is its content address, the service
memoizes compiled engines on :meth:`~Scenario.engine_key` (the same
payload minus constraints, which compilation never reads), and
:meth:`~Scenario.to_dict` / :meth:`~Scenario.from_dict` round-trip under
an explicit schema version.

Extension points live in :mod:`repro.api.registry`: topologies, workloads,
cost models, compute models, training loops, and scheme aliases are all
string-keyed registries with a ``register`` decorator, so user-defined
entries work everywhere a name is accepted (scenario files, the CLI,
``repro explore`` axes).

Layering: ``api`` sits between ``core`` and ``explore`` — batch requests
reach the explore engine through a lazy import, and ``explore.spec``
re-imports the scheme aliases from the registry.
"""

from repro.api.registry import (
    COMPUTE_MODELS,
    COST_MODELS,
    LOOPS,
    SCHEME_ALIASES,
    TOPOLOGIES,
    WORKLOADS,
    Registry,
    resolve_compute_model,
    resolve_cost_model,
    resolve_loop,
    resolve_scheme,
    resolve_topology,
    resolve_workload,
)
from repro.api.requests import (
    REQUEST_SCHEMA_VERSION,
    RESPONSE_SCHEMA_VERSION,
    AnalyzeRequest,
    AnalyzeResponse,
    BatchRequest,
    BatchResponse,
    CostrategyRequest,
    CostrategyResponse,
    OptimizeRequest,
    OptimizeResponse,
)
from repro.api.scenario import (
    SCENARIO_SCHEMA_VERSION,
    Scenario,
    ScenarioValidationError,
    ScenarioWorkload,
    build_scenario,
    load_scenario,
    save_scenario,
)
from repro.api.service import LibraService, get_service, reset_service

__all__ = [
    "COMPUTE_MODELS",
    "COST_MODELS",
    "LOOPS",
    "SCHEME_ALIASES",
    "TOPOLOGIES",
    "WORKLOADS",
    "Registry",
    "resolve_compute_model",
    "resolve_cost_model",
    "resolve_loop",
    "resolve_scheme",
    "resolve_topology",
    "resolve_workload",
    "REQUEST_SCHEMA_VERSION",
    "RESPONSE_SCHEMA_VERSION",
    "AnalyzeRequest",
    "AnalyzeResponse",
    "BatchRequest",
    "BatchResponse",
    "CostrategyRequest",
    "CostrategyResponse",
    "OptimizeRequest",
    "OptimizeResponse",
    "SCENARIO_SCHEMA_VERSION",
    "Scenario",
    "ScenarioValidationError",
    "ScenarioWorkload",
    "build_scenario",
    "load_scenario",
    "save_scenario",
    "LibraService",
    "get_service",
    "reset_service",
]
