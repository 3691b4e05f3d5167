"""String-keyed registries: the API's extensible plugin surface.

Every name a :class:`~repro.api.scenario.Scenario` file or a CLI flag can
mention resolves through one of the registries here:

* :data:`TOPOLOGIES` — preset network shapes (Table III + Fig. 11, seeded
  from :mod:`repro.topology.presets`); unregistered names fall back to the
  ``RI(4)_FC(8)_…`` notation parser.
* :data:`WORKLOADS` — Table II workload builders, each a pure function of
  the system size (seeded from :mod:`repro.workloads.presets`).
* :data:`COST_MODELS` — named dollar-cost tables (``"table1-default"``).
* :data:`COMPUTE_MODELS` — named NPU compute models (``"A100-75pct"``).
* :data:`LOOPS` — training-loop factories by name.
* :data:`SCHEME_ALIASES` — the scheme spelling map (``"perf"`` →
  :attr:`Scheme.PERF_OPT`), moved here from ``repro.explore.spec`` (which
  re-exports it for backwards compatibility).

User extensions register with a decorator and immediately work everywhere a
name is accepted — scenario files, ``repro explore`` axes, the CLI::

    from repro.api import TOPOLOGIES, WORKLOADS

    @TOPOLOGIES.register("my-fabric")
    def _my_fabric():
        return MultiDimNetwork.from_notation("RI(8)_SW(64)", name="my-fabric")

    @WORKLOADS.register("MyModel")
    def _my_model(num_npus):
        return build_transformer(MY_CONFIG, Parallelism(tp=8, dp=num_npus // 8))

This module sits *below* the explore layer: it imports only topology,
workloads, cost, training, and core — never :mod:`repro.explore`.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from typing import Any

from repro.core.results import Scheme
from repro.cost.model import CostModel, default_cost_model
from repro.topology.network import MultiDimNetwork
from repro.topology.presets import (
    EVALUATION_TOPOLOGIES,
    REAL_SYSTEM_TOPOLOGIES,
    get_topology,
)
from repro.training.compute import ComputeModel, a100_compute_model
from repro.training.loops import NoOverlapLoop, TPDPOverlapLoop, TrainingLoop
from repro.utils.errors import ConfigurationError
from repro.workloads.presets import build_workload, workload_names
from repro.workloads.workload import Workload


class Registry:
    """A named map from strings to factory callables.

    Args:
        kind: What the registry holds (``"topology"``), used in error
            messages and ``repr``.

    Entries are factories — calling :meth:`build` invokes them — so presets
    stay cheap to import and every lookup returns a fresh (or intentionally
    shared) object under the factory's control.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Callable[..., Any]] = {}

    def register(
        self, name: str, factory: Callable[..., Any] | None = None, *,
        overwrite: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        Raises :class:`ConfigurationError` on duplicate names unless
        ``overwrite=True`` — silent shadowing of a paper preset would be a
        debugging nightmare.
        """

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not name:
                raise ConfigurationError(f"{self.kind} name must not be empty")
            if name in self._entries and not overwrite:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._entries[name] = fn
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for test teardown)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def build(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke the factory registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self._entries)} entries)"


# ---------------------------------------------------------------------------
# Built-in registries, seeded from the paper presets
# ---------------------------------------------------------------------------

#: Preset topologies: ``() -> MultiDimNetwork``.
TOPOLOGIES = Registry("topology")

#: Preset workloads: ``(num_npus: int) -> Workload``.
WORKLOADS = Registry("workload")

#: Cost tables: ``() -> CostModel``.
COST_MODELS = Registry("cost model")

#: Compute models: ``() -> ComputeModel``.
COMPUTE_MODELS = Registry("compute model")

#: Training loops: ``() -> TrainingLoop``.
LOOPS = Registry("training loop")


def _seed_builtins() -> None:
    for name in list(EVALUATION_TOPOLOGIES) + list(REAL_SYSTEM_TOPOLOGIES):
        TOPOLOGIES.register(name, lambda name=name: get_topology(name))
    for name in workload_names():
        WORKLOADS.register(
            name, lambda num_npus, name=name: build_workload(name, num_npus)
        )
    COST_MODELS.register("table1-default", default_cost_model)
    COMPUTE_MODELS.register("A100-75pct", a100_compute_model)
    LOOPS.register(NoOverlapLoop.name, NoOverlapLoop)
    LOOPS.register(TPDPOverlapLoop.name, TPDPOverlapLoop)


_seed_builtins()

#: Every registry by a stable tag, for snapshot/replay across processes.
_ALL_REGISTRIES: dict[str, Registry] = {
    "topologies": TOPOLOGIES,
    "workloads": WORKLOADS,
    "cost_models": COST_MODELS,
    "compute_models": COMPUTE_MODELS,
    "loops": LOOPS,
}

#: The factory each name mapped to right after seeding — an entry is a
#: *user* entry when its name is new OR its factory differs (a builtin
#: overridden with ``overwrite=True`` must replay too, or spawn workers
#: would silently solve the stock preset under the override's cache key).
_BUILTIN_FACTORIES: dict[str, dict[str, Callable[..., Any]]] = {
    tag: {name: registry.get(name) for name in registry.names()}
    for tag, registry in _ALL_REGISTRIES.items()
}


def custom_entries() -> list[tuple[str, str, Callable[..., Any]]]:
    """Snapshot the picklable user-registered entries, for worker replay.

    ``spawn``-ed pool workers re-import this module and get only the
    builtins; the executor ships this snapshot through each worker's
    initializer so dynamically registered names — including builtins
    overridden with ``overwrite=True`` — keep resolving there (exactly
    what ``fork`` used to inherit for free). Factories that do not
    pickle (lambdas, closures) are skipped — they cannot cross a spawn
    boundary at all; such names degrade to per-cell error rows in pool
    workers, same as any unknown name.
    """
    import pickle

    snapshot: list[tuple[str, str, Callable[..., Any]]] = []
    for tag, registry in _ALL_REGISTRIES.items():
        builtins = _BUILTIN_FACTORIES[tag]
        for name in registry.names():
            factory = registry.get(name)
            if builtins.get(name) is factory:
                continue  # the unmodified builtin; workers reseed it
            try:
                pickle.dumps(factory)
            except Exception:  # noqa: BLE001 — unpicklable: cannot ship it
                continue
            snapshot.append((tag, name, factory))
    return snapshot


def install_entries(
    entries: list[tuple[str, str, Callable[..., Any]]],
) -> None:
    """Replay a :func:`custom_entries` snapshot (last write wins)."""
    for tag, name, factory in entries:
        _ALL_REGISTRIES[tag].register(name, factory, overwrite=True)


# ---------------------------------------------------------------------------
# Resolution helpers (registry first, structural fallbacks second)
# ---------------------------------------------------------------------------


def resolve_topology(name_or_notation: str) -> MultiDimNetwork:
    """A network from a registered preset name or raw notation."""
    if name_or_notation in TOPOLOGIES:
        return TOPOLOGIES.build(name_or_notation)
    return MultiDimNetwork.from_notation(name_or_notation)


def resolve_workload(name: str, num_npus: int) -> Workload:
    """A workload from a registered preset name at the given system size.

    Memoized (:func:`_built_workload`): every request, sweep cell and
    scenario file naming the same preset at the same size shares one
    instance, and with it the instance's encoded content key.
    """
    return _built_workload(WORKLOADS.get(name), name, num_npus)


@lru_cache(maxsize=64)
def _built_workload(
    factory: Callable[..., Any], name: str, num_npus: int
) -> Workload:
    """One preset workload per (factory, name, size).

    Keyed on the registered factory object, so re-registering a name
    (``overwrite=True``) builds afresh instead of serving the old entry's
    workload. Builders are pure functions of the size and workloads are
    immutable, so sharing an instance is safe. Failures propagate
    uncached.
    """
    return factory(num_npus)


def resolve_cost_model(name: str) -> CostModel:
    """A cost model from a registered name."""
    return COST_MODELS.build(name)


def resolve_compute_model(name: str) -> ComputeModel:
    """A compute model from a registered name."""
    return COMPUTE_MODELS.build(name)


def resolve_loop(name: str) -> TrainingLoop:
    """A training loop from a registered name."""
    return LOOPS.build(name)


#: CLI / spec-file aliases for the optimization schemes. The enum values
#: themselves (``"PerfOptBW"``) are also accepted by :func:`resolve_scheme`.
SCHEME_ALIASES: dict[str, Scheme] = {
    "perf": Scheme.PERF_OPT,
    "perf-per-cost": Scheme.PERF_PER_COST_OPT,
    "equal": Scheme.EQUAL_BW,
}


def resolve_scheme(value: str | Scheme) -> Scheme:
    """Accept a :class:`Scheme`, an alias (``"perf"``), or an enum value."""
    if isinstance(value, Scheme):
        return value
    alias = SCHEME_ALIASES.get(str(value).lower())
    if alias is not None:
        return alias
    for scheme in Scheme:
        if scheme.value == value:
            return scheme
    raise ConfigurationError(
        f"unknown scheme {value!r}; expected one of {sorted(SCHEME_ALIASES)}"
    )
