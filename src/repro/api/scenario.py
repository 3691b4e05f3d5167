"""The declarative problem statement: a frozen, versioned :class:`Scenario`.

The paper's Fig. 3 pipeline is a pure function from *(workload set, network
shape, training loop, compute model, cost model, constraints, scheme)* to a
design point. A :class:`Scenario` captures everything on the left-hand side
except the scheme as one immutable, serializable value:

* it round-trips through JSON (``to_dict`` / ``from_dict``) under an
  explicit :data:`SCENARIO_SCHEMA_VERSION`,
* it has a content identity (:meth:`Scenario.key`) built from the model
  objects' ``canonical()`` hooks — two scenarios describing the same
  problem hash identically regardless of display names or field order,
* it compiles to a ready :class:`~repro.core.framework.Libra` engine
  (:meth:`Scenario.compile`), which :class:`~repro.api.service.LibraService`
  memoizes on the canonical key.

Typical construction goes through :func:`build_scenario`, which resolves
names through the :mod:`repro.api.registry` plugin point::

    scenario = build_scenario(
        topology="4D-4K",
        workloads=["GPT-3"],
        total_bw_gbps=500,
    )
    save_scenario(scenario, "gpt3.json")
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.api.registry import (
    resolve_cost_model,
    resolve_loop,
    resolve_topology,
    resolve_workload,
)
from repro.core.constraints import ConstraintSet
from repro.core.framework import Libra
from repro.cost.model import CostModel, default_cost_model
from repro.topology.network import MultiDimNetwork, NetworkTier
from repro.training.compute import ComputeModel, a100_compute_model
from repro.utils.canonical import digest
from repro.utils.errors import ConfigurationError, ReproError
from repro.utils.units import gbps
from repro.utils.validation import check_positive
from repro.workloads.parser import parse_workload, serialize_workload
from repro.workloads.workload import Workload

#: Bump when the scenario payload layout changes incompatibly. ``from_dict``
#: rejects newer versions with a clear message instead of misparsing them.
SCENARIO_SCHEMA_VERSION = 1


class ScenarioValidationError(ConfigurationError):
    """A scenario payload failed structural validation.

    Attributes:
        path: JSON-path-style location of the offending field
            (e.g. ``"workloads[1].weight"``).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"scenario payload at {path!r}: {message}")


def _expect(payload: Mapping, key: str, path: str) -> object:
    """Fetch a required field, raising a located validation error."""
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise ScenarioValidationError(
            f"{path}.{key}" if path else key, "required field is missing"
        ) from None


def _expect_mapping(value: object, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioValidationError(
            path, f"expected an object, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class ScenarioWorkload:
    """One target workload with its group weight and serialization origin.

    Attributes:
        workload: The concrete workload.
        weight: Importance weight in the group objective (Sec. IV-F).
        preset: Registry name this workload was built from; empty for
            custom workloads, which serialize inline in the text format.
    """

    workload: Workload
    weight: float = 1.0
    preset: str = ""

    def __post_init__(self) -> None:
        check_positive(self.weight, "workload weight")

    def to_dict(self) -> dict:
        if self.preset:
            return {"preset": self.preset, "weight": self.weight}
        return {"inline": serialize_workload(self.workload), "weight": self.weight}

    @classmethod
    def from_dict(
        cls, payload: Mapping, num_npus: int, path: str
    ) -> "ScenarioWorkload":
        payload = _expect_mapping(payload, path)
        weight = payload.get("weight", 1.0)
        try:
            check_positive(weight, "weight")
        except (ConfigurationError, TypeError):
            raise ScenarioValidationError(
                f"{path}.weight",
                f"expected a positive finite number, got {weight!r}",
            ) from None
        if "preset" in payload:
            name = payload["preset"]
            if not isinstance(name, str):
                raise ScenarioValidationError(
                    f"{path}.preset", "expected a workload name string"
                )
            return cls(
                workload=resolve_workload(name, num_npus),
                weight=float(weight),
                preset=name,
            )
        if "inline" in payload:
            text = payload["inline"]
            if not isinstance(text, str):
                raise ScenarioValidationError(
                    f"{path}.inline", "expected workload text-format string"
                )
            return cls(workload=parse_workload(text), weight=float(weight))
        raise ScenarioValidationError(
            path, "workload entry needs either 'preset' or 'inline'"
        )


@dataclass(frozen=True)
class Scenario:
    """A complete, immutable LIBRA problem statement.

    Attributes:
        network: Target multi-dimensional network shape.
        workloads: Target workloads with weights (at least one).
        constraints: Designer constraint set; ``None`` means the request
            must supply explicit bandwidths (evaluation-only scenarios).
        cost_model: Dollar-cost table; ``None`` means Table I defaults.
        compute_model: NPU compute rate; ``None`` means the paper's A100.
        loop: Training-loop name from the :data:`~repro.api.registry.LOOPS`
            registry (Fig. 5).
        in_network_dims: Dimensions with in-network collective offload.
    """

    network: MultiDimNetwork
    workloads: tuple[ScenarioWorkload, ...]
    constraints: ConstraintSet | None = None
    cost_model: CostModel | None = None
    compute_model: ComputeModel | None = None
    loop: str = "no-overlap"
    in_network_dims: tuple[int, ...] = ()
    #: Lazily computed :meth:`engine_key` (see there).
    _engine_key: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(
            self,
            "in_network_dims",
            tuple(sorted(int(d) for d in set(self.in_network_dims))),
        )
        if not self.workloads:
            raise ConfigurationError("scenario needs at least one workload")
        seen: set[str] = set()
        for entry in self.workloads:
            if entry.workload.parallelism.total_npus != self.network.num_npus:
                raise ConfigurationError(
                    f"{entry.workload.name} occupies "
                    f"{entry.workload.parallelism.total_npus} NPUs but the "
                    f"network has {self.network.num_npus}"
                )
            if entry.workload.name in seen:
                raise ConfigurationError(
                    f"workload {entry.workload.name!r} appears twice in scenario"
                )
            seen.add(entry.workload.name)
        if (
            self.constraints is not None
            and self.constraints.num_dims != self.network.num_dims
        ):
            raise ConfigurationError(
                f"constraint set covers {self.constraints.num_dims} dims, "
                f"network has {self.network.num_dims}"
            )
        resolve_loop(self.loop)  # fail fast on unknown loop names
        for dim in self.in_network_dims:
            if not 0 <= dim < self.network.num_dims:
                raise ConfigurationError(
                    f"in-network dim {dim} out of range for "
                    f"{self.network.num_dims}-D network"
                )

    # -- identity ------------------------------------------------------------

    def canonical(self) -> dict:
        """Content-identity payload built from the model ``canonical()`` hooks.

        Display names and serialization provenance (preset vs inline) are
        excluded; anything that changes a solve's answer is included. Each
        workload appears as its pre-encoded
        :class:`~repro.utils.canonical.Encoded` fragment, so encode the
        payload with :func:`~repro.utils.canonical.canonical_json`.
        """
        cost_model = self.cost_model or default_cost_model()
        compute_model = self.compute_model or a100_compute_model()
        return {
            "network": self.network.canonical(),
            "workloads": [
                {"workload": entry.workload.encoded(), "weight": entry.weight}
                for entry in self.workloads
            ],
            "constraints": (
                None if self.constraints is None else self.constraints.canonical()
            ),
            "cost_model": cost_model.canonical(),
            "compute_model": {
                "peak_flops": compute_model.peak_flops,
                "efficiency": compute_model.efficiency,
            },
            "loop": self.loop,
            "in_network_dims": list(self.in_network_dims),
        }

    def key(self) -> str:
        """Content address of this scenario (SHA-256 hex)."""
        return digest(self.canonical())

    def engine_key(self) -> str:
        """Content address of the *compiled-engine* inputs.

        :meth:`compile` never reads the constraint set (constraints are
        applied per request at solve time), so the engine memo excludes it —
        every budget cell of a sweep column shares one compiled engine.

        Cached on the (frozen) instance: one request reads it several
        times, and a ``replace()`` copy starts without the cached value.
        """
        if self._engine_key is None:
            payload = self.canonical()
            del payload["constraints"]
            object.__setattr__(self, "_engine_key", digest(payload))
        return self._engine_key

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Schema-versioned JSON payload; inverse of :meth:`from_dict`."""
        return {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "network": {
                "notation": self.network.notation,
                "tiers": [tier.value for tier in self.network.tiers],
                "name": self.network.name,
            },
            "workloads": [entry.to_dict() for entry in self.workloads],
            "constraints": (
                None if self.constraints is None else self.constraints.to_dict()
            ),
            "cost_model": (
                None if self.cost_model is None else self.cost_model.to_dict()
            ),
            "compute_model": (
                None if self.compute_model is None else self.compute_model.to_dict()
            ),
            "loop": self.loop,
            "in_network_dims": list(self.in_network_dims),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output (or a hand-written
        file using registry-name shorthands for cost/compute models).

        Raises:
            ScenarioValidationError: on structural problems, locating the
                offending field with a JSON-path-style message.
        """
        payload = _expect_mapping(payload, "$")
        version = payload.get("schema_version")
        if version is None:
            raise ScenarioValidationError("schema_version", "required field is missing")
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioValidationError(
                "schema_version",
                f"unsupported version {version!r}; this library reads "
                f"version {SCENARIO_SCHEMA_VERSION}",
            )

        network_payload = _expect_mapping(_expect(payload, "network", ""), "network")
        notation = _expect(network_payload, "notation", "network")
        if not isinstance(notation, str):
            raise ScenarioValidationError("network.notation", "expected a string")
        tier_names = network_payload.get("tiers") or ()
        try:
            tiers = tuple(NetworkTier(name) for name in tier_names)
        except ValueError as exc:
            raise ScenarioValidationError("network.tiers", str(exc)) from None
        try:
            network = MultiDimNetwork.from_notation(
                notation, tiers=tiers or None,
                name=str(network_payload.get("name", "")),
            )
        except ReproError as exc:
            raise ScenarioValidationError("network", str(exc)) from exc

        workloads_payload = _expect(payload, "workloads", "")
        if not isinstance(workloads_payload, Sequence) or isinstance(
            workloads_payload, (str, bytes)
        ):
            raise ScenarioValidationError("workloads", "expected a list")
        workloads = tuple(
            ScenarioWorkload.from_dict(entry, network.num_npus, f"workloads[{i}]")
            for i, entry in enumerate(workloads_payload)
        )

        constraints_payload = payload.get("constraints")
        constraints = None
        if constraints_payload is not None:
            try:
                constraints = ConstraintSet.from_dict(
                    _expect_mapping(constraints_payload, "constraints")
                )
            except ConfigurationError as exc:
                if isinstance(exc, ScenarioValidationError):
                    raise
                raise ScenarioValidationError("constraints", str(exc)) from exc

        cost_model = _resolve_model_field(
            payload.get("cost_model"), "cost_model",
            resolve_cost_model, CostModel.from_dict,
        )
        compute_model = _resolve_model_field(
            payload.get("compute_model"), "compute_model",
            lambda name: _resolve_compute(name), ComputeModel.from_dict,
        )

        loop = payload.get("loop", "no-overlap")
        if not isinstance(loop, str):
            raise ScenarioValidationError("loop", "expected a loop name string")

        dims = payload.get("in_network_dims", ())
        if not isinstance(dims, Sequence) or isinstance(dims, (str, bytes)):
            raise ScenarioValidationError("in_network_dims", "expected a list")

        try:
            return cls(
                network=network,
                workloads=workloads,
                constraints=constraints,
                cost_model=cost_model,
                compute_model=compute_model,
                loop=loop,
                in_network_dims=tuple(int(d) for d in dims),
            )
        except ConfigurationError as exc:
            if isinstance(exc, ScenarioValidationError):
                raise
            raise ScenarioValidationError("$", str(exc)) from exc

    # -- compilation ---------------------------------------------------------

    def compile(self) -> Libra:
        """A configured :class:`Libra` engine for this scenario.

        Compilation is pure — the scenario is not referenced afterwards —
        so the service can memoize engines on :meth:`key`.
        """
        engine = Libra(
            network=self.network,
            cost_model=self.cost_model,
            compute_model=self.compute_model,
            loop=resolve_loop(self.loop),
            in_network_dims=self.in_network_dims,
        )
        for entry in self.workloads:
            engine.add_workload(entry.workload, weight=entry.weight)
        return engine

    def with_constraints(self, constraints: ConstraintSet) -> "Scenario":
        """Copy of this scenario with the constraint set replaced."""
        return replace(self, constraints=constraints)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        return self.compile().describe()


def _resolve_compute(name: str) -> ComputeModel:
    from repro.api.registry import resolve_compute_model

    return resolve_compute_model(name)


def _resolve_model_field(value, path, by_name, by_dict):
    """A model field is ``None`` (default), a registry name, or a payload."""
    if value is None:
        return None
    if isinstance(value, str):
        try:
            return by_name(value)
        except ConfigurationError as exc:
            raise ScenarioValidationError(path, str(exc)) from exc
    try:
        return by_dict(_expect_mapping(value, path))
    except ConfigurationError as exc:
        if isinstance(exc, ScenarioValidationError):
            raise
        raise ScenarioValidationError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Construction and file helpers
# ---------------------------------------------------------------------------


def build_scenario(
    topology: str | MultiDimNetwork,
    workloads: Sequence[str | Workload | tuple[str | Workload, float]],
    *,
    total_bw_gbps: float | None = None,
    dim_caps_gbps: Sequence[tuple[int, float]] = (),
    constraints: ConstraintSet | None = None,
    cost_model: CostModel | str | None = None,
    compute_model: ComputeModel | str | None = None,
    loop: str = "no-overlap",
    in_network_dims: Sequence[int] = (),
) -> Scenario:
    """Build a :class:`Scenario`, resolving names through the registries.

    Args:
        topology: Preset name, notation string, or a concrete network.
        workloads: Preset names, concrete workloads, or ``(workload, weight)``
            pairs; weights default to 1.
        total_bw_gbps: Aggregate per-NPU budget in GB/s; builds the standard
            budget constraint set (with ``dim_caps_gbps`` applied).
        dim_caps_gbps: Per-dimension caps as ``(dim, GB/s)`` pairs.
        constraints: A pre-built constraint set (mutually exclusive with
            ``total_bw_gbps``/``dim_caps_gbps``).
        cost_model: Cost table or registry name; ``None`` = Table I.
        compute_model: Compute model or registry name; ``None`` = A100.
        loop: Training-loop registry name.
        in_network_dims: Dimensions with in-network collective offload.
    """
    if isinstance(topology, MultiDimNetwork):
        network = topology
    else:
        network = resolve_topology(topology)

    entries = []
    for item in workloads:
        weight = 1.0
        if isinstance(item, tuple):
            item, weight = item
        if isinstance(item, Workload):
            entries.append(ScenarioWorkload(workload=item, weight=weight))
        else:
            entries.append(
                ScenarioWorkload(
                    workload=resolve_workload(item, network.num_npus),
                    weight=weight,
                    preset=item,
                )
            )

    if constraints is not None and (total_bw_gbps is not None or dim_caps_gbps):
        raise ConfigurationError(
            "pass either a pre-built constraint set or "
            "total_bw_gbps/dim_caps_gbps, not both"
        )
    if constraints is None and total_bw_gbps is not None:
        constraints = ConstraintSet(network.num_dims).with_total_bandwidth(
            gbps(total_bw_gbps)
        )
        for dim, cap in dim_caps_gbps:
            constraints.with_dim_cap(int(dim), gbps(float(cap)))
    elif constraints is None and dim_caps_gbps:
        raise ConfigurationError("dim_caps_gbps requires total_bw_gbps")

    if isinstance(cost_model, str):
        cost_model = resolve_cost_model(cost_model)
    if isinstance(compute_model, str):
        compute_model = _resolve_compute(compute_model)

    return Scenario(
        network=network,
        workloads=tuple(entries),
        constraints=constraints,
        cost_model=cost_model,
        compute_model=compute_model,
        loop=loop,
        in_network_dims=tuple(in_network_dims),
    )


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file from disk."""
    import json
    from pathlib import Path

    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"scenario {path} is not valid JSON: {exc}"
        ) from exc
    return Scenario.from_dict(payload)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as deterministic, diff-friendly JSON."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(scenario.to_dict(), indent=1, sort_keys=True) + "\n"
    )
