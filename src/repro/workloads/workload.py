"""Workload container: a named stack of layers plus its parallelization.

A :class:`Workload` is fully concrete — layer FLOP counts and communication
payloads already reflect the chosen parallelization degrees — but still
network-independent: communication is scope-tagged (TP / DP / GLOBAL) and is
bound to physical dimensions only when combined with a network via
:func:`repro.workloads.parallelism.map_parallelism`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.canonical import Encoded
from repro.utils.errors import ConfigurationError
from repro.workloads.layers import CommRequirement, CommScope, Layer
from repro.workloads.parallelism import Parallelism


@dataclass(frozen=True)
class Workload:
    """A training workload: layers, parallelization, and datatype.

    Attributes:
        name: Workload name (e.g. ``"GPT-3"``).
        layers: Layer stack in execution order.
        parallelism: The HP-(tp, dp) strategy the layer statistics assume.
        dtype_bytes: Bytes per element of the training datatype (2 = FP16).
    """

    name: str
    layers: tuple[Layer, ...]
    parallelism: Parallelism
    dtype_bytes: int = 2
    #: Lazily encoded :meth:`canonical` payload (see :meth:`encoded`).
    _encoded: Encoded | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workload name must not be empty")
        if not self.layers:
            raise ConfigurationError(f"workload {self.name!r} has no layers")
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ConfigurationError(
                f"dtype_bytes must be 1, 2, 4, or 8, got {self.dtype_bytes}"
            )

    # -- aggregate statistics ------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_params(self) -> float:
        """Total parameter count across layers (whole model)."""
        return sum(layer.param_count for layer in self.layers)

    @property
    def total_compute_flops(self) -> float:
        """Forward + backward FLOPs per NPU per training step."""
        return sum(layer.total_compute_flops for layer in self.layers)

    @property
    def total_comm_bytes(self) -> float:
        """Sum of all collective payloads per step (Fig. 1's metric)."""
        return sum(layer.total_comm_bytes for layer in self.layers)

    def comm_bytes_by_scope(self) -> dict[CommScope, float]:
        """Communication payload split by parallelization scope."""
        totals: dict[CommScope, float] = {}
        for layer in self.layers:
            for comm in layer.all_comms:
                totals[comm.scope] = totals.get(comm.scope, 0.0) + comm.size_bytes
        return totals

    def comm_requirements(self) -> list[tuple[Layer, CommRequirement]]:
        """Flat list of (layer, requirement) pairs in execution order."""
        pairs = []
        for layer in self.layers:
            for comm in layer.all_comms:
                pairs.append((layer, comm))
        return pairs

    def canonical(self) -> dict:
        """Content-identity payload for hashing and result caching.

        Captures everything the training-time model reads — layer compute,
        per-collective payloads, the parallelization degrees, and the
        datatype — as a JSON-stable dict. Display-only metadata (comm
        labels) is excluded so round-tripping the text format preserves
        identity.

        Content keys use :meth:`encoded`, which encodes this payload once
        per instance.
        """
        # Degree-1 cp/ep axes are omitted so the canonical payload (and
        # every digest derived from it) of a classic HP-(tp, dp) workload
        # is byte-identical to what pre-CP/EP releases produced.
        parallelism_payload = {
            "tp": self.parallelism.tp,
            "dp": self.parallelism.dp,
            "pp": self.parallelism.pp,
        }
        if self.parallelism.cp != 1:
            parallelism_payload["cp"] = self.parallelism.cp
        if self.parallelism.ep != 1:
            parallelism_payload["ep"] = self.parallelism.ep
        return {
            "name": self.name,
            "parallelism": parallelism_payload,
            "dtype_bytes": self.dtype_bytes,
            "layers": [
                {
                    "name": layer.name,
                    "fwd_compute_flops": layer.fwd_compute_flops,
                    "tp_compute_flops": layer.tp_compute_flops,
                    "dp_compute_flops": layer.dp_compute_flops,
                    "param_count": layer.param_count,
                    "comms": [
                        [
                            phase,
                            comm.scope.value,
                            comm.kind.value,
                            comm.size_bytes,
                        ]
                        for phase, comms in (
                            ("fwd", layer.fwd_comms),
                            ("tp", layer.tp_comms),
                            ("dp", layer.dp_comms),
                        )
                        for comm in comms
                    ],
                }
                for layer in self.layers
            ],
        }

    def encoded(self) -> Encoded:
        """:meth:`canonical` as canonical JSON text, encoded once per instance.

        Workload instances are immutable and widely shared (the preset
        memo, engine memos), while every scenario key, engine key and sweep
        cache key of a workload embeds its 20–50 KB layer list; content keys
        splice this fragment in instead of re-encoding it. The text is also
        far smaller than the payload dict it encodes.
        """
        if self._encoded is None:
            object.__setattr__(self, "_encoded", Encoded(self.canonical()))
        return self._encoded

    def with_parallelism(self, parallelism: Parallelism) -> "Workload":
        """Shallow re-tag with a different strategy.

        Only valid when layer statistics do not depend on the degrees being
        changed — the preset builders regenerate layers instead; this helper
        exists for synthetic workloads in tests.
        """
        return Workload(
            name=self.name,
            layers=self.layers,
            parallelism=parallelism,
            dtype_bytes=self.dtype_bytes,
        )

    def __str__(self) -> str:
        return (
            f"{self.name} [{self.num_layers} layers, "
            f"{self.total_params / 1e9:.1f}B params, {self.parallelism}]"
        )
