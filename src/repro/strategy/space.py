"""Parallelization-strategy space: valid (tp, cp, ep, pp, dp) factorizations.

The joint co-optimization (TopoOpt-style) searches over *strategies*, not
just bandwidths: every way of factoring the node count into tensor-,
context-, expert-, pipeline-, and data-parallel degrees is one candidate.
:class:`StrategySpace` bounds that space (per-axis caps, power-of-two
degrees) and enumerates it deterministically — sorted by the degree tuple,
so adjacent candidates differ in as few degrees as possible.

Candidates that cannot be *placed* on the target network (a degree that
does not factor across the dimension sizes) are pruned up front via
:func:`~repro.workloads.parallelism.map_parallelism`; the located
:class:`~repro.utils.errors.MappingError` each one raises becomes the
prune reason. Additional pluggable rules (``rules=``) can veto candidates
programmatically — they are execution-side configuration and never
serialize.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.topology.network import MultiDimNetwork
from repro.utils.errors import ConfigurationError, MappingError
from repro.utils.validation import check_positive_int
from repro.workloads.parallelism import Parallelism, map_parallelism

#: A pruning rule: given a candidate, return a non-empty reason string to
#: prune it, or ``""`` to keep it.
PruneRule = Callable[[Parallelism], str]


@dataclass(frozen=True)
class PrunedStrategy:
    """One candidate removed from the space, with the reason."""

    strategy: Parallelism
    reason: str

    def to_dict(self) -> dict:
        return {"strategy": self.strategy.to_dict(), "reason": self.reason}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PrunedStrategy":
        return cls(
            strategy=Parallelism.from_dict(payload["strategy"]),
            reason=str(payload.get("reason", "")),
        )


@dataclass(frozen=True)
class StrategySpace:
    """Bounds of the factorization space the joint search enumerates.

    Attributes:
        max_tp: Largest tensor-parallel degree (``None`` = the node count).
        max_cp: Largest context-parallel degree (1 disables the axis).
        max_ep: Largest expert-parallel degree (1 disables the axis).
        max_pp: Largest pipeline-parallel degree (1 disables the axis).
        min_tp: Smallest tensor-parallel degree.
        power_of_two: Restrict every inner degree to powers of two (the
            degrees real systems deploy, and the only ones guaranteed to
            factor across power-of-two fabrics).
        rules: Extra pruning rules, applied after the bounds. Programmatic
            only — a space carrying custom rules cannot be serialized.
    """

    max_tp: int | None = None
    max_cp: int = 1
    max_ep: int = 1
    max_pp: int = 1
    min_tp: int = 1
    power_of_two: bool = True
    rules: tuple[PruneRule, ...] = ()

    def __post_init__(self) -> None:
        if self.max_tp is not None:
            check_positive_int(self.max_tp, "max_tp")
        check_positive_int(self.max_cp, "max_cp")
        check_positive_int(self.max_ep, "max_ep")
        check_positive_int(self.max_pp, "max_pp")
        check_positive_int(self.min_tp, "min_tp")
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.max_tp is not None and self.min_tp > self.max_tp:
            raise ConfigurationError(
                f"min_tp {self.min_tp} exceeds max_tp {self.max_tp}"
            )

    def _axis_degrees(self, limit: int, num_npus: int, floor: int = 1) -> list[int]:
        """Candidate degrees for one axis, ascending."""
        upper = min(limit, num_npus)
        if self.power_of_two:
            degrees, degree = [], 1
            while degree <= upper:
                if degree >= floor:
                    degrees.append(degree)
                degree *= 2
            return degrees
        return [d for d in range(max(floor, 1), upper + 1) if num_npus % d == 0]

    def enumerate(
        self,
        num_npus: int,
        network: MultiDimNetwork | None = None,
    ) -> list[Parallelism]:
        """Valid strategies for ``num_npus``, in deterministic degree order."""
        return self.split(num_npus, network)[0]

    def split(
        self,
        num_npus: int,
        network: MultiDimNetwork | None = None,
    ) -> tuple[list[Parallelism], list[PrunedStrategy]]:
        """Enumerate the space: ``(kept, pruned)``.

        Every kept strategy's degrees multiply to ``num_npus`` exactly (dp
        absorbs the cofactor). With a ``network``, candidates that cannot
        be placed on it are pruned with their located
        :class:`~repro.utils.errors.MappingError` message; the caller's
        ``rules`` veto whatever else they like. The kept list is sorted by
        the (tp, cp, ep, pp) tuple, so neighbors differ minimally.
        """
        check_positive_int(num_npus, "num_npus")
        kept: list[Parallelism] = []
        pruned: list[PrunedStrategy] = []
        seen: set[tuple[int, ...]] = set()
        tp_limit = self.max_tp if self.max_tp is not None else num_npus
        for tp in self._axis_degrees(tp_limit, num_npus, floor=self.min_tp):
            for cp in self._axis_degrees(self.max_cp, num_npus):
                for ep in self._axis_degrees(self.max_ep, num_npus):
                    for pp in self._axis_degrees(self.max_pp, num_npus):
                        inner = tp * cp * ep * pp
                        if inner > num_npus or num_npus % inner != 0:
                            continue
                        candidate = Parallelism(
                            tp=tp, dp=num_npus // inner, pp=pp, cp=cp, ep=ep
                        )
                        if candidate.degrees in seen:
                            continue
                        seen.add(candidate.degrees)
                        reason = self._prune_reason(candidate, network)
                        if reason:
                            pruned.append(PrunedStrategy(candidate, reason))
                        else:
                            kept.append(candidate)
        order = sorted(range(len(kept)), key=lambda i: kept[i].degrees)
        return [kept[i] for i in order], pruned

    def _prune_reason(
        self,
        candidate: Parallelism,
        network: MultiDimNetwork | None,
    ) -> str:
        """Why ``candidate`` leaves the space, or ``""`` to keep it."""
        if network is not None:
            try:
                map_parallelism(network, candidate)
            except MappingError as exc:
                return f"unmappable: {exc}"
        for rule in self.rules:
            reason = rule(candidate)
            if reason:
                return reason
        return ""

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        Custom ``rules`` are callables and cannot cross a wire boundary —
        mirroring how sweep specs reject custom cost models.
        """
        if self.rules:
            raise ConfigurationError(
                "a StrategySpace with custom pruning rules cannot be "
                "serialized; apply rules programmatically"
            )
        return {
            "max_tp": self.max_tp,
            "max_cp": self.max_cp,
            "max_ep": self.max_ep,
            "max_pp": self.max_pp,
            "min_tp": self.min_tp,
            "power_of_two": self.power_of_two,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StrategySpace":
        """Rebuild a space from :meth:`to_dict` output."""
        unknown = set(payload) - {
            "max_tp", "max_cp", "max_ep", "max_pp", "min_tp", "power_of_two",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown strategy-space fields: {sorted(unknown)}"
            )
        max_tp = payload.get("max_tp")
        try:
            return cls(
                max_tp=None if max_tp is None else int(max_tp),
                max_cp=int(payload.get("max_cp", 1)),
                max_ep=int(payload.get("max_ep", 1)),
                max_pp=int(payload.get("max_pp", 1)),
                min_tp=int(payload.get("min_tp", 1)),
                power_of_two=bool(payload.get("power_of_two", True)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed strategy-space payload: {exc}"
            ) from exc


def strategy_slug(strategy: Parallelism) -> str:
    """Stable compact identifier for one strategy (row/workload tagging)."""
    parts = [f"tp{strategy.tp}"]
    if strategy.cp != 1:
        parts.append(f"cp{strategy.cp}")
    if strategy.ep != 1:
        parts.append(f"ep{strategy.ep}")
    if strategy.pp != 1:
        parts.append(f"pp{strategy.pp}")
    parts.append(f"dp{strategy.dp}")
    return "-".join(parts)
