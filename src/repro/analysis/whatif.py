"""What-if perturbation queries against a solved design point.

A designer holding an optimal allocation asks cheap counterfactuals:
*what if dimension 2 had 10% more bandwidth? what if I moved 50 GB/s from
dim 0 to dim 3? what if the budget grew by 100 GB/s?* Each query is a
deterministic perturbation of the bandwidth vector re-evaluated through
the memoized :func:`~repro.training.expr.vector_evaluator` — no solver
run, microseconds per probe once the expression is flattened.

Repeat probes are served from :class:`WhatIfMemo`, a bounded
content-addressed LRU keyed on the digest of *(context, point, query)* —
the same digest discipline as the explore cache, so identical questions
against a cached sweep grid are sub-millisecond and counted on
``repro_analyze_memo_hits_total{layer="whatif"}``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.training.expr import Expr, vector_evaluator
from repro.utils.canonical import digest
from repro.utils.errors import ConfigurationError
from repro.utils.units import GBPS

#: Operations a :class:`WhatIfQuery` can express.
WHATIF_OPS = ("scale", "move", "budget")

#: The factor each default probe scales its dimension by.
DEFAULT_SCALE_FACTOR = 1.1


def _memo_hit_counter():
    return obs_metrics.get_registry().counter(
        obs_names.ANALYZE_MEMO,
        "What-if probes served from a memo instead of re-evaluation.",
        labels=("layer",),
    )


@dataclass(frozen=True)
class WhatIfQuery:
    """One perturbation of a design point.

    Exactly one of three shapes, selected by ``op``:

    * ``"scale"`` — multiply dimension ``dim`` by ``factor``;
    * ``"move"`` — shift ``delta_gbps`` from ``source`` to ``target``
      (budget-preserving);
    * ``"budget"`` — grow/shrink the total by ``delta_gbps``, rescaling
      every dimension proportionally.
    """

    op: str
    dim: int | None = None
    factor: float | None = None
    source: int | None = None
    target: int | None = None
    delta_gbps: float | None = None

    def __post_init__(self):
        if self.op not in WHATIF_OPS:
            raise ConfigurationError(
                f"what-if op must be one of {WHATIF_OPS}, got {self.op!r}"
            )
        if self.op == "scale":
            if self.dim is None or self.factor is None:
                raise ConfigurationError("scale query needs dim and factor")
            if self.factor <= 0:
                raise ConfigurationError(
                    f"scale factor must be positive, got {self.factor}"
                )
        elif self.op == "move":
            if self.source is None or self.target is None or self.delta_gbps is None:
                raise ConfigurationError(
                    "move query needs source, target, and delta_gbps"
                )
            if self.source == self.target:
                raise ConfigurationError("move source and target must differ")
            if self.delta_gbps <= 0:
                raise ConfigurationError(
                    f"move delta_gbps must be positive, got {self.delta_gbps}"
                )
        else:  # budget
            if self.delta_gbps is None:
                raise ConfigurationError("budget query needs delta_gbps")

    def label(self) -> str:
        if self.op == "scale":
            return f"scale dim{self.dim} x{self.factor:g}"
        if self.op == "move":
            return f"move {self.delta_gbps:g} GB/s dim{self.source}->dim{self.target}"
        sign = "+" if self.delta_gbps >= 0 else ""
        return f"budget {sign}{self.delta_gbps:g} GB/s"

    def apply(self, bandwidths: Sequence[float]) -> tuple[float, ...]:
        """The perturbed point (bytes/s in, bytes/s out)."""
        point = np.asarray(bandwidths, dtype=float).copy()
        num = point.size

        def check_dim(dim: int, name: str) -> None:
            if not 0 <= dim < num:
                raise ConfigurationError(
                    f"what-if {name} {dim} out of range for {num} dims"
                )

        if self.op == "scale":
            check_dim(self.dim, "dim")
            point[self.dim] *= self.factor
        elif self.op == "move":
            check_dim(self.source, "source")
            check_dim(self.target, "target")
            delta = self.delta_gbps * GBPS
            point[self.source] -= delta
            point[self.target] += delta
        else:
            total = point.sum()
            new_total = total + self.delta_gbps * GBPS
            if new_total <= 0:
                raise ConfigurationError(
                    f"budget delta {self.delta_gbps} GB/s empties the "
                    f"{total / GBPS:g} GB/s budget"
                )
            point *= new_total / total
        if np.any(point <= 0):
            raise ConfigurationError(
                f"what-if '{self.label()}' drives a bandwidth non-positive"
            )
        return tuple(float(v) for v in point)

    def to_dict(self) -> dict:
        payload: dict = {"op": self.op}
        for field in ("dim", "factor", "source", "target", "delta_gbps"):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> WhatIfQuery:
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"what-if query must be a mapping, got {type(payload).__name__}"
            )
        try:
            return cls(
                op=str(payload["op"]),
                dim=None if payload.get("dim") is None else int(payload["dim"]),
                factor=(
                    None if payload.get("factor") is None
                    else float(payload["factor"])
                ),
                source=(
                    None if payload.get("source") is None
                    else int(payload["source"])
                ),
                target=(
                    None if payload.get("target") is None
                    else int(payload["target"])
                ),
                delta_gbps=(
                    None if payload.get("delta_gbps") is None
                    else float(payload["delta_gbps"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad what-if query payload: {exc}") from exc


@dataclass(frozen=True)
class WhatIfResult:
    """Outcome of one query: the perturbed point and its step time."""

    query: WhatIfQuery
    bandwidths: tuple[float, ...]  # perturbed point, bytes/s
    step_time: float
    base_step_time: float

    @property
    def delta_step_time(self) -> float:
        return self.step_time - self.base_step_time

    @property
    def speedup(self) -> float:
        return self.base_step_time / self.step_time if self.step_time else 0.0

    def to_dict(self) -> dict:
        return {
            "query": self.query.to_dict(),
            "bandwidths_gbps": [b / GBPS for b in self.bandwidths],
            "step_time": self.step_time,
            "base_step_time": self.base_step_time,
            "delta_step_time": self.delta_step_time,
            "speedup": self.speedup,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> WhatIfResult:
        try:
            return cls(
                query=WhatIfQuery.from_dict(payload["query"]),
                bandwidths=tuple(
                    float(b) * GBPS for b in payload["bandwidths_gbps"]
                ),
                step_time=float(payload["step_time"]),
                base_step_time=float(payload["base_step_time"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad what-if result payload: {exc}") from exc


class WhatIfMemo:
    """Bounded, thread-safe, content-addressed memo of what-if results.

    Keys are SHA-256 digests of *(context, bandwidths, query)* — context
    being whatever identifies the expression (a scenario key, an engine
    key), so two scenarios never collide and restating the same question
    is a hit regardless of which code path asks.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._entries: OrderedDict[str, WhatIfResult] = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @staticmethod
    def key(
        context: str, bandwidths: Sequence[float], query: WhatIfQuery
    ) -> str:
        return digest(
            {
                "context": context,
                "bandwidths": [float(b) for b in bandwidths],
                "query": query.to_dict(),
            }
        )

    def get(self, key: str) -> WhatIfResult | None:
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        _memo_hit_counter().labels(layer="whatif").inc()
        return cached

    def put(self, key: str, result: WhatIfResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries),
            }


def default_queries(num_dims: int) -> tuple[WhatIfQuery, ...]:
    """The standard per-dimension probes: scale each dim by
    :data:`DEFAULT_SCALE_FACTOR`.

    :func:`evaluate_whatifs` appends budget ±10% probes sized from the
    point's own total, making the full default set deterministic
    (``num_dims + 2`` probes) so repeated analyze requests for one point
    are memo hits end to end.
    """
    return tuple(
        WhatIfQuery(op="scale", dim=dim, factor=DEFAULT_SCALE_FACTOR)
        for dim in range(num_dims)
    )


def evaluate_whatifs(
    expression: Expr,
    bandwidths: Sequence[float],
    queries: Sequence[WhatIfQuery] = (),
    memo: WhatIfMemo | None = None,
    context: str = "",
) -> tuple[WhatIfResult, ...]:
    """Answer queries by re-evaluation through the memoized evaluator.

    With no explicit queries, probes a default set: each dimension scaled
    ×1.1 plus the total budget ±10% (``num_dims + 2`` evaluations).

    Args:
        expression: Combined training-time expression.
        bandwidths: Base point, bytes/s.
        queries: Perturbations to evaluate (default set when empty).
        memo: Optional :class:`WhatIfMemo`; hits skip evaluation.
        context: Content namespace for memo keys (scenario/engine key).
    """
    point = np.asarray(bandwidths, dtype=float)
    if point.ndim != 1 or point.size == 0:
        raise ConfigurationError("bandwidths must be a non-empty vector")
    if np.any(point <= 0):
        raise ConfigurationError(f"bandwidths must be positive, got {point}")
    if not queries:
        budget_delta = 0.1 * float(point.sum()) / GBPS
        queries = default_queries(point.size) + (
            WhatIfQuery(op="budget", delta_gbps=budget_delta),
            WhatIfQuery(op="budget", delta_gbps=-budget_delta),
        )

    evaluate = vector_evaluator(expression)
    base_time = float(evaluate(point))
    results: list[WhatIfResult] = []
    for query in queries:
        key = None
        if memo is not None:
            key = memo.key(context, point, query)
            cached = memo.get(key)
            if cached is not None:
                results.append(cached)
                continue
        perturbed = query.apply(point)
        result = WhatIfResult(
            query=query,
            bandwidths=perturbed,
            step_time=float(evaluate(np.asarray(perturbed))),
            base_step_time=base_time,
        )
        if memo is not None and key is not None:
            memo.put(key, result)
        results.append(result)
    return tuple(results)
