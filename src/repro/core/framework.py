"""The LIBRA framework facade (Fig. 3).

:class:`Libra` binds together every input of the paper's block diagram —
target workloads, network shape, training loop, compute model, and network
cost model — and exposes the two optimization schemes plus the EqualBW
baseline.

Since the :mod:`repro.api` layer landed, ``Libra`` doubles as the *compiled
engine* behind the declarative API: :meth:`repro.api.Scenario.compile`
produces one, and :class:`repro.api.LibraService` memoizes them on the
scenario's canonical key. New consumers should prefer stating problems as
scenarios; the imperative facade below remains fully supported for
step-by-step sessions. A typical session::

    libra = Libra(network=get_topology("4D-4K"))
    libra.add_workload(build_workload("GPT-3", 4096))
    constraints = libra.constraints().with_total_bandwidth(gbps(500))
    best = libra.optimize(Scheme.PERF_OPT, constraints)
    baseline = libra.equal_bw_point(gbps(500))
    speedup = best.speedup_over(baseline)
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.training.expr import Expr, Sum, simplify, vector_evaluator
from repro.core.results import DesignPoint, Scheme
from repro.core.solver import (
    SolverResult,
    minimize_time_cost_product,
    minimize_training_time,
)
from repro.cost.estimator import cost_rates, network_cost
from repro.cost.model import CostModel, default_cost_model
from repro.topology.network import MultiDimNetwork
from repro.training.compute import ComputeModel, a100_compute_model
from repro.training.estimator import training_time_expression
from repro.training.loops import NoOverlapLoop, TrainingLoop
from repro.utils.errors import ConfigurationError, OptimizationError
from repro.utils.validation import check_positive
from repro.workloads.workload import Workload


class Libra:
    """Workload-aware multi-dimensional network bandwidth optimizer.

    Args:
        network: Target multi-dimensional network shape.
        cost_model: Dollar-cost table; defaults to Table I.
        compute_model: NPU compute rate; defaults to the paper's A100.
        loop: Training loop; defaults to the no-overlap loop of Fig. 5(b).
        in_network_dims: Dimensions with in-network collective offload.
    """

    def __init__(
        self,
        network: MultiDimNetwork,
        cost_model: CostModel | None = None,
        compute_model: ComputeModel | None = None,
        loop: TrainingLoop | None = None,
        in_network_dims: Sequence[int] = (),
    ):
        self.network = network
        self.cost_model = cost_model or default_cost_model()
        self.compute_model = compute_model or a100_compute_model()
        self.loop = loop or NoOverlapLoop()
        self.in_network_dims = frozenset(in_network_dims)
        self._workloads: list[tuple[Workload, float]] = []
        self._expr_cache: dict[str, Expr] = {}

    # -- workload management -------------------------------------------------

    def add_workload(self, workload: Workload, weight: float = 1.0) -> "Libra":
        """Register a target workload with an importance weight (Sec. IV-F)."""
        check_positive(weight, "workload weight")
        if workload.parallelism.total_npus != self.network.num_npus:
            raise ConfigurationError(
                f"{workload.name} occupies {workload.parallelism.total_npus} NPUs "
                f"but the network has {self.network.num_npus}"
            )
        if any(existing.name == workload.name for existing, _ in self._workloads):
            raise ConfigurationError(f"workload {workload.name!r} already added")
        self._workloads.append((workload, weight))
        return self

    @property
    def workloads(self) -> list[Workload]:
        return [workload for workload, _ in self._workloads]

    def _require_workloads(self) -> None:
        if not self._workloads:
            raise ConfigurationError("add at least one workload before optimizing")

    # -- modeling --------------------------------------------------------------

    def training_expression(self, workload: Workload) -> Expr:
        """Symbolic step time of one workload on this network (cached)."""
        cached = self._expr_cache.get(workload.name)
        if cached is None:
            cached = training_time_expression(
                workload,
                self.network,
                compute_model=self.compute_model,
                loop=self.loop,
                in_network_dims=self.in_network_dims,
            )
            self._expr_cache[workload.name] = cached
        return cached

    def combined_expression(self) -> Expr:
        """Weighted sum of all target workloads' step times (group objective)."""
        self._require_workloads()
        children = tuple(
            self.training_expression(workload) for workload, _ in self._workloads
        )
        weights = tuple(weight for _, weight in self._workloads)
        return simplify(Sum(children, weights))

    def constraints(self) -> ConstraintSet:
        """A fresh constraint set sized for this network."""
        return ConstraintSet(self.network.num_dims)

    # -- evaluation --------------------------------------------------------------

    def evaluate(
        self,
        bandwidths: Sequence[float],
        scheme: Scheme = Scheme.EQUAL_BW,
        solver_message: str = "",
    ) -> DesignPoint:
        """Evaluate an explicit bandwidth vector into a design point."""
        self._require_workloads()
        if len(bandwidths) != self.network.num_dims:
            raise ConfigurationError(
                f"expected {self.network.num_dims} bandwidths, got {len(bandwidths)}"
            )
        # vector_evaluator flattens each expression once per process; sweep
        # baselines evaluating thousands of points hit the memoized arrays.
        # Its np.float64 results are coerced to native floats so design
        # points stay json.dumps-able without a custom encoder.
        step_times = {
            workload.name: float(
                vector_evaluator(self.training_expression(workload))(bandwidths)
            )
            for workload, _ in self._workloads
        }
        return DesignPoint(
            scheme=scheme,
            bandwidths=tuple(float(b) for b in bandwidths),
            step_times=step_times,
            network_cost=float(
                network_cost(self.network, bandwidths, self.cost_model)
            ),
            solver_message=solver_message,
        )

    def equal_bw_point(self, total_bandwidth: float) -> DesignPoint:
        """The EqualBW baseline: the budget split evenly across dimensions."""
        if total_bandwidth <= 0:
            raise ConfigurationError(
                f"total bandwidth must be positive, got {total_bandwidth}"
            )
        per_dim = total_bandwidth / self.network.num_dims
        return self.evaluate(
            [per_dim] * self.network.num_dims, scheme=Scheme.EQUAL_BW
        )

    # -- optimization ---------------------------------------------------------

    def optimize(
        self,
        scheme: Scheme,
        constraints: ConstraintSet,
        should_stop: Callable[[], bool] | None = None,
    ) -> DesignPoint:
        """Run one optimization scheme under the given constraints.

        Each scheme is one certified interior-point run whose answer
        depends on the problem alone. ``should_stop`` is the solver's
        cooperative cancellation predicate.
        """
        point, _ = self.optimize_result(
            scheme, constraints, should_stop=should_stop
        )
        return point

    def optimize_result(
        self,
        scheme: Scheme,
        constraints: ConstraintSet,
        should_stop: Callable[[], bool] | None = None,
    ) -> tuple[DesignPoint, SolverResult | None]:
        """:meth:`optimize`, also returning the raw solver diagnostics.

        The second element is ``None`` for the EqualBW baseline (no solver
        runs); otherwise it is the :class:`SolverResult` whose ``starts``
        field feeds the service's response diagnostics.
        """
        self._require_workloads()
        if constraints.num_dims != self.network.num_dims:
            raise ConfigurationError(
                f"constraint set covers {constraints.num_dims} dims, "
                f"network has {self.network.num_dims}"
            )
        if scheme is Scheme.EQUAL_BW:
            if constraints.total_bandwidth is None:
                raise OptimizationError("EqualBW needs a total-bandwidth budget")
            return self.equal_bw_point(constraints.total_bandwidth), None

        expression = self.combined_expression()
        if scheme is Scheme.PERF_OPT:
            result = minimize_training_time(
                expression, constraints, should_stop=should_stop
            )
        elif scheme is Scheme.PERF_PER_COST_OPT:
            rates = np.asarray(cost_rates(self.network, self.cost_model))
            rates_total = rates * self.network.num_npus
            result = minimize_time_cost_product(
                expression, constraints, rates_total, should_stop=should_stop
            )
        else:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        point = self.evaluate(
            result.bandwidths, scheme=scheme, solver_message=result.message
        )
        return point, result

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line summary of the configured inputs (Fig. 3's obrounds)."""
        lines = [
            f"network: {self.network}",
            f"cost model: {self.cost_model.name}",
            f"compute model: {self.compute_model.name} "
            f"({self.compute_model.effective_flops / 1e12:.0f} TFLOPS effective)",
            f"training loop: {self.loop.name}",
        ]
        if self.in_network_dims:
            lines.append(f"in-network dims: {sorted(self.in_network_dims)}")
        for workload, weight in self._workloads:
            lines.append(f"workload: {workload} (weight {weight:g})")
        return "\n".join(lines)
