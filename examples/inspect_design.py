"""Inspect a design point: structure, timelines, and marginal values.

After LIBRA proposes an allocation, this example answers the designer's
follow-up questions with the library's analysis tools:

* **structure** — hop diameter, per-dimension bisection cuts, injection
  bandwidth (`repro.topology.metrics`);
* **timelines** — the Fig. 9 occupancy picture for the dominant collective,
  drawn from the chunk simulator (`repro.simulator.timeline`);
* **marginal values** — where the next GB/s helps most, and which
  dimensions co-bottleneck the optimum (`repro.analysis`).

Run:
    python examples/inspect_design.py
"""

from repro import Libra, Scheme, build_workload, gbps, get_topology
from repro.analysis import bottleneck_structure
from repro.simulator import render_timeline, simulate_collective
from repro.topology import describe_structure
from repro.training import resolve_workload_comms

BUDGET_GBPS = 500


def main() -> None:
    network = get_topology("4D-4K")
    workload = build_workload("GPT-3", network.num_npus)
    libra = Libra(network)
    libra.add_workload(workload)
    point = libra.optimize(
        Scheme.PERF_OPT, libra.constraints().with_total_bandwidth(gbps(BUDGET_GBPS))
    )

    print("=== design point ===")
    print(point.describe())

    print("\n=== structure ===")
    print(describe_structure(network, point.bandwidths))

    print("\n=== dominant collective timeline (8 chunks) ===")
    resolved = resolve_workload_comms(workload, network)
    dominant = max(resolved, key=lambda r: r.op.size_bytes)
    print(f"collective: {dominant.op.label} "
          f"({dominant.op.size_bytes / 1e6:.1f} MB, {dominant.op.kind.value})")
    sim = simulate_collective(dominant.op, list(point.bandwidths), num_chunks=8)
    print(render_timeline(sim.timeline, network.num_dims, width=64,
                          phase_markers=True))
    print("(letters = Reduce-Scatter, digits = All-Gather, '-' = idle)")

    print("\n=== marginal value of bandwidth ===")
    expression = libra.combined_expression()
    structure = bottleneck_structure(expression, point.bandwidths)
    for dim, marginal in enumerate(structure.marginals):
        marker = "  <- most valuable" if dim == structure.most_valuable_dim else ""
        seconds = -marginal * gbps(1)
        print(f"dim {dim + 1}: {seconds * 1e3:.4f} ms lost per GB/s taken away{marker}")
    binding = [dim + 1 for dim in structure.binding_dims]
    print(f"binding dimensions (co-bottlenecked): {binding}")


if __name__ == "__main__":
    main()
