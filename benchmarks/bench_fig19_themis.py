"""Fig. 19 — LIBRA + Themis: design-time allocation under runtime scheduling.

The paper trains GPT-3 on the 4D-4K topology with the Themis collective
scheduler enabled on both an EqualBW and a LIBRA-designed network, under two
regimes:

* **iso-cost** — both networks cost $15M. The LIBRA shape concentrates
  bandwidth on cheap inner dimensions, affording 5.05× more aggregate
  bandwidth, and even with Themis helping EqualBW it trains 2.24× faster.
* **iso-resource** — both networks have 1,000 GB/s per NPU. LIBRA's network
  is 1.04× faster and 4.58× cheaper → 4.77× better perf-per-cost.
"""

import pytest

from _common import print_header, print_table
from repro.core import Libra, Scheme
from repro.cost import max_bandwidth_for_budget, network_cost, default_cost_model
from repro.runtime import ThemisScheduler
from repro.simulator import simulate_training_step
from repro.topology import get_topology
from repro.utils import gbps
from repro.workloads import build_workload

ISO_COST_DOLLARS = 15e6
ISO_RESOURCE_GBPS = 1000


def libra_shares():
    """The PerfPerCost-optimal allocation *shape* for GPT-3 on 4D-4K."""
    libra = Libra(get_topology("4D-4K"))
    libra.add_workload(build_workload("GPT-3", 4096))
    constraints = libra.constraints().with_total_bandwidth(gbps(ISO_RESOURCE_GBPS))
    point = libra.optimize(Scheme.PERF_PER_COST_OPT, constraints)
    total = point.total_bandwidth
    return [bw / total for bw in point.bandwidths]


def step_time_with_themis(bandwidths):
    workload = build_workload("GPT-3", 4096)
    network = get_topology("4D-4K")
    step = simulate_training_step(
        workload, network, bandwidths, num_chunks=8, scheduler_factory=ThemisScheduler
    )
    return step.total_time


def test_fig19_themis(benchmark):
    network = get_topology("4D-4K")
    model = default_cost_model()
    shares = libra_shares()
    equal_shares = [0.25] * 4

    # --- iso-cost: both designs priced at $15M --------------------------------
    equal_total = max_bandwidth_for_budget(network, equal_shares, ISO_COST_DOLLARS, model)
    libra_total = max_bandwidth_for_budget(network, shares, ISO_COST_DOLLARS, model)
    equal_bw = [equal_total * share for share in equal_shares]
    libra_bw = [libra_total * share for share in shares]
    equal_time = step_time_with_themis(equal_bw)
    libra_time = step_time_with_themis(libra_bw)
    bw_ratio = libra_total / equal_total
    iso_cost_speedup = equal_time / libra_time

    print_header("Fig. 19 — iso-cost ($15M), Themis enabled on both networks")
    print_table(
        ["design", "total BW (GB/s)", "step time (ms)", "cost ($M)"],
        [
            ("EqualBW", equal_total / 1e9, equal_time * 1e3,
             network_cost(network, equal_bw, model) / 1e6),
            ("LIBRA", libra_total / 1e9, libra_time * 1e3,
             network_cost(network, libra_bw, model) / 1e6),
        ],
    )
    print(f"LIBRA affords {bw_ratio:.2f}x more BW and trains {iso_cost_speedup:.2f}x faster")
    print("paper reference: 5.05x more BW, 2.24x faster")

    # --- iso-resource: both designs at 1,000 GB/s per NPU ---------------------
    equal_bw = [gbps(ISO_RESOURCE_GBPS) * share for share in equal_shares]
    libra_bw = [gbps(ISO_RESOURCE_GBPS) * share for share in shares]
    equal_time = step_time_with_themis(equal_bw)
    libra_time = step_time_with_themis(libra_bw)
    equal_cost = network_cost(network, equal_bw, model)
    libra_cost = network_cost(network, libra_bw, model)
    iso_resource_speedup = equal_time / libra_time
    cost_reduction = equal_cost / libra_cost
    ppc_gain = (equal_time * equal_cost) / (libra_time * libra_cost)

    print_header("Fig. 19 — iso-resource (1,000 GB/s), Themis enabled on both")
    print_table(
        ["design", "step time (ms)", "cost ($M)"],
        [
            ("EqualBW", equal_time * 1e3, equal_cost / 1e6),
            ("LIBRA", libra_time * 1e3, libra_cost / 1e6),
        ],
    )
    print(
        f"LIBRA: {iso_resource_speedup:.2f}x faster, {cost_reduction:.2f}x cheaper, "
        f"{ppc_gain:.2f}x better perf-per-cost"
    )
    print("paper reference: 1.04x faster, 4.58x cheaper, 4.77x better perf-per-cost")

    # Shape: at iso-cost LIBRA's cheap-dimension shape affords much more
    # bandwidth and wins outright even with Themis helping EqualBW; at
    # iso-resource the win is decisively on cost/perf-per-cost. (Our Themis
    # planner rescues the EqualBW network more aggressively than the paper's,
    # so the iso-resource *speed* comparison lands below the paper's 1.04x:
    # a known gap.)
    assert bw_ratio > 1.5
    assert iso_cost_speedup > 1.1
    assert cost_reduction > 2.0
    assert ppc_gain > 1.5

    benchmark.pedantic(
        lambda: step_time_with_themis(libra_bw), rounds=1, iterations=1
    )
