"""Fig. 20 — LIBRA + TACOS: co-designing bandwidth with synthesized collectives.

A 1 GB All-Reduce with 8 chunks on the 3D-Torus at 1,000 GB/s per NPU, four
ways:

* **EqualBW + TACOS** — the synthesizer on the evenly-split torus.
* **LIBRA-only** — the staged multi-rail algorithm on LIBRA's
  (water-filled) multi-rail-optimal allocation.
* **LIBRA + TACOS** — the synthesizer with the allocation co-optimized in
  the loop (the multi-rail traffic model does not describe synthesized
  execution, so LIBRA searches its allocation family against the
  synthesizer directly).

Paper reference: LIBRA+TACOS is 1.25× faster than LIBRA-only, 1.08× faster
than TACOS-only, and 1.36× better perf-per-cost than TACOS-only.
"""

import pytest

from _common import print_header, print_table
from repro.collectives import DimSpan, all_reduce, ideal_bandwidth_split
from repro.cost import default_cost_model, network_cost
from repro.runtime import (
    cooptimize_with_tacos,
    multirail_all_reduce_time,
    synthesize_all_gather,
)
from repro.topology import get_topology
from repro.utils import gb, gbps

TOTAL_GBPS = 1000
PAYLOAD = gb(1)
CHUNKS = 8


def run_experiment():
    torus = get_topology("3D-Torus")
    model = default_cost_model()
    results = {}

    equal_bw = [gbps(TOTAL_GBPS / 3)] * 3
    tacos_equal = synthesize_all_gather(torus, equal_bw, PAYLOAD, CHUNKS)
    results["EqualBW+TACOS"] = (
        tacos_equal.all_reduce_time,
        network_cost(torus, equal_bw, model),
    )

    op = all_reduce(PAYLOAD, tuple(DimSpan(dim, 4) for dim in range(3)))
    split = ideal_bandwidth_split(op, gbps(TOTAL_GBPS))
    libra_bw = [split[dim] for dim in range(3)]
    results["LIBRA-only"] = (
        multirail_all_reduce_time(torus, libra_bw, PAYLOAD, CHUNKS),
        network_cost(torus, libra_bw, model),
    )

    codesign = cooptimize_with_tacos(
        torus, gbps(TOTAL_GBPS), PAYLOAD, CHUNKS, objective="perf_per_cost"
    )
    results["LIBRA+TACOS"] = (codesign.all_reduce_time, codesign.network_cost)
    return results


def test_fig20_tacos(benchmark):
    results = run_experiment()
    print_header("Fig. 20 — 1 GB All-Reduce, 8 chunks, 3D-Torus @ 1,000 GB/s per NPU")
    print_table(
        ["configuration", "All-Reduce time (ms)", "network cost ($)", "time×cost"],
        [
            (name, time * 1e3, f"{cost:,.0f}", time * cost)
            for name, (time, cost) in results.items()
        ],
    )
    lt_time, lt_cost = results["LIBRA+TACOS"]
    eq_time, eq_cost = results["EqualBW+TACOS"]
    lo_time, lo_cost = results["LIBRA-only"]
    print(
        f"LIBRA+TACOS vs LIBRA-only: {lo_time / lt_time:.2f}x faster "
        f"(paper: 1.25x); vs TACOS-only: {eq_time / lt_time:.2f}x "
        f"(paper: 1.08x); perf-per-cost vs TACOS-only: "
        f"{(eq_time * eq_cost) / (lt_time * lt_cost):.2f}x (paper: 1.36x)"
    )

    # Shape: the co-design beats the staged algorithm on LIBRA's own network
    # and wins clearly on perf-per-cost. Its perf-per-cost pick may trade a
    # little raw speed for cost (a known gap: the paper's 1.08x speed edge
    # over TACOS-only does not reproduce, this pick runs slower); the
    # perf-objective pick is never slower than TACOS-on-EqualBW because the
    # equal allocation is in its candidate family.
    assert lt_time < lo_time
    assert lt_time <= eq_time * 1.25
    assert (eq_time * eq_cost) / (lt_time * lt_cost) > 1.1
    perf_pick = cooptimize_with_tacos(
        get_topology("3D-Torus"), gbps(TOTAL_GBPS), PAYLOAD, CHUNKS, objective="perf"
    )
    assert perf_pick.all_reduce_time <= eq_time * 1.0001

    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
