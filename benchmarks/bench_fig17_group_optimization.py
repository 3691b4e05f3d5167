"""Fig. 17 — optimizing one network for a group of workloads.

Panel (a): the three LLMs; panel (b): MSFT-1T + DLRM + ResNet-50. For every
single-target network the paper reports cross-workload slowdowns of up to
1.77×, while the group-optimized network averages only 1.01× slowdown.
Setup: 4D-4K at 1,000 GB/s per NPU, PerfOptBW.
"""

import pytest

from _common import print_header, print_table
from repro.core import run_group_study
from repro.topology import get_topology
from repro.utils import gbps
from repro.workloads import build_workload

PANELS = {
    "(a) LLMs": ("Turing-NLG", "GPT-3", "MSFT-1T"),
    "(b) mixture": ("MSFT-1T", "DLRM", "ResNet-50"),
}


def run_panel(names):
    network = get_topology("4D-4K")
    workloads = [build_workload(name, 4096) for name in names]
    return run_group_study(network, workloads, total_bandwidth=gbps(1000))


def test_fig17_group_optimization(benchmark):
    for label, names in PANELS.items():
        study = run_panel(names)
        print_header(f"Fig. 17 {label} — speedup over EqualBW / slowdown vs own optimum")
        designs = list(names) + ["group"]
        rows = []
        for design in designs:
            for workload in names:
                rows.append(
                    (
                        design,
                        workload,
                        study.speedups[design][workload],
                        study.slowdowns[design][workload],
                    )
                )
        print_table(["network optimized for", "workload", "speedup", "slowdown"], rows)
        print(
            f"group network: avg slowdown {study.average_group_slowdown:.3f}x, "
            f"worst single-target cross slowdown {study.worst_cross_slowdown:.2f}x"
        )
        print("paper reference: group avg 1.01x; worst cross slowdown up to 1.77x")

        # Shape: single-target networks can hurt other workloads noticeably;
        # the group network stays close to optimal for everyone. (Our
        # water-filled single-target allocations are more extreme than the
        # paper's, so both the worst cross-slowdown and the group average
        # land above the paper's 1.77x / 1.01x: a known gap.)
        assert study.worst_cross_slowdown > 1.05
        assert study.average_group_slowdown < 1.3
        assert max(study.slowdowns["group"].values()) <= study.worst_cross_slowdown

    benchmark.pedantic(
        lambda: run_panel(PANELS["(a) LLMs"]), rounds=1, iterations=1
    )
