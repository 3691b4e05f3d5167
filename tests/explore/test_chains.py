"""Continuation-chain partitioning: coverage, ordering, determinism."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scheme
from repro.explore import SweepSpec, build_chains, chain_signature
from repro.explore.spec import ExplorationPoint

WORKLOADS = ("Turing-NLG", "GPT-3", "DLRM")
TOPOLOGIES = ("RI(3)_RI(2)", "3D-512", "4D-4K")
SCHEMES = (Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT, Scheme.EQUAL_BW)
CAPS = ((), ((0, 50.0),))


def _point(workload, topology, budget, scheme, caps) -> ExplorationPoint:
    return ExplorationPoint(
        workload=workload,
        topology=topology,
        total_bw_gbps=budget,
        scheme=scheme,
        dim_caps_gbps=caps,
    )


points_strategy = st.lists(
    st.builds(
        _point,
        st.sampled_from(WORKLOADS),
        st.sampled_from(TOPOLOGIES),
        st.sampled_from((100.0, 200.0, 300.0, 500.0, 1000.0)),
        st.sampled_from(SCHEMES),
        st.sampled_from(CAPS),
    ),
    max_size=40,
)


class TestPartitionProperties:
    @settings(max_examples=200, deadline=None)
    @given(points=points_strategy)
    def test_every_cell_exactly_once(self, points):
        """The partition is exact: each input pair lands in one chain."""
        items = [(index, point) for index, point in enumerate(points)]
        chains = build_chains(items)
        flattened = [tag for chain in chains for tag, _ in chain]
        assert Counter(flattened) == Counter(range(len(points)))

    @settings(max_examples=200, deadline=None)
    @given(points=points_strategy)
    def test_chains_are_budget_sorted_and_signature_uniform(self, points):
        items = [(index, point) for index, point in enumerate(points)]
        for chain in build_chains(items):
            budgets = [point.total_bw_gbps for _, point in chain]
            assert budgets == sorted(budgets)
            signatures = {chain_signature(point) for _, point in chain}
            assert len(signatures) == 1

    @settings(max_examples=100, deadline=None)
    @given(points=points_strategy)
    def test_partition_is_deterministic(self, points):
        items = [(index, point) for index, point in enumerate(points)]
        assert build_chains(items) == build_chains(items)


class TestGridChains:
    def test_grid_partitions_into_one_chain_per_column(self):
        """A spec grid yields exactly workloads × topologies × schemes
        chains, each spanning the full budget axis in ascending order."""
        spec = SweepSpec(
            workloads=("Turing-NLG", "GPT-3"),
            topologies=("3D-512",),
            bandwidths_gbps=(500.0, 100.0, 300.0),
            schemes=(Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT),
        )
        points = spec.expand()
        chains = build_chains([(i, p) for i, p in enumerate(points)])
        assert len(chains) == 4
        for chain in chains:
            assert [p.total_bw_gbps for _, p in chain] == [100.0, 300.0, 500.0]

    def test_equal_budgets_keep_input_order(self):
        a = _point("GPT-3", "3D-512", 100.0, Scheme.PERF_OPT, ())
        b = _point("GPT-3", "3D-512", 100.0, Scheme.PERF_OPT, ())
        chains = build_chains([("first", a), ("second", b)])
        assert len(chains) == 1
        assert [tag for tag, _ in chains[0]] == ["first", "second"]

    def test_caps_split_chains(self):
        """Cells differing only in caps are different chains."""
        uncapped = _point("GPT-3", "3D-512", 100.0, Scheme.PERF_OPT, ())
        capped = _point("GPT-3", "3D-512", 100.0, Scheme.PERF_OPT, ((0, 50.0),))
        assert chain_signature(uncapped) != chain_signature(capped)
        assert len(build_chains([(0, uncapped), (1, capped)])) == 2

    def test_signature_ignores_budget(self):
        low = _point("GPT-3", "3D-512", 100.0, Scheme.PERF_OPT, ())
        high = _point("GPT-3", "3D-512", 1000.0, Scheme.PERF_OPT, ())
        assert chain_signature(low) == chain_signature(high)

    def test_empty_input_yields_no_chains(self):
        assert build_chains([]) == []
