"""End-to-end analytical training-time estimation."""

import pytest

from repro.collectives import CollectiveType
from repro.topology import get_topology
from repro.training import (
    NoOverlapLoop,
    TPDPOverlapLoop,
    compute_only_time,
    estimate_step_time,
    resolve_workload_comms,
    training_time_expression,
)
from repro.strategy.search import tagged_workload
from repro.strategy.space import StrategySpace
from repro.training.compute import a100_compute_model
from repro.training.estimator import layer_components
from repro.training.expr import CommTerm, Sum, count_nodes, simplify
from repro.utils import gbps
from repro.workloads import build_workload, workload_names
from repro.workloads.parallelism import map_parallelism


@pytest.fixture(scope="module")
def gpt3():
    return build_workload("GPT-3", 4096)


@pytest.fixture(scope="module")
def net4k():
    return get_topology("4D-4K")


class TestExpression:
    def test_expression_is_compact(self, gpt3, net4k):
        """Identical layers must deduplicate into a handful of nodes."""
        expr = training_time_expression(gpt3, net4k)
        assert count_nodes(expr) <= 10

    def test_time_decreases_with_bandwidth(self, gpt3, net4k):
        slow = estimate_step_time(gpt3, net4k, [gbps(50)] * 4)
        fast = estimate_step_time(gpt3, net4k, [gbps(500)] * 4)
        assert fast < slow

    def test_time_approaches_compute_floor(self, gpt3, net4k):
        """With absurd bandwidth, only compute remains."""
        time = estimate_step_time(gpt3, net4k, [gbps(1e9)] * 4)
        floor = compute_only_time(gpt3)
        assert time == pytest.approx(floor, rel=1e-3)

    def test_overlap_loop_not_slower(self, gpt3, net4k):
        bw = [gbps(125)] * 4
        sequential = estimate_step_time(gpt3, net4k, bw, loop=NoOverlapLoop())
        overlapped = estimate_step_time(gpt3, net4k, bw, loop=TPDPOverlapLoop())
        assert overlapped <= sequential

    def test_in_network_offload_helps(self, gpt3, net4k):
        bw = [gbps(125)] * 4
        plain = estimate_step_time(gpt3, net4k, bw)
        offloaded = estimate_step_time(gpt3, net4k, bw, in_network_dims={3})
        assert offloaded <= plain


def _layer_by_layer(workload, network, loop, in_network_dims):
    """Build every layer's expression separately (no sharing)."""
    mapping = map_parallelism(network, workload.parallelism)
    compute = a100_compute_model()
    dims = frozenset(in_network_dims)
    return simplify(
        Sum(
            tuple(
                loop.layer_time(layer_components(layer, mapping, compute, dims))
                for layer in workload.layers
            )
        )
    )


def _shared_build_cases():
    network = get_topology("3D-512")
    for name in workload_names():
        yield build_workload(name, network.num_npus), network
    strategies, _ = StrategySpace(max_tp=16).split(network.num_npus, network)
    for preset in ("GPT-3", "Turing-NLG"):
        for strategy in strategies:
            yield tagged_workload(preset, network.num_npus, strategy), network
    net4k = get_topology("4D-4K")
    for name in ("GPT-3", "DLRM", "ResNet-50"):
        yield build_workload(name, net4k.num_npus), net4k


class TestSharedLayerExpressions:
    @pytest.mark.parametrize("loop", [NoOverlapLoop(), TPDPOverlapLoop()])
    def test_shared_build_equals_layer_by_layer(self, loop):
        """Identical layers share one expression; the tree, CommTerm labels
        included, is the one a layer-by-layer build produces."""
        for workload, network in _shared_build_cases():
            for dims in ((), (0,), tuple(range(network.num_dims))):
                simplify.cache_clear()
                reference = _layer_by_layer(workload, network, loop, dims)
                simplify.cache_clear()
                shared = training_time_expression(
                    workload, network, loop=loop, in_network_dims=dims
                )
                assert shared == reference
                assert repr(shared) == repr(reference), (workload.name, dims)

    def test_labels_name_the_first_layer(self, net4k):
        workload = build_workload("GPT-3", net4k.num_npus)
        expr = training_time_expression(workload, net4k)
        labels = {
            child.label for child in expr.children if isinstance(child, CommTerm)
        }
        first = workload.layers[0].name
        assert labels and all(label.startswith(f"{first}/") for label in labels)

    def test_each_distinct_layer_built_once(self, gpt3, net4k, monkeypatch):
        from repro.training import estimator

        built = []
        original = estimator.layer_components

        def counting(layer, *args, **kwargs):
            built.append(layer.name)
            return original(layer, *args, **kwargs)

        monkeypatch.setattr(estimator, "layer_components", counting)
        training_time_expression(gpt3, net4k)
        assert built == [gpt3.layers[0].name]


class TestResolvedComms:
    def test_inventory_size(self, gpt3, net4k):
        resolved = resolve_workload_comms(gpt3, net4k)
        assert len(resolved) == 96 * 6

    def test_tp_comm_spans_inner_dims(self, gpt3, net4k):
        """GPT-3 TP-16 on 4D-4K: TP ops span dims 0 and 1 (partial)."""
        resolved = resolve_workload_comms(gpt3, net4k)
        tp_ops = [r.op for r in resolved if r.phase == "fwd"]
        spans = tp_ops[0].spans
        assert [s.dim for s in spans] == [0, 1]
        assert spans[1].size == 4  # half of FC(8)

    def test_dp_comm_spans_outer_dims(self, gpt3, net4k):
        resolved = resolve_workload_comms(gpt3, net4k)
        dp_ops = [r.op for r in resolved if r.phase == "dp"]
        assert [s.dim for s in dp_ops[0].spans] == [1, 2, 3]

    def test_labels_carry_workload_and_layer(self, gpt3, net4k):
        resolved = resolve_workload_comms(gpt3, net4k)
        assert resolved[0].op.label.startswith("GPT-3/")


class TestComputeOnly:
    def test_matches_flops(self, gpt3):
        from repro.training import a100_compute_model

        expected = gpt3.total_compute_flops / a100_compute_model().effective_flops
        assert compute_only_time(gpt3) == pytest.approx(expected)

    def test_dp_only_workload_has_no_tp_terms(self, net4k):
        tnlg = build_workload("Turing-NLG", 4096)
        expr = training_time_expression(tnlg, net4k)
        # All comm terms span all four dims (pure DP).
        from repro.training.expr import CommTerm, Sum

        assert isinstance(expr, Sum)
        for child in expr.children:
            if isinstance(child, CommTerm):
                assert [dim for dim, _ in child.coefficients] == [0, 1, 2, 3]
