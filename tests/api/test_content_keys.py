"""Content keys hash the fully expanded canonical payload, byte for byte.

Workloads splice their pre-encoded canonical text into scenario, engine and
sweep-cell keys. These tests rebuild every key from the plain ``canonical()``
dicts with :func:`json.dumps` and compare, and pin digests recorded before
the splicing existed.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.api.scenario import Scenario, build_scenario
from repro.core.constraints import ConstraintSet
from repro.core.results import Scheme
from repro.explore.keys import point_key, point_payload
from repro.explore.spec import ExplorationPoint
from repro.strategy.search import tagged_workload
from repro.strategy.space import StrategySpace
from repro.topology.presets import get_topology
from repro.utils.units import gbps
from repro.workloads.parser import parse_workload, serialize_workload
from repro.workloads.presets import build_workload, workload_names
from repro.workloads.workload import Workload

TOPOLOGIES = ("4D-4K", "3D-4K", "3D-512")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _expanded_scenario(scenario: Scenario) -> dict:
    payload = scenario.canonical()
    payload["workloads"] = [
        {"workload": entry.workload.canonical(), "weight": entry.weight}
        for entry in scenario.workloads
    ]
    return payload


def _assert_scenario_keys(scenario: Scenario) -> None:
    payload = _expanded_scenario(scenario)
    assert scenario.key() == _digest(payload)
    del payload["constraints"]
    assert scenario.engine_key() == _digest(payload)


def _assert_point_key(point: ExplorationPoint) -> None:
    payload = point_payload(point)
    if isinstance(point.workload, Workload):
        payload["workload"] = point.workload.canonical()
    assert point_key(point) == _digest(payload)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("workload", workload_names())
def test_preset_keys_hash_the_expanded_payload(workload, topology):
    scenario = build_scenario(topology, [workload], total_bw_gbps=500)
    _assert_scenario_keys(scenario)
    _assert_point_key(ExplorationPoint(workload, topology, 500.0, Scheme.PERF_OPT))
    _assert_point_key(
        ExplorationPoint(
            scenario.workloads[0].workload, topology, 321.5,
            Scheme.PERF_PER_COST_OPT, dim_caps_gbps=((0, 90.0),),
        )
    )


@pytest.mark.parametrize("preset", ["GPT-3", "Turing-NLG"])
def test_strategy_tagged_keys_hash_the_expanded_payload(preset):
    network = get_topology("3D-512")
    strategies, _ = StrategySpace(max_tp=16).split(network.num_npus, network)
    for strategy in strategies:
        workload = tagged_workload(preset, network.num_npus, strategy)
        _assert_point_key(
            ExplorationPoint(workload, "3D-512", 432.1, Scheme.PERF_PER_COST_OPT)
        )
        _assert_scenario_keys(
            build_scenario("3D-512", [workload], total_bw_gbps=432.1)
        )


def test_inline_weighted_and_constrained_scenarios():
    inline = replace(
        parse_workload(serialize_workload(build_workload("DLRM", 512))),
        name="my-dlrm",
    )
    capped = (
        ConstraintSet(3)
        .with_total_bandwidth(gbps(800))
        .with_dim_cap(2, gbps(100))
        .with_ordering([0, 1])
    )
    for scenario in (
        build_scenario("3D-512", [inline], total_bw_gbps=250),
        build_scenario(
            "3D-512", [("GPT-3", 2.0), ("Turing-NLG", 0.5)], total_bw_gbps=600
        ),
        build_scenario("3D-512", ["GPT-3"], constraints=capped),
        build_scenario("3D-512", ["GPT-3"]),
        build_scenario(
            "4D-4K", ["GPT-3"], total_bw_gbps=700, loop="tp-dp-overlap",
            in_network_dims=[0],
        ),
    ):
        _assert_scenario_keys(scenario)


def test_renamed_copy_encodes_its_own_name():
    original = build_workload("GPT-3", 512)
    before = original.encoded().text  # cached on the original first
    renamed = replace(original, name="GPT-3-renamed")
    assert '"name":"GPT-3-renamed"' in renamed.encoded().text
    assert original.encoded().text == before
    _assert_scenario_keys(build_scenario("3D-512", [renamed], total_bw_gbps=500))
    _assert_point_key(ExplorationPoint(renamed, "3D-512", 500.0, Scheme.PERF_OPT))


#: Digests recorded before workloads carried pre-encoded fragments.
PINNED_SCENARIOS = {
    "GPT-3/3D-512": (
        "33ed0f818f4c38e8d4fc446e36c9b11937eb9daad40970a65be58b4bde663158",
        "95da3bea0882f68a82583917fd5af29b467fd318fd154f20870fc4669d56e6ae",
    ),
    "DLRM/4D-4K": (
        "ffbc9324b1758a7dd30d1a5b5c7cd071ee81f621e2312a7721033042375c5972",
        "87a7f04c83926ce6d3f146b08c3cff7f1e76aac3cbf3fa66d4e528e71870acea",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_pinned_preset_scenario_keys(name):
    workload, topology = name.split("/")
    scenario = build_scenario(topology, [workload], total_bw_gbps=500)
    assert (scenario.key(), scenario.engine_key()) == PINNED_SCENARIOS[name]


def test_pinned_keys_of_composite_scenarios_and_points():
    two = build_scenario(
        "3D-512", [("GPT-3", 2.0), ("Turing-NLG", 0.5)], total_bw_gbps=600
    )
    assert two.key() == (
        "4a4e2736d540a1616e33c72e9376fc45dccff83f4fa068c53b344d914458eebb"
    )
    capped = (
        ConstraintSet(3)
        .with_total_bandwidth(gbps(800))
        .with_dim_cap(2, gbps(100))
        .with_ordering([0, 1])
    )
    assert build_scenario("3D-512", ["GPT-3"], constraints=capped).key() == (
        "8ae6f02ad08f0dbc486a7e15904806dcb6123f05c97c4de538670f0da0c308e3"
    )
    network = get_topology("3D-512")
    strategies, _ = StrategySpace(max_tp=16).split(network.num_npus, network)
    (tp8,) = [s for s in strategies if s.tp == 8]
    tagged = tagged_workload("GPT-3", 512, tp8)
    assert point_key(
        ExplorationPoint(tagged, "3D-512", 432.1, Scheme.PERF_PER_COST_OPT)
    ) == "97129fb0d100b32da4e41b683f1a95e0635a31d3fa0b71226d167a69500bb1ef"
    assert point_key(
        ExplorationPoint("GPT-3", "4D-4K", 500.0, Scheme.PERF_OPT)
    ) == "6a7fccdf2156fcd918fe58d19aed05bc89ae807dd1bc7e8e79ad8ed3c0136ef7"
    renamed = replace(build_workload("GPT-3", 512), name="GPT-3-renamed")
    assert build_scenario("3D-512", [renamed], total_bw_gbps=500).key() == (
        "f30a4910b0a7b6c0afd6a74f416865c5954cc2b5a83741a2cc6ab2df580cca47"
    )


def test_engine_key_is_digested_once_per_instance(monkeypatch):
    import repro.api.scenario as scenario_module

    scenario = build_scenario("3D-512", ["GPT-3"], total_bw_gbps=500)
    calls = []
    digest = scenario_module.digest
    monkeypatch.setattr(
        scenario_module, "digest",
        lambda payload: calls.append(1) or digest(payload),
    )
    first = scenario.engine_key()
    assert scenario.engine_key() is first
    assert len(calls) == 1
    assert first == PINNED_SCENARIOS["GPT-3/3D-512"][1]


def test_replaced_scenario_recomputes_its_engine_key():
    scenario = build_scenario("3D-512", ["GPT-3"], total_bw_gbps=500)
    key = scenario.engine_key()
    # Constraints are not engine inputs: same key, computed afresh.
    rebudgeted = scenario.with_constraints(
        ConstraintSet(3).with_total_bandwidth(gbps(700))
    )
    assert rebudgeted._engine_key is None
    assert rebudgeted.engine_key() == key
    other = replace(scenario, loop="tp-dp-overlap")
    assert other._engine_key is None
    assert other.engine_key() != key
    _assert_scenario_keys(other)
