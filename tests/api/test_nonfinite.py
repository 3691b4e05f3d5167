"""NaN and ±inf never enter the program as a bandwidth, budget, cap or weight.

A bare ``x <= 0`` test lets both through, and they then fail deep inside
the solver with an unlocated scipy error. Every entry point rejects them
with a :class:`ConfigurationError` instead.
"""

import math

import pytest

from repro.api.requests import AnalyzeRequest, CostrategyRequest, OptimizeRequest
from repro.api.scenario import Scenario, ScenarioValidationError, build_scenario
from repro.core.constraints import ConstraintSet
from repro.core.framework import Libra
from repro.core.results import Scheme
from repro.explore.spec import ExplorationPoint, SweepSpec
from repro.topology import MultiDimNetwork
from repro.utils.errors import ConfigurationError
from repro.workloads import build_workload

TOPOLOGY = "RI(3)_RI(2)"
WORKLOAD = "Turing-NLG"
NON_FINITE = (math.nan, math.inf, -math.inf)
SCENARIO = build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)

SITES = {
    "exploration point budget": lambda v: ExplorationPoint(
        WORKLOAD, TOPOLOGY, v, Scheme.PERF_OPT
    ),
    "exploration point caps": lambda v: ExplorationPoint(
        WORKLOAD, TOPOLOGY, 100.0, Scheme.PERF_OPT, dim_caps_gbps=((0, v),)
    ),
    "sweep budgets": lambda v: SweepSpec(
        workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
        bandwidths_gbps=(100.0, v),
    ),
    "sweep caps": lambda v: SweepSpec(
        workloads=(WORKLOAD,), topologies=(TOPOLOGY,),
        bandwidths_gbps=(100.0,), dim_caps_gbps=((0, v),),
    ),
    "optimize warm start": lambda v: OptimizeRequest(
        scenario=SCENARIO, warm_start=(100.0, v)
    ),
    "optimize bandwidths": lambda v: OptimizeRequest(
        scenario=SCENARIO, bandwidths_gbps=(100.0, v)
    ),
    "analyze bandwidths": lambda v: AnalyzeRequest(
        scenario=SCENARIO, bandwidths_gbps=(100.0, v)
    ),
    "costrategy budgets": lambda v: CostrategyRequest(
        workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=(100.0, v)
    ),
    "costrategy caps": lambda v: CostrategyRequest(
        workload=WORKLOAD, topology=TOPOLOGY, budgets_gbps=(100.0,),
        dim_caps_gbps=((0, v),),
    ),
    "min bandwidth": lambda v: ConstraintSet(2, min_bandwidth=v),
    "total bandwidth": lambda v: ConstraintSet(2).with_total_bandwidth(v),
    "dim cap": lambda v: ConstraintSet(2).with_dim_cap(0, v),
    "dim lower bound": lambda v: ConstraintSet(2).with_dim_bounds(0, lower=v),
    "linear row bound": lambda v: ConstraintSet(2).with_linear(
        (1.0, 1.0), upper=v
    ),
    "linear row coefficient": lambda v: ConstraintSet(2).with_linear(
        (v, 1.0), upper=100.0
    ),
    "scenario budget": lambda v: build_scenario(
        TOPOLOGY, [WORKLOAD], total_bw_gbps=v
    ),
    "scenario cap": lambda v: build_scenario(
        TOPOLOGY, [WORKLOAD], total_bw_gbps=300, dim_caps_gbps=((0, v),)
    ),
    "scenario weight": lambda v: build_scenario(
        TOPOLOGY, [(WORKLOAD, v)], total_bw_gbps=300
    ),
    "engine weight": lambda v: Libra(
        MultiDimNetwork.from_notation(TOPOLOGY)
    ).add_workload(build_workload(WORKLOAD, 6), weight=v),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("site", sorted(SITES))
def test_entry_point_rejects_non_finite(site, value):
    with pytest.raises(ConfigurationError, match="finite"):
        SITES[site](value)


def _set_weight(payload, value):
    payload["workloads"][0]["weight"] = value


def _set_total(payload, value):
    payload["constraints"]["total_bandwidth"] = value


def _set_row_bound(payload, value):
    payload["constraints"]["rows"][0]["upper"] = value


def _set_box_bound(payload, value):
    payload["constraints"]["upper_bounds"][0] = value


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize(
    "edit, path",
    [
        (_set_weight, r"workloads\[0\]\.weight"),
        (_set_total, "constraints"),
        (_set_row_bound, "constraints"),
        (_set_box_bound, "constraints"),
    ],
    ids=["weight", "total", "row bound", "box bound"],
)
def test_scenario_payload_error_is_located(edit, path, value):
    payload = SCENARIO.to_dict()
    edit(payload, value)
    with pytest.raises(ScenarioValidationError, match=path) as err:
        Scenario.from_dict(payload)
    assert "finite" in str(err.value)
