"""The string-keyed registries and their resolution helpers."""

import pytest

from repro.api.registry import (
    COMPUTE_MODELS,
    COST_MODELS,
    LOOPS,
    SCHEME_ALIASES,
    TOPOLOGIES,
    WORKLOADS,
    Registry,
    resolve_cost_model,
    resolve_loop,
    resolve_scheme,
    resolve_topology,
    resolve_workload,
)
from repro.core.results import Scheme
from repro.topology.network import MultiDimNetwork
from repro.topology.presets import EVALUATION_TOPOLOGIES, REAL_SYSTEM_TOPOLOGIES
from repro.utils.errors import ConfigurationError
from repro.workloads import build_workload, workload_names


class TestSeededEntries:
    def test_all_preset_topologies_registered(self):
        for name in list(EVALUATION_TOPOLOGIES) + list(REAL_SYSTEM_TOPOLOGIES):
            assert name in TOPOLOGIES
            assert resolve_topology(name).num_npus > 0

    def test_all_table2_workloads_registered(self):
        for name in workload_names():
            assert name in WORKLOADS

    def test_workload_builder_matches_presets(self):
        via_registry = resolve_workload("Turing-NLG", 512)
        via_presets = build_workload("Turing-NLG", 512)
        assert via_registry.canonical() == via_presets.canonical()

    def test_preset_workloads_are_shared(self):
        assert resolve_workload("GPT-3", 512) is resolve_workload("GPT-3", 512)
        assert resolve_workload("GPT-3", 512) is not resolve_workload("GPT-3", 4096)

    def test_default_models_and_loops(self):
        assert resolve_cost_model("table1-default").name == "table1-default"
        assert COMPUTE_MODELS.build("A100-75pct").name == "A100-75pct"
        assert resolve_loop("no-overlap").name == "no-overlap"
        assert resolve_loop("tp-dp-overlap").name == "tp-dp-overlap"
        assert "table1-default" in COST_MODELS
        assert "no-overlap" in LOOPS

    def test_notation_fallback(self):
        network = resolve_topology("RI(3)_RI(2)")
        assert network.num_npus == 6


class TestRegistration:
    def test_decorator_registration_and_teardown(self):
        @TOPOLOGIES.register("test-fabric")
        def _build():
            return MultiDimNetwork.from_notation("RI(4)_SW(4)", name="test-fabric")

        try:
            assert resolve_topology("test-fabric").num_npus == 16
        finally:
            TOPOLOGIES.unregister("test-fabric")
        assert "test-fabric" not in TOPOLOGIES

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            TOPOLOGIES.register("4D-4K", lambda: None)

    def test_overwrite_opt_in(self):
        registry = Registry("thing")
        registry.register("a", lambda: 1)
        registry.register("a", lambda: 2, overwrite=True)
        assert registry.build("a") == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            Registry("thing").register("", lambda: 1)

    def test_reregistered_workload_is_never_stale(self):
        builds = []

        def _first(num_npus):
            builds.append("first")
            return build_workload("Turing-NLG", num_npus)

        def _second(num_npus):
            builds.append("second")
            return build_workload("DLRM", num_npus)

        WORKLOADS.register("memo-test-model", _first)
        try:
            first = resolve_workload("memo-test-model", 512)
            assert resolve_workload("memo-test-model", 512) is first
            WORKLOADS.register("memo-test-model", _second, overwrite=True)
            second = resolve_workload("memo-test-model", 512)
            assert second.name == "DLRM"
            assert resolve_workload("memo-test-model", 512) is second
        finally:
            WORKLOADS.unregister("memo-test-model")
        assert builds == ["first", "second"]

    def test_workload_build_failures_are_not_memoized(self):
        calls = []

        def _broken(num_npus):
            calls.append(num_npus)
            raise ConfigurationError("no such size")

        WORKLOADS.register("memo-broken-model", _broken)
        try:
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="no such size"):
                    resolve_workload("memo-broken-model", 64)
        finally:
            WORKLOADS.unregister("memo-broken-model")
        assert calls == [64, 64]

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            resolve_workload("Nonexistent", 64)

    def test_registered_topology_is_sweepable(self):
        """A user-registered preset works as an explore axis entry."""
        from repro.explore import run_sweep
        from repro.explore.spec import SweepSpec

        @TOPOLOGIES.register("tiny-test-net")
        def _build():
            return MultiDimNetwork.from_notation("RI(3)_RI(2)", name="tiny-test-net")

        try:
            spec = SweepSpec(
                workloads=("Turing-NLG",),
                topologies=("tiny-test-net",),
                bandwidths_gbps=(100.0,),
            )
            sweep = run_sweep(spec)
            assert sweep.results[0].ok
        finally:
            TOPOLOGIES.unregister("tiny-test-net")


class TestSchemeAliases:
    def test_aliases(self):
        assert resolve_scheme("perf") is Scheme.PERF_OPT
        assert resolve_scheme("perf-per-cost") is Scheme.PERF_PER_COST_OPT
        assert resolve_scheme("equal") is Scheme.EQUAL_BW
        assert resolve_scheme("PerfOptBW") is Scheme.PERF_OPT
        assert resolve_scheme(Scheme.EQUAL_BW) is Scheme.EQUAL_BW

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            resolve_scheme("fastest")

    def test_backwards_compatible_reexport(self):
        """The historical import site must keep working."""
        from repro.explore.spec import SCHEME_ALIASES as legacy
        from repro.explore.spec import resolve_scheme as legacy_resolve

        assert legacy is SCHEME_ALIASES
        assert legacy_resolve is resolve_scheme
