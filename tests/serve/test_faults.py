"""Fault-injection harness: REPRO_FAULTS parsing and firing semantics."""

import pytest

from repro.serve import faults
from repro.serve.faults import CRASH_EXIT_CODE, FaultInjected, FaultPlan
from repro.utils.errors import ConfigurationError, TransientError

@pytest.fixture(autouse=True)
def _disarm():
    """Every test starts and ends with no plan armed in this process."""
    faults.configure(None)
    yield
    faults.configure(None)


class TestParsing:
    def test_raise_defaults_to_one_firing(self):
        plan = FaultPlan("raise:worker.solve")
        assert plan.points() == ["worker.solve"]

    def test_comma_separated_directives(self):
        plan = FaultPlan(
            "raise:worker.solve:2, delay:store.fsync=0.01,"
            "crash:store.record.after:3"
        )
        assert plan.points() == [
            "store.fsync", "store.record.after", "worker.solve"
        ]

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:worker.solve",      # unknown action
            "raise:",                     # no point
            "raise:worker.solve:0",       # N must be >= 1
            "delay:store.fsync",          # delay needs =seconds
            "delay:store.fsync=fast",     # non-numeric seconds
            "delay:=0.1",                 # no point
        ],
    )
    def test_malformed_directives_raise(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan(spec)

    def test_empty_parts_are_skipped(self):
        assert FaultPlan("raise:p, ,").points() == ["p"]


class TestFiring:
    def test_unarmed_point_is_a_noop(self):
        faults.configure("raise:other.point")
        faults.fire("worker.solve")  # must not raise

    def test_no_plan_fast_path(self):
        assert faults.active_plan() is None
        faults.fire("worker.solve")  # must not raise

    def test_raise_fires_first_n_times_then_passes(self):
        faults.configure("raise:p:2")
        with pytest.raises(FaultInjected):
            faults.fire("p")
        with pytest.raises(FaultInjected):
            faults.fire("p")
        faults.fire("p")  # third firing passes
        faults.fire("p")

    def test_injected_fault_is_transient(self):
        assert issubclass(FaultInjected, TransientError)

    def test_delay_applies_every_firing(self):
        import time

        faults.configure("delay:p=0.02")
        began = time.monotonic()
        faults.fire("p")
        faults.fire("p")
        assert time.monotonic() - began >= 0.04

    def test_configure_returns_inspectable_plan(self):
        plan = faults.configure("raise:p:1")
        assert plan is faults.active_plan()
        with pytest.raises(FaultInjected):
            faults.fire("p")

    def test_reset_rearms_from_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "raise:from.env")
        faults.configure("raise:other")
        faults.reset()
        assert faults.active_plan().points() == ["from.env"]
        monkeypatch.delenv(faults.FAULTS_ENV)
        faults.reset()
        assert faults.active_plan() is None


class TestCrash:
    def test_crash_directive_kills_the_process(self, procs):
        # os._exit cannot be observed in-process; a child takes the hit.
        script = (
            "from repro.serve import faults\n"
            "faults.configure('crash:p:2')\n"
            "faults.fire('p')\n"   # firing 1: survives
            "faults.fire('p')\n"   # firing 2: os._exit(CRASH_EXIT_CODE)
            "raise SystemExit(0)\n"
        )
        proc = procs.python("-c", script)
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

    def test_env_spec_arms_at_import(self, procs):
        script = (
            "from repro.serve import faults\n"
            "assert faults.active_plan() is not None\n"
            "faults.fire('p')\n"
        )
        proc = procs.python("-c", script, faults="crash:p")
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
