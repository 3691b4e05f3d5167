"""Sweep benchmark harness: artifact schema and the per-cell audit."""

import json

import pytest

import repro.perfbench.harness as harness
from repro.perfbench.harness import BenchEquivalenceError
from repro.perfbench.sweep import (
    SWEEP_BENCH_SCHEMA_VERSION,
    SweepBenchConfig,
    format_sweep_report,
    quick_sweep_config,
    run_sweep_benchmark,
)

TINY = SweepBenchConfig(
    workloads=("Turing-NLG",),
    topology="RI(3)_RI(2)",
    budgets_gbps=(100.0, 200.0, 300.0),
    schemes=("perf", "perf-per-cost"),
    repeats=1,
    label="tiny",
)


@pytest.fixture(scope="module")
def artifact():
    return run_sweep_benchmark(TINY)


class TestSweepBenchmark:
    def test_artifact_schema_and_speed_fields(self, artifact):
        assert artifact["schema_version"] == SWEEP_BENCH_SCHEMA_VERSION == 2
        assert artifact["cells"] == 6
        assert artifact["errors"] == 0
        assert artifact["chains"] == 2
        assert artifact["wall_s"] > 0
        assert artifact["cells_per_s"] == pytest.approx(6 / artifact["wall_s"])
        assert json.dumps(artifact)  # artifact must be JSON-serializable

    def test_every_cell_is_audited(self, artifact):
        assert artifact["audit"]["cells"] == 6
        assert 0.0 <= artifact["audit"]["max_gap"] <= 1e-6

    def test_report_is_human_readable(self, artifact):
        report = format_sweep_report(artifact)
        assert "cells/s" in report
        assert "audit: ok (6 cells certified" in report
        assert "Turing-NLG" in report

    def test_quick_config_is_seconds_scale(self):
        config = quick_sweep_config()
        assert config.quick
        assert config.topology == "3D-512"
        assert len(config.budgets_gbps) >= 4  # enough cells to amortize

    def test_audit_fault_raises(self, monkeypatch):
        """A cell that fails the oracle trips the gate, not write numbers."""
        monkeypatch.setattr(
            harness, "audit_solution", lambda *args, **kwargs: ["planted"]
        )
        with pytest.raises(BenchEquivalenceError, match="planted"):
            run_sweep_benchmark(TINY)

    def test_uncertified_cell_fails_the_gate(self, monkeypatch):
        """An answer the solver cannot certify is an error row, and an
        error row fails the audit instead of dropping out of it."""
        import repro.core.solver as solver

        monkeypatch.setattr(solver, "CERTIFIED_GAP", -1.0)
        with pytest.raises(BenchEquivalenceError, match="no answer"):
            run_sweep_benchmark(TINY)

    def test_cells_per_second_floor(self, tmp_path, capsys):
        """``--min-cells-per-s`` passes a reachable floor and exits 3 below
        an unreachable one (the artifact is still written)."""
        from repro.cli import main

        output = tmp_path / "BENCH_sweep.json"
        args = ["bench", "--sweep", "--quick", "--output", str(output)]
        assert main(args + ["--min-cells-per-s", "1"]) == 0
        assert main(args + ["--min-cells-per-s", "1e9"]) == 3
        assert "cells/s floor" in capsys.readouterr().err
        assert json.loads(output.read_text())["cells_per_s"] > 1
