"""Strategy benchmark harness: artifact schema and the per-cell audit."""

import json
from dataclasses import replace

import pytest

import repro.perfbench.harness as harness
from repro.perfbench.harness import BenchEquivalenceError
from repro.perfbench.strategy import (
    STRATEGY_BENCH_SCHEMA_VERSION,
    format_strategy_report,
    quick_strategy_config,
    run_strategy_benchmark,
)

TINY = replace(quick_strategy_config(), repeats=1, label="tiny")


@pytest.fixture(scope="module")
def artifact():
    return run_strategy_benchmark(TINY)


class TestStrategyBenchmark:
    def test_artifact_schema_and_speed_fields(self, artifact):
        assert artifact["schema_version"] == STRATEGY_BENCH_SCHEMA_VERSION == 2
        assert artifact["strategies"] == 2
        assert artifact["cells"] == 6
        assert artifact["errors"] == 0
        assert artifact["wall_s"] > 0
        assert artifact["cells_per_s"] == pytest.approx(
            artifact["cells"] / artifact["wall_s"]
        )
        assert json.dumps(artifact)  # artifact must be JSON-serializable

    def test_every_cell_is_audited(self, artifact):
        assert artifact["audit"]["cells"] == 6
        assert 0.0 <= artifact["audit"]["max_gap"] <= 1e-6

    def test_report_is_human_readable(self, artifact):
        report = format_strategy_report(artifact)
        assert "Turing-NLG" in report
        assert "cells/s" in report
        assert "audit: ok (6 cells certified" in report

    def test_quick_config_is_seconds_scale(self):
        config = quick_strategy_config()
        assert config.quick
        assert config.max_tp == 2
        assert len(config.budgets_gbps) == 3

    def test_audit_fault_raises(self, monkeypatch):
        """A cell that fails the oracle trips the gate, not write numbers."""
        monkeypatch.setattr(
            harness, "audit_solution", lambda *args, **kwargs: ["planted"]
        )
        with pytest.raises(BenchEquivalenceError, match="planted"):
            run_strategy_benchmark(TINY)

    def test_cells_per_second_floor(self, tmp_path, capsys):
        """``--min-cells-per-s`` passes a reachable floor and exits 3 below
        an unreachable one (the artifact is still written)."""
        from repro.cli import main

        output = tmp_path / "BENCH_strategy.json"
        args = ["bench", "--strategy", "--quick", "--output", str(output)]
        assert main(args + ["--min-cells-per-s", "1"]) == 0
        assert main(args + ["--min-cells-per-s", "1e9"]) == 3
        assert "cells/s floor" in capsys.readouterr().err
        assert json.loads(output.read_text())["cells_per_s"] > 1
