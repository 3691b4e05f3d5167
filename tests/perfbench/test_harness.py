"""The perf harness: artifact schema, optimality-oracle gate, CLI wiring."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.perfbench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    format_report,
    quick_config,
    run_benchmarks,
    write_artifact,
)
from repro.perfbench import harness
from repro.perfbench.harness import BenchEquivalenceError

#: Tiny 6-NPU configuration so the whole harness runs in ~a second.
TINY = BenchConfig(
    workloads=("Turing-NLG",),
    topology="RI(3)_RI(2)",
    total_bw_gbps=100.0,
    repeats=1,
    sweep_budgets_gbps=(80.0, 100.0),
    label="test",
)


@pytest.fixture(scope="module")
def artifact():
    return run_benchmarks(TINY)


class TestArtifact:
    def test_schema(self, artifact):
        assert artifact["schema_version"] == BENCH_SCHEMA_VERSION
        assert artifact["config"]["workloads"] == ["Turing-NLG"]
        names = [bench["name"] for bench in artifact["benchmarks"]]
        assert names == [
            "solver_perf", "solver_perf_per_cost", "compile_memo", "sweep",
        ]

    def test_solver_records(self, artifact):
        for bench in artifact["benchmarks"][:2]:
            assert set(bench) == {
                "name", "vectorized_cold_s", "vectorized_warm_s", "objective",
            }
            assert bench["vectorized_cold_s"] > 0
            assert bench["vectorized_warm_s"] > 0
            assert bench["objective"] > 0

    def test_memo_and_sweep_records(self, artifact):
        memo = artifact["benchmarks"][2]
        assert memo["warm_s"] <= memo["cold_s"]
        sweep = artifact["benchmarks"][3]
        assert sweep["cells"] == 2
        assert sweep["cold_errors"] == 0
        assert sweep["warm_cache_hits"] == 2

    def test_written_artifact_round_trips(self, artifact, tmp_path):
        path = tmp_path / "BENCH_solver.json"
        write_artifact(str(path), artifact)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(artifact)
        )

    def test_report_mentions_every_benchmark(self, artifact):
        report = format_report(artifact)
        for bench in artifact["benchmarks"]:
            assert bench["name"] in report


class TestOracleGate:
    def test_suboptimal_answer_fails_the_gate(self, monkeypatch):
        """A feasible answer the certificate can improve never reaches
        the artifact."""
        solve = harness.minimize_training_time

        def skewed(expression, constraints, **kwargs):
            result = solve(expression, constraints, **kwargs)
            point = np.asarray(result.bandwidths)
            shift = 0.2 * point[0]
            point[0] -= shift
            point[1] += shift
            return replace(
                result,
                bandwidths=tuple(point),
                objective=float(expression.evaluate(point)),
            )

        monkeypatch.setattr(harness, "minimize_training_time", skewed)
        with pytest.raises(BenchEquivalenceError, match="not certified"):
            harness.bench_solver(TINY)


class TestQuickConfig:
    def test_quick_is_flagged(self):
        config = quick_config()
        assert config.quick and config.repeats == 1


class TestCli:
    def test_bench_subcommand_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "BENCH_solver.json"
        code = main(
            [
                "bench", "--workload", "Turing-NLG", "--topology", "RI(3)_RI(2)",
                "--total-bw", "100", "--repeats", "1",
                "--output", str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert "solver_perf_per_cost" in capsys.readouterr().out
