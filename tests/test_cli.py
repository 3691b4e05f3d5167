"""Command-line interface."""

import pytest

from repro.cli import main
from repro.workloads import build_workload, serialize_workload


class TestListing:
    def test_topologies(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "4D-4K" in out and "RI(4)_FC(8)_RI(4)_SW(32)" in out
        assert "Google TPUv4" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "GPT-3" in out and "MSFT-1T" in out


class TestOptimize:
    def test_perf_opt(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "4D-4K",
                "--workload", "GPT-3",
                "--total-bw", "500",
                "--scheme", "perf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PerfOptBW" in out
        assert "speedup over EqualBW" in out

    def test_with_cap(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "4D-4K",
                "--workload", "MSFT-1T",
                "--total-bw", "500",
                "--cap", "3:50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The capped dimension shows up at (or under) 50 GB/s.
        first_line = out.splitlines()[0]
        last_bw = float(first_line.split("[")[1].split("]")[0].split(",")[-1])
        assert last_bw <= 50.0 * 1.001

    def test_custom_notation_topology(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "RI(8)_SW(8)",
                "--workload", "Turing-NLG",
                "--total-bw", "300",
            ]
        )
        assert code == 0

    def test_workload_file(self, tmp_path, capsys):
        workload = build_workload("GPT-3", 4096)
        path = tmp_path / "w.workload"
        path.write_text(serialize_workload(workload))
        code = main(
            [
                "optimize",
                "--topology", "4D-4K",
                "--workload-file", str(path),
                "--total-bw", "400",
            ]
        )
        assert code == 0

    def test_size_mismatch_is_clean_error(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "3D-512",
                "--workload", "MSFT-1T",  # TP-128 does not divide 512... it does; use wrong NPUs
                "--total-bw", "400",
            ]
        )
        # MSFT-1T TP=128 divides 512, so this actually optimizes fine; use
        # a genuinely impossible combination instead:
        code = main(
            [
                "optimize",
                "--topology", "RI(6)_SW(6)",
                "--workload", "GPT-3",
                "--total-bw", "400",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestOptimizeApi:
    def test_json_output_is_valid_response(self, capsys):
        import json

        from repro.api.requests import RESPONSE_SCHEMA_VERSION, OptimizeResponse

        code = main(
            [
                "optimize",
                "--topology", "RI(3)_RI(2)",
                "--workload", "Turing-NLG",
                "--total-bw", "300",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == RESPONSE_SCHEMA_VERSION
        response = OptimizeResponse.from_dict(payload)
        assert response.speedup_over_baseline >= 1.0

    def test_scenario_file_input(self, tmp_path, capsys):
        from repro.api import build_scenario, save_scenario

        path = tmp_path / "s.json"
        save_scenario(
            build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300), path
        )
        code = main(["optimize", "--scenario", str(path)])
        assert code == 0
        assert "PerfOptBW" in capsys.readouterr().out

    def test_scenario_without_budget_takes_total_bw(self, tmp_path, capsys):
        from repro.api import build_scenario, save_scenario

        path = tmp_path / "s.json"
        save_scenario(build_scenario("RI(3)_RI(2)", ["Turing-NLG"]), path)
        assert main(["optimize", "--scenario", str(path)]) == 2
        assert "no total-bandwidth budget" in capsys.readouterr().err
        assert main(["optimize", "--scenario", str(path), "--total-bw", "300"]) == 0

    def test_budget_flag_keeps_scenario_caps(self, tmp_path, capsys):
        """A caps-only scenario plus --total-bw must honour both."""
        import json

        from repro.api import build_scenario, save_scenario
        from repro.core import ConstraintSet
        from repro.utils import gbps

        path = tmp_path / "s.json"
        save_scenario(
            build_scenario(
                "RI(3)_RI(2)", ["Turing-NLG"],
                constraints=ConstraintSet(2).with_dim_cap(0, gbps(40)),
            ),
            path,
        )
        code = main(
            ["optimize", "--scenario", str(path), "--total-bw", "300", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        bandwidths = payload["point"]["bandwidths"]
        assert bandwidths[0] <= 40e9 * 1.001
        assert sum(bandwidths) == pytest.approx(300e9)

    def test_budget_flag_on_budgeted_scenario_is_clean_error(
        self, tmp_path, capsys
    ):
        from repro.api import build_scenario, save_scenario

        path = tmp_path / "s.json"
        save_scenario(
            build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300), path
        )
        assert main(
            ["optimize", "--scenario", str(path), "--total-bw", "400"]
        ) == 2
        assert "already carries a total-bandwidth budget" in (
            capsys.readouterr().err
        )

    def test_wrong_length_constraint_row_is_clean_error(self, tmp_path, capsys):
        import json

        from repro.api import build_scenario, save_scenario

        path = tmp_path / "s.json"
        save_scenario(
            build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300), path
        )
        payload = json.loads(path.read_text())
        payload["constraints"]["rows"][0]["coeffs"] = [1.0]
        path.write_text(json.dumps(payload))
        assert main(["optimize", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "coefficients" in err and "Traceback" not in err

    def test_scenario_plus_target_flags_is_clean_error(self, tmp_path, capsys):
        from repro.api import build_scenario, save_scenario

        path = tmp_path / "s.json"
        save_scenario(
            build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300), path
        )
        code = main(
            ["optimize", "--scenario", str(path), "--topology", "4D-4K"]
        )
        assert code == 2
        assert "replaces the target flags" in capsys.readouterr().err

    def test_malformed_scenario_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1}')
        assert main(["optimize", "--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_cap_is_clean_error(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "RI(3)_RI(2)",
                "--workload", "Turing-NLG",
                "--total-bw", "300",
                "--cap", "one:fifty",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed cap" in err and "Traceback" not in err

    def test_unknown_workload_is_clean_error(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "RI(3)_RI(2)",
                "--workload", "GPT-9000",
                "--total-bw", "300",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "Traceback" not in err

    def test_unknown_topology_is_clean_error(self, capsys):
        code = main(
            [
                "optimize",
                "--topology", "XX(8)",
                "--workload", "Turing-NLG",
                "--total-bw", "300",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_missing_target_is_clean_error(self, capsys):
        assert main(["optimize", "--total-bw", "300"]) == 2
        assert "either --scenario or --topology" in capsys.readouterr().err

    def test_missing_budget_is_clean_error(self, capsys):
        code = main(
            ["optimize", "--topology", "RI(3)_RI(2)", "--workload", "Turing-NLG"]
        )
        assert code == 2
        assert "--total-bw is required" in capsys.readouterr().err


class TestScenarioCommand:
    def test_writes_loadable_scenario(self, tmp_path, capsys):
        from repro.api import load_scenario

        path = tmp_path / "out.json"
        code = main(
            [
                "scenario",
                "--topology", "RI(3)_RI(2)",
                "--workload", "Turing-NLG",
                "--total-bw", "300",
                "--cap", "1:60",
                "--output", str(path),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        scenario = load_scenario(path)
        assert scenario.constraints.total_bandwidth == 300e9
        assert main(["optimize", "--scenario", str(path)]) == 0

    def test_stdout_json(self, capsys):
        import json

        code = main(
            ["scenario", "--topology", "RI(3)_RI(2)", "--workload", "Turing-NLG"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1


class TestSweep:
    def test_sweep_rows(self, capsys):
        code = main(
            [
                "sweep",
                "--topology", "3D-4K",
                "--workload", "GPT-3",
                "--bw", "200",
                "--bw", "600",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "200" in out and "600" in out

    def test_sweep_json(self, capsys):
        import json

        code = main(
            [
                "sweep",
                "--topology", "RI(3)_RI(2)",
                "--workload", "Turing-NLG",
                "--bw", "200",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["total_bw_gbps"] == 200
        assert payload[0]["perf"]["point"]["scheme"] == "PerfOptBW"
        assert payload[0]["perf_per_cost"]["point"]["scheme"] == "PerfPerCostOptBW"


class TestExplore:
    ARGS = [
        "explore",
        "--workload", "Turing-NLG",
        "--topology", "RI(3)_RI(2)",
        "--bw", "100",
        "--bw", "300",
        "--scheme", "perf",
    ]

    def test_grid_runs_and_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(self.ARGS + ["--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "solver calls: 2" in out
        import json

        artifact = json.loads(out_path.read_text())
        assert len(artifact["sweep"]["results"]) == 2
        assert artifact["pareto"]["x"] == "network_cost"
        assert artifact["sweep"]["num_errors"] == 0

    def test_cached_rerun_reports_all_hits(self, tmp_path, capsys):
        cache_args = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(cache_args) == 0
        capsys.readouterr()
        assert main(cache_args) == 0
        out = capsys.readouterr().out
        assert "100.0% hit rate" in out
        assert "solver calls: 0" in out
        assert "(cached)" in out

    def test_spec_file(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "workloads": ["Turing-NLG"],
            "topologies": ["RI(3)_RI(2)"],
            "bandwidths_gbps": [100],
        }))
        code = main(["explore", "--spec", str(spec_path), "--progress"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[1/1]" in out and "solved" in out

    def test_parallel_workers(self, capsys):
        assert main(self.ARGS + ["--workers", "2"]) == 0
        assert "solver calls: 2" in capsys.readouterr().out

    def test_profile_prints_stage_timings(self, capsys):
        assert main(self.ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "sweep profile:" in out
        assert "cache lookup:" in out
        assert "(1 chains)" in out

    def test_error_rows_do_not_abort(self, capsys):
        # GPT-3 cannot map onto 6 NPUs: its rows error, the sweep continues.
        code = main(self.ARGS + ["--workload", "GPT-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ERROR: MappingError" in out
        assert "errors: 2" in out

    def test_all_errors_exit_nonzero(self, capsys):
        code = main([
            "explore",
            "--workload", "GPT-3",
            "--topology", "RI(3)_RI(2)",
            "--bw", "100",
        ])
        assert code == 2

    def test_missing_axes_is_clean_error(self, capsys):
        assert main(["explore", "--workload", "GPT-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_plus_axis_flags_is_clean_error(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "workloads": ["Turing-NLG"],
            "topologies": ["RI(3)_RI(2)"],
            "bandwidths_gbps": [100],
        }))
        # Flags alongside --spec would be silently ignored; reject instead.
        assert main(["explore", "--spec", str(spec_path), "--bw", "999"]) == 2
        assert "replaces the axis flags" in capsys.readouterr().err

    def test_malformed_pareto_is_clean_error(self, capsys):
        assert main(self.ARGS + ["--pareto", "network_cost"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--topology", "4D-4K",
                "--workload", "GPT-3",
                "--bandwidths", "225,138,104,33",
                "--chunks", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "step time" in out and "aggregate BW utilization" in out

    def test_themis_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--topology", "4D-4K",
                "--workload", "GPT-3",
                "--bandwidths", "125,125,125,125",
                "--chunks", "4",
                "--themis",
            ]
        )
        assert code == 0

    def test_wrong_bandwidth_count(self, capsys):
        code = main(
            [
                "simulate",
                "--topology", "4D-4K",
                "--workload", "GPT-3",
                "--bandwidths", "125,125",
            ]
        )
        assert code == 2


class TestCost:
    def test_fig12_example_via_cli(self, capsys):
        code = main(["cost", "--topology", "4D-4K", "--bandwidths", "125,125,125,125"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total network cost" in out
        assert "pod" in out

    def test_cost_json(self, capsys):
        import json

        code = main(
            ["cost", "--topology", "4D-4K", "--bandwidths", "125,125,125,125",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["dims"]) == 4
        assert payload["total"] == pytest.approx(
            sum(entry["total"] for entry in payload["dims"])
        )

    def test_bad_topology(self, capsys):
        code = main(["cost", "--topology", "XX(2)", "--bandwidths", "1"])
        assert code == 2


class TestStdinScenario:
    """`--scenario -` reads the scenario payload from stdin (satellite)."""

    def _pipe(self, monkeypatch, text: str) -> None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_optimize_from_stdin(self, monkeypatch, capsys):
        import json

        from repro.api import build_scenario

        scenario = build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300)
        self._pipe(monkeypatch, json.dumps(scenario.to_dict()))
        assert main(["optimize", "--scenario", "-"]) == 0
        assert "PerfOptBW" in capsys.readouterr().out

    def test_invalid_json_on_stdin_exits_2(self, monkeypatch, capsys):
        self._pipe(monkeypatch, "this is not json")
        assert main(["optimize", "--scenario", "-"]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err

    def test_malformed_payload_reports_located_path(self, monkeypatch, capsys):
        import json

        from repro.api import build_scenario

        payload = build_scenario(
            "RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300
        ).to_dict()
        payload["workloads"][0]["weight"] = -1
        self._pipe(monkeypatch, json.dumps(payload))
        assert main(["optimize", "--scenario", "-"]) == 2
        err = capsys.readouterr().err
        assert "workloads[0].weight" in err  # the located validation path

    def test_non_object_payload_exits_2(self, monkeypatch, capsys):
        self._pipe(monkeypatch, "[1, 2, 3]")
        assert main(["optimize", "--scenario", "-"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_submit_accepts_stdin_too(self, monkeypatch, capsys):
        import json

        from repro.api import build_scenario

        scenario = build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300)
        self._pipe(monkeypatch, json.dumps(scenario.to_dict()))
        assert main(["submit", "--scenario", "-"]) == 0
        assert "PerfOptBW" in capsys.readouterr().out


class TestSubmitCommand:
    """`repro submit` without --url runs through an in-process job queue."""

    def _scenario_file(self, tmp_path):
        from repro.api import build_scenario, save_scenario

        path = tmp_path / "s.json"
        save_scenario(
            build_scenario("RI(3)_RI(2)", ["Turing-NLG"], total_bw_gbps=300), path
        )
        return str(path)

    def test_local_submit_matches_optimize(self, tmp_path, capsys):
        import json

        path = self._scenario_file(tmp_path)
        assert main(["optimize", "--scenario", path, "--json"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(["submit", "--scenario", path, "--json"]) == 0
        queued = json.loads(capsys.readouterr().out)
        assert queued == direct  # same scenario file, identical payloads

    def test_local_submit_events_go_to_stderr(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        assert main(["submit", "--scenario", path, "--events"]) == 0
        captured = capsys.readouterr()
        assert "PerfOptBW" in captured.out
        assert "state" in captured.err and "running" in captured.err

    def test_local_no_wait_is_clean_error(self, tmp_path, capsys):
        """--no-wait only makes sense against a server that outlives us."""
        path = self._scenario_file(tmp_path)
        assert main(["submit", "--scenario", path, "--no-wait"]) == 2
        assert "requires --url" in capsys.readouterr().err

    def test_local_batch_submit_via_spec(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "workloads": ["Turing-NLG"],
            "topologies": ["RI(3)_RI(2)"],
            "bandwidths_gbps": [100, 300],
        }))
        code = main([
            "submit", "--spec", str(spec_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells: 2" in out and "solver calls: 2" in out

    def test_spec_plus_scenario_is_clean_error(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        code = main(["submit", "--spec", str(spec_path), "--scenario", path])
        assert code == 2
        assert "batch job" in capsys.readouterr().err

    def test_spec_plus_constraint_flags_is_clean_error(self, tmp_path, capsys):
        """--total-bw/--cap/--scheme must never be silently dropped."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        for flags in (["--total-bw", "500"], ["--cap", "0:50"],
                      ["--scheme", "perf"]):
            code = main(["submit", "--spec", str(spec_path), *flags])
            assert code == 2
            assert "spec file" in capsys.readouterr().err

    def test_batch_flags_without_spec_are_clean_errors(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        for flags in (["--cache-dir", str(tmp_path / "c")],
                      ["--batch-workers", "4"]):
            code = main(["submit", "--scenario", path, *flags])
            assert code == 2
            assert "add --spec" in capsys.readouterr().err

    def test_missing_target_is_clean_error(self, capsys):
        assert main(["submit"]) == 2
        assert "error:" in capsys.readouterr().err
