"""What an install ships: the console scripts and the example scenario files."""

import json
from pathlib import Path

import pytest

from repro.api.requests import RESPONSE_SCHEMA_VERSION, OptimizeResponse
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS = sorted((ROOT / "examples" / "scenarios").glob("*.json"))


def test_console_scripts_name_the_cli_entry_point():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["repro"] == "repro.cli:main"
    assert project["scripts"]["repro-libra"] == "repro.cli:main"


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.name)
def test_shipped_scenario_optimizes_to_a_valid_response(path, capsys):
    assert main(["optimize", "--scenario", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == RESPONSE_SCHEMA_VERSION, payload
    response = OptimizeResponse.from_dict(payload)
    assert response.scheme.value == "PerfOptBW"
    assert response.speedup_over_baseline >= 1.0
    num_dims = json.loads(path.read_text())["constraints"]["num_dims"]
    assert len(response.point.bandwidths) == num_dims


def test_scenario_round_trips_through_the_cli(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    assert main([
        "scenario", "--topology", "RI(3)_RI(2)", "--workload", "Turing-NLG",
        "--total-bw", "300", "--output", str(path),
    ]) == 0
    capsys.readouterr()
    assert main(["optimize", "--scenario", str(path), "--json"]) == 0
    json.loads(capsys.readouterr().out)
