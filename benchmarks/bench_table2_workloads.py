"""Table II — workload specifications.

Regenerates the workload registry at 4,096 NPUs and verifies the parameter
counts and TP degrees match the paper's table.
"""

import pytest

from _common import print_header, print_table
from repro.utils import bytes_to_mb
from repro.workloads import TP_SIZES, build_workload

EXPECTED_PARAMS = {
    "Turing-NLG": 17e9,
    "GPT-3": 175e9,
    "MSFT-1T": 1e12,
    "DLRM": 57e6,  # MLP layers only
    "ResNet-50": 25.6e6,
}


def test_table2_workloads(benchmark):
    print_header("Table II — workload specifications (at 4,096 NPUs)")
    rows = []
    for name in EXPECTED_PARAMS:  # the paper's rows, not every preset
        workload = build_workload(name, 4096)
        params = workload.total_params
        if name == "DLRM":
            # Table II counts DLRM's MLP parameters only.
            params = sum(
                layer.param_count
                for layer in workload.layers
                if "mlp" in layer.name
            )
        rows.append(
            (
                name,
                f"{params / 1e9:.3f} B" if params >= 1e9 else f"{params / 1e6:.1f} M",
                workload.parallelism.tp,
                workload.parallelism.dp,
                workload.num_layers,
                f"{bytes_to_mb(workload.total_comm_bytes):,.0f} MB",
            )
        )
        tolerance = 0.05 if name == "DLRM" else 0.02
        assert params == pytest.approx(EXPECTED_PARAMS[name], rel=tolerance)
        assert workload.parallelism.tp == TP_SIZES[name]
    print_table(
        ["workload", "params", "TP", "DP", "layers", "comm/step"], rows
    )

    benchmark(lambda: build_workload("GPT-3", 4096))
