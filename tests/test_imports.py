"""Start-up cost: importing the CLI loads no module it does not need.

``scipy.optimize`` (HiGHS, for the feasibility LP) and ``networkx`` (the
physical link graph) are imported on first use, so ``import repro.cli`` —
every ``repro`` process — pays for neither. The check is on the module
set, not on a time.
"""

import json


def test_cli_import_loads_neither_scipy_optimize_nor_networkx(procs):
    done = procs.python(
        "-c",
        "import json, sys, repro.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'networkx' or m.startswith('scipy.optimize'))))",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_first_use_imports_them(procs):
    """The lazy imports are real: an LP or a graph build loads them."""
    done = procs.python(
        "-c",
        "import sys\n"
        "from repro.core import ConstraintSet\n"
        "from repro.topology import get_topology\n"
        "from repro.topology.graph import build_graph\n"
        "ConstraintSet(2).with_total_bandwidth(1e11).find_feasible_point()\n"
        "network = get_topology('Google TPUv2')\n"
        "build_graph(network, [1e11] * network.num_dims)\n"
        "print('scipy.optimize' in sys.modules, 'networkx' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]
