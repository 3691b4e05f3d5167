"""Every shipped example runs to completion from the source tree.

Each ``examples/*.py`` runs as its own Python child, exactly as its
docstring tells a reader to run it, and must exit 0.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import SRC, Processes

EXAMPLES = sorted((SRC.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(path: Path, tmp_path: Path):
    run = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path,
        env=Processes.env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
