"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serve.faults import FAULTS_ENV
from repro.topology import MultiDimNetwork, get_topology
from repro.utils import gbps

#: The package source tree: child processes import ``repro`` from here,
#: so the suite needs no ``pip install``.
SRC = Path(__file__).resolve().parents[1] / "src"

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


@pytest.fixture
def net_2d() -> MultiDimNetwork:
    """A tiny 3×2 network — the Fig. 8 walkthrough shape."""
    return MultiDimNetwork.from_notation("RI(3)_RI(2)")


@pytest.fixture
def net_3d() -> MultiDimNetwork:
    """A small 3D mixed-block network (24 NPUs)."""
    return MultiDimNetwork.from_notation("RI(4)_FC(3)_SW(2)")


@pytest.fixture
def net_4d_4k() -> MultiDimNetwork:
    """The paper's representative 4D-4K topology (Table III)."""
    return get_topology("4D-4K")


@pytest.fixture
def net_3d_4k() -> MultiDimNetwork:
    """The paper's 3D-4K topology (Table III)."""
    return get_topology("3D-4K")


@pytest.fixture
def equal_bw_500() -> list[float]:
    """EqualBW split of 500 GB/s over 4 dimensions."""
    return [gbps(125.0)] * 4


# -- child processes ---------------------------------------------------------


class Server:
    """One live ``repro serve`` child process.

    Attributes:
        url: Base URL the server printed in its ``listening on`` line.
        log_path: The child's combined stdout and stderr.
    """

    def __init__(self, processes, flags, proc, url, log_path):
        self._processes = processes
        self.flags = flags
        self.proc = proc
        self.url = url
        self.log_path = log_path

    @property
    def log(self) -> str:
        return self.log_path.read_text()

    def get(self, path: str) -> tuple[int, str]:
        """``GET path``: the status code and the body text, errors included."""
        try:
            with urllib.request.urlopen(self.url + path, timeout=30) as reply:
                return reply.status, reply.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        assert status == 200, (path, status, body)
        return json.loads(body)

    def metrics(self) -> tuple[set[str], dict[str, float]]:
        """Scrape ``/v3/metrics``: the ``# TYPE``d family names, and each
        series (name plus labels, as printed) mapped to its value."""
        status, text = self.get("/v3/metrics")
        assert status == 200, text
        families: set[str] = set()
        samples: dict[str, float] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                families.add(line.split()[2])
            elif line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                samples[series] = float(value)
        return families, samples

    def wait_for_cells(self, job_id: str, cells: int) -> int:
        """Poll the job's event log until ``cells`` cells landed.

        Returns the resume cursor: one past the last event seen.
        """
        from repro.serve.client import ServeClient

        client = ServeClient(self.url, timeout=30)
        cursor = 0
        seen = 0
        deadline = time.monotonic() + 600
        while seen < cells:
            assert time.monotonic() < deadline, f"{seen} of {cells} cells"
            for event in client.events(job_id, after=cursor):
                cursor = event.seq + 1
                if event.kind == "cell":
                    seen += 1
            time.sleep(0.05)
        return cursor

    def kill(self) -> None:
        """SIGKILL: nothing flushes and no handler runs."""
        self.proc.kill()
        self.proc.wait(timeout=30)

    def restart(self) -> "Server":
        """SIGKILL this server, then boot its flags on a fresh port, with
        no injected faults."""
        self.kill()
        return self._processes.serve(*self.flags)


class Processes:
    """Starts Python children from the source tree; reaps them at close.

    Children get ``PYTHONPATH`` pointing at :data:`SRC` and an explicit
    ``REPRO_FAULTS`` spec (or none), never the parent's.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._started: list[tuple[subprocess.Popen, Path]] = []

    @staticmethod
    def env(faults: str | None = None) -> dict[str, str]:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop(FAULTS_ENV, None)
        if faults:
            env[FAULTS_ENV] = faults
        return env

    def python(
        self, *args: str, faults: str | None = None
    ) -> subprocess.CompletedProcess:
        """Run ``python ARGS`` to completion, capturing its output as text."""
        return subprocess.run(
            [sys.executable, *args],
            env=self.env(faults),
            capture_output=True,
            text=True,
            timeout=300,
        )

    def serve(
        self,
        *flags: str,
        state_dir: Path | None = None,
        faults: str | None = None,
    ) -> Server:
        """Boot ``repro serve --port 0 FLAGS`` and wait until it listens."""
        if state_dir is not None:
            flags = (*flags, "--state-dir", str(state_dir))
        log_path = self.workdir / f"serve-{len(self._started)}.log"
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [
                    sys.executable, "-u", "-c",
                    "import sys; from repro.cli import main; sys.exit(main())",
                    "serve", "--port", "0", *flags,
                ],
                env=self.env(faults),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self._started.append((proc, log_path))
        deadline = time.monotonic() + 60
        while True:
            match = _LISTENING.search(log_path.read_text())
            if match:
                break
            assert proc.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, log_path.read_text()
            time.sleep(0.05)
        return Server(self, flags, proc, match.group(1), log_path)

    def close(self) -> None:
        for proc, log_path in self._started:
            proc.kill()  # a no-op once the child has exited
            proc.wait(timeout=30)
            # Teardown output is shown only when the test failed.
            print(f"--- {log_path.name} ---\n{log_path.read_text()}")


@pytest.fixture
def procs(tmp_path):
    """Children started for one test, all reaped when it ends."""
    processes = Processes(tmp_path)
    try:
        yield processes
    finally:
        processes.close()


@pytest.fixture(scope="module")
def module_procs(tmp_path_factory):
    """Children shared by one test module, all reaped when it ends."""
    processes = Processes(tmp_path_factory.mktemp("procs"))
    try:
        yield processes
    finally:
        processes.close()
