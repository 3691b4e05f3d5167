"""The three benchmark workloads: seeded request streams and their loops.

Every workload is a closed loop: each caller waits for its reply before it
sends the next request. Streams are pure functions of ``(seed, caller)``;
the program only ever sees the generated requests.

Each workload has a *solve* kind (the request that computes new design
points) and a *read* kind (a bottleneck analysis of a point that is
already solved), so every end-to-end metric applies to every workload:

* ``serve-mixed``: optimize jobs over HTTP (solve) and ``GET /v3/analyze``
  on cells a batch job swept during set-up (read), from two clients.
* ``sweep-grid``: 96-cell ``BatchRequest`` grids (solve), each followed by
  in-process analyze requests on four of the cells it just swept (read).
* ``costrategy``: ``CostrategyRequest`` searches on 3-D 512-NPU fabrics the
  process has not seen (solve), each followed by an analyze request on the
  frontier's winner at one of its budgets (read).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import tempfile
import threading
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode
from urllib.request import urlopen

from layers import ANALYZE_GET
from report import peak_rss_mb
from repro.api.requests import (
    AnalyzeRequest,
    BatchRequest,
    CostrategyRequest,
    OptimizeRequest,
)
from repro.api.scenario import Scenario, build_scenario
from repro.api.service import LibraService
from repro.core.constraints import ConstraintSet
from repro.core.results import Scheme
from repro.explore.spec import ExplorationPoint, SweepSpec
from repro.serve import JobManager, ServeClient, create_server
from repro.serve.client import ServeClientError
from repro.serve.store import JobStore
from repro.strategy.space import StrategySpace
from repro.utils.errors import ReproError
from repro.utils.units import gbps

PERF = Scheme.PERF_OPT
PPC = Scheme.PERF_PER_COST_OPT
SCHEME_PARAM = {PERF: "perf", PPC: "perf-per-cost"}

#: Answer checks: EqualBW is feasible for every cell, so an optimum may not
#: lose to it; a budget may not be overspent.
GAIN_FLOOR = 1.0 - 1e-9
BUDGET_SLACK = 1.0 + 1e-6


@dataclass
class Tally:
    """What one caller observed over one measured phase."""

    latencies_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"solve": [], "read": []}
    )
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    cells: int = 0
    counts: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    #: (perf_counter at completion, cells, kind) per completed request.
    completions: list[tuple[float, int, str]] = field(default_factory=list)

    def done(self, kind: str, elapsed_ms: float, cells: int = 0) -> None:
        self.completed += 1
        self.cells += cells
        self.latencies_ms[kind].append(elapsed_ms)
        self.completions.append((time.perf_counter(), cells, kind))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def merge(self, other: "Tally") -> None:
        for kind, samples in other.latencies_ms.items():
            self.latencies_ms.setdefault(kind, []).extend(samples)
        self.attempted += other.attempted
        self.completed += other.completed
        self.failed += other.failed
        self.cells += other.cells
        self.counts.update(other.counts)
        self.failures.extend(other.failures[: 5 - len(self.failures)])
        self.completions = sorted(self.completions + other.completions)


class Prefix:
    """Answer quality and peak memory over a fixed count of requests at the
    head of a stream.

    Both are read over the same requests on every run of a seed: the timed
    loop records them while it is inside the prefix, and the workload's
    ``finish_prefix`` solves what a short or slow run left of it, untimed.
    Peak memory is sampled the moment the prefix is complete, so it covers
    real solve traffic but not the rest of the run, whose length grows with
    throughput (the serve job table keeps every finished job).
    """

    def __init__(self, length: int):
        self.length = length
        self.perf_gains: list[float] = []
        self.ppc_gains: list[float] = []
        self.peak_rss_mb = math.nan

    def record(self, scheme: Scheme, perf_gain: float, ppc_gain: float) -> None:
        """Keep the gain of the scheme's own objective over EqualBW."""
        if scheme is PERF:
            self.perf_gains.append(perf_gain)
        else:
            self.ppc_gains.append(ppc_gain)

    def record_rows(self, rows) -> None:
        for row in rows:
            self.record(
                row.point.scheme, row.speedup_over_equal, row.ppc_gain_over_equal
            )

    def complete(self) -> None:
        self.peak_rss_mb = peak_rss_mb()


# -- answer checks ---------------------------------------------------------------


def check_bandwidths(bandwidths, budget: float) -> str:
    """Empty when the bandwidths are non-negative and within budget."""
    if min(bandwidths) < 0:
        return f"negative bandwidth in {bandwidths}"
    if sum(bandwidths) > budget * BUDGET_SLACK:
        return f"bandwidths sum {sum(bandwidths)} over budget {budget}"
    return ""


def check_gain(scheme: Scheme, perf_gain: float, ppc_gain: float) -> str:
    """Empty when the scheme's own objective beats EqualBW."""
    gain = perf_gain if scheme is PERF else ppc_gain
    if not gain >= GAIN_FLOOR:
        return f"{scheme.value} gain over EqualBW {gain} < 1"
    return ""


def check_rows(rows) -> str:
    """Empty when every sweep/search row is solved and passes both checks."""
    for row in rows:
        problem = row.error or check_bandwidths(
            row.bandwidths_gbps, row.point.total_bw_gbps
        ) or check_gain(
            row.point.scheme, row.speedup_over_equal, row.ppc_gain_over_equal
        )
        if problem:
            return f"{row.point.label()}: {problem}"
    return ""


def _fresh_budgets(rng: random.Random, seen: set, count: int, tag: int = 0):
    """``count`` budgets (GB/s) never drawn before from this stream.

    Budgets carry two decimals plus ``tag`` thousandths, so streams with
    different tags never collide and none is an integer (set-up requests
    use integer budgets).
    """
    budgets = []
    while len(budgets) < count:
        budget = rng.randrange(20_000, 100_000) / 100 + (tag + 1) / 1000
        if budget not in seen:
            seen.add(budget)
            budgets.append(budget)
    return tuple(sorted(budgets))


# -- serve-mixed -----------------------------------------------------------------

SERVE_TEMPLATES = (
    ("GPT-3", "4D-4K", PERF),
    ("GPT-3", "4D-4K", PPC),
    ("Turing-NLG", "3D-512", PERF),
    ("Turing-NLG", "3D-512", PPC),
)
SERVE_CLIENTS = 2
#: 40 % of each client's requests are analyze GETs.
SERVE_PATTERN = ("optimize", "analyze", "optimize", "analyze", "optimize")
#: Requests of each client's stream whose answers feed the quality metrics
#: (24 optimizes, six per template). A fixed prefix of the stream keeps
#: those metrics a pure function of the seed; the same holds below.
SERVE_QUALITY_PREFIX = 40
#: Above any run's job count: the default ``max_jobs=256`` with a 60 s
#: eviction grace refuses submissions (HTTP 503) at benchmark rates.
SERVE_MAX_JOBS = 1_000_000


def presweep_spec(seed: int) -> SweepSpec:
    """The grid a batch job sweeps during set-up; analyze GETs read it."""
    rng = random.Random(f"serve-mixed:presweep:{seed}")
    budgets = tuple(sorted(rng.sample(range(200, 1000), 6)))
    return SweepSpec(
        workloads=("GPT-3", "Turing-NLG"),
        topologies=("4D-4K", "3D-512"),
        bandwidths_gbps=tuple(float(b) for b in budgets),
        schemes=(PERF, PPC),
    )


def serve_stream(
    seed: int, client: int, cells: list[ExplorationPoint]
) -> Iterator[tuple[str, object]]:
    """One client's requests: ``("optimize", OptimizeRequest)`` or
    ``("analyze", ExplorationPoint)``. Optimize payloads never repeat, so
    no submission is answered by job-id dedupe instead of a solve."""
    rng = random.Random(f"serve-mixed:{seed}:{client}")
    seen: set = set()
    # One scenario per template, re-budgeted per request: building each from
    # scratch would put the client's workload construction in the trace.
    templates = itertools.cycle([
        (build_scenario(topology, [workload]), scheme)
        for workload, topology, scheme in SERVE_TEMPLATES
    ])
    # Fixed kind and template cycles keep the mix, and with it throughput,
    # the same for every seed; seeds vary budgets and the cells read.
    order = rng.sample(cells, len(cells))
    reads = itertools.cycle(order)
    for kind in itertools.cycle(SERVE_PATTERN):
        if kind == "analyze":
            yield "analyze", next(reads)
            continue
        scenario, scheme = next(templates)
        (budget,) = _fresh_budgets(rng, seen, 1, tag=client)
        yield "optimize", OptimizeRequest(
            scenario=with_budget(scenario, budget), scheme=scheme
        )


def with_budget(scenario: Scenario, budget_gbps: float) -> Scenario:
    """``scenario`` under the standard total-bandwidth constraint set;
    equal to ``build_scenario(..., total_bw_gbps=budget_gbps)``."""
    constraints = ConstraintSet(scenario.network.num_dims).with_total_bandwidth(
        gbps(budget_gbps)
    )
    return replace(scenario, constraints=constraints)


def analyze_params(cell: ExplorationPoint) -> dict[str, str]:
    return {
        "workload": cell.workload,
        "topology": cell.topology,
        "budget_gbps": repr(cell.total_bw_gbps),
        "scheme": SCHEME_PARAM[cell.scheme],
    }


class ServeMixed:
    """In-process ``repro serve`` with a durable store, two HTTP clients."""

    name = "serve-mixed"
    solve_kind = "optimize"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.cells = presweep_spec(seed).expand()
        self.streams = [
            serve_stream(seed, client, self.cells)
            for client in range(SERVE_CLIENTS)
        ]
        #: Requests each client has finished, in stream order.
        self.positions = [0] * SERVE_CLIENTS
        self.prefix = Prefix(SERVE_QUALITY_PREFIX)
        self.samples: list[tuple[OptimizeRequest, object]] = []
        self.tracer = None
        self._state = None

    def setup(self) -> None:
        state_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=self.scratch))
        store = JobStore(state_dir / "state")
        manager = JobManager(workers=2, max_jobs=SERVE_MAX_JOBS, store=store)
        server = create_server(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        self._state = (state_dir, store, manager, server, thread)
        host, port = server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        client = ServeClient(self.base_url)
        swept = client.submit_and_wait(
            BatchRequest(spec=presweep_spec(self.seed), workers=1)
        )
        problem = check_rows(swept.sweep.results)
        if problem:
            raise ReproError(f"set-up sweep failed: {problem}")
        warmup = Tally()
        for workload, topology, scheme in SERVE_TEMPLATES:
            request = OptimizeRequest(
                scenario=build_scenario(topology, [workload], total_bw_gbps=500),
                scheme=scheme,
            )
            self._optimize(client, request, warmup)
        self._analyze(self.cells[0], warmup)
        if warmup.failed:
            raise ReproError(f"set-up requests failed: {warmup.failures}")

    def close(self) -> None:
        if self._state is None:
            return
        state_dir, store, manager, server, thread = self._state
        self._state = None
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        manager.shutdown()
        store.close()
        shutil.rmtree(state_dir, ignore_errors=True)

    def _optimize(self, client, request, tally: Tally):
        """Submit → follow events → fetch result; the response or ``None``."""
        tally.attempted += 1
        started = time.perf_counter()
        try:
            info = client.submit(request)
            client.follow_to_completion(info.id)
            final = client.wait(info.id)
            response = final.response()
        except ServeClientError as exc:
            if exc.status == 503:
                tally.counts["serve.manager.refused"] += 1
            tally.fail(f"optimize: {exc}")
            return None
        except ReproError as exc:
            tally.fail(f"optimize: {exc}")
            return None
        elapsed_ms = (time.perf_counter() - started) * 1e3
        problem = check_bandwidths(
            response.point.bandwidths, request.scenario.constraints.total_bandwidth
        ) or check_gain(
            request.scheme,
            response.speedup_over_baseline,
            response.ppc_gain_over_baseline,
        )
        if problem:
            tally.fail(f"optimize: {problem}")
            return None
        tally.done("solve", elapsed_ms, cells=1)
        metrics = final.metrics or {}
        tally.counts["serve.manager.jobs"] += 1
        tally.counts["serve.manager.queue_us"] += round(
            metrics.get("queue_s", 0.0) * 1e6
        )
        tally.counts["serve.manager.run_us"] += round(
            metrics.get("run_s", 0.0) * 1e6
        )
        return response

    def _analyze(self, cell: ExplorationPoint, tally: Tally) -> None:
        tally.attempted += 1
        url = f"{self.base_url}/v3/analyze?{urlencode(analyze_params(cell))}"

        def get():
            with urlopen(url, timeout=60) as reply:  # noqa: S310 — local server
                return reply.status, json.load(reply)

        if self.tracer is not None:
            get = self.tracer.wrap(ANALYZE_GET, get)
        started = time.perf_counter()
        try:
            status, payload = get()
        except HTTPError as exc:
            tally.fail(f"analyze {cell.label()}: HTTP {exc.code}")
            return
        except (URLError, OSError, ValueError) as exc:
            tally.fail(f"analyze {cell.label()}: {exc}")
            return
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if status != 200 or "report" not in payload:
            tally.fail(f"analyze {cell.label()}: HTTP {status}")
            return
        tally.done("read", elapsed_ms)

    def _step(self, client, client_index: int, tally: Tally) -> None:
        """Send the client's next request and wait for its answer."""
        position = self.positions[client_index]
        kind, payload = next(self.streams[client_index])
        if kind == "analyze":
            self._analyze(payload, tally)
        else:
            response = self._optimize(client, payload, tally)
            if response is not None and position < self.prefix.length:
                self.prefix.record(
                    payload.scheme,
                    response.speedup_over_baseline,
                    response.ppc_gain_over_baseline,
                )
                self.samples.append((payload, response))
        # Each client's position is written by its own thread only; the
        # client that finishes the prefix last sees every position past it.
        self.positions[client_index] = position + 1
        if position + 1 == self.prefix.length and (
            min(self.positions) >= self.prefix.length
        ):
            self.prefix.complete()

    def _client_loop(self, client_index: int, deadline: float, tally: Tally):
        client = ServeClient(self.base_url)
        while time.perf_counter() < deadline:
            self._step(client, client_index, tally)

    def finish_prefix(self) -> Tally:
        """Answer, untimed, what the run left of each client's prefix."""
        tally = Tally()
        for client_index in range(SERVE_CLIENTS):
            client = ServeClient(self.base_url)
            while self.positions[client_index] < self.prefix.length:
                self._step(client, client_index, tally)
        return tally

    def run(self, seconds: float) -> Tally:
        deadline = time.perf_counter() + seconds
        tallies = [Tally() for _ in range(SERVE_CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client_loop, args=(index, deadline, tallies[index])
            )
            for index in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = Tally()
        for tally in tallies:
            total.merge(tally)
        return total

    def verify(self, tally: Tally) -> None:
        """Compare a seeded sample of HTTP answers with in-process ones."""
        rng = random.Random(f"serve-mixed:verify:{self.seed}")
        sample = rng.sample(self.samples, min(6, len(self.samples)))
        local = LibraService()
        for request, remote in sample:
            try:
                same = local.submit(request).to_dict() == remote.to_dict()
            except ReproError as exc:
                tally.fail(f"in-process check failed: {exc}")
                continue
            if not same:
                tally.fail(
                    "HTTP answer differs from in-process LibraService.submit "
                    f"for {request.scenario.key()}"
                )


# -- in-process loops ------------------------------------------------------------


class InProcessLoop:
    """One caller of an in-process ``LibraService``: each stream item is a
    solve request followed by the analyze reads of some of its answers.

    Subclasses set ``stream_of`` (seed -> stream), ``quality_prefix`` and
    ``_request(request, read, tally, quality)``.
    """

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.stream = self.stream_of(seed)
        self.position = 0
        self.prefix = Prefix(self.quality_prefix)
        self.tracer = None
        self.service = None

    def close(self) -> None:
        self.service = None

    def _step(self, tally: Tally) -> None:
        request, read = next(self.stream)
        self._request(
            request, read, tally, quality=self.position < self.prefix.length
        )
        self.position += 1
        if self.position == self.prefix.length:
            self.prefix.complete()

    def run(self, seconds: float) -> Tally:
        tally = Tally()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self._step(tally)
        return tally

    def finish_prefix(self) -> Tally:
        """Answer, untimed, what the run left of the prefix."""
        tally = Tally()
        while self.position < self.prefix.length:
            self._step(tally)
        return tally

    def verify(self, tally: Tally) -> None:
        pass


# -- sweep-grid ------------------------------------------------------------------

GRID_WORKLOADS = ("GPT-3", "MSFT-1T", "Turing-NLG", "DLRM")
GRID_TOPOLOGIES = ("4D-4K", "3D-4K")
GRID_BUDGETS = 6
#: Grids whose rows feed the quality metrics: 96 PerfOpt, 96 PerfPerCost.
GRID_QUALITY_PREFIX = 2


def grid_stream(seed: int) -> Iterator[tuple[BatchRequest, list[ExplorationPoint]]]:
    """Distinct 96-cell grids, each with the four cells read after it."""
    rng = random.Random(f"sweep-grid:{seed}")
    seen: set = set()
    while True:
        budgets = _fresh_budgets(rng, seen, GRID_BUDGETS)
        spec = SweepSpec(
            workloads=GRID_WORKLOADS,
            topologies=GRID_TOPOLOGIES,
            bandwidths_gbps=budgets,
            schemes=(PERF, PPC),
        )
        reads = [
            ExplorationPoint(
                workload=workload,
                topology=rng.choice(GRID_TOPOLOGIES),
                total_bw_gbps=rng.choice(budgets),
                scheme=PERF,
            )
            for workload in GRID_WORKLOADS
        ]
        yield BatchRequest(spec=spec, workers=1), reads


class SweepGrid(InProcessLoop):
    """One in-process service answering a closed loop of batch sweeps."""

    name = "sweep-grid"
    solve_kind = "batch"
    stream_of = staticmethod(grid_stream)
    quality_prefix = GRID_QUALITY_PREFIX

    def setup(self) -> None:
        self.service = LibraService()
        warmup = Tally()
        budgets = tuple(float(b) for b in range(250, 1000, 125))
        spec = SweepSpec(
            workloads=GRID_WORKLOADS,
            topologies=GRID_TOPOLOGIES,
            bandwidths_gbps=budgets,
            schemes=(PERF, PPC),
        )
        reads = [
            ExplorationPoint(
                workload=workload, topology="4D-4K",
                total_bw_gbps=budgets[0], scheme=PERF,
            )
            for workload in GRID_WORKLOADS
        ]
        self._request(BatchRequest(spec=spec, workers=1), reads, warmup)
        if warmup.failed:
            raise ReproError(f"set-up requests failed: {warmup.failures}")

    def _request(self, batch, reads, tally: Tally, quality: bool = False):
        tally.attempted += 1
        started = time.perf_counter()
        try:
            response = self.service.submit(batch)
        except ReproError as exc:
            tally.fail(f"batch: {exc}")
            return
        elapsed_ms = (time.perf_counter() - started) * 1e3
        rows = response.sweep.results
        problem = check_rows(rows) or (
            "" if len(rows) == len(batch.spec.expand())
            else f"batch returned {len(rows)} rows"
        )
        if problem:
            tally.fail(f"batch: {problem}")
        else:
            tally.done("solve", elapsed_ms, cells=len(rows))
            if quality:
                self.prefix.record_rows(rows)
        for cell in reads:
            _read_cell(self.service, cell, tally)


def _read_cell(service, cell: ExplorationPoint, tally: Tally) -> None:
    """One in-process analyze request on a cell already in the batch cache."""
    tally.attempted += 1
    started = time.perf_counter()
    try:
        service.submit(AnalyzeRequest(cell=cell))
    except ReproError as exc:
        tally.fail(f"analyze {cell.label()}: {exc}")
        return
    tally.done("read", (time.perf_counter() - started) * 1e3)


# -- costrategy ------------------------------------------------------------------

COSTRATEGY_TEMPLATES = (
    ("GPT-3", PERF),
    ("GPT-3", PPC),
    ("Turing-NLG", PERF),
    ("Turing-NLG", PPC),
)
COSTRATEGY_BUDGETS = 4
COSTRATEGY_MAX_TP = 16
COSTRATEGY_WARMUP_FABRIC = "RI(4)_FC(4)_RI(4)_SW(8)"
#: Searches whose rows feed the quality metrics: each template on all 27
#: block-type triples (see :func:`fabrics_512`).
COSTRATEGY_QUALITY_PREFIX = 108


def fabrics_512(rng: random.Random) -> list[str]:
    """All 756 3-D notations of 512 NPUs with power-of-two dimensions.

    In seeded order, built so that the four requests ``4g .. 4g + 3`` (one
    per template) share a block-type triple and every 108 requests use all
    27 triples: every template then meets the same block types, whatever
    the seed. Sizes differ, so no notation repeats.
    """
    sizes = [
        (2 ** first, 2 ** second, 2 ** (9 - first - second))
        for first, second in itertools.product(range(1, 8), repeat=2)
        if first + second < 9
    ]
    blocks = list(itertools.product(("RI", "FC", "SW"), repeat=3))
    rng.shuffle(sizes)
    rng.shuffle(blocks)
    members = len(COSTRATEGY_TEMPLATES)
    return [
        "_".join(
            f"{block}({size})"
            for block, size in zip(
                triple, sizes[(turn * members + member + index) % len(sizes)]
            )
        )
        for turn in range(len(sizes) // members)
        for index, triple in enumerate(blocks)
        for member in range(members)
    ]


def costrategy_stream(seed: int) -> Iterator[tuple[CostrategyRequest, float]]:
    """Searches on fabrics in a seeded order (none repeats until all of the
    756 are used), each with the budget whose winner is read after it."""
    rng = random.Random(f"costrategy:{seed}")
    fabrics = fabrics_512(rng)
    seen: set = set()
    for index in itertools.count():
        workload, scheme = COSTRATEGY_TEMPLATES[index % len(COSTRATEGY_TEMPLATES)]
        budgets = _fresh_budgets(rng, seen, COSTRATEGY_BUDGETS)
        request = CostrategyRequest(
            workload=workload,
            topology=fabrics[index % len(fabrics)],
            budgets_gbps=budgets,
            scheme=scheme,
            space=StrategySpace(max_tp=COSTRATEGY_MAX_TP),
        )
        yield request, rng.choice(budgets)


class Costrategy(InProcessLoop):
    """One in-process service answering a closed loop of joint searches."""

    name = "costrategy"
    solve_kind = "costrategy"
    stream_of = staticmethod(costrategy_stream)
    quality_prefix = COSTRATEGY_QUALITY_PREFIX

    def setup(self) -> None:
        self.service = LibraService()
        warmup = Tally()
        # A fixed 4-D fabric: set-up does the same work for every seed and
        # leaves no engine for any fabric of the stream.
        for workload, scheme in COSTRATEGY_TEMPLATES:
            request = CostrategyRequest(
                workload=workload,
                topology=COSTRATEGY_WARMUP_FABRIC,
                budgets_gbps=(300.0, 500.0, 700.0, 900.0),
                scheme=scheme,
                space=StrategySpace(max_tp=COSTRATEGY_MAX_TP),
            )
            self._request(request, 500.0, warmup)
        if warmup.failed:
            raise ReproError(f"set-up requests failed: {warmup.failures}")

    def _request(self, request, read_budget, tally: Tally, quality=False):
        tally.attempted += 1
        started = time.perf_counter()
        try:
            frontier = self.service.submit(request).frontier
        except ReproError as exc:
            tally.fail(f"costrategy {request.topology}: {exc}")
            return
        elapsed_ms = (time.perf_counter() - started) * 1e3
        rows = frontier.rows()
        problem = check_rows(rows)
        if problem:
            tally.fail(f"costrategy: {problem}")
            return
        tally.done("solve", elapsed_ms, cells=len(rows))
        if quality:
            self.prefix.record_rows(rows)
        winner = frontier.best_at(read_budget)
        cell = next(row.point for row in rows if row.key == winner.key)
        _read_cell(self.service, cell, tally)


WORKLOADS = {cls.name: cls for cls in (ServeMixed, SweepGrid, Costrategy)}

