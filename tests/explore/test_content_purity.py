"""Content-pure cells: a sweep row depends on its cell alone.

Every cell of either scheme is one certified solve that reads nothing
another cell left behind, so a row is byte-identical whatever the order
of the grid's points and whichever of its cells were already cached. (The
serial-versus-spawn-pool check lives in ``test_executor.py``.)
"""

import json
import random

import pytest

from repro.core import Scheme
from repro.explore import ExplorationPoint, ResultCache, run_sweep

TINY = "RI(3)_RI(2)"

POINTS = [
    ExplorationPoint(workload, TINY, budget, scheme)
    for scheme in (Scheme.PERF_OPT, Scheme.PERF_PER_COST_OPT)
    for workload in ("Turing-NLG", "DLRM")
    for budget in (100.0, 175.0, 250.0, 400.0)
]


def row_bytes(sweep) -> dict[str, str]:
    """Each row's serialized payload by cell label, minus the cache flag."""
    rows = {}
    for row in sweep.results:
        payload = row.to_dict()
        payload.pop("from_cache")
        rows[row.point.label()] = json.dumps(payload, sort_keys=True)
    return rows


@pytest.fixture(scope="module")
def reference():
    sweep = run_sweep(POINTS)
    assert all(row.ok for row in sweep.results)
    return row_bytes(sweep)


@pytest.mark.parametrize("seed", range(3))
def test_rows_do_not_depend_on_point_order(reference, seed):
    points = list(POINTS)
    random.Random(seed).shuffle(points)
    assert row_bytes(run_sweep(points)) == reference


@pytest.mark.parametrize("seed", range(4))
def test_rows_do_not_depend_on_which_cells_are_cached(reference, seed):
    rng = random.Random(seed)
    cached = rng.sample(POINTS, rng.randint(1, len(POINTS) - 1))
    cache = ResultCache()
    run_sweep(cached, cache=cache)
    sweep = run_sweep(POINTS, cache=cache)
    assert sweep.cache_hits == len(cached)
    assert sweep.solver_calls == len(POINTS) - len(cached)
    assert row_bytes(sweep) == reference
