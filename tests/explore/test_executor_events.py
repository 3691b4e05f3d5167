"""The executor's structured-event seam and cooperative cancellation."""

import pytest

from repro.core.results import Scheme
from repro.explore.cache import ResultCache
from repro.explore.chains import chain_label
from repro.explore.executor import run_sweep
from repro.explore.spec import ExplorationPoint, SweepSpec
from repro.utils.errors import JobCancelled

TINY = "RI(3)_RI(2)"


def tiny_spec(**overrides) -> SweepSpec:
    fields = dict(
        workloads=("Turing-NLG",),
        topologies=(TINY,),
        bandwidths_gbps=(100.0, 300.0),
        schemes=("perf",),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestEventSeam:
    def test_event_sequence_shape(self):
        events = []
        sweep = run_sweep(tiny_spec(), on_event=events.append)
        kinds = [event["type"] for event in events]
        # One plan, a chain start/done pair, one cell per grid point.
        assert kinds[0] == "plan"
        assert kinds.count("cell") == len(sweep.results) == 2
        assert kinds.count("chain") == 2

        plan = events[0]
        assert plan["total"] == 2
        assert plan["chains"] == 1
        assert plan["solver_calls"] == 2
        assert plan["fanout_cells"] == 0

        cells = [event for event in events if event["type"] == "cell"]
        assert [c["done"] for c in cells] == [1, 2]
        assert all(c["total"] == 2 for c in cells)
        assert all(c["status"] == "solved" for c in cells)
        assert all(c["key"] for c in cells)

        chains = [event for event in events if event["type"] == "chain"]
        assert [c["status"] for c in chains] == ["start", "done"]
        assert chains[0]["cells"] == 2
        assert "Turing-NLG" in chains[0]["label"]

    def test_cached_cells_report_cached_status(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(tiny_spec(), cache=cache)
        events = []
        run_sweep(tiny_spec(), cache=cache, on_event=events.append)
        cells = [event for event in events if event["type"] == "cell"]
        assert all(c["status"] == "cached" for c in cells)
        # Cache hits resolve during phase 1, so they precede the plan event.
        plan = next(event for event in events if event["type"] == "plan")
        assert plan["chains"] == 0 and plan["cached"] == 2
        assert not [e for e in events if e["type"] == "chain"]

    def test_error_rows_report_error_status(self):
        events = []
        point = ExplorationPoint("NoSuchModel", TINY, 100.0, Scheme.PERF_OPT)
        sweep = run_sweep([point], on_event=events.append)
        assert sweep.num_errors == 1
        cells = [event for event in events if event["type"] == "cell"]
        assert cells[0]["status"] == "error"
        assert cells[0]["error"]

    def test_chain_label_is_compact(self):
        point = ExplorationPoint(
            "Turing-NLG", TINY, 100.0, Scheme.PERF_OPT,
            dim_caps_gbps=((1, 60.0),),
        )
        label = chain_label(point)
        assert "Turing-NLG" in label and TINY in label
        assert "PerfOptBW" in label and "1:60" in label


class TestCancellation:
    def test_immediate_cancel_raises_before_solving(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(JobCancelled):
            run_sweep(tiny_spec(), cache=cache, should_stop=lambda: True)
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_cancel_after_first_cell_keeps_completed_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        solved = []

        def stop_after_one() -> bool:
            return len(solved) >= 1

        def on_event(event):
            if event["type"] == "cell" and event["status"] != "cached":
                solved.append(event)

        spec = tiny_spec(bandwidths_gbps=(100.0, 200.0, 300.0, 400.0))
        with pytest.raises(JobCancelled):
            run_sweep(
                spec, cache=cache, on_event=on_event,
                should_stop=stop_after_one,
            )
        rows = list(tmp_path.glob("*.json"))
        assert len(rows) == 1  # exactly the completed cell, atomically stored
        # The cached row is reusable: the resumed sweep only solves the rest.
        resumed = run_sweep(spec, cache=ResultCache(tmp_path))
        assert resumed.cache_hits == 1
        assert resumed.solver_calls == 3
        assert resumed.num_errors == 0

    def test_cache_hits_are_served_before_cancellation_checks(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(tiny_spec(), cache=cache)
        # Even a permanently true predicate cannot cancel a fully cached
        # sweep: phase 1 serves every row without entering the solve phase.
        sweep = run_sweep(tiny_spec(), cache=cache, should_stop=lambda: True)
        assert sweep.cache_hits == 2
