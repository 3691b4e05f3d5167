"""Drive a live `repro serve` endpoint: submit, stream, cancel, resume.

This example boots its own server on a free port (so it is self-contained
and runnable offline), then behaves exactly like a remote client would:

1. submit an optimize job over HTTP and stream its events to completion,
2. show that the remote answer is bit-identical to a local
   ``LibraService.submit()`` for the same scenario,
3. submit a sweep (batch) job, cancel it mid-run, and resubmit — the
   resumed job reuses every cell the cancelled run completed.

Against an already-running server (``repro serve --port 8350``), replace
the boot block with ``client = ServeClient("http://127.0.0.1:8350")``.

Run with::

    PYTHONPATH=src python examples/serve_client.py
"""

import tempfile
import threading

from repro.api.requests import BatchRequest, OptimizeRequest
from repro.api.scenario import build_scenario
from repro.api.service import LibraService
from repro.explore.spec import SweepSpec
from repro.serve import JobManager, ServeClient, create_server

TOPOLOGY = "RI(3)_RI(2)"  # tiny 6-NPU fabric: the example runs in seconds
WORKLOAD = "Turing-NLG"


def boot_server(cache_root: str):
    # cache_root opts in to client-supplied cache_dir names, sandboxed
    # under that directory; without it the server rejects them.
    manager = JobManager(workers=2)
    server = create_server(manager, port=0, cache_root=cache_root)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return manager, server, ServeClient(f"http://{host}:{port}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-example-") as cache_root:
        demo(cache_root)


def demo(cache_root: str) -> None:
    manager, server, client = boot_server(cache_root)
    print(f"server up at {client.base_url}, healthy={client.healthy()}")

    # -- 1. submit + stream ---------------------------------------------------
    request = OptimizeRequest(
        scenario=build_scenario(TOPOLOGY, [WORKLOAD], total_bw_gbps=300)
    )
    info = client.submit(request)
    print(f"\nsubmitted {info.id} ({info.state.value}); streaming events:")
    for event in client.events(info.id, follow=True):
        print(f"  [{event.seq}] {event.kind:<6} {event.data}")

    # -- 2. remote == local, bitwise -----------------------------------------
    remote = client.result(info.id)
    local = LibraService().submit(request)
    assert remote.to_dict() == local.to_dict()
    print(f"\nremote result: {remote.point.describe()}")
    print(f"certified gap {remote.diagnostics['gap']:.1e} after "
          f"{remote.diagnostics['iterations']} kernel iterations")
    print("bit-identical to the local facade path: True")

    # -- 3. cancel a sweep mid-run, then resume from its cache ----------------
    batch = BatchRequest(
        spec=SweepSpec(
            workloads=(WORKLOAD,),
            topologies=(TOPOLOGY,),
            bandwidths_gbps=(100.0, 200.0, 300.0, 400.0, 500.0, 600.0),
        ),
        cache_dir="sweep-study",  # resolved under the server's cache root
    )
    info = client.submit(batch)
    print(f"\nsubmitted sweep {info.id}; cancelling at the first solved cell…")
    for event in client.events(info.id, follow=True):
        if event.kind == "cell":
            client.cancel(info.id)
            break
    final = client.wait(info.id)
    print(f"sweep job ended {final.state.value!r}: {final.error}")

    resumed = client.submit_and_wait(batch)  # fresh id: prior run cancelled
    sweep = resumed.sweep
    print(
        f"resumed sweep: {len(sweep.results)} rows, "
        f"{sweep.cache_hits} served from the cancelled run's cache, "
        f"{sweep.solver_calls} freshly solved"
    )
    print(f"diagnostics: {resumed.diagnostics['num_errors']} error rows, "
          f"chains {resumed.diagnostics['profile']['chains']}")

    server.shutdown()
    server.server_close()
    manager.shutdown()
    print("\nserver stopped; done")


if __name__ == "__main__":
    main()
