"""Dependency-free HTTP front end over a :class:`JobManager`.

Built entirely on the stdlib (``http.server.ThreadingHTTPServer``) so the
server runs wherever the library does. The surface is the v3 job API::

    POST   /v3/jobs              submit (v3 envelope, or bare v1/v2
                                 optimize / batch payloads — up-converted)
    GET    /v3/jobs              list job envelopes (summaries, no results)
    GET    /v3/jobs/{id}         one job envelope, result included when done
    GET    /v3/jobs/{id}/events  the event log as NDJSON; ``?after=N``
                                 resumes mid-stream, ``?follow=1`` keeps the
                                 connection open and streams live events
                                 until the job is terminal
    DELETE /v3/jobs/{id}         cooperative cancellation
    GET    /v3/analyze          synchronous bottleneck analysis of a
                                 cache-resident sweep cell (never solves;
                                 404 when the cell was not swept)
    GET    /healthz              liveness, uptime, queue/job-state counts
    GET    /v3/metrics           Prometheus text exposition (version 0.0.4)

Responses are JSON (NDJSON for event streams). Errors are JSON too:
``{"error": ..., "path": ...}`` with ``path`` set for located scenario
validation failures — the same message a local caller would get, so a
remote client can surface it verbatim.

Connections are HTTP/1.0 (one request per connection): an event stream is
then delimited by connection close, which every client — ``urllib``
included — already handles, with no chunked-encoding machinery.

Observability: constructing a :class:`ServeServer` enables the process
metrics registry (a server *is* the opt-in) and points the job gauges at
its manager; every request is counted and timed under a normalized route
template (``/v3/jobs/{id}`` — never raw paths, which would be unbounded
label cardinality) and emits one structured access-log line at INFO
through ``repro.serve.http`` (visible with ``repro serve --log-level
info`` or ``REPRO_LOG=info``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from repro.api.requests import (
    RESPONSE_SCHEMA_VERSION,
    AnalyzeRequest,
    BatchRequest,
    request_from_dict,
)
from repro.api.scenario import ScenarioValidationError
from repro.api.service import (
    register_analysis_families,
    register_strategy_families,
)
from repro.obs import get_logger
from repro.obs import metrics as obs_metrics
from repro.obs import names as obs_names
from repro.serve.manager import JobManager
from repro.serve.store import register_durability_families
from repro.utils.errors import AnalysisCacheMiss, ReproError

_log = get_logger("serve.http")

#: Largest accepted request body; a scenario payload is a few KB, so this
#: is generous while still bounding a misbehaving client.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Quiet-stream heartbeat period for ``?follow=1``: a blank NDJSON line
#: (clients skip it) written whenever no event arrives for this long, so a
#: disconnected follower's handler thread hits BrokenPipeError and exits
#: instead of parking forever on a job that emits nothing.
FOLLOW_HEARTBEAT_S = 15.0


class ServeHandler(BaseHTTPRequestHandler):
    """Route the v3 job API onto the server's :class:`JobManager`."""

    server_version = "repro-serve/3"
    protocol_version = "HTTP/1.0"

    # -- plumbing ------------------------------------------------------------

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # http.server's own per-response lines (and error notices) go to
        # the structured logger at DEBUG; the INFO-level access log is
        # emitted once per request by _observed, with timing attached.
        _log.debug("%s - %s" % (self.address_string(), format % args))

    def send_response(self, code: int, message: str | None = None) -> None:
        self._status = code
        super().send_response(code, message)

    def _route_label(self) -> str:
        """The bounded route template this request hit (metric label)."""
        path, _ = self._route()
        if path in ("/healthz", "/v3/metrics", "/v3/jobs", "/v3/analyze"):
            return path
        if self._job_id(path, suffix="events") is not None:
            return "/v3/jobs/{id}/events"
        if self._job_id(path) is not None:
            return "/v3/jobs/{id}"
        return "other"

    def _observed(self, handler) -> None:
        """Run one request handler with timing, metrics, and access log."""
        self._status = 0
        begin = time.perf_counter()
        try:
            handler()
        finally:
            elapsed = time.perf_counter() - begin
            route = self._route_label()
            status = str(self._status or 0)
            registry = obs_metrics.get_registry()
            registry.counter(
                obs_names.HTTP_REQUESTS,
                "HTTP requests served, by route template and status.",
                labels=("route", "status"),
            ).labels(route=route, status=status).inc()
            registry.histogram(
                obs_names.HTTP_SECONDS,
                "HTTP request handling wall time by route template.",
                labels=("route",),
            ).labels(route=route).observe(elapsed)
            fields = {
                "method": self.command,
                "path": self.path,
                "status": self._status or 0,
                "duration_ms": round(elapsed * 1e3, 3),
            }
            job_ref = getattr(self, "_job_ref", None)
            if job_ref:
                fields["job"] = job_ref
            _log.info("request", extra={"fields": fields})

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, message: str, path: str | None = None
    ) -> None:
        self._send_json(status, {"error": message, "path": path})

    def _read_body(self) -> dict | None:
        """The request body as parsed JSON, or ``None`` after replying 400."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_error_json(
                400, f"request body must be 1..{MAX_BODY_BYTES} bytes of JSON"
            )
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._send_error_json(400, f"request body is not valid JSON: {exc}")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> tuple[str, dict[str, list[str]]]:
        parsed = urlparse(self.path)
        return parsed.path.rstrip("/") or "/", parse_qs(parsed.query)

    def _job_id(self, path: str, suffix: str = "") -> str | None:
        """Extract ``{id}`` from ``/v3/jobs/{id}[/suffix]``; else ``None``."""
        prefix = "/v3/jobs/"
        if not path.startswith(prefix):
            return None
        rest = path[len(prefix):]
        if suffix:
            if not rest.endswith("/" + suffix):
                return None
            rest = rest[: -len("/" + suffix)]
        return rest if rest and "/" not in rest else None

    # -- methods -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._observed(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._observed(self._handle_post)

    def do_DELETE(self) -> None:  # noqa: N802 — http.server API
        self._observed(self._handle_delete)

    def _handle_get(self) -> None:
        path, query = self._route()
        if path == "/healthz":
            counts = self.manager.counts()
            started = getattr(self.server, "started_at", None)
            terminal = (
                counts["done"] + counts["failed"] + counts["cancelled"]
            )
            payload = {
                "ok": True,
                "schema_version": RESPONSE_SCHEMA_VERSION,
                "uptime_s": (
                    None if started is None
                    else round(time.time() - started, 3)
                ),
                "queue_depth": counts["queued"],
                "active_jobs": counts["running"],
                "terminal_jobs": terminal,
                "recovered_jobs": getattr(self.manager, "recovered_jobs", 0),
                "jobs": counts,
            }
            fleet = getattr(self.manager, "fleet", None)
            if fleet is not None:
                # Owner id, leases held, takeovers, draining — what a
                # fleet load balancer needs to steer and drain by.
                payload["fleet"] = fleet.stats()
            self._send_json(200, payload)
            return
        if path == "/v3/metrics":
            body = obs_metrics.get_registry().render().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/v3/jobs":
            self._send_json(200, {
                "schema_version": RESPONSE_SCHEMA_VERSION,
                "jobs": [
                    handle.info(include_result=False).to_dict()["job"]
                    for handle in self.manager.handles()
                ],
            })
            return
        if path == "/v3/analyze":
            self._get_analyze(query)
            return
        events_id = self._job_id(path, suffix="events")
        if events_id is not None:
            self._job_ref = events_id
            self._get_events(events_id, query)
            return
        job_id = self._job_id(path)
        if job_id is not None:
            self._job_ref = job_id
            handle = self.manager.get(job_id)
            if handle is None:
                self._send_error_json(404, f"unknown job id {job_id!r}")
                return
            self._send_json(200, handle.info().to_dict())
            return
        self._send_error_json(404, f"no route for GET {path}")

    def _get_events(self, job_id: str, query: dict[str, list[str]]) -> None:
        handle = self.manager.get(job_id)
        if handle is None:
            self._send_error_json(404, f"unknown job id {job_id!r}")
            return
        try:
            after = int(query.get("after", ["0"])[0])
        except ValueError:
            self._send_error_json(400, "'after' must be an integer")
            return
        follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            if follow:
                # Live stream: one JSON line per event until the job's
                # terminal event; connection close ends the stream. Quiet
                # stretches emit blank-line heartbeats (handle.stream's
                # timeout raises ConfigurationError between events) both
                # to keep intermediaries from timing out and to detect
                # disconnected clients.
                cursor = after
                while True:
                    try:
                        for event in handle.stream(
                            after=cursor, timeout=FOLLOW_HEARTBEAT_S
                        ):
                            cursor = event.seq + 1
                            self._write_line(event.to_dict())
                        break  # terminal event delivered
                    except ReproError:
                        self.wfile.write(b"\n")
                        self.wfile.flush()
            else:
                for event in handle.events(after=after):
                    self._write_line(event.to_dict())
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def _get_analyze(self, query: dict[str, list[str]]) -> None:
        """Synchronous bottleneck analysis of a cache-resident sweep cell.

        The fast path the issue promises: for a point the server already
        swept (a batch job, optionally with a sandboxed cache dir), the
        answer comes from the evaluator plus the analyze memo — no job
        round-trip, no solver. The request is expressed entirely in query
        parameters (``workload``, ``topology``, ``budget_gbps``, optional
        ``scheme``, ``caps`` as comma-separated ``dim:gbps`` pairs, and
        ``cache``) because the target must
        already exist; a cell that was never swept is a 404, never a
        solve — analysis is read-only by contract.
        """
        # Lazy: the serve tier reaches explore only through this path and
        # the batch worker, mirroring the service's own lazy import.
        from repro.api.registry import resolve_scheme
        from repro.explore.spec import ExplorationPoint

        def param(name: str) -> str | None:
            values = query.get(name)
            return values[-1] if values else None

        missing = [
            name for name in ("workload", "topology", "budget_gbps")
            if param(name) is None
        ]
        if missing:
            self._send_error_json(
                400, f"missing query parameter(s): {', '.join(missing)}"
            )
            return
        cache_dir = None
        if param("cache") is not None:
            cache_dir = self._sandboxed_cache_path(param("cache"))
            if cache_dir is None:
                return
        try:
            caps = tuple(
                (int(entry.split(":", 1)[0]), float(entry.split(":", 1)[1]))
                for entry in (param("caps") or "").split(",") if entry
            )
            cell = ExplorationPoint(
                workload=param("workload"),
                topology=param("topology"),
                total_bw_gbps=float(param("budget_gbps")),
                scheme=resolve_scheme(param("scheme") or "perf"),
                dim_caps_gbps=caps,
            )
            request = AnalyzeRequest(cell=cell, cache_dir=cache_dir)
            response = self.manager.service.submit(request)
        except AnalysisCacheMiss as exc:
            self._send_error_json(404, str(exc))
            return
        except (ReproError, ValueError, IndexError) as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(200, response.to_dict())

    def _write_line(self, payload: dict) -> None:
        self.wfile.write(
            json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        )
        self.wfile.flush()

    def _handle_post(self) -> None:
        path, _ = self._route()
        if path != "/v3/jobs":
            self._send_error_json(404, f"no route for POST {path}")
            return
        payload = self._read_body()
        if payload is None:
            return
        try:
            request = request_from_dict(payload)
        except ScenarioValidationError as exc:
            self._send_error_json(400, str(exc), path=exc.path)
            return
        except ReproError as exc:
            self._send_error_json(400, str(exc))
            return
        # Wire-supplied requests are untrusted. Over-cap batch workers are
        # *rejected*, not silently clamped — job ids are content-derived,
        # and a silent rewrite would make the id depend on this server's
        # core count.
        if isinstance(request, BatchRequest):
            workers_cap = max(1, os.cpu_count() or 1)
            if request.workers > workers_cap:
                self._send_error_json(
                    400,
                    f"workers={request.workers} exceeds this server's cap "
                    f"of {workers_cap}; lower it (cells still parallelize "
                    "across chains up to the cap)",
                )
                return
        # Any request kind that names a server-side cache directory is
        # confined under the cache root. The path IS rewritten, so the
        # envelope's id is authoritative for such a request — clients
        # must use it rather than re-deriving ids from their own payload.
        if getattr(request, "cache_dir", None) is not None:
            cache_dir = self._sandboxed_cache_path(request.cache_dir)
            if cache_dir is None:
                return
            request = replace(request, cache_dir=cache_dir)
        try:
            handle = self.manager.submit(request)
        except ReproError as exc:
            self._send_error_json(503, str(exc))
            return
        self._job_ref = handle.id
        self._send_json(202, handle.info().to_dict())

    def _sandboxed_cache_path(self, name: str) -> str | None:
        """Confine a client-supplied cache name under the server's root.

        A cache name designates a *server-side* directory; accepting it
        verbatim would hand any network client an arbitrary
        mkdir/file-write primitive. So it is only honored when the
        operator opted in (``repro serve --cache-root DIR``), and then as
        a relative name confined under that root — absolute paths and
        ``..`` traversal are rejected. Replies 400 and returns ``None``
        on rejection. Every ``POST /v3/jobs`` request with a cache path
        and ``GET /v3/analyze`` go through this, so all surfaces agree on
        what a cache name may reach.
        """
        root = getattr(self.server, "cache_root", None)
        if root is None:
            self._send_error_json(
                400,
                "this server does not accept client-supplied cache paths; "
                "start it with --cache-root to enable sandboxed caches, "
                "or drop the cache path from the request",
            )
            return None
        candidate = (root / name).resolve()
        if Path(name).is_absolute() or not candidate.is_relative_to(root):
            self._send_error_json(
                400,
                f"cache_dir {name!r} must be a relative path inside the "
                "server's cache root",
            )
            return None
        return str(candidate)

    def _handle_delete(self) -> None:
        path, _ = self._route()
        job_id = self._job_id(path)
        if job_id is None:
            self._send_error_json(404, f"no route for DELETE {path}")
            return
        self._job_ref = job_id
        handle = self.manager.get(job_id)
        if handle is None:
            self._send_error_json(404, f"unknown job id {job_id!r}")
            return
        handle.cancel()
        self._send_json(200, handle.info().to_dict())


class ServeServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`JobManager`.

    Construction turns the process metrics registry on (the server is
    the scrape surface, so running one *is* the observability opt-in)
    and points the live job gauges at ``manager``.
    """

    daemon_threads = True  # event streams must not block shutdown

    def __init__(
        self,
        address,
        manager: JobManager,
        verbose: bool = False,
        cache_root: str | Path | None = None,
    ):
        super().__init__(address, ServeHandler)
        self.manager = manager
        self.verbose = verbose
        self.cache_root = (
            None if cache_root is None else Path(cache_root).resolve()
        )
        self.started_at = time.time()
        registry = obs_metrics.enable_metrics()
        manager.register_gauges(registry)
        # Durability and analysis families fire rarely (recovery,
        # retries, fsyncs; analyze requests); pre-registering renders
        # them at zero so scrapes and the live-scrape test see the
        # full table on a healthy server.
        register_durability_families(registry)
        register_analysis_families(registry)
        register_strategy_families(registry)


def create_server(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8350,
    verbose: bool = False,
    cache_root: str | Path | None = None,
) -> ServeServer:
    """Bind the job API; ``port=0`` picks a free port (tests).

    ``cache_root`` opts in to client-supplied batch ``cache_dir`` names,
    confined under that directory; without it they are rejected with a
    clear 400. The caller owns the loop: ``server.serve_forever()`` to
    run, ``server.shutdown()`` + ``manager.shutdown()`` to stop.
    """
    return ServeServer(
        (host, port), manager, verbose=verbose, cache_root=cache_root
    )
