"""Thin stdlib client for the :mod:`repro.serve` HTTP job API.

``ServeClient`` speaks the same value types as the in-process API — it
takes :class:`OptimizeRequest` / :class:`BatchRequest` values and hands
back :class:`~repro.serve.jobs.JobInfo` snapshots and typed responses —
so a caller can swap ``service.submit(request)`` for
``client.submit_and_wait(request)`` and change nothing else. Built on
``urllib.request`` only; errors the server reports as JSON surface as
:class:`ReproError` with the server's own message.

Typical session::

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8350")
    info = client.submit(request)
    progress = [
        (event.kind, event.data)
        for event in client.events(info.id, follow=True)
    ]
    response = client.result(info.id)
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Iterator, Mapping
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.api.requests import (
    BatchRequest,
    BatchResponse,
    OptimizeRequest,
    OptimizeResponse,
    request_to_dict,
)
from repro.serve.events import ProgressEvent
from repro.serve.jobs import JobInfo, derive_job_id, job_content_key
from repro.utils.errors import ConfigurationError, ReproError


class ServeClientError(ReproError, RuntimeError):
    """The server (or the network) rejected a client call.

    Attributes:
        status: HTTP status code, or 0 for transport-level failures.
        transient: True for connection-level failures (refused, reset,
            broken pipe) that a retry against a restarting server can
            reasonably recover from. Protocol and HTTP-status errors are
            never transient — the server answered, and will answer the
            same way again.
    """

    def __init__(
        self, message: str, status: int = 0, transient: bool = False
    ):
        self.status = status
        self.transient = transient
        super().__init__(message)


class ServeStreamStalled(ServeClientError):
    """An event stream went quiet past the socket timeout.

    Not a job failure — a long solve simply emits nothing between events.
    :meth:`ServeClient.follow_to_completion` resumes the stream on this;
    other :class:`ServeClientError`\\ s (protocol faults, server errors)
    propagate.
    """


class ServeClient:
    """One serve endpoint, addressed by base URL.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8350"`` (trailing slash ok).
        timeout: Per-connection socket timeout, seconds. Event streams
            use it as the *between-events* bound.
        retries: How many times an idempotent call is retried after a
            transient connection failure (refused/reset), with jittered
            exponential backoff — enough to ride through a server
            restart. Idempotent means GETs *and* job submission:
            ``POST /v3/jobs`` dedupes on the content-derived job id, so
            repeating a submission whose fate is unknown lands on the
            same job instead of forking a duplicate (and :meth:`submit`
            asserts the returned id matches the locally derived one).
            DELETEs are never retried at the transport level: repeating
            a cancellation whose fate is unknown could cancel a rerun.
        retry_backoff_s: Base backoff before the first retry; doubles
            each attempt (jittered to half–full of the nominal delay).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 3,
        retry_backoff_s: float = 0.2,
    ):
        if "://" not in base_url:
            base_url = "http://" + base_url
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s

    # -- transport -----------------------------------------------------------

    def _open(self, method: str, path: str, payload: Mapping | None = None):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            return urlopen(request, timeout=self.timeout)  # noqa: S310 — caller-supplied http(s) endpoint
        except HTTPError as exc:
            detail = f"{method} {path} -> HTTP {exc.code}"
            try:
                error = json.loads(exc.read())
                message = error.get("error", "")
                located = error.get("path")
                if message:
                    detail = (
                        f"{detail}: {message}"
                        + (f" (at {located!r})" if located else "")
                    )
            except (json.JSONDecodeError, OSError, AttributeError):
                pass
            raise ServeClientError(detail, status=exc.code) from exc
        except URLError as exc:
            reason = getattr(exc, "reason", None)
            raise ServeClientError(
                f"cannot reach {self.base_url}: {exc.reason}",
                transient=isinstance(reason, ConnectionError),
            ) from exc

    def _backoff_sleep(self, attempt: int) -> None:
        """Jittered exponential backoff before retry ``attempt`` (0-based).

        Jitter spans half to full of the nominal delay so a crowd of
        clients reconnecting to a restarted server does not arrive in
        lockstep.
        """
        nominal = self.retry_backoff_s * (2 ** attempt)
        time.sleep(min(nominal, 10.0) * random.uniform(0.5, 1.0))

    def _open_get(self, path: str):
        """``_open("GET", ...)``, retried across transient failures.

        Safe precisely because GETs are idempotent: repeating one cannot
        duplicate a submission or a cancellation.
        """
        for attempt in range(self.retries + 1):
            try:
                return self._open("GET", path)
            except ServeClientError as exc:
                if not exc.transient or attempt >= self.retries:
                    raise
            self._backoff_sleep(attempt)
        raise AssertionError("unreachable")

    def _call(self, method: str, path: str, payload: Mapping | None = None) -> dict:
        attempts = self.retries + 1 if method == "GET" else 1
        for attempt in range(attempts):
            try:
                return self._call_once(method, path, payload)
            except ServeClientError as exc:
                if not exc.transient or attempt + 1 >= attempts:
                    raise
            self._backoff_sleep(attempt)
        raise AssertionError("unreachable")

    def _call_once(
        self, method: str, path: str, payload: Mapping | None = None
    ) -> dict:
        with self._open(method, path, payload) as response:
            try:
                parsed = json.load(response)
            except json.JSONDecodeError as exc:
                raise ServeClientError(
                    f"{method} {path}: server sent invalid JSON: {exc}"
                ) from exc
            except OSError as exc:
                # The connection dropped mid-body (server restart, reset).
                raise ServeClientError(
                    f"{method} {path}: connection lost mid-response: {exc}",
                    transient=isinstance(exc, ConnectionError),
                ) from exc
        if not isinstance(parsed, dict):
            raise ServeClientError(
                f"{method} {path}: expected a JSON object response"
            )
        return parsed

    # -- the job API ---------------------------------------------------------

    def healthy(self) -> bool:
        """True when the endpoint answers ``/healthz``."""
        try:
            return bool(self._call("GET", "/healthz").get("ok"))
        except ServeClientError:
            return False

    def submit(
        self, request: OptimizeRequest | BatchRequest | Mapping
    ) -> JobInfo:
        """Submit a request (value or pre-encoded payload); job snapshot back.

        Retried across transient connection failures like a GET, which
        is safe *because job ids are content-derived*: the server
        dedupes a repeated payload onto the live job the first (fate
        unknown) attempt may have created, so a retry can observe a
        duplicate but never fork one. As a belt for that reasoning,
        when the expected id is locally derivable the returned id is
        asserted to match — a mismatch means the server is not the
        deduping server this retry policy assumes, and surfaces as a
        non-transient error rather than silently diverging work.
        (A request with a ``cache_dir`` skips the assertion: the server
        rewrites the path under its ``--cache-root`` sandbox, which
        legitimately changes the content key.)
        """
        payload = (
            dict(request) if isinstance(request, Mapping)
            else request_to_dict(request)
        )
        expected = None
        if not isinstance(request, Mapping) and not getattr(
            request, "cache_dir", None
        ):
            expected = derive_job_id(job_content_key(request))
        for attempt in range(self.retries + 1):
            try:
                info = JobInfo.from_dict(
                    self._call_once("POST", "/v3/jobs", payload)
                )
                break
            except ServeClientError as exc:
                if not exc.transient or attempt >= self.retries:
                    raise
            self._backoff_sleep(attempt)
        else:  # pragma: no cover — the loop always breaks or raises
            raise AssertionError("unreachable")
        if expected is not None and not (
            info.id == expected or info.id.startswith(expected + "-r")
        ):
            raise ServeClientError(
                f"server returned job id {info.id!r} for a payload that "
                f"derives {expected!r}; refusing to retry against a "
                "server that does not dedupe submissions by content"
            )
        return info

    def job(self, job_id: str) -> JobInfo:
        """The current envelope for one job (result included when done)."""
        return JobInfo.from_dict(self._call("GET", f"/v3/jobs/{job_id}"))

    def jobs(self) -> list[JobInfo]:
        """Summaries of every job the server tracks (no result payloads)."""
        listing = self._call("GET", "/v3/jobs")
        version = listing.get("schema_version")
        return [
            JobInfo.from_dict({"schema_version": version, "job": job})
            for job in listing.get("jobs", ())
        ]

    def cancel(self, job_id: str) -> JobInfo:
        """Request cooperative cancellation; the post-request snapshot back."""
        return JobInfo.from_dict(self._call("DELETE", f"/v3/jobs/{job_id}"))

    def events(
        self, job_id: str, after: int = 0, follow: bool = False
    ) -> Iterator[ProgressEvent]:
        """The job's event log; ``follow=True`` streams until terminal."""
        suffix = f"/v3/jobs/{job_id}/events?after={int(after)}"
        if follow:
            suffix += "&follow=1"
        with self._open_get(suffix) as response:
            while True:
                try:
                    line = response.readline()
                except OSError as exc:
                    # Includes socket TimeoutError: the job went longer than
                    # self.timeout between events. Surface it as the typed
                    # stall error (resumable), never a raw traceback — the
                    # job itself keeps running server-side.
                    raise ServeStreamStalled(
                        f"event stream from {self.base_url} stalled "
                        f"(no data within {self.timeout:g}s) or failed: {exc}"
                    ) from exc
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                try:
                    yield ProgressEvent.from_dict(json.loads(line))
                except (json.JSONDecodeError, ConfigurationError) as exc:
                    raise ServeClientError(
                        f"malformed event line from {self.base_url}: {exc}"
                    ) from exc

    def follow_to_completion(
        self,
        job_id: str,
        after: int = 0,
        on_event=None,
    ) -> None:
        """Stream a job's events until it is terminal, surviving stalls
        and server restarts.

        The one place the quiet-long-solve policy lives: when the follow
        stream outlives the between-events socket timeout
        (:class:`ServeStreamStalled`), the job's state is checked and the
        stream resumes from the last seen sequence number. With a durable
        server (``repro serve --state-dir``) the same resume-from-cursor
        logic rides through a crash and restart: transient connection
        failures back off and reconnect (each already GET-retried at the
        transport layer) until the retry budget is spent. Protocol
        faults propagate. ``on_event`` receives each
        :class:`ProgressEvent` exactly once — the durable event log
        replays with the same sequence numbers across restarts, so the
        cursor never re-delivers or skips.
        """
        cursor = max(0, after)
        fruitless = 0
        reconnects = 0
        while True:
            progressed = False
            try:
                for event in self.events(job_id, after=cursor, follow=True):
                    cursor = event.seq + 1
                    progressed = True
                    if on_event is not None:
                        on_event(event)
                # Clean close normally means the terminal event was sent —
                # but a dying server (SIGTERM, proxy FIN) can close early,
                # so verify rather than trust the EOF.
                if self.job(job_id).done:
                    return
            except ServeStreamStalled:
                if self.job(job_id).done:
                    return
                # Fall through to the fruitless counter: the server
                # heartbeats quiet follow streams, so a genuine client
                # timeout means the stream (not the solve) is wedged.
            except ServeClientError as exc:
                if not exc.transient:
                    raise
                # The connection died and transport-level GET retries are
                # exhausted — the server is down or mid-restart. Grant a
                # second-tier budget of reconnect rounds (reset by any
                # progress) before giving up for good.
                reconnects += 1
                if reconnects > self.retries:
                    raise ServeClientError(
                        f"lost the server while following job {job_id} "
                        f"and could not reconnect after {reconnects} "
                        f"rounds: {exc}",
                        transient=True,
                    ) from exc
                self._backoff_sleep(reconnects - 1)
                continue
            if progressed:
                reconnects = 0
            fruitless = 0 if progressed else fruitless + 1
            if fruitless >= 3:
                raise ServeClientError(
                    f"event stream for job {job_id} ended {fruitless} times "
                    "in a row without progress while the job is still "
                    "running; the server looks unhealthy"
                )

    def wait(
        self, job_id: str, timeout: float | None = None, poll_s: float = 0.25
    ) -> JobInfo:
        """Poll until the job is terminal; its final envelope back."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            info = self.job(job_id)
            if info.done:
                return info
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {info.state.value} after {timeout:g}s"
                )
            time.sleep(poll_s)

    def result(
        self, job_id: str, timeout: float | None = None
    ) -> OptimizeResponse | BatchResponse:
        """Await and decode the job's typed response (raising its failure)."""
        return self.wait(job_id, timeout=timeout).response()

    def submit_and_wait(
        self,
        request: OptimizeRequest | BatchRequest | Mapping,
        timeout: float | None = None,
        on_event=None,
    ) -> OptimizeResponse | BatchResponse:
        """The blocking convenience: submit, stream to completion, decode.

        Follows the event stream rather than polling, so completion is
        observed the moment the terminal event lands; ``on_event`` taps
        the stream (the ``repro submit --events`` hook).
        """
        info = self.submit(request)
        if not info.done:
            # From 0, not info.num_events: submission may have deduped
            # onto an already-running job, and on_event should replay its
            # whole history (plan, earlier cells), not just the tail.
            self.follow_to_completion(info.id, on_event=on_event)
        return self.result(info.id, timeout=timeout)
