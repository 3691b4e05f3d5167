"""Structured progress events streamed by :mod:`repro.serve` jobs.

Every observable step of a job's life becomes one immutable
:class:`ProgressEvent` with a monotonically increasing per-job sequence
number, so clients can resume a stream from any point (``?after=seq``)
and replay it deterministically — up to the per-job retention bound
(:data:`~repro.serve.jobs.EVENT_LOG_LIMIT`, newest 10k events): a
cursor that fell behind the bounded log resumes at the oldest retained
event. The terminal ``state`` event is always the newest, so lifecycle
observation never degrades. Event *kinds* partition the stream:

* ``"state"`` — a lifecycle transition (``data["state"]`` is the new
  :class:`~repro.serve.jobs.JobState` value; failures carry ``error``).
* ``"plan"`` — a sweep's execution plan after cache lookup (``total``,
  ``cached``, ``chains``, ``solver_calls``, ``fanout_cells``).
* ``"cell"`` — one sweep grid cell resolved (``done``/``total``,
  ``label``, ``status``).
* ``"chain"`` — a chain of one sweep column (a costrategy job's strategy
  column) started or finished.

The ``plan`` / ``cell`` / ``chain`` payloads are exactly the dicts the
explore executor reports through its callback seam
(:data:`repro.explore.executor.EventCallback`) — the manager stamps
identity (job id, sequence, wall-clock time) on top rather than
re-shaping them. An optimize job's solve shows in its result's
``diagnostics`` (the certified gap and the kernel's iterations), not as
an event.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.api.requests import RESPONSE_SCHEMA_VERSION, check_schema_version
from repro.utils.errors import ConfigurationError

#: Event payloads ride the v3 API schema (they were introduced by it).
EVENT_SCHEMA_VERSION = RESPONSE_SCHEMA_VERSION

#: Event kinds, in rough emission order within a job.
EVENT_KINDS = ("state", "plan", "cell", "chain")

#: Kinds earlier builds emitted and nothing emits now. Only decoding
#: accepts them, so persisted logs stay replayable: ``strategy`` bracketed
#: each strategy column of a costrategy job, and ``solve`` reported an
#: optimize job's kernel runs (``starts``, always 1).
RETIRED_EVENT_KINDS = ("strategy", "solve")


@dataclass(frozen=True)
class ProgressEvent:
    """One observable step of a job.

    Attributes:
        seq: Per-job sequence number, starting at 0, gapless.
        job_id: The job this event belongs to.
        kind: Discriminator from :data:`EVENT_KINDS` (or, in a replayed
            log, :data:`RETIRED_EVENT_KINDS`).
        at: Wall-clock emission time (``time.time()``).
        data: Kind-specific payload (JSON-ready scalars only).
    """

    seq: int
    job_id: str
    kind: str
    at: float
    data: dict

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS + RETIRED_EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.seq < 0:
            raise ConfigurationError(f"event seq must be >= 0, got {self.seq}")

    def to_dict(self) -> dict:
        """JSON-ready payload; one NDJSON line of an event stream."""
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "job_id": self.job_id,
            "kind": self.kind,
            "at": self.at,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProgressEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        # The event shape has not changed since v3, so logs persisted by
        # earlier builds stay replayable across schema bumps.
        check_schema_version(
            payload, (3, 4, EVENT_SCHEMA_VERSION), "event",
            default=EVENT_SCHEMA_VERSION,
        )
        try:
            return cls(
                seq=int(payload["seq"]),
                job_id=str(payload["job_id"]),
                kind=str(payload["kind"]),
                at=float(payload["at"]),
                data=dict(payload.get("data", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed progress-event payload: {exc}"
            ) from exc
