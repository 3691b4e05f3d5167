"""Exception hierarchy for the repro library.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base type at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotationError(ReproError, ValueError):
    """A multi-dimensional network notation string could not be parsed.

    Raised by :mod:`repro.topology.notation` for malformed strings such as
    ``"RI(0)_XX(4)"``.
    """


class ConfigurationError(ReproError, ValueError):
    """An input object (workload, cost model, topology) is inconsistent."""


class MappingError(ReproError, ValueError):
    """A parallelization strategy cannot be mapped onto a network shape.

    For example, ``HP-(3, 5)`` cannot be placed on a 16-NPU network, and a
    TP degree that does not factor across dimension sizes cannot be split.

    Attributes:
        parallelism: The offending strategy, when the raiser knows it (the
            strategy-space enumerator prunes on this instead of re-parsing
            the message).
        network: Name/notation of the network the strategy failed against,
            when known.
    """

    def __init__(
        self,
        message: str,
        *,
        parallelism: object | None = None,
        network: str = "",
    ) -> None:
        super().__init__(message)
        self.parallelism = parallelism
        self.network = network


class OptimizationError(ReproError, RuntimeError):
    """The bandwidth optimizer failed to produce a feasible design point."""


class AnalysisCacheMiss(ConfigurationError):
    """An analyze request named a sweep cell absent from the result cache.

    Analysis is read-only by contract: it never runs the solver to
    materialize a missing cell. Its own subclass (rather than a bare
    :class:`ConfigurationError`) so serving layers can distinguish
    "that resource does not exist" (HTTP 404) from "that request is
    malformed" (HTTP 400)."""


class TransientError(ReproError, RuntimeError):
    """A failure that may succeed if simply tried again.

    The retry taxonomy's root: raising (or deriving from) this marks a
    failure as *transient* — a dead pool worker, an injected fault, a
    momentarily unavailable resource — so retry layers (solve-level cell
    retry in :mod:`repro.explore.executor`, job requeue in
    :mod:`repro.serve.manager`) re-attempt it with bounded backoff
    instead of recording it as a permanent error. Anything else (bad
    input, infeasible problem) stays permanent: retrying a deterministic
    failure only burns time.
    """


class JobCancelled(ReproError, RuntimeError):
    """A cooperative cancellation checkpoint observed a cancel request.

    Raised by the solver (before a solve, between multi-start seeds), the
    sweep executor (between cells/chains), and :class:`repro.serve` job
    workers when the caller-supplied ``should_stop`` predicate turns true. Deliberately
    *not* a :class:`ConfigurationError`: a cancelled operation is neither
    a bad input nor a failure, and error-containment layers (sweep error
    rows, job failure states) must let it propagate instead of recording
    it as a fault.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""
