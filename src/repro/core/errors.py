"""Exception hierarchy for the segmented channel routing library.

All exceptions raised deliberately by :mod:`repro` derive from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish modelling errors
(bad input data) from algorithmic outcomes (no routing exists).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ChannelError(ReproError):
    """A segmented channel definition is malformed.

    Raised for switch positions outside the channel, unsorted or duplicate
    break positions, non-positive dimensions, and similar modelling errors.
    """


class ConnectionError_(ReproError):
    """A connection or connection set is malformed.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`ConnectionError` (an OSError subclass unrelated to routing).
    """


class RoutingInfeasibleError(ReproError):
    """No routing satisfying the requested constraints exists.

    Algorithms that *prove* infeasibility (exact DP, exact backtracking,
    the Theorem-3 greedy for 1-segment routing) raise this.  Heuristics
    that merely *fail to find* a routing raise :class:`HeuristicFailure`
    instead, because the instance may still be routable.
    """


class NodeLimitExceeded(RoutingInfeasibleError):
    """An exact search gave up after expanding its node limit.

    Raised by the assignment-graph DPs and the backtracking solvers when
    the state space outgrows ``node_limit``.  Unlike its base class it
    proves nothing: feasibility is undecided, and the ``auto`` dispatch
    falls through to the next algorithm.
    """


class HeuristicFailure(ReproError):
    """A heuristic algorithm failed to find a routing.

    Unlike :class:`RoutingInfeasibleError` this carries no proof of
    infeasibility; an exact algorithm may still succeed.
    """


class LPInfeasibilityProof(HeuristicFailure):
    """The LP relaxation's optimum is below ``M``.

    The relaxation upper-bounds the 0-1 optimum, so this failure of the
    LP heuristic *does* prove that no complete routing exists; the
    ``auto`` dispatch reports it as :class:`RoutingInfeasibleError`.
    """


class ValidationError(ReproError):
    """A routing object violates the rules of Definition 1 or 2.

    Raised by the validators in :mod:`repro.core.routing` when a segment is
    occupied by more than one connection, a connection exceeds its segment
    budget, or an assignment refers to a nonexistent track.
    """


class FormatError(ReproError):
    """A serialized channel/connection/routing file cannot be parsed."""


class ManifestError(FormatError):
    """A batch manifest (JSONL) line is malformed.

    The message names the manifest path and 1-based line number of the
    offending record, so a single garbage line in a large corpus can be
    located and fixed without a traceback.
    """


class EngineError(ReproError):
    """Base class for errors raised by the :mod:`repro.engine` subsystem."""


class EngineTimeout(EngineError):
    """A routing request exceeded its deadline.

    Raised by the engine when every rung of the degradation ladder
    (e.g. ``exact`` → ``lp`` → ``greedy``) ran out of time before
    producing a valid routing, and by :func:`repro.substrate.deadline.check`
    when a solver reaches one of its budget checks after the deadline.
    """


class EngineCancelled(EngineError):
    """A routing attempt was cancelled before completing.

    Raised for portfolio-race losers whose worker processes were
    terminated once a winner was found, and for requests abandoned when
    an engine is shut down.
    """


class WorkerCrashError(EngineError):
    """A worker process died before delivering a result.

    Covers genuine crashes (segfault, OOM kill, ``os._exit``), workers
    killed by the hang watchdog, and pipe EOFs from portfolio candidates
    that exited without reporting.  Retryable by default: the crash says
    nothing about the instance, only about the worker.
    """


class TaskQuarantinedError(EngineError):
    """A task was quarantined after crashing too many workers.

    A *poison* task — one that reproducibly kills its worker — would
    otherwise wedge the pool in a crash/rebuild loop.  After
    ``RetryPolicy.max_worker_crashes`` crashes the engine permanently
    fails the task with this error and the batch moves on.
    """


class CheckpointError(EngineError):
    """A checkpoint journal is corrupt or inconsistent.

    Raised when a journal record fails its checksum mid-file, or when a
    journaled result does not validate against the instance it claims to
    solve (e.g. the manifest changed between runs).
    """


class CacheCorruptionWarning(UserWarning):
    """A persistent-cache segment record failed its digest check.

    Unlike a checkpoint journal (whose mid-file corruption raises
    :class:`CheckpointError`, because silently dropping a journaled
    result would lose work), the persistent canonical-result cache is
    advisory: a record that fails validation is *skipped* — the worst
    outcome is a re-solve — so corruption surfaces as this warning plus
    the ``cache.persist.corrupt_records`` counter instead of an error.
    """


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` subsystem."""


class ProtocolError(ServeError):
    """A wire message violates the serving protocol.

    Raised for lines that are not JSON objects, carry an unsupported
    protocol version, name an unknown operation, or embed an instance
    payload that cannot be parsed.  The server answers with a typed
    ``error`` response instead of dropping the connection.
    """


class ConnectionLostError(ServeError):
    """The transport under an in-flight request died.

    Raised by the client SDKs when the server closes (or the network
    drops) a connection that still has requests outstanding — the
    futures fail *immediately* with this error instead of waiting out
    the request timeout.  Route requests are idempotent (routing is a
    deterministic function of the instance), so the async client will
    transparently reconnect and resend in-flight requests when
    ``resend_on_reconnect`` is enabled; this error surfaces only when
    reconnection itself fails or resending is disabled.
    """


class ReplicaError(ServeError):
    """A replicated serving tier could not complete a request.

    Raised (and returned as a typed ``error`` response) by the
    :mod:`repro.serve.router` front process when every candidate replica
    failed a request — all crashed, quarantined, or breaker-open.  With
    at least one healthy replica the router fails over instead, so
    clients see this only on total fleet loss.
    """


class AdmissionRejected(ServeError):
    """A request was refused by the admission layer instead of queued.

    ``status`` distinguishes the two refusal kinds: ``"shed"`` for
    deadline-doomed work (the estimated queue wait exceeds the request's
    remaining deadline, so queuing it would only produce a timeout) and
    ``"overloaded"`` for capacity refusals (admission queue full, or the
    token-bucket rate limit is exhausted).  Clients should back off and
    retry ``overloaded`` rejections; ``shed`` rejections are final for
    the given deadline.
    """

    def __init__(self, message: str = "", status: str = "overloaded") -> None:
        super().__init__(message)
        self.status = status
