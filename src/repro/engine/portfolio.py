"""Portfolio racing: run candidate algorithms concurrently, keep the winner.

The paper's algorithms dominate on different instance shapes — left-edge
on identically segmented channels, the Theorem-3 greedy for ``K = 1``,
the typed DP when tracks fall into few types, LP-then-exact elsewhere —
and the crossover points are fuzzy.  A *portfolio* sidesteps prediction:
:func:`select_candidates` picks 2–3 shape-appropriate algorithms,
:func:`race` runs each in its own forked process, and the first valid
routing wins (with a weight objective, all finishers within the deadline
are compared and the best-weight routing wins).  Losers are terminated
immediately, so the race costs wall-clock time of the *fastest* candidate
plus fork overhead, not the sum.
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait as _wait_connections
from typing import Optional

import repro.core.errors as _errors
from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import (
    EngineTimeout,
    ReproError,
    RoutingInfeasibleError,
    WorkerCrashError,
)
from repro.engine.executor import _mp_context, resolve_weight

__all__ = ["select_candidates", "race", "RaceResult"]

#: Algorithms whose ``RoutingInfeasibleError`` is a proof of infeasibility
#: in the contexts :func:`select_candidates` deploys them.
_COMPLETE = frozenset({"exact", "dp", "dp_types", "left_edge"})

# Shape limits mirror the auto dispatch in repro.core.api.
_DP_TRACK_LIMIT = 12
_TYPED_DP_TYPE_LIMIT = 4


def select_candidates(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
    weight_spec: Optional[str],
) -> tuple[str, ...]:
    """Pick 2–3 candidate algorithms for this instance's shape."""
    if max_segments == 1:
        if weight_spec is None:
            return ("greedy1", "matching")
        return ("matching", "exact")
    if channel.is_identically_segmented() and weight_spec is None:
        return ("left_edge", "lp", "exact")
    candidates: list[str] = []
    if len(channel.track_types()) <= _TYPED_DP_TYPE_LIMIT:
        candidates.append("dp_types")
    if channel.n_tracks <= _DP_TRACK_LIMIT:
        candidates.append("dp")
    if weight_spec is None:
        candidates.append("lp")
    candidates.append("exact")
    return tuple(candidates[:3])


class RaceResult:
    """Winner of a portfolio race."""

    def __init__(
        self, algorithm: str, assignment: tuple[int, ...], cancelled: int,
        dp_nodes_pruned: int = 0, spans: Optional[list] = None,
    ) -> None:
        self.algorithm = algorithm
        self.assignment = assignment
        self.cancelled = cancelled
        self.dp_nodes_pruned = dp_nodes_pruned
        #: Spans shipped back by candidates that *finished* (winner and
        #: any losers that completed before the win); terminated losers
        #: contribute nothing.
        self.spans = spans or []


def _race_entry(conn, channel, connections, max_segments, weight_spec,
                algorithm, trace=None) -> None:
    """Child entry: solve, report ``(ok, assignment, weight, pruned,
    spans)`` or an error.

    ``trace`` is ``(trace_id, parent_span_id)`` when the parent races
    under tracing; the candidate's spans ride back in the message.
    """
    import os

    from repro.core.routing import Routing
    from repro.engine.executor import _solve
    from repro.obs.trace import SpanCollector

    collector = span = None
    if trace is not None:
        trace_id, parent_span = trace
        collector = SpanCollector(trace_id, f"c:{algorithm}:")
        span = collector.start(
            "candidate", parent_id=parent_span, algorithm=algorithm,
            pid=os.getpid(),
        )
    try:
        assignment, pruned = _solve(
            channel, connections, max_segments, weight_spec, algorithm,
            collector, span.span_id if span else "",
        )
        weight = resolve_weight(weight_spec, channel, connections)
        total = (
            Routing(channel, connections, assignment).total_weight(weight)
            if weight is not None else 0.0
        )
        if span is not None:
            span.finish()
        conn.send(("ok", assignment, total, pruned,
                   collector.drain() if collector else []))
    except BaseException as exc:
        if span is not None:
            span.set(error=type(exc).__name__)
            span.finish()
        conn.send(("err", type(exc).__name__, str(exc),
                   collector.drain() if collector else []))
    finally:
        conn.close()


def race(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
    weight_spec,
    candidates: tuple[str, ...],
    timeout: Optional[float],
    trace: Optional[tuple] = None,
) -> RaceResult:
    """Race ``candidates`` on one instance; return the winner.

    Without a weight objective the first valid routing wins.  With one,
    every candidate that finishes before the deadline is collected and
    the minimum-weight routing wins.  Losers (and, on deadline expiry,
    all still-running candidates) are terminated.

    ``trace`` is ``(trace_id, parent_span_id)``; when set, each finishing
    candidate's spans come back on :attr:`RaceResult.spans`.

    Raises
    ------
    EngineTimeout
        Deadline expired with no candidate finishing successfully.
    RoutingInfeasibleError
        A complete algorithm proved the instance infeasible.
    ReproError
        Every candidate failed without a timeout (the first error is
        re-raised).
    """
    if not candidates:
        raise ValueError("race needs at least one candidate algorithm")
    ctx = _mp_context()
    runners: dict = {}  # reader connection -> (algorithm, process)
    deadline = time.monotonic() + timeout if timeout is not None else None
    finished: list[tuple[str, tuple[int, ...], float, int]] = []
    errors: list[tuple[str, str, str]] = []  # (algorithm, type, message)
    spans: list = []  # spans shipped back by finished candidates
    try:
        for algorithm in candidates:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_race_entry,
                args=(child_conn, channel, connections, max_segments,
                      weight_spec, algorithm, trace),
            )
            try:
                proc.start()
            except BaseException:
                parent_conn.close()
                child_conn.close()
                proc.close()
                raise  # started candidates are reaped by the finally below
            child_conn.close()
            runners[parent_conn] = (algorithm, proc)

        while runners:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
            ready = _wait_connections(list(runners), timeout=remaining)
            if not ready:
                break  # deadline expired
            for conn in ready:
                algorithm, proc = runners.pop(conn)
                try:
                    message = conn.recv()
                except EOFError:
                    message = (
                        "err", WorkerCrashError.__name__,
                        f"race worker for {algorithm!r} died without a result",
                    )
                finally:
                    conn.close()
                proc.join()
                proc.close()
                if message[0] == "ok":
                    spans.extend(message[4] if len(message) > 4 else [])
                    finished.append(
                        (algorithm, message[1], message[2], message[3])
                    )
                    if weight_spec is None:
                        winner = finished[0]
                        return RaceResult(
                            winner[0], winner[1], len(runners), winner[3],
                            spans,
                        )
                else:
                    spans.extend(message[3] if len(message) > 3 else [])
                    errors.append((algorithm, message[1], message[2]))
                    if (
                        message[1] == RoutingInfeasibleError.__name__
                        and algorithm in _COMPLETE
                    ):
                        raise RoutingInfeasibleError(message[2])
    finally:
        # Losers (and, on error paths, every still-registered candidate)
        # are terminated, joined, and close()d so long runs cannot leak
        # file descriptors or zombie children.
        for conn, (_, proc) in runners.items():
            conn.close()
            if proc.is_alive():
                proc.terminate()
                proc.join(0.5)
                if proc.is_alive():  # pragma: no cover
                    proc.kill()
                    proc.join()
            else:
                proc.join()
            proc.close()

    if finished:
        winner = min(finished, key=lambda item: item[2])
        return RaceResult(winner[0], winner[1], len(runners), winner[3], spans)
    if runners or not errors:
        raise EngineTimeout(
            f"no portfolio candidate finished within {timeout:.3g}s "
            f"(raced {', '.join(candidates)})"
        )
    algorithm, error_type, message = errors[0]
    cls = getattr(_errors, error_type, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        raise cls(f"[{algorithm}] {message}")
    raise ReproError(f"[{algorithm}] {error_type}: {message}")
