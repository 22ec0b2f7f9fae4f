"""Task execution: worker pool, per-task seeding, and solve deadlines.

Everything that crosses a process boundary lives here as a top-level,
picklable object or function:

* :class:`RouteTask` — one routing request (instance + parameters), sent
  to pool workers by :meth:`RoutingEngine.route_many`;
* :class:`TaskOutcome` — what comes back: an assignment (not a
  :class:`Routing`; the parent rebuilds and re-validates it) plus timing
  and degradation bookkeeping;
* :func:`run_task` — executes one task, walking the degradation ladder
  (primary → ``lp`` → ``greedy1`` by default) when a deadline is set;
* :func:`attempt_route` — a single algorithm attempt, in process, under
  a cooperative :mod:`repro.substrate.deadline`: even the exact search on
  a Theorem-1/2 instance stops with :class:`EngineTimeout` soon after.

Weight objectives cross process boundaries *by name* (``"length"`` /
``"segments"``) or as an explicit picklable
:class:`~repro.engine.weights.WeightTable`: named callables close over
the channel and do not pickle, so each side rebuilds them locally via
:func:`resolve_weight`.

Determinism: workers are seeded from :mod:`repro.substrate.prng`, and
every task re-seeds from ``derive_seed(base_seed, task_key)`` before
routing, so results are bit-identical regardless of worker count or
scheduling order.

Tracing: :func:`run_task` builds a local :class:`~repro.obs.SpanCollector`
for the task's ``trace_id`` (span-ID prefix ``w<attempt>:``) and records
a ``task`` span with one ``attempt`` child per degradation rung, a
``solve`` span under each attempt, and ``kernel.dp`` children for each
DP kernel run; the finished :class:`TaskOutcome` carries them all.  A
task with no ``trace_id`` (the default) gets an inert collector, which
records nothing, and runs the same code.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import repro.core.errors as _errors
from repro.core.api import route
from repro.core.kernels import (
    consume_dp_pruned,
    consume_kernel_trace,
    set_kernel_trace,
)
from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import EngineTimeout, ReproError
from repro.core.routing import (
    WeightFunction,
    occupied_length_weight,
    segment_count_weight,
)
from repro.engine.weights import WeightTable
from repro.obs.trace import NO_TRACE, SpanCollector
from repro.substrate.deadline import bounded
from repro.substrate.prng import derive_seed

__all__ = [
    "RouteTask",
    "TaskOutcome",
    "run_task",
    "attempt_route",
    "resolve_weight",
    "worker_initializer",
]


def resolve_weight(
    weight_spec,
    channel: SegmentedChannel,
    connections: Optional[ConnectionSet] = None,
) -> Optional[WeightFunction]:
    """Rebuild a weight callable from its cross-process form.

    ``weight_spec`` is a name (``"length"`` / ``"segments"``), a
    :class:`~repro.engine.weights.WeightTable` (which needs the
    ``connections`` it is indexed by), or ``None``.
    """
    if weight_spec is None:
        return None
    if isinstance(weight_spec, WeightTable):
        if connections is None:
            raise ValueError("a WeightTable weight needs the connection set")
        weight_spec.check_shape(channel, connections)
        return weight_spec.function(connections)
    if weight_spec == "length":
        return occupied_length_weight(channel)
    if weight_spec == "segments":
        return segment_count_weight(channel)
    raise ValueError(f"unknown weight spec {weight_spec!r}")


@dataclass(frozen=True)
class RouteTask:
    """One routing request, picklable for pool submission."""

    index: int
    channel: SegmentedChannel
    connections: ConnectionSet
    max_segments: Optional[int] = None
    weight_spec: object = None  # name, WeightTable, or None
    algorithm: str = "auto"
    timeout: Optional[float] = None
    ladder: tuple[str, ...] = ()
    seed: int = 0
    task_key: str = ""
    trace_id: str = ""      # empty = tracing disabled for this task
    trace_parent: str = ""  # engine-side request span the task span links to


@dataclass
class TaskOutcome:
    """Result of :func:`run_task` for one request."""

    index: int
    assignment: Optional[tuple[int, ...]] = None
    algorithm: Optional[str] = None
    duration: float = 0.0
    fallbacks: int = 0
    timed_out: bool = False
    error_type: Optional[str] = None
    error: Optional[str] = None
    dp_nodes_pruned: int = 0
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.assignment is not None

    def raise_error(self) -> None:
        """Re-raise the recorded error as its original typed exception."""
        if self.ok:
            return
        cls = getattr(_errors, self.error_type or "", None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            raise cls(self.error or "")
        raise ReproError(f"{self.error_type}: {self.error}")


def _solve(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
    weight_spec,
    algorithm: str,
    collector: SpanCollector,
    parent_id: str,
) -> tuple[tuple[int, ...], int]:
    """Solve in-process; returns ``(assignment, dp_nodes_pruned)``.

    The pruning counter is a per-thread accumulator in
    :mod:`repro.core.kernels`; consuming it immediately before and after
    the solve isolates this attempt's contribution.  With a live
    collector, the DP kernel trace hook is enabled for the duration of
    the solve and each kernel run becomes a ``kernel.dp`` span under
    ``parent_id``.
    """
    weight = resolve_weight(weight_spec, channel, connections)
    consume_dp_pruned()  # discard any stale count from earlier work
    set_kernel_trace(bool(collector.trace_id))
    try:
        routing = route(
            channel, connections, max_segments=max_segments, weight=weight,
            algorithm=algorithm,
        )
    finally:
        records = consume_kernel_trace()
        set_kernel_trace(False)
        for rec in records:
            rec = dict(rec)
            collector.emit(
                "kernel.dp", parent_id, rec.pop("ts"), rec.pop("dur"), **rec
            )
    return routing.assignment, consume_dp_pruned()


def attempt_route(
    channel: SegmentedChannel,
    connections: ConnectionSet,
    max_segments: Optional[int],
    weight_spec,
    algorithm: str,
    timeout: Optional[float],
    collector: SpanCollector = NO_TRACE,
    parent_id: str = "",
) -> tuple[tuple[int, ...], int]:
    """Run one algorithm attempt in process, bounded by ``timeout`` seconds.

    Returns ``(assignment, dp_nodes_pruned)``.  With a timeout the solve
    raises :class:`EngineTimeout` at its first deadline check past the
    budget; without one it runs unbounded (within any deadline the
    calling thread already carries).  Any other exception (e.g. a
    ``RecursionError`` from deep backtracking) is re-raised as
    ``ReproError("<Type>: <message>")``, timed or not, so it fails this
    request alone rather than the batch it runs in.  The attempt records
    a ``solve`` span under ``parent_id`` in ``collector``, with the DP
    kernel spans beneath it.
    """
    if timeout is not None and timeout <= 0:
        raise EngineTimeout(f"no budget left for algorithm {algorithm!r}")
    with bounded(timeout):
        try:
            with collector.span("solve", parent_id, algorithm=algorithm,
                                pid=os.getpid()) as span:
                return _solve(channel, connections, max_segments,
                              weight_spec, algorithm, collector, span.span_id)
        except Exception as exc:
            if isinstance(exc, ReproError):
                raise
            raise ReproError(f"{type(exc).__name__}: {exc}") from exc


def run_task(task: RouteTask, attempt: int = 1) -> TaskOutcome:
    """Execute one task, degrading down the ladder on timeout.

    The overall deadline is shared: each rung gets an even share of the
    *remaining* budget over the remaining rungs (so with 3 rungs and a
    1s deadline the primary gets ~1/3s, and a fast primary leaves its
    unused share to the ladder).  The last rung always gets everything
    left.  A :class:`RoutingInfeasibleError` from the *primary*
    algorithm is authoritative and reported immediately; errors from
    ladder rungs are not proofs for the original request (e.g.
    ``greedy1`` failing only rules out 1-segment routings), so the
    outcome reports the timeout that started the degradation instead.

    ``attempt`` is the supervisor's 1-based submission counter; it only
    namespaces span IDs so retried attempts never collide in the trace.
    """
    random.seed(derive_seed(task.seed, task.task_key or str(task.index)))
    collector = SpanCollector(task.trace_id, f"w{attempt}:")
    task_span = collector.start(
        "task", parent_id=task.trace_parent, index=task.index,
        attempt=attempt, pid=os.getpid(),
    )
    rungs = [task.algorithm]
    if task.timeout is not None:
        rungs += [r for r in task.ladder if r not in rungs]
    deadline = (
        time.monotonic() + task.timeout if task.timeout is not None else None
    )
    outcome = TaskOutcome(index=task.index)
    start = time.monotonic()
    timed_out = False
    for rung_no, algorithm in enumerate(rungs):
        budget: Optional[float] = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            # Even share of what's left over the rungs still to try; the
            # last rung gets everything remaining.
            budget = remaining / (len(rungs) - rung_no)
        attempt_span = collector.start(
            "attempt", parent_id=task_span.span_id, algorithm=algorithm,
            rung=rung_no,
        )
        if budget is not None:
            attempt_span.set(budget=budget)
        try:
            assignment, pruned = attempt_route(
                task.channel, task.connections, task.max_segments,
                task.weight_spec, algorithm, budget,
                collector, attempt_span.span_id,
            )
        except EngineTimeout:
            attempt_span.set(outcome="timeout")
            attempt_span.finish()
            timed_out = True
            continue
        except ReproError as exc:
            attempt_span.set(outcome="error", error=type(exc).__name__)
            attempt_span.finish()
            if rung_no == 0:
                outcome.error_type = type(exc).__name__
                outcome.error = str(exc)
                break
            continue  # ladder-rung failures are not proofs; keep degrading
        attempt_span.set(outcome="ok")
        attempt_span.finish()
        outcome.assignment = assignment
        outcome.algorithm = algorithm
        outcome.fallbacks = rung_no
        outcome.dp_nodes_pruned = pruned
        break
    outcome.duration = time.monotonic() - start
    outcome.timed_out = timed_out
    if not outcome.ok and outcome.error_type is None:
        outcome.error_type = EngineTimeout.__name__
        outcome.error = (
            f"no algorithm produced a routing within {task.timeout:.3g}s "
            f"(tried {', '.join(rungs)})"
        )
    task_span.set(
        ok=outcome.ok, fallbacks=outcome.fallbacks,
        timed_out=outcome.timed_out,
    )
    if outcome.algorithm:
        task_span.set(algorithm=outcome.algorithm)
    task_span.finish()
    outcome.spans = collector.drain()
    return outcome


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
def worker_initializer(base_seed: int) -> None:
    """Seed a pool worker's global PRNG from the substrate.

    Per-task re-seeding in :func:`run_task` is what guarantees
    reproducibility; this initializer just ensures a worker that runs
    any stray pre-task code does so from a defined state.
    """
    random.seed(derive_seed(base_seed, "engine-worker-init"))
