"""The routing engine.

:class:`RoutingEngine` is the serving-shaped front end to the paper's
algorithms: a batch API (:meth:`~RoutingEngine.route_many`) that fans
requests over a process pool, a canonical instance cache, per-request
deadlines with graceful degradation, and a metrics registry behind
:meth:`~RoutingEngine.stats`.  Every request takes the batch path: the
single-request :meth:`~RoutingEngine.route` is ``route_many`` of one.

A module-level default engine backs the convenience functions
:func:`route_many` and :func:`stats` (re-exported from
:mod:`repro.engine` and :mod:`repro.core.api`), so the one-liner usage is::

    from repro.engine import route_many

    results = route_many(instances, jobs=4, timeout=2.0)
    for r in results:
        assert r.ok and r.routing.is_valid()
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.core.api import ALGORITHMS
from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import CheckpointError, EngineError, ValidationError
from repro.core.routing import Routing
from repro.engine.cache import (
    InstanceCache,
    canonical_key,
    canonicalize_assignment,
    replay_assignment,
)
from repro.engine.cache_store import CacheStore
from repro.engine.config import WEIGHT_SPECS, EngineConfig
from repro.engine.executor import RouteTask, TaskOutcome
from repro.engine.metrics import Metrics
from repro.engine.resilience.checkpoint import CheckpointJournal, record_key
from repro.engine.resilience.supervisor import SupervisedExecutor, run_sequential
from repro.engine.weights import WeightTable
from repro.obs.trace import (
    ActiveSpan,
    SpanCollector,
    TraceSink,
    derive_trace_id,
)

__all__ = [
    "RoutingEngine",
    "BatchResult",
    "route_many",
    "stats",
    "reset_stats",
    "default_engine",
    "close_default_engine",
]

Instance = tuple[SegmentedChannel, ConnectionSet]
MaxSegmentsArg = Union[None, int, Sequence[Optional[int]]]

#: Per-instance external trace context: ``(trace_id, parent_span_id)``.
#: When a caller (e.g. the :mod:`repro.serve` server) already opened a
#: span for the request, the engine joins that trace instead of deriving
#: its own, so one connected tree spans client → server → worker.
TraceParent = tuple[str, str]


@dataclass
class BatchResult:
    """Outcome of one instance in a :meth:`RoutingEngine.route_many` call."""

    index: int
    channel: SegmentedChannel
    connections: ConnectionSet
    max_segments: Optional[int] = None
    routing: Optional[Routing] = None
    algorithm: Optional[str] = None
    duration: float = 0.0
    cache_hit: bool = False
    fallbacks: int = 0
    timed_out: bool = False
    error_type: Optional[str] = None
    error: Optional[str] = None
    trace_id: str = ""  # empty unless the engine has a trace sink

    @property
    def ok(self) -> bool:
        return self.routing is not None


class RoutingEngine:
    """Parallel, cached, deadline-aware routing front end.

    One engine owns one cache and one metrics registry; it is safe to
    share across threads.  Worker pools are created lazily per
    ``route_many`` call and torn down with it, so an idle engine holds no
    processes.

    With a ``trace_sink``, every request emits one span tree (see
    ``docs/OBSERVABILITY.md``): trace IDs are derived from the engine
    seed, a per-engine request-batch sequence number, and the canonical
    task key via :func:`repro.substrate.prng.derive_seed`, so re-running
    a batch regenerates identical trace IDs.  Without a sink (the
    default) every request gets an inert collector: the same code runs
    and records nothing.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.metrics = Metrics()
        self.trace_sink = trace_sink
        self.cache_store: Optional[CacheStore] = None
        if self.config.cache and self.config.cache_dir is not None:
            self.cache_store = CacheStore(
                self.config.cache_dir,
                metrics=self.metrics,
                trace_sink=trace_sink,
                seed=self.config.seed,
            )
        self.cache = InstanceCache(persist=self.cache_store)
        self._trace_lock = threading.Lock()
        self._batch_seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every resource the engine holds (idempotent).

        Marks the engine closed, so subsequent routing calls raise
        :class:`~repro.core.errors.EngineError`, and closes the
        persistent cache tier's file.  Worker pools never outlive the
        ``route_many`` call that built them, so there is none to tear
        down here.
        """
        self._closed = True
        if self.cache_store is not None:
            self.cache_store.close()

    def __enter__(self) -> "RoutingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineError("engine is closed")

    # ------------------------------------------------------------------
    # tracing plumbing
    # ------------------------------------------------------------------
    def _next_batch(self) -> int:
        """Monotonic per-engine sequence number for trace-ID derivation."""
        with self._trace_lock:
            self._batch_seq += 1
            return self._batch_seq

    def _start_trace(
        self,
        batch_no: Optional[int],
        index: int,
        key,
        algorithm: str,
        parent: Optional[TraceParent] = None,
    ) -> tuple[SpanCollector, ActiveSpan]:
        """Open the root ``request`` span for one request.

        With an external ``parent`` — ``(trace_id, parent_span_id)`` from
        a caller that already opened a span, e.g. the serving layer —
        the request span joins that trace as a child instead of rooting
        a freshly derived one.  Without a sink the collector is inert.
        A request outside any batch (``batch_no=None``) that derives its
        trace ID takes the next batch number: a batch of one.
        """
        if self.trace_sink is None:
            trace_id = parent_span = ""
        elif parent is not None:
            trace_id, parent_span = parent
        else:
            if batch_no is None:
                batch_no = self._next_batch()
            trace_id = derive_trace_id(
                self.config.seed, f"{batch_no}:{index}:{key!r}"
            )
            parent_span = ""
        collector = SpanCollector(trace_id, "p", self.trace_sink)
        root = collector.start(
            "request", parent_id=parent_span, index=index, algorithm=algorithm
        )
        return collector, root

    @staticmethod
    def _finish_trace(
        collector: SpanCollector, root: ActiveSpan, result: BatchResult
    ) -> None:
        """Close the root span with the outcome and flush to the sink."""
        result.trace_id = collector.trace_id
        root.set(ok=result.ok)
        if result.cache_hit:
            root.set(cache="hit")
        if result.algorithm:
            root.set(algorithm=result.algorithm)
        if result.fallbacks:
            root.set(fallback=True)
        if result.timed_out:
            root.set(timed_out=True)
        if result.error_type:
            root.set(error=result.error_type)
        root.finish()
        collector.flush()

    # ------------------------------------------------------------------
    # single-request API
    # ------------------------------------------------------------------
    def route(
        self,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        max_segments: Optional[int] = None,
        weight: Union[None, str, WeightTable] = None,
        algorithm: str = "auto",
        timeout: Optional[float] = None,
    ) -> Routing:
        """Route one instance through the engine.

        Like :func:`repro.core.api.route` but with the engine's cache,
        deadline/degradation, and metrics: it is :meth:`route_many` of a
        one-instance batch, run in process (``jobs=1``).  ``weight`` is
        an objective *name* (``"length"`` / ``"segments"``) or an
        explicit :class:`~repro.engine.weights.WeightTable` rather than
        a callable so requests can cross process boundaries; for
        arbitrary weight callables use the core API directly (or
        tabulate them with :meth:`WeightTable.from_function`).

        Raises the request's typed error on failure — in particular
        :class:`~repro.core.errors.EngineTimeout` when the deadline
        expires on every degradation rung.
        """
        (result,) = self.route_many(
            [(channel, connections)], max_segments=max_segments,
            weight=weight, algorithm=algorithm, jobs=1, timeout=timeout,
        )
        if not result.ok:
            TaskOutcome(
                index=0, error_type=result.error_type, error=result.error
            ).raise_error()
        return result.routing

    def route_cached(
        self,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        max_segments: Optional[int] = None,
        weight: Union[None, str, WeightTable] = None,
        algorithm: str = "auto",
        trace_parent: Optional[TraceParent] = None,
    ) -> Optional[BatchResult]:
        """Non-blocking cache probe: a completed result, or ``None``.

        The serve-layer fast path: a canonical-cache hit is answered
        with key computation + lookup + replay validation only — no
        solver, no worker pool, nothing that blocks — so an event loop
        can call this inline and skip its dispatch machinery entirely.
        A hit emits the same ``request`` → ``cache.lookup`` →
        ``cache.replay`` tree as a hit inside :meth:`route_many`, under
        ``trace_parent`` when given (without one it is traced as a batch
        of one).  On a miss (or with the cache disabled) it returns
        ``None`` and counts and emits *nothing*: the full path the
        caller falls back to does its own request/hit/miss accounting
        and tracing.  The probe therefore uses ``count_miss=False`` — a
        counted probe miss plus the fallback's counted miss would
        double-count every missed request and skew ``hit_rate`` low
        under serving load.
        """
        if not self.config.cache:
            return None
        self._ensure_open()
        weight = self._check_weight(weight)
        algorithm = self._check_algorithm(algorithm)
        key = canonical_key(channel, connections, max_segments, weight, algorithm)
        collector, root = self._start_trace(
            None, 0, key, algorithm, trace_parent
        )
        result = self._replay_cached(
            0, channel, connections, max_segments, key, collector, root,
            count_miss=False,
        )
        if result is not None:
            self.metrics.incr("requests")
            self._finish_trace(collector, root, result)
        return result

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------
    def route_many(
        self,
        instances: Iterable[Instance],
        *,
        max_segments: MaxSegmentsArg = None,
        weight: Union[None, str, WeightTable] = None,
        algorithm: str = "auto",
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        journal: Optional[CheckpointJournal] = None,
        trace_parents: Optional[Sequence[Optional[TraceParent]]] = None,
    ) -> list[BatchResult]:
        """Route a batch of instances, in input order.

        Parameters
        ----------
        instances:
            ``(channel, connections)`` pairs.
        max_segments:
            One ``K`` for the whole batch, or a per-instance sequence.
        weight:
            Objective name (``"length"`` / ``"segments"``), an explicit
            :class:`~repro.engine.weights.WeightTable`, or ``None``.
        jobs:
            Worker processes; defaults to the engine config.  ``1``
            routes sequentially in-process, which is bit-identical to
            calling :func:`repro.core.api.route` per instance.
        timeout:
            Per-request deadline (seconds); defaults to the engine
            config.
        journal:
            Optional :class:`~repro.engine.resilience.CheckpointJournal`.
            Every completed result is appended as it finishes; tasks
            whose record is already journaled (a resumed run) are
            restored — after independent re-validation — instead of
            re-run, so an interrupted batch re-runs only the lost work
            and still returns bit-identical results.
        trace_parents:
            Optional per-instance external trace context,
            ``(trace_id, parent_span_id)`` or ``None``.  When the engine
            has a trace sink, an instance with a trace parent emits its
            ``request`` span as a *child* of that span in the given
            trace (each instance's trace ID must be distinct), which is
            how the serving layer stitches client → server → worker
            spans into one tree.

        Failed requests do not raise: each :class:`BatchResult` carries
        either a validated routing or a typed error name + message, so
        one adversarial instance cannot sink the batch.  On a pool
        (``jobs > 1``), worker crashes and corrupt results are retried
        (then quarantined) under the config's
        :class:`~repro.engine.resilience.RetryPolicy`; in process each
        request runs once.
        """
        self._ensure_open()
        pairs = list(instances)
        k_list = self._per_instance_k(max_segments, len(pairs))
        parents = self._per_instance_parents(trace_parents, len(pairs))
        weight = self._check_weight(weight)
        algorithm = self._check_algorithm(algorithm)
        jobs = self.config.effective_jobs if jobs is None else max(jobs, 1)
        timeout = self.config.timeout if timeout is None else timeout
        batch_no = self._next_batch()

        results: list[Optional[BatchResult]] = [None] * len(pairs)
        tasks: list[RouteTask] = []
        keys: list = [None] * len(pairs)
        # (SpanCollector, root span) per request
        traces: list = [None] * len(pairs)
        first_of_key: dict = {}
        duplicates: list[int] = []
        for i, (channel, connections) in enumerate(pairs):
            self.metrics.incr("requests")
            key = canonical_key(channel, connections, k_list[i], weight, algorithm)
            keys[i] = key
            collector, root = traces[i] = self._start_trace(
                batch_no, i, key, algorithm, parents[i]
            )
            if journal is not None:
                restored = self._restore_journaled(
                    journal, i, key, channel, connections, k_list[i],
                    collector, root,
                )
                if restored is not None:
                    results[i] = restored
                    first_of_key.setdefault(key, i)
                    self.metrics.incr("checkpoint_records_skipped")
                    self._finish_trace(collector, root, restored)
                    continue
            if key in first_of_key:
                duplicates.append(i)  # resolved after the representative runs
                continue
            first_of_key[key] = i
            if self.config.cache:
                result = self._replay_cached(
                    i, channel, connections, k_list[i], key, collector, root,
                )
                if result is not None:
                    results[i] = result
                    self._journal_result(journal, key, result, collector, root)
                    self._finish_trace(collector, root, result)
                    continue
                self.metrics.incr("cache.misses")
            tasks.append(RouteTask(
                index=i, channel=channel, connections=connections,
                max_segments=k_list[i], weight_spec=weight,
                algorithm=algorithm, timeout=timeout,
                ladder=self.config.ladder, seed=self.config.seed,
                task_key=repr(key),
                trace_id=collector.trace_id,
                trace_parent=root.span_id,
            ))

        for outcome in self._execute(tasks, jobs):
            i = outcome.index
            channel, connections = pairs[i]
            result = BatchResult(
                index=i, channel=channel, connections=connections,
                max_segments=k_list[i],
            )
            collector, root = traces[i]
            collector.adopt(outcome.spans)
            self._absorb(result, outcome, keys[i])
            results[i] = result
            self._journal_result(journal, keys[i], result, collector, root)
            self._finish_trace(collector, root, result)

        for i in duplicates:
            collector, root = traces[i]
            results[i] = self._resolve_duplicate(
                i, pairs[i], k_list[i], results[first_of_key[keys[i]]],
                collector, root,
            )
            self._journal_result(journal, keys[i], results[i], collector, root)
            self._finish_trace(collector, root, results[i])
        return [r for r in results if r is not None]

    def _execute(
        self, tasks: list[RouteTask], jobs: int
    ) -> Iterator[TaskOutcome]:
        """Run tasks under the resilience layer, yielding as they finish:
        once each in process, or on a supervised pool that lives for
        this call."""
        if not tasks:
            return
        if jobs == 1 or len(tasks) == 1:
            yield from run_sequential(tasks)
            return
        config = self.config
        supervisor = SupervisedExecutor(
            min(jobs, len(tasks)), seed=config.seed, policy=config.retry,
            fault_plan=config.fault_plan, metrics=self.metrics,
        )
        yield from supervisor.run(tasks)

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _restore_journaled(
        self,
        journal: CheckpointJournal,
        index: int,
        key,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        k: Optional[int],
        collector: SpanCollector,
        root: ActiveSpan,
    ) -> Optional[BatchResult]:
        """Rebuild a result from its journal record, or ``None``.

        A journaled routing is re-validated against the instance it
        claims to solve; a mismatch (e.g. the manifest changed between
        runs) raises :class:`~repro.core.errors.CheckpointError` rather
        than silently serving a stale answer.
        """
        payload = journal.get(record_key(index, repr(key)))
        if payload is None:
            return None
        restore_span = collector.start("journal.restore", parent_id=root.span_id)
        result = BatchResult(
            index=index, channel=channel, connections=connections,
            max_segments=k,
        )
        result.algorithm = payload.get("algorithm")
        result.duration = float(payload.get("duration", 0.0))
        result.cache_hit = bool(payload.get("cache_hit", False))
        result.fallbacks = int(payload.get("fallbacks", 0))
        result.timed_out = bool(payload.get("timed_out", False))
        if payload.get("ok"):
            try:
                assignment = tuple(
                    int(t) for t in (payload.get("assignment") or ())
                )
                routing = Routing(channel, connections, assignment)
                routing.validate(k)
            except Exception as exc:
                restore_span.set(error=type(exc).__name__)
                restore_span.finish()
                raise CheckpointError(
                    f"journal record for instance {index} does not validate "
                    f"against the current batch (was it changed between "
                    f"runs?): {exc}"
                ) from exc
            result.routing = routing
            if self.config.cache:
                self.cache.store(key, channel, assignment)
        else:
            result.error_type = payload.get("error_type")
            result.error = payload.get("error")
        restore_span.set(ok=result.ok)
        restore_span.finish()
        return result

    def _journal_result(
        self,
        journal: Optional[CheckpointJournal],
        key,
        result: BatchResult,
        collector: SpanCollector,
        root: ActiveSpan,
    ) -> None:
        """Append one completed result to the journal (if any).

        Every routing here was already validated: by the resilience
        layer or, for cache replays and duplicates, :meth:`_finish_hit`.
        Under a fault plan with ``kill_after_checkpoints`` the process
        SIGKILLs itself once the quota is reached (the deterministic
        "interrupted batch" used by the chaos suite).
        """
        if journal is None:
            return
        rkey = record_key(result.index, repr(key))
        if journal.has(rkey):
            return
        with collector.span("journal.write", parent_id=root.span_id):
            journal.append(rkey, self._result_payload(result))
        self.metrics.incr("checkpoint_records_written")
        plan = self.config.fault_plan
        if (
            plan is not None
            and plan.kill_after_checkpoints is not None
            and journal.records_written >= plan.kill_after_checkpoints
        ):
            journal.sync()
            os.kill(os.getpid(), signal.SIGKILL)

    @staticmethod
    def _result_payload(result: BatchResult) -> dict:
        """JSON-safe journal payload for one completed result."""
        return {
            "ok": result.ok,
            "assignment": (
                list(result.routing.assignment) if result.ok else None
            ),
            "algorithm": result.algorithm,
            "duration": result.duration,
            "cache_hit": result.cache_hit,
            "fallbacks": result.fallbacks,
            "timed_out": result.timed_out,
            "error_type": result.error_type,
            "error": result.error,
            "max_segments": result.max_segments,
        }

    def _resolve_duplicate(
        self,
        index: int,
        pair: Instance,
        k: Optional[int],
        representative: BatchResult,
        collector: SpanCollector,
        root: ActiveSpan,
    ) -> BatchResult:
        """Serve an intra-batch duplicate from its representative's result."""
        channel, connections = pair
        result = BatchResult(
            index=index, channel=channel, connections=connections,
            max_segments=k,
        )
        dup_span = collector.start(
            "duplicate.replay", parent_id=root.span_id,
            representative=representative.index,
        )
        if representative.ok:
            canonical = canonicalize_assignment(
                representative.channel, representative.routing.assignment
            )
            self.metrics.incr("cache.hits")
            self._finish_hit(result, replay_assignment(channel, canonical))
        else:
            self.metrics.incr("cache.misses")
            result.error_type = representative.error_type
            result.error = representative.error
            result.timed_out = representative.timed_out
        dup_span.set(ok=result.ok)
        dup_span.finish()
        return result

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _replay_cached(
        self,
        index: int,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        k: Optional[int],
        key,
        collector: SpanCollector,
        root: ActiveSpan,
        count_miss: bool = True,
    ) -> Optional[BatchResult]:
        """A cache hit replayed onto this instance, or ``None``.

        The hit path of both :meth:`route_many` and :meth:`route_cached`:
        a ``cache.lookup`` span, then on a hit a ``cache.replay`` span.
        Only a hit that re-validates counts (``cache.hits``).
        """
        with collector.span("cache.lookup", parent_id=root.span_id) as span:
            assignment = self.cache.lookup(key, channel, count_miss=count_miss)
            span.set(hit=assignment is not None)
        if assignment is None:
            return None
        result = BatchResult(
            index=index, channel=channel, connections=connections,
            max_segments=k,
        )
        with collector.span("cache.replay", parent_id=root.span_id) as span:
            self._finish_hit(result, assignment)
            if result.error_type:  # pragma: no cover - defensive
                span.set(error=result.error_type)
        if not result.ok:  # pragma: no cover - defensive replay failure
            return None
        self.metrics.incr("cache.hits")
        return result

    @staticmethod
    def _finish_hit(result: BatchResult, assignment: tuple[int, ...]) -> None:
        """Install a cache-served assignment (always re-validated)."""
        routing = Routing(result.channel, result.connections, assignment)
        try:
            routing.validate(result.max_segments)
        except ValidationError as exc:  # pragma: no cover - defensive
            result.error_type = type(exc).__name__
            result.error = str(exc)
            return
        result.routing = routing
        result.algorithm = "cache"
        result.cache_hit = True

    def _absorb(self, result: BatchResult, outcome: TaskOutcome, key) -> None:
        """Fold a task outcome into a batch result + metrics + cache.
        An ok outcome was already validated by the resilience layer."""
        result.duration = outcome.duration
        result.fallbacks = outcome.fallbacks
        result.timed_out = outcome.timed_out
        if outcome.fallbacks:
            self.metrics.incr("fallbacks", outcome.fallbacks)
        if outcome.timed_out:
            self.metrics.incr("timeouts")
        if outcome.dp_nodes_pruned:
            self.metrics.incr("dp_nodes_pruned", outcome.dp_nodes_pruned)
        if not outcome.ok:
            result.error_type = outcome.error_type
            result.error = outcome.error
            self.metrics.incr("errors")
            return
        result.routing = Routing(
            result.channel, result.connections, outcome.assignment
        )
        result.algorithm = outcome.algorithm
        self.metrics.observe(f"latency.{outcome.algorithm}", outcome.duration)
        if self.config.cache:
            self.cache.store(key, result.channel, outcome.assignment)

    @staticmethod
    def _per_instance_k(
        max_segments: MaxSegmentsArg, n: int
    ) -> list[Optional[int]]:
        if max_segments is None or isinstance(max_segments, int):
            return [max_segments] * n
        k_list = list(max_segments)
        if len(k_list) != n:
            raise ValueError(
                f"max_segments sequence has {len(k_list)} entries "
                f"for {n} instances"
            )
        return k_list

    @staticmethod
    def _per_instance_parents(
        trace_parents: Optional[Sequence[Optional[TraceParent]]], n: int
    ) -> list[Optional[TraceParent]]:
        if trace_parents is None:
            return [None] * n
        parents = list(trace_parents)
        if len(parents) != n:
            raise ValueError(
                f"trace_parents sequence has {len(parents)} entries "
                f"for {n} instances"
            )
        return parents

    def _check_weight(self, weight):
        if (
            weight is not None
            and not isinstance(weight, WeightTable)
            and weight not in WEIGHT_SPECS
        ):
            raise ValueError(
                f"engine weight must be None, one of {WEIGHT_SPECS}, or a "
                f"WeightTable (arbitrary callables cannot cross process "
                f"boundaries; use repro.core.api.route for those, or "
                f"tabulate them with WeightTable.from_function), got "
                f"{weight!r}"
            )
        return weight

    def _check_algorithm(self, algorithm: str) -> str:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}"
            )
        return algorithm

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Metrics snapshot (counters, derived rates, latency histograms)."""
        return self.metrics.snapshot()

    def render_stats(self) -> str:
        """Human-readable stats block (the ``--stats`` CLI output)."""
        return self.metrics.render()

    def reset_stats(self) -> None:
        """Zero metrics and cache counters (the cache contents survive)."""
        self.metrics.reset()
        self.cache.hits = 0
        self.cache.misses = 0

    def clear_cache(self) -> None:
        self.cache.clear()


# ----------------------------------------------------------------------
# module-level default engine
# ----------------------------------------------------------------------
_default_engine: Optional[RoutingEngine] = None


def default_engine() -> RoutingEngine:
    """The process-wide default engine (created on first use).

    An :mod:`atexit` hook closes it at interpreter shutdown; call
    :func:`close_default_engine` to release it earlier.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = RoutingEngine()
    return _default_engine


def close_default_engine() -> None:
    """Close and discard the default engine (if one was ever created).

    The next :func:`default_engine` call starts a fresh one, so this is
    safe to call from tests and from the registered exit hook alike.
    """
    global _default_engine
    engine, _default_engine = _default_engine, None
    if engine is not None:
        engine.close()


atexit.register(close_default_engine)


def route_many(instances: Iterable[Instance], **kwargs) -> list[BatchResult]:
    """Batch-route through the default engine (see
    :meth:`RoutingEngine.route_many`)."""
    return default_engine().route_many(instances, **kwargs)


def stats() -> dict:
    """Metrics snapshot of the default engine."""
    return default_engine().stats()


def reset_stats() -> None:
    """Reset the default engine's metrics."""
    default_engine().reset_stats()
