"""Micro-batching: route queued requests through ``route_many`` windows.

The engine's batch API amortizes canonical-key computation and cache
bookkeeping across a whole batch; feeding it singletons throws that
away.  The :class:`MicroBatcher` sits between the asyncio request
handlers and the engine: admitted requests land on an internal queue,
and a single dispatcher task routes them one *window* at a time.  The
dispatcher is work-conserving: it waits for the first request, takes
whatever else has already queued (up to 16 requests) without waiting
for more, and dispatches.  A lone request is routed at once, and
windows of more than one form only from requests that queued while the
previous window was being routed, so batching appears exactly when the
solver is the bottleneck.

Each window is partitioned by ``(weight, algorithm)`` (the two
parameters ``route_many`` fixes per call; ``max_segments`` rides along
per instance) and routed in process (``jobs=1``) on a dedicated single
worker thread, so the event loop never blocks on routing and windows
are processed in order.  A server never forks solver workers; more
cores are served by more replicas.  Requests whose deadline expired
while queued are failed with a ``shed``-typed
:class:`~repro.core.errors.AdmissionRejected` *before* the engine sees
them — a doomed request costs the solver nothing.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.core.errors import AdmissionRejected, ServeError
from repro.engine.engine import RoutingEngine
from repro.engine.metrics import Metrics
from repro.serve.protocol import STATUS_SHED, RouteRequest

__all__ = ["MicroBatcher", "PendingRequest"]

#: Queue sentinel that tells the dispatcher loop to flush and exit.
_STOP = object()

#: Most requests one window takes.  A window's answers are delivered
#: together, so an unbounded window under overload would hold its first
#: answers behind every other queued solve.
_WINDOW_CAP = 16


@dataclass
class PendingRequest:
    """One admitted request waiting for its window."""

    request: RouteRequest
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Absolute monotonic deadline, or ``None`` when the request has none.
    deadline_at: Optional[float] = None
    #: ``(trace_id, parent_span_id)`` handed to the engine, or ``None``.
    trace_parent: Optional[tuple[str, str]] = None
    #: Framing the request arrived in (``"v1"`` NDJSON / ``"v2"`` binary);
    #: the server answers in kind once the window completes.
    wire: str = "v1"


class MicroBatcher:
    """Work-conserving dispatcher in front of one :class:`RoutingEngine`.

    Parameters
    ----------
    engine:
        The engine every window is routed through.
    timeout:
        Passed through to :meth:`RoutingEngine.route_many`.
    metrics:
        Optional serve-side :class:`~repro.engine.metrics.Metrics`
        registry (``serve.batches``, ``serve.batch_size``,
        ``serve.queue_wait`` histograms).
    service_observer:
        Optional callback fed the per-request service time of each
        dispatched window (window wall time / window size) — the
        admission controller's EWMA input.
    """

    def __init__(
        self,
        engine: RoutingEngine,
        *,
        timeout: Optional[float] = None,
        metrics: Optional[Metrics] = None,
        service_observer=None,
    ) -> None:
        self.engine = engine
        self.timeout = timeout
        self.metrics = metrics
        self.service_observer = service_observer
        self._queue: asyncio.Queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-dispatch"
        )
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the dispatcher task (call from a running event loop)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="serve-batcher"
            )

    async def submit(self, pending: PendingRequest):
        """Queue one admitted request; resolves with its ``BatchResult``.

        Raises the typed rejection/teardown error set by the dispatcher
        (``AdmissionRejected`` for in-queue deadline expiry,
        ``ServeError`` if the batcher closed underneath the request).
        """
        if self._closed:
            raise ServeError("batcher is closed")
        await self._queue.put(pending)
        return await pending.future

    async def close(self) -> None:
        """Flush queued requests, then stop the dispatcher (idempotent).

        Every request already queued is still dispatched — graceful
        drain means no admitted work is dropped — and only then does the
        dispatcher exit and the dispatch thread shut down.
        """
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            await self._queue.put(_STOP)
            await self._task
            self._task = None
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value)

    async def _run(self) -> None:
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _STOP:
                break
            # The window is whatever queued while the last one ran.
            window = [first]
            while len(window) < _WINDOW_CAP and not self._queue.empty():
                item = self._queue.get_nowait()
                if item is _STOP:
                    stopping = True
                    break
                window.append(item)
            await self._dispatch(window)
        # Flush anything that arrived behind the sentinel.
        tail: list[PendingRequest] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _STOP:
                tail.append(item)
        if tail:
            await self._dispatch(tail)

    async def _dispatch(self, window: list[PendingRequest]) -> None:
        """Shed expired requests, then route one window through the engine."""
        now = time.monotonic()
        live: list[PendingRequest] = []
        for pending in window:
            if pending.future.cancelled():
                continue
            if pending.deadline_at is not None and now > pending.deadline_at:
                pending.future.set_exception(AdmissionRejected(
                    "deadline expired while queued "
                    f"(waited {(now - pending.enqueued_at) * 1000:.1f}ms)",
                    status=STATUS_SHED,
                ))
                continue
            live.append(pending)
            self._observe("serve.queue_wait", now - pending.enqueued_at)
        if not live:
            return
        self._incr("serve.batches")
        self._observe("serve.batch_size", float(len(live)))
        v2 = sum(1 for pending in live if pending.wire == "v2")
        if v2:
            self._incr("serve.wire_v2_batched", v2)
        started = time.monotonic()
        for group in self._partition(live):
            await self._route_group(group)
        if self.service_observer is not None:
            self.service_observer(
                (time.monotonic() - started) / len(live)
            )

    @staticmethod
    def _partition(window: list[PendingRequest]) -> list[list[PendingRequest]]:
        """Split a window by the parameters ``route_many`` fixes per call."""
        groups: dict[tuple, list[PendingRequest]] = {}
        for pending in window:
            key = (pending.request.weight, pending.request.algorithm)
            groups.setdefault(key, []).append(pending)
        return list(groups.values())

    async def _route_group(self, group: list[PendingRequest]) -> None:
        loop = asyncio.get_running_loop()
        requests = [p.request for p in group]
        call = partial(
            self.engine.route_many,
            [(r.channel, r.connections) for r in requests],
            max_segments=[r.max_segments for r in requests],
            weight=requests[0].weight,
            algorithm=requests[0].algorithm,
            jobs=1,
            timeout=self.timeout,
            trace_parents=[p.trace_parent for p in group],
        )
        try:
            results = await loop.run_in_executor(self._executor, call)
        except Exception as exc:
            for pending in group:
                if not pending.future.cancelled():
                    pending.future.set_exception(
                        ServeError(f"batch dispatch failed: {exc}")
                    )
            return
        for pending, result in zip(group, results):
            if not pending.future.cancelled():
                pending.future.set_result(result)
