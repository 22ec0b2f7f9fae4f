"""Client SDK for the routing service: one async client, run blocking too.

:class:`AsyncRoutingClient` owns one connection and one background
reader task; because the protocol matches responses to requests by
``id``, any number of coroutines can have requests in flight at once —
``route_many`` is just ``asyncio.gather`` over ``route`` and exercises
the server's micro-batcher for real.  :class:`RoutingClient`, the
blocking client for scripts and the CLI, is not a second
implementation: it drives an :class:`AsyncRoutingClient` on a private
event loop, one call at a time, so the two cannot drift apart.

Connection establishment is retried with the engine's own
deterministic backoff policy
(:func:`repro.engine.resilience.retry.backoff_delay`), so "client
started before server finished binding" — the normal CI race — is
absorbed rather than surfaced.

A request that outlives the client's ``timeout`` raises a
:class:`~repro.core.errors.ServeError`; the connection stays usable
and a late reply to the abandoned request is dropped.  Mid-request
connection loss is *typed and immediate*: in-flight futures fail with
:class:`~repro.core.errors.ConnectionLostError` the moment the
transport dies instead of waiting out the request timeout.  Because
every protocol operation is idempotent (routing is a deterministic
function of the instance), the client first tries to reconnect and
transparently *resend* whatever was in flight
(``resend_on_reconnect=True``, the default); only when reconnection
fails — or resending is disabled, as the failover router requires —
does the typed error surface.

With a ``trace_sink``, every async ``route`` call emits a
``client.request`` span (prefix ``cl``) whose trace ID is derived from
``(seed, request id)`` via :func:`~repro.obs.trace.derive_trace_id`, and
the trace context rides the request so the server's and engine's spans
land in the *same* trace — ``repro.obs.report`` can then reassemble the
full client → server → worker tree.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet
from repro.core.errors import (
    AdmissionRejected,
    ConnectionLostError,
    ProtocolError,
    ServeError,
)
from repro.engine.resilience.retry import RetryPolicy, backoff_delay
from repro.obs.trace import SpanCollector, TraceSink, derive_trace_id
from repro.serve.protocol import (
    CAP_WIRE_V2,
    PROTOCOL_VERSION,
    REJECTION_STATUSES,
    STATUS_OK,
    RouteRequest,
    decode,
    hello_request,
    job_cancel_request,
    job_results_request,
    job_status_request,
    job_submit_request,
    route_request,
)
from repro.serve.wire import (
    FRAME_JSON,
    FRAME_OK,
    HEADER_SIZE,
    WIRE_V1,
    WIRE_V2,
    FrameTooLargeError,
    WireCodec,
    decode_ok_frame,
    read_wire_message,
)

__all__ = ["ServeResult", "AsyncRoutingClient", "RoutingClient"]

#: Connection-establishment retries (reuses the engine's backoff shape).
_CONNECT_POLICY = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=1.0)

#: Cap on the capability handshake round trip: a pre-``hello`` server
#: answers with an unmatchable error (id ``null``), so the client must
#: time out quickly and fall back to wire v1 instead of hanging.
_HELLO_TIMEOUT = 2.0

_UNSET = object()

#: Job states after which ``job.status`` can never change again.
_TERMINAL_JOB_STATES = ("done", "failed", "cancelled")


def _new_job_id() -> str:
    """Client-generated job id: the protocol requires one on every
    ``job.*`` op so retried submits stay idempotent."""
    return f"job-{uuid.uuid4().hex[:12]}"


def _job_spec_payload(spec) -> dict:
    """Accept a :class:`repro.jobs.ChipSpec` or a plain payload dict
    (duck-typed so the client does not import the jobs package)."""
    to_payload = getattr(spec, "to_payload", None)
    if callable(to_payload):
        return to_payload()
    return dict(spec)


def _job_payload(response: dict, key: str = "job") -> dict:
    """Unwrap one ``job.*`` response; raise typed on non-``ok``.

    Admission refusals surface as
    :class:`~repro.core.errors.AdmissionRejected` (carrying the wire
    status), everything else as :class:`~repro.core.errors.ServeError`.
    """
    status = str(response.get("status") or "")
    if status in REJECTION_STATUSES:
        raise AdmissionRejected(
            str(response.get("error") or f"job request {status}"), status
        )
    if status != STATUS_OK:
        raise ServeError(
            f"job request failed ({status or 'no status'}): "
            f"{response.get('error_type')}: {response.get('error')}"
        )
    payload = response.get(key)
    if not isinstance(payload, dict):
        raise ProtocolError(f"job response lacks a {key!r} payload")
    return payload


@dataclass(frozen=True)
class ServeResult:
    """One ``route`` response, parsed.

    ``status`` is one of the protocol statuses (``ok`` / ``error`` /
    ``shed`` / ``overloaded``); :attr:`ok` is sugar for the first.
    ``assignment`` is the raw 0-based track list (present iff ``ok``),
    ``latency`` the client-observed seconds for the full round trip.
    """

    request_id: str
    status: str
    assignment: Optional[list[int]] = None
    algorithm: Optional[str] = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    cache_hit: bool = False
    duration_ms: float = 0.0
    latency: float = 0.0
    trace_id: str = ""
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _parse_response(message: dict, latency: float) -> ServeResult:
    return ServeResult(
        request_id=str(message.get("id") or ""),
        status=str(message.get("status") or ""),
        assignment=(
            list(message["assignment"]) if "assignment" in message else None
        ),
        algorithm=message.get("algorithm"),
        error_type=message.get("error_type"),
        error=message.get("error"),
        cache_hit=bool(message.get("cache_hit", False)),
        duration_ms=float(message.get("duration_ms", 0.0)),
        latency=latency,
        trace_id=str(message.get("trace_id", "")),
        raw=message,
    )


class AsyncRoutingClient:
    """One connection, many concurrent in-flight requests.

    Use as an async context manager::

        async with AsyncRoutingClient(host, port) as client:
            results = await client.route_many(instances, max_segments=2)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7455,
        *,
        timeout: Optional[float] = 30.0,
        connect_policy: RetryPolicy = _CONNECT_POLICY,
        trace_sink: Optional[TraceSink] = None,
        seed: int = 0,
        resend_on_reconnect: bool = True,
        wire: str = "auto",
    ) -> None:
        if wire not in ("auto", "v1", "v2"):
            raise ValueError(
                f"wire must be 'auto', 'v1' or 'v2', got {wire!r}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_policy = connect_policy
        self.trace_sink = trace_sink
        self.seed = seed
        self.resend_on_reconnect = resend_on_reconnect
        #: Requested framing: ``"auto"`` negotiates via ``hello`` and
        #: falls back to v1, ``"v1"`` skips the handshake entirely,
        #: ``"v2"`` negotiates and *fails* if the server lacks it.
        self.wire = wire
        self._wire_active = WIRE_V1
        self._codec = WireCodec()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        #: request id -> (future, encode thunk, replay budget) — the
        #: thunk re-encodes the request under the *current* framing, so
        #: an in-flight request can be resent after a reconnect (which
        #: resets the framing to v1 until renegotiated).  Budget
        #: ``None`` means replay freely; the ``hello`` probe carries
        #: budget 1 so a swallowed handshake cannot reconnect-storm.
        self._pending: dict[
            str, tuple[asyncio.Future, object, Optional[int]]
        ] = {}
        self._ids = itertools.count(1)
        self._write_lock = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """One connection attempt loop with deterministic backoff."""
        last_error: Optional[Exception] = None
        for attempt in range(1, self.connect_policy.max_attempts + 1):
            if self._closed:
                raise ServeError("client is closed")
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                return
            except OSError as exc:
                last_error = exc
                if attempt < self.connect_policy.max_attempts:
                    await asyncio.sleep(backoff_delay(
                        self.connect_policy, attempt, self.seed, "connect"
                    ))
        raise ServeError(
            f"cannot connect to {self.host}:{self.port}: {last_error}"
        )

    async def connect(self) -> None:
        """Open the connection, retrying with deterministic backoff.

        Unless ``wire="v1"``, a ``hello`` handshake follows: if the
        server advertises ``wire.v2.binary``, subsequent route requests
        go out as packed binary frames.
        """
        await self._open()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="serve-client-reader"
        )
        if self.wire != "v1":
            await self._negotiate()

    async def _negotiate(self) -> None:
        """One ``hello`` round trip; degrades to v1 unless ``wire="v2"``."""
        # Outside the qN id namespace: negotiation must not shift the
        # ids observable on route requests.
        message = hello_request("hello")
        timeout = _HELLO_TIMEOUT if self.timeout is None else min(
            self.timeout, _HELLO_TIMEOUT
        )
        try:
            response = await self._send(
                str(message["id"]),
                lambda: self._codec.encode_line(message),
                timeout=timeout,
                replay=1,
            )
        except (ServeError, OSError):
            response = None
        versions = (response or {}).get("versions") or []
        caps = (response or {}).get("caps") or []
        if (
            response is not None
            and response.get("status") == STATUS_OK
            and 2 in versions
            and CAP_WIRE_V2 in caps
        ):
            self._wire_active = WIRE_V2
        elif self.wire == "v2":
            raise ServeError(
                f"server at {self.host}:{self.port} does not speak "
                f"{CAP_WIRE_V2} (versions={versions!r}, caps={caps!r})"
            )

    async def close(self) -> None:
        """Close the connection and fail anything still in flight."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        self._fail_pending(ServeError("client closed"))

    async def __aenter__(self) -> "AsyncRoutingClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    def _decode_incoming(self, wire: str, payload) -> Optional[dict]:
        """One incoming message -> response dict (stats-counted)."""
        if wire == WIRE_V2:
            ftype, body = payload
            self._codec.note_in(wire, HEADER_SIZE + len(body))
            if ftype == FRAME_OK:
                return self._codec.timed_decode(decode_ok_frame, body)
            if ftype == FRAME_JSON:
                return self._codec.timed_decode(decode, body)
            raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
        self._codec.note_in(wire, len(payload))
        return self._codec.timed_decode(decode, payload)

    async def _read_loop(self) -> None:
        while True:
            assert self._reader is not None
            error: Exception
            try:
                while True:
                    item = await read_wire_message(self._reader)
                    if item is None:
                        error = ConnectionLostError(
                            "server closed the connection"
                        )
                        break
                    try:
                        message = self._decode_incoming(*item)
                    except ProtocolError as exc:
                        self._fail_pending(exc)
                        return
                    request_id = message.get("id")
                    entry = self._pending.pop(str(request_id), None)
                    if entry is not None and not entry[0].done():
                        entry[0].set_result(message)
            except asyncio.CancelledError:
                raise
            except FrameTooLargeError as exc:
                self._fail_pending(exc)
                return
            except Exception as exc:  # connection reset etc.
                error = ConnectionLostError(f"connection lost: {exc}")
            if self._closed:
                self._fail_pending(ServeError("client closed"))
                return
            # Entries with an exhausted replay budget (the ``hello``
            # probe rides with budget 1) fail here instead of being
            # resent forever; once only exhausted probes died and
            # nothing replayable remains, the reader exits rather than
            # reconnecting with nothing to say.
            expired = [
                rid for rid, entry in self._pending.items()
                if entry[2] is not None and entry[2] <= 0
            ]
            for rid in expired:
                future = self._pending.pop(rid)[0]
                if not future.done():
                    future.set_exception(error)
            if not self.resend_on_reconnect or not self._pending:
                self._fail_pending(error)
                return
            # Reconnect and replay: route requests are idempotent, so
            # resending whatever was in flight is safe and invisible to
            # the awaiting coroutines.  The new connection has not been
            # negotiated, so the framing drops back to v1 (always
            # understood) and the thunks re-encode accordingly.
            if self._writer is not None:
                self._writer.close()
            try:
                await self._open()
            except ServeError:
                self._fail_pending(error)
                return
            self._wire_active = WIRE_V1
            async with self._write_lock:
                assert self._writer is not None
                for rid, (future, thunk, budget) in list(
                    self._pending.items()
                ):
                    self._writer.write(thunk())
                    if budget is not None:
                        self._pending[rid] = (future, thunk, budget - 1)
                try:
                    await self._writer.drain()
                except OSError:
                    pass  # the reader sees the same death next iteration

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future, _, _ in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _send(
        self,
        request_id: str,
        thunk,
        timeout=_UNSET,
        replay: Optional[int] = None,
    ) -> dict:
        """Register, encode (via ``thunk``), send, and await the match."""
        if self._writer is None:
            raise ServeError("client is not connected (call connect())")
        if self._closed:
            raise ServeError("client is closed")
        if self._reader_task is not None and self._reader_task.done():
            # The read loop exits only on terminal connection failure;
            # a request written now could never be matched to a reply.
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} lost"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (future, thunk, replay)
        try:
            async with self._write_lock:
                self._writer.write(thunk())
                await self._writer.drain()
        except OSError as exc:
            # A write onto a dead transport: when the reader task is
            # alive and resend is on, it reconnects and replays this
            # request; otherwise fail typed and immediately.
            if (not self.resend_on_reconnect
                    or self._reader_task is None
                    or self._reader_task.done()):
                self._pending.pop(request_id, None)
                raise ConnectionLostError(
                    f"connection to {self.host}:{self.port} lost "
                    f"mid-request: {exc}"
                ) from exc
        except Exception:
            self._pending.pop(request_id, None)
            raise
        effective = self.timeout if timeout is _UNSET else timeout
        try:
            if effective is not None:
                return await asyncio.wait_for(future, effective)
            return await future
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ServeError(
                f"request {request_id} timed out after {effective}s"
            ) from None

    async def _call(self, message: dict) -> dict:
        return await self._send(
            str(message["id"]), lambda: self._codec.encode_line(message)
        )

    def _next_id(self) -> str:
        return f"q{next(self._ids)}"

    @property
    def connected(self) -> bool:
        """Whether the transport (and its reader task) is still usable."""
        return (
            not self._closed
            and self._writer is not None
            and not self._writer.is_closing()
            and self._reader_task is not None
            and not self._reader_task.done()
        )

    @property
    def negotiated_wire(self) -> str:
        """Framing currently used for route requests (``v1``/``v2``)."""
        return self._wire_active

    def wire_stats(self) -> dict:
        """Serde accounting for this connection (loadgen's breakdown)."""
        snapshot = self._codec.stats.snapshot()
        snapshot["negotiated"] = self._wire_active
        return snapshot

    async def call(self, message: dict) -> dict:
        """Send one pre-built JSON wire message, await its match.

        Always NDJSON-framed (any server understands it); the packed
        fast path is :meth:`call_route`.
        """
        return await self._call(message)

    async def call_route(
        self,
        request_id: str,
        request: RouteRequest,
        *,
        trace_id: str = "",
        trace_parent: str = "",
    ) -> dict:
        """Send one route request under the negotiated framing.

        The forwarding primitive of the failover router (full control
        over request id and trace context) and the core of
        :meth:`route`.  Encodes a packed FRAME_ROUTE when the
        connection negotiated wire v2, an NDJSON line otherwise — the
        decision is re-made at (re)send time, so a replay after
        reconnect is always understood.
        """
        def thunk() -> bytes:
            if self._wire_active == WIRE_V2:
                return self._codec.encode_route(
                    request_id, request.channel, request.connections,
                    max_segments=request.max_segments,
                    weight=request.weight,
                    algorithm=request.algorithm,
                    deadline_ms=request.deadline_ms,
                    trace_id=trace_id,
                    trace_parent=trace_parent,
                )
            return self._codec.encode_line(route_request(
                request_id, request.channel, request.connections,
                max_segments=request.max_segments,
                weight=request.weight,
                algorithm=request.algorithm,
                deadline_ms=request.deadline_ms,
                trace_id=trace_id,
                trace_parent=trace_parent,
            ))

        return await self._send(request_id, thunk)

    # ------------------------------------------------------------------
    async def ping(self) -> dict:
        """Round-trip a ``ping``; returns the raw response message."""
        return await self._call({
            "v": PROTOCOL_VERSION, "id": self._next_id(), "op": "ping",
        })

    async def stats(self) -> dict:
        """Fetch the server's merged metrics snapshot."""
        response = await self._call({
            "v": PROTOCOL_VERSION, "id": self._next_id(), "op": "stats",
        })
        return response.get("stats", {})

    async def route(
        self,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        *,
        max_segments: Optional[int] = None,
        weight: Optional[str] = None,
        algorithm: str = "auto",
        deadline_ms: Optional[float] = None,
    ) -> ServeResult:
        """Route one instance; never raises for routing failures.

        Admission refusals and routing errors come back as non-``ok``
        :class:`ServeResult`\\ s; only transport problems raise.
        """
        request_id = self._next_id()
        collector = root = None
        trace_id = parent_id = ""
        if self.trace_sink is not None:
            trace_id = derive_trace_id(self.seed, f"client:{request_id}")
            collector = SpanCollector(trace_id, "cl")
            root = collector.start("client.request", request=request_id)
            parent_id = root.span_id
        request = RouteRequest(
            request_id=request_id, channel=channel, connections=connections,
            max_segments=max_segments, weight=weight, algorithm=algorithm,
            deadline_ms=deadline_ms,
        )
        started = time.monotonic()
        try:
            response = await self.call_route(
                request_id, request,
                trace_id=trace_id, trace_parent=parent_id,
            )
        except Exception:
            if collector is not None:
                root.set(status="transport-error")
                root.finish()
                self.trace_sink.write_all(collector.drain())
            raise
        latency = time.monotonic() - started
        result = _parse_response(response, latency)
        if collector is not None:
            root.set(status=result.status)
            root.finish()
            self.trace_sink.write_all(collector.drain())
        return result

    async def route_many(
        self,
        instances: Sequence[tuple[SegmentedChannel, ConnectionSet]],
        *,
        max_segments=None,
        weight: Optional[str] = None,
        algorithm: str = "auto",
        deadline_ms: Optional[float] = None,
    ) -> list[ServeResult]:
        """Fan all instances in concurrently; results in instance order.

        ``max_segments`` may be a single value or one per instance, as
        in :meth:`RoutingEngine.route_many`.
        """
        if max_segments is None or isinstance(max_segments, int):
            per_instance = [max_segments] * len(instances)
        else:
            per_instance = list(max_segments)
            if len(per_instance) != len(instances):
                raise ValueError(
                    f"max_segments has {len(per_instance)} entries for "
                    f"{len(instances)} instances"
                )
        return list(await asyncio.gather(*(
            self.route(
                channel, connections, max_segments=k, weight=weight,
                algorithm=algorithm, deadline_ms=deadline_ms,
            )
            for (channel, connections), k in zip(instances, per_instance)
        )))

    # ------------------------------------------------------------------
    # job ops
    # ------------------------------------------------------------------
    async def submit_job(
        self,
        spec,
        *,
        job_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Submit a chip-routing job; returns its status payload.

        ``spec`` is a :class:`repro.jobs.ChipSpec` or its payload dict.
        Without ``job_id`` a fresh one is generated; resubmitting the
        *same* ``(job_id, spec)`` is idempotent (it re-attaches to the
        existing job), so callers may safely retry a submit whose
        response was lost.
        """
        if job_id is None:
            job_id = _new_job_id()
        response = await self._call(job_submit_request(
            self._next_id(), job_id, _job_spec_payload(spec),
            deadline_s=deadline_s,
        ))
        return _job_payload(response)

    async def job_status(self, job_id: str) -> dict:
        """Fetch one job's status payload."""
        response = await self._call(
            job_status_request(self._next_id(), job_id)
        )
        return _job_payload(response)

    async def cancel_job(self, job_id: str) -> dict:
        """Request cancellation; returns the (possibly still
        ``running``) status payload — a live job aborts at its next
        round boundary."""
        response = await self._call(
            job_cancel_request(self._next_id(), job_id)
        )
        return _job_payload(response)

    async def job_results(
        self,
        job_id: str,
        *,
        start: int = 0,
        limit: Optional[int] = None,
    ) -> dict:
        """Fetch one cursor page of a finished job's channel records."""
        response = await self._call(job_results_request(
            self._next_id(), job_id, start=start, limit=limit,
        ))
        return _job_payload(response, "results")

    async def fetch_job_records(
        self, job_id: str, *, page_size: int = 128
    ) -> dict:
        """Stream every results page; returns the final page's metadata
        with ``records`` replaced by the full concatenated list."""
        records: list = []
        start = 0
        while True:
            page = await self.job_results(
                job_id, start=start, limit=page_size
            )
            records.extend(page.get("records") or [])
            start = int(page.get("next", start))
            if page.get("eof", True):
                return {**page, "records": records, "start": 0}

    async def wait_job(
        self,
        job_id: str,
        *,
        poll_interval: float = 0.25,
        timeout: Optional[float] = None,
    ) -> dict:
        """Poll ``job.status`` until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = await self.job_status(job_id)
            if status.get("state") in _TERMINAL_JOB_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {status.get('state')!r} after "
                    f"{timeout}s"
                )
            await asyncio.sleep(poll_interval)


class RoutingClient:
    """Blocking client: an :class:`AsyncRoutingClient` driven to completion.

    For scripts and the CLI::

        with RoutingClient(host, port) as client:
            result = client.route(channel, connections, max_segments=2)

    Every call runs the async client's coroutine on a private event
    loop (created by :meth:`connect`, closed by :meth:`close`), so
    framing, negotiation, typed errors, timeouts and reconnect-and-resend
    are the async client's, one request at a time.  Not callable from a
    thread that is running an event loop (asyncio refuses to nest
    loops); use :class:`AsyncRoutingClient` there.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7455,
        *,
        timeout: Optional[float] = 30.0,
        connect_policy: RetryPolicy = _CONNECT_POLICY,
        seed: int = 0,
        wire: str = "auto",
    ) -> None:
        if wire not in ("auto", "v1", "v2"):
            raise ValueError(
                f"wire must be 'auto', 'v1' or 'v2', got {wire!r}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_policy = connect_policy
        self.seed = seed
        self.wire = wire
        self._client: Optional[AsyncRoutingClient] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _run(self, method, *args, **kwargs):
        """Drive ``method(async_client, ...)`` to completion."""
        if self._loop is None:
            raise ServeError("client is not connected (call connect())")
        return self._loop.run_until_complete(
            method(self._client, *args, **kwargs)
        )

    def connect(self) -> None:
        """Open the connection (retrying with backoff) and negotiate."""
        self.close()
        self._loop = asyncio.new_event_loop()
        self._client = AsyncRoutingClient(
            self.host, self.port, timeout=self.timeout,
            connect_policy=self.connect_policy, seed=self.seed,
            wire=self.wire,
        )
        try:
            self._run(AsyncRoutingClient.connect)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the connection and the private event loop."""
        if self._loop is None:
            return
        try:
            if self._client is not None:
                self._loop.run_until_complete(self._client.close())
        finally:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "RoutingClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def negotiated_wire(self) -> str:
        """Framing currently used for route requests (``v1``/``v2``)."""
        if self._client is None:
            return WIRE_V1
        return self._client.negotiated_wire

    def wire_stats(self) -> dict:
        """Serde accounting for this connection."""
        if self._client is None:
            raise ServeError("client is not connected (call connect())")
        return self._client.wire_stats()

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        """Round-trip a ``ping``; returns the raw response message."""
        return self._run(AsyncRoutingClient.ping)

    def stats(self) -> dict:
        """Fetch the server's merged metrics snapshot."""
        return self._run(AsyncRoutingClient.stats)

    def route(
        self,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        *,
        max_segments: Optional[int] = None,
        weight: Optional[str] = None,
        algorithm: str = "auto",
        deadline_ms: Optional[float] = None,
    ) -> ServeResult:
        """Route one instance (see :meth:`AsyncRoutingClient.route`)."""
        return self._run(
            AsyncRoutingClient.route, channel, connections,
            max_segments=max_segments, weight=weight, algorithm=algorithm,
            deadline_ms=deadline_ms,
        )

    # ------------------------------------------------------------------
    # job ops
    # ------------------------------------------------------------------
    def submit_job(
        self,
        spec,
        *,
        job_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Submit a chip-routing job; returns its status payload."""
        return self._run(
            AsyncRoutingClient.submit_job, spec,
            job_id=job_id, deadline_s=deadline_s,
        )

    def job_status(self, job_id: str) -> dict:
        """Fetch one job's status payload."""
        return self._run(AsyncRoutingClient.job_status, job_id)

    def cancel_job(self, job_id: str) -> dict:
        """Request cancellation; returns the status payload."""
        return self._run(AsyncRoutingClient.cancel_job, job_id)

    def job_results(
        self,
        job_id: str,
        *,
        start: int = 0,
        limit: Optional[int] = None,
    ) -> dict:
        """Fetch one cursor page of a finished job's channel records."""
        return self._run(
            AsyncRoutingClient.job_results, job_id, start=start, limit=limit
        )

    def fetch_job_records(self, job_id: str, *, page_size: int = 128) -> dict:
        """Fetch every results page; ``records`` holds the full list."""
        records: list = []
        start = 0
        while True:
            page = self.job_results(job_id, start=start, limit=page_size)
            records.extend(page.get("records") or [])
            start = int(page.get("next", start))
            if page.get("eof", True):
                return {**page, "records": records, "start": 0}

    def wait_job(
        self,
        job_id: str,
        *,
        poll_interval: float = 0.25,
        timeout: Optional[float] = None,
    ) -> dict:
        """Poll ``job.status`` until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.job_status(job_id)
            if status.get("state") in _TERMINAL_JOB_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {status.get('state')!r} after "
                    f"{timeout}s"
                )
            time.sleep(poll_interval)
