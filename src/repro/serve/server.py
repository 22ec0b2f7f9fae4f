"""The asyncio routing server and the protocol front door it shares.

:class:`ProtocolFront` is the front door of both the single server and
the replicated :class:`~repro.serve.router.RoutingRouter`; it listens on
two ports:

* the **protocol port** speaks the newline-delimited JSON protocol of
  :mod:`repro.serve.protocol` and, per message, the binary wire-v2
  framing of :mod:`repro.serve.wire` (each response goes back in the
  framing of its request); requests on one connection are handled
  concurrently and answered out of order (matched by ``id``).  The
  front door decodes every message, answers ``ping`` / ``stats`` /
  ``hello`` itself, replies to anything malformed with a typed
  ``ProtocolError``, and hands parsed ``route`` requests and ``job.*``
  ops to its subclass;
* the **admin port** speaks just enough HTTP/1.0 for probes and
  scraping: ``GET /healthz`` (process liveness), ``GET /readyz``
  (``200`` while ready, ``503`` while draining), and ``GET /metrics``
  (Prometheus text exposition of the subclass's merged metrics, via
  :func:`repro.obs.prom.render_prometheus`).

One :class:`RoutingServer` owns one :class:`~repro.engine.RoutingEngine`
(or wraps a caller-provided one), an
:class:`~repro.serve.admission.AdmissionController`, a
:class:`~repro.serve.batcher.MicroBatcher`, and the chip-job
:class:`~repro.jobs.manager.JobManager`.  It routes every request and
every chip-job round in process and forks no solver workers; a host's
other cores are served by ``segroute serve --replicas N`` (see
``docs/SERVING.md``).

Graceful drain (SIGTERM/SIGINT or :meth:`ProtocolFront.request_drain`):
stop accepting, flip ``/readyz`` to 503, let every admitted request
finish (bounded by ``drain_grace``), release the subclass's resources
(the server flushes the batcher and closes the job manager and the
engine), then close client connections and the admin listener.

With a trace sink, every routed request emits a ``serve.request`` span;
when the client supplied trace context the span joins the *client's*
trace, and the engine's ``request`` span (and all spans below it) are
stitched underneath via ``route_cached(trace_parent=...)`` on a cache
hit, ``route_many(trace_parents=...)`` otherwise — one connected tree
from client to kernel, on the same path an untraced request takes.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import (
    AdmissionRejected,
    ProtocolError,
    ReproError,
    ServeError,
)
from repro.engine.config import EngineConfig
from repro.engine.engine import RoutingEngine
from repro.engine.metrics import Metrics
from repro.jobs.manager import JobManager
from repro.obs.prom import render_prometheus
from repro.obs.trace import SpanCollector, TraceSink, derive_trace_id
from repro.serve.admission import AdmissionController
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.protocol import (
    CAPABILITIES,
    JOB_OPS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHED,
    decode,
    encode,
    failure_response,
    hello_response,
    ok_response,
    parse_job_id,
    parse_job_results,
    parse_job_submit,
    parse_route_request,
)
from repro.serve.wire import (
    FRAME_JSON,
    FRAME_ROUTE,
    WIRE_V2,
    FrameTooLargeError,
    WireCodec,
    decode_route_frame,
    read_wire_message,
)

__all__ = ["ServeConfig", "ProtocolFront", "RoutingServer"]


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of one routing server (see ``docs/SERVING.md``).

    Attributes
    ----------
    host / port:
        Protocol listener.  ``port=0`` binds an ephemeral port (the
        bound port is published as :attr:`RoutingServer.port` after
        start — how the tests run hermetically).
    http_port:
        Admin/metrics listener (same host); ``0`` for ephemeral.
    timeout:
        Per-request engine deadline (seconds) applied to every batch;
        ``None`` for no deadline, otherwise positive.
    max_queue / rate / burst:
        Admission knobs — bounded queue depth, token-bucket rate
        (requests/second, ``None`` = unlimited) and burst capacity.
    drain_grace:
        Seconds to wait for in-flight requests during graceful drain.
    seed:
        Engine seed (results are bit-reproducible for a given seed) and
        the namespace for server-derived trace IDs.
    port_file:
        Path to write ``{"port", "http_port", "pid"}`` as JSON after
        both listeners have bound — how a supervising
        :class:`~repro.serve.replica.ReplicaSet` discovers the
        ephemeral ports of its replica subprocesses.
    cache_dir:
        Directory of the persistent shared canonical-result cache
        (:class:`~repro.engine.cache_store.CacheStore`), ``None`` to
        serve from the in-memory cache only.  Replicas sharing one
        directory answer each other's solved instances via the cache
        fast path, and a restarted replica keeps its history — the
        shared cache tier of ``docs/SERVING.md``.
    jobs_dir / max_active_jobs / max_queued_jobs / job_deadline_s:
        The chip-job traffic class (see ``docs/PIPELINE.md``).  Jobs
        run on a dedicated :class:`~repro.jobs.manager.JobManager`
        with its own engine and worker threads — admission for jobs is
        the manager's bounded queue, entirely separate from the
        latency queue, so long chip jobs never starve single-channel
        traffic.  ``jobs_dir`` enables journal-checkpointed durability
        (a restarted server resumes unfinished jobs bit-identically);
        ``job_deadline_s`` is the default per-job deadline when a
        submission carries none.
    fault_plan:
        Seeded fault-injection plan forwarded to both engines (chaos
        harness only); ``kill_after_checkpoints`` SIGKILLs the server
        mid-job after that many journaled channel results.  A
        :class:`~repro.serve.replica.ReplicaSet` given this config
        applies the plan's replica faults itself and does not forward
        the plan to its replicas.
    """

    host: str = "127.0.0.1"
    port: int = 7455
    http_port: int = 7456
    timeout: Optional[float] = None
    max_queue: int = 64
    rate: Optional[float] = None
    burst: Optional[float] = None
    drain_grace: float = 10.0
    seed: int = 0
    port_file: Optional[str] = None
    cache_dir: Optional[str] = None
    jobs_dir: Optional[str] = None
    max_active_jobs: int = 1
    max_queued_jobs: int = 16
    job_deadline_s: Optional[float] = None
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.drain_grace < 0:
            raise ValueError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )


class Connection:
    """The reply side of one protocol connection.

    Every response goes back in the framing its request arrived in:
    binary connections get ``ok`` route responses as packed FRAME_OK
    and every other shape as FRAME_JSON.  Encoding happens under the
    write lock because the codec buffer is per connection.
    """

    __slots__ = ("writer", "lock", "codec")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.codec = WireCodec()

    async def reply(self, message: dict, wire: str) -> None:
        async with self.lock:
            if self.writer.is_closing():
                return
            if wire == WIRE_V2:
                if (
                    message.get("status") == STATUS_OK
                    and "assignment" in message
                ):
                    data = self.codec.encode_ok(message)
                else:
                    data = self.codec.encode_json(message)
            else:
                data = encode(message)
            self.writer.write(data)
            try:
                await self.writer.drain()
            except ConnectionError:
                pass


def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except Exception:  # pragma: no cover - already torn down
        pass


class ProtocolFront:
    """Listeners, framing, dispatch, probes and drain of one front door.

    A subclass supplies what differs between a server and a router:
    :meth:`_handle_route` (one parsed route request), :meth:`_handle_job`
    (one ``job.*`` op), :meth:`_readiness`, :meth:`metrics_snapshot`,
    :meth:`_open` / :meth:`_release` (what start acquires and drain
    releases) and :meth:`_banner`.  It sets ``config`` (host, ports,
    ``drain_grace``, ``port_file``) and ``metrics`` before
    :meth:`start`.
    """

    #: Counter names; the router's live under ``serve.router.``.
    _REQUESTS = "serve.requests"
    _WIRE_V2_REQUESTS = "serve.wire_v2_requests"
    _PROTOCOL_ERRORS = "serve.protocol_errors"

    def __init__(self) -> None:
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._http: Optional[asyncio.base_events.Server] = None
        self._ready = False
        self._drained = False
        self._stop: Optional[asyncio.Event] = None
        self._inflight: set[asyncio.Task] = set()
        #: Each open protocol connection: its handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    # what a subclass supplies
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Acquire what serving needs, before the listeners bind."""

    async def _release(self) -> None:
        """Release what :meth:`_open` acquired, once in-flight work ended."""

    def _banner(self) -> str:
        raise NotImplementedError

    def _readiness(self) -> str:
        """``"ready"``, or why ``/readyz`` answers 503."""
        return "ready" if self._ready else "draining"

    def metrics_snapshot(self) -> dict:
        raise NotImplementedError

    async def _handle_route(
        self, request, conn: Connection, wire: str, started: float
    ) -> None:
        raise NotImplementedError

    async def _handle_job(
        self, op: str, message: dict, conn: Connection, wire: str
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Acquire resources, bind both listeners, write the port file."""
        await self._open()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self._http = await asyncio.start_server(
            self._on_http, self.config.host, self.config.http_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.http_port = self._http.sockets[0].getsockname()[1]
        self._ready = True
        if self.config.port_file:
            tmp = self.config.port_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({
                    "port": self.port,
                    "http_port": self.http_port,
                    "pid": os.getpid(),
                }, handle)
            os.replace(tmp, self.config.port_file)

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (call from the event loop)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support

    def request_drain(self) -> None:
        """Ask the front door to drain and stop (signal-handler safe)."""
        self._ready = False
        if self._stop is not None:
            self._stop.set()

    async def serve_forever(self) -> None:
        """Block until a drain is requested, then drain."""
        assert self._stop is not None, "start() first"
        await self._stop.wait()
        await self.drain()

    async def run(self) -> None:
        """``start`` + signal handlers + ``serve_forever`` (the CLI path)."""
        await self.start()
        self.install_signal_handlers()
        print(
            f"{self._banner()} on {self.config.host}:{self.port} "
            f"(admin http {self.config.host}:{self.http_port})",
            flush=True,
        )
        await self.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush in-flight, close all."""
        if self._drained:
            return
        self._drained = True
        self._ready = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            await asyncio.wait(
                list(self._inflight), timeout=self.config.drain_grace
            )
        await self._release()
        for writer in list(self._connections.values()):
            _close_writer(writer)
        # Let each handler see its closed stream and return, so no
        # handler is left for the event loop's teardown to cancel.
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=self.config.drain_grace
            )
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # protocol connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = Connection(writer)
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    item = await read_wire_message(reader)
                except FrameTooLargeError as exc:
                    # The stream position cannot be trusted past an
                    # insane length prefix: answer typed, then close.
                    await self._protocol_error(conn, WIRE_V2, exc)
                    break
                if item is None:
                    break
                wire, payload = item
                task = asyncio.get_running_loop().create_task(
                    self._handle_message(wire, payload, conn)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._connections[handler]
            _close_writer(writer)

    async def _protocol_error(
        self, conn: Connection, wire: str, exc: Exception,
        request_id: Optional[str] = None,
    ) -> None:
        self.metrics.incr(self._PROTOCOL_ERRORS)
        await conn.reply(failure_response(
            request_id, STATUS_ERROR, "ProtocolError", str(exc)
        ), wire)

    async def _handle_message(
        self, wire: str, payload, conn: Connection
    ) -> None:
        if wire == WIRE_V2:
            ftype, body = payload
            if ftype == FRAME_ROUTE:
                self.metrics.incr(self._REQUESTS)
                self.metrics.incr(self._WIRE_V2_REQUESTS)
                started = time.monotonic()
                try:
                    request = decode_route_frame(body)
                except ProtocolError as exc:
                    await self._protocol_error(conn, wire, exc)
                    return
                await self._handle_route(request, conn, wire, started)
                return
            if ftype != FRAME_JSON:
                await self._protocol_error(conn, wire, ProtocolError(
                    f"unknown frame type 0x{ftype:02x}"
                ))
                return
            line = body
        else:
            line = payload
        try:
            message = decode(line)
        except ProtocolError as exc:
            await self._protocol_error(conn, wire, exc)
            return
        op = message.get("op")
        if op == "ping":
            await conn.reply(self._ping(message), wire)
        elif op == "stats":
            await conn.reply({
                "v": PROTOCOL_VERSION,
                "id": message.get("id"),
                "status": STATUS_OK,
                "stats": self.metrics_snapshot(),
            }, wire)
        elif op == "hello":
            await conn.reply(
                hello_response(message.get("id"), message), wire
            )
        elif op in JOB_OPS:
            await self._handle_job(op, message, conn, wire)
        else:  # "route" (decode() already rejected unknown ops)
            self.metrics.incr(self._REQUESTS)
            started = time.monotonic()
            try:
                request = parse_route_request(message)
            except ProtocolError as exc:
                raw_id = message.get("id")
                await self._protocol_error(
                    conn, wire, exc,
                    raw_id if isinstance(raw_id, str) else None,
                )
                return
            await self._handle_route(request, conn, wire, started)

    def _ping(self, message: dict) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "id": message.get("id"),
            "status": STATUS_OK,
            "pong": True,
            "ready": self._readiness() == "ready",
            "protocol": PROTOCOL_VERSION,
            "versions": list(SUPPORTED_VERSIONS),
            "caps": list(CAPABILITIES),
        }

    # ------------------------------------------------------------------
    # admin HTTP (probes + metrics)
    # ------------------------------------------------------------------
    async def _on_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:  # drain headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if path == "/metrics":
                code, body = 200, render_prometheus(self.metrics_snapshot())
            elif path == "/healthz":
                code, body = 200, "ok\n"
            elif path == "/readyz":
                state = self._readiness()
                code, body = (200 if state == "ready" else 503), state + "\n"
            else:
                code, body = 404, f"no such path: {path}\n"
            reason = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}
            payload = body.encode("utf-8")
            writer.write(
                f"HTTP/1.0 {code} {reason.get(code, 'OK')}\r\n"
                f"Content-Type: text/plain; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1") + payload
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            _close_writer(writer)


class RoutingServer(ProtocolFront):
    """Admission → micro-batch → engine, behind the protocol front door."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[RoutingEngine] = None,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        super().__init__()
        self.config = config or ServeConfig()
        # First, so a rejected setting leaves no engine or thread behind.
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            rate=self.config.rate,
            burst=self.config.burst,
        )
        self._owns_engine = engine is None
        self.engine = engine or RoutingEngine(
            EngineConfig(
                seed=self.config.seed,
                cache_dir=self.config.cache_dir,
                fault_plan=self.config.fault_plan,
            ),
            trace_sink=trace_sink,
        )
        self.trace_sink = trace_sink or self.engine.trace_sink
        self.metrics = Metrics()
        # The job traffic class: its own engine (no request timeout, so
        # job results are digest-identical to the offline serial path)
        # sharing the persistent cache_dir tier with the latency engine,
        # and its own worker threads + bounded queue (job-class
        # admission — chip jobs never touch the latency queue).
        self.job_manager = JobManager(
            max_active=self.config.max_active_jobs,
            max_queued=self.config.max_queued_jobs,
            jobs_dir=self.config.jobs_dir,
            cache_dir=self.config.cache_dir,
            seed=self.config.seed,
            fault_plan=self.config.fault_plan,
            trace_sink=self.trace_sink,
            default_deadline_s=self.config.job_deadline_s,
        )
        self.batcher = MicroBatcher(
            self.engine,
            timeout=self.config.timeout,
            metrics=self.metrics,
            service_observer=self.admission.observe_service,
        )
        self._request_seq = 0

    # ------------------------------------------------------------------
    # front-door hooks
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        self.batcher.start()

    async def _release(self) -> None:
        await self.batcher.close()
        # Stop the job workers off-loop: a running job aborts at its
        # next round boundary and its journals stay on disk, so a
        # restart over the same jobs_dir resumes it bit-identically.
        await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: self.job_manager.close(
                timeout=max(self.config.drain_grace, 0.1)
            ),
        )
        if self._owns_engine:
            self.engine.close()

    def _banner(self) -> str:
        return "serving"

    # ------------------------------------------------------------------
    # the job path
    # ------------------------------------------------------------------
    async def _handle_job(
        self, op: str, message: dict, conn: Connection, wire: str
    ) -> None:
        """Answer one ``job.*`` op against the job manager.

        Manager calls run on the default executor: submit parses the
        netlist payload and fsyncs the job spec, cancel persists the
        outcome — none of that belongs on the event loop.  Admission
        for jobs is the manager's own bounded queue (plus the drain
        gate for new submissions), not the latency admission queue.
        """
        self.metrics.incr("serve.job_requests")
        request_id = message.get("id")
        if not isinstance(request_id, str):
            request_id = None
        loop = asyncio.get_running_loop()
        try:
            if op == "job.submit":
                if not self._ready:
                    self.metrics.incr("serve.drain_refused")
                    await conn.reply(failure_response(
                        request_id, STATUS_OVERLOADED,
                        "ServeError", "server is draining",
                    ), wire)
                    return
                job_id, spec, deadline_s = parse_job_submit(message)
                payload = await loop.run_in_executor(
                    None,
                    lambda: self.job_manager.submit(
                        spec, job_id=job_id, deadline_s=deadline_s
                    ),
                )
                body = {"job": payload}
            elif op == "job.status":
                job_id = parse_job_id(message)
                body = {"job": self.job_manager.status(job_id)}
            elif op == "job.cancel":
                job_id = parse_job_id(message)
                payload = await loop.run_in_executor(
                    None, lambda: self.job_manager.cancel(job_id)
                )
                body = {"job": payload}
            else:  # job.results
                job_id, start, limit = parse_job_results(message)
                body = {"results": self.job_manager.results(
                    job_id, start=start, limit=limit
                )}
        except AdmissionRejected as exc:
            self.metrics.incr(
                "serve.shed" if exc.status == STATUS_SHED
                else "serve.overloaded"
            )
            response = failure_response(
                request_id, exc.status, "AdmissionRejected", str(exc)
            )
        except ProtocolError as exc:
            self.metrics.incr("serve.protocol_errors")
            response = failure_response(
                request_id, STATUS_ERROR, "ProtocolError", str(exc)
            )
        except ReproError as exc:
            self.metrics.incr("serve.job_errors")
            response = failure_response(
                request_id, STATUS_ERROR, type(exc).__name__, str(exc)
            )
        else:
            response = {
                "v": PROTOCOL_VERSION,
                "id": request_id,
                "status": STATUS_OK,
                **body,
            }
        await conn.reply(response, wire)

    # ------------------------------------------------------------------
    # the route path
    # ------------------------------------------------------------------
    def _start_span(self, request):
        """Open the ``serve.request`` span (inert without a sink)."""
        self._request_seq += 1
        trace_id = ""
        if self.trace_sink is not None:
            trace_id = request.trace_id or derive_trace_id(
                self.config.seed, f"serve:{self._request_seq}"
            )
        collector = SpanCollector(trace_id, "sv", self.trace_sink)
        root = collector.start(
            "serve.request",
            parent_id=request.trace_parent,
            request=request.request_id,
        )
        return collector, root

    async def _handle_route(
        self, request, conn: Connection, wire: str, started: float
    ) -> None:
        if not self._ready:
            # Drain has been requested: existing connections stay open
            # for in-flight responses, but new route work is refused so
            # a router/load-balancer moves on immediately.
            self.metrics.incr("serve.drain_refused")
            await conn.reply(failure_response(
                request.request_id, STATUS_OVERLOADED,
                "ServeError", "server is draining",
            ), wire)
            return

        decision = self.admission.try_admit(request.deadline_ms)
        if not decision.admitted:
            self.metrics.incr(
                "serve.shed" if decision.status == STATUS_SHED
                else "serve.overloaded"
            )
            await conn.reply(failure_response(
                request.request_id, decision.status,
                "AdmissionRejected", decision.reason,
            ), wire)
            return

        collector, root = self._start_span(request)
        trace_parent = (collector.trace_id, root.span_id)
        deadline_at = (
            started + request.deadline_ms / 1000.0
            if request.deadline_ms is not None else None
        )
        try:
            # Cache fast path: a canonical-cache hit is answered inline
            # on the event loop — no batcher queue, no dispatch-thread
            # hop.  Misses fall through to the batcher, which does its
            # own cache/metrics accounting and tracing.
            result = self.engine.route_cached(
                request.channel, request.connections,
                max_segments=request.max_segments,
                weight=request.weight, algorithm=request.algorithm,
                trace_parent=trace_parent,
            )
            if result is not None:
                self.metrics.incr("serve.cache_fastpath")
                self.admission.observe_service(time.monotonic() - started)
            else:
                result = await self.batcher.submit(PendingRequest(
                    request=request,
                    future=asyncio.get_running_loop().create_future(),
                    enqueued_at=started,
                    deadline_at=deadline_at,
                    trace_parent=trace_parent,
                    wire=wire,
                ))
        except AdmissionRejected as exc:
            self.metrics.incr(
                "serve.shed" if exc.status == STATUS_SHED
                else "serve.overloaded"
            )
            response = failure_response(
                request.request_id, exc.status, "AdmissionRejected", str(exc)
            )
        except ServeError as exc:
            self.metrics.incr("serve.errors")
            response = failure_response(
                request.request_id, STATUS_ERROR, "ServeError", str(exc)
            )
        else:
            response = ok_response(request.request_id, result)
            self.metrics.incr(
                "serve.ok" if response["status"] == STATUS_OK
                else "serve.errors"
            )
        finally:
            self.admission.release()
        root.set(status=response["status"])
        root.finish()
        collector.flush()
        self.metrics.observe("serve.latency", time.monotonic() - started)
        await conn.reply(response, wire)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Merged serve + engine + job metrics (standard snapshot schema).

        Job-manager counters are all ``jobs.*``-prefixed (its dedicated
        engine appears under ``jobs.engine.*``), so the merge never
        collides with the latency engine's counters.
        """
        engine_snap = self.engine.stats()
        serve_snap = self.metrics.snapshot()
        jobs_snap = self.job_manager.metrics_snapshot()
        return {
            "counters": {
                **engine_snap["counters"], **serve_snap["counters"],
                **jobs_snap["counters"],
            },
            "derived": {
                **engine_snap["derived"], **serve_snap["derived"],
                **self.admission.snapshot(),
            },
            "histograms": {
                **engine_snap["histograms"], **serve_snap["histograms"],
                **jobs_snap["histograms"],
            },
        }
