"""The failover/hedging front router for a replicated serving tier.

A :class:`RoutingRouter` is a :class:`~repro.serve.server.ProtocolFront`,
the same front door as :class:`~repro.serve.server.RoutingServer`: both
framings, the typed protocol-error replies, ``ping`` / ``stats`` /
``hello``, the admin probes and drain are the server's own code, so
clients cannot tell the difference.  What the router supplies is what a
route request and a ``job.*`` op do — instead of routing, it *places*
each request on one of N engine replicas and survives their deaths —
plus its readiness (it also needs a live replica), the ``replicas``
field of its ``ping`` answer, and what drain releases (its replica
clients and, when owned, the replica set).  Forwarding is typed: the
parsed request is re-encoded for the replica under whatever framing
that replica connection negotiated, so binary-speaking clients stay
binary end to end (and v1 clients still benefit when the
router↔replica hop negotiates v2):

* **placement** — consistent hash of the canonical instance key
  (:func:`repro.engine.cache.canonical_key`) onto a ring of seeded
  virtual nodes per replica *index*.  Indices are stable across
  restarts, so a replica that crashes and comes back on a new port
  re-warms exactly the key range it owned before — cache affinity
  survives failover.
* **failover with digest-validated replay** — every protocol operation
  is idempotent (routing is a deterministic function of the instance
  and the shared seed), so on replica death the router simply replays
  the request on the next ring replica.  ``ok`` responses are validated
  (:meth:`~repro.core.routing.Routing.is_valid`) before being trusted:
  a garbled assignment fails over exactly like a dead connection,
  instead of reaching the client.
* **per-replica circuit breaker** — ``failure_threshold`` consecutive
  transport/validation failures open a replica's breaker; after
  ``breaker_reset_s`` one half-open probe is allowed through, and its
  outcome closes or re-opens the breaker.  Deterministic routing errors
  (``status: "error"``) are *successes* for the breaker: the replica is
  healthy, the instance is infeasible, and no other replica would
  answer differently.
* **hedging** — when a request's first attempt has not answered within
  the hedge delay (fixed ``hedge_ms``, or the observed ``p`` latency
  percentile once enough samples exist), a second attempt is raced on
  the next ring replica; the first digest-valid response wins and the
  loser is cancelled exactly once — portfolio racing one layer up.
* **admission, lifted** — each replica gets its own token bucket and
  in-flight bound at the router (``replica_rate`` / ``replica_burst`` /
  ``replica_queue``); a replica over budget is spilled past to the next
  ring candidate, and only when *every* candidate refuses does the
  client see ``overloaded``.

Serve-layer fault injection
(:meth:`~repro.engine.resilience.faults.FaultPlan.decide_serve`) is
applied here, per forward attempt: ``drop`` severs the replica
connection, ``garble`` corrupts the returned assignment (caught by
validation), ``latency`` delays the response (what trips hedging) —
all as pure functions of the plan seed, so chaos runs replay exactly.

With a trace sink the router emits ``router.request`` / one
``router.forward`` span per attempt (prefix ``rt``), parented into the
client's trace and passed as trace context to the replica, whose
``serve.request`` span nests underneath — the full tree reads client →
router → replica → engine → worker.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import ProtocolError, ReplicaError, ServeError
from repro.core.routing import Routing
from repro.engine.cache import canonical_key
from repro.engine.metrics import Metrics
from repro.engine.resilience.faults import FaultPlan, corrupt_assignment
from repro.engine.resilience.retry import RetryPolicy
from repro.obs.trace import SpanCollector, TraceSink, derive_trace_id
from repro.serve.admission import AdmissionController
from repro.serve.client import AsyncRoutingClient
from repro.serve.protocol import (
    REJECTION_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    failure_response,
    parse_job_id,
)
from repro.serve.server import Connection, ProtocolFront
from repro.substrate.prng import derive_seed

__all__ = [
    "CircuitBreaker",
    "RouterConfig",
    "RoutingRouter",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Replica connections are established lazily on the forward path, so
#: retries must stay short: a dead replica should cost milliseconds,
#: not a full client-style backoff ladder.
_FORWARD_CONNECT_POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.05, max_delay=0.2
)


class CircuitBreaker:
    """Per-replica circuit breaker: closed → open → half-open → closed.

    ``failure_threshold`` *consecutive* failures open the breaker; after
    ``reset_timeout_s`` one probe is allowed through (half-open), and
    its outcome closes (success) or re-opens (failure) the breaker.
    Clock-injectable, so the transitions unit-test without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be positive, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._probe_started_at = 0.0

    @property
    def state(self) -> str:
        """Current state (open breakers report half-open once expired)."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            return BREAKER_HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a request be sent now?  Half-open admits a single probe.

        A probe whose outcome is never recorded (a lost caller) must not
        wedge the breaker half-open forever: once ``reset_timeout_s``
        has elapsed since the stuck probe started, a new probe is
        admitted in its place.
        """
        state = self.state
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_OPEN:
            return False
        if self._probing and (
            self._clock() - self._probe_started_at < self.reset_timeout_s
        ):
            return False
        self._state = BREAKER_HALF_OPEN
        self._probing = True
        self._probe_started_at = self._clock()
        return True

    def record_success(self) -> None:
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._probing = False

    def record_failure(self) -> bool:
        """Record one failure; returns True when this *opens* the breaker."""
        self._consecutive_failures += 1
        should_open = (
            self._state == BREAKER_HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        )
        if should_open:
            newly = self._state != BREAKER_OPEN
            self._state = BREAKER_OPEN
            self._opened_at = self._clock()
            self._probing = False
            return newly
        return False

    def record_abandoned(self) -> None:
        """A probe was cancelled before completing: release the slot."""
        self._probing = False


@dataclass(frozen=True)
class RouterConfig:
    """Every knob of one routing router (see ``docs/SERVING.md``).

    Attributes
    ----------
    host / port / http_port:
        Protocol and admin listeners, as on
        :class:`~repro.serve.server.ServeConfig` (``0`` = ephemeral).
    ring_points:
        Virtual nodes per replica on the consistent-hash ring.
    failure_threshold / breaker_reset_s:
        Per-replica circuit-breaker shape.
    hedge_ms:
        Fixed hedge delay in milliseconds; ``None`` disables fixed
        hedging.
    hedge_percentile / hedge_min_samples:
        Adaptive hedging: once ``hedge_min_samples`` forward latencies
        are observed, hedge past that percentile of them.  ``hedge_ms``
        wins when both are set.
    replica_rate / replica_burst / replica_queue:
        Lifted admission: per-replica token bucket (requests/second and
        burst; ``None`` = unlimited) and in-flight bound at the router.
    forward_timeout:
        Per-attempt client timeout against a replica, seconds.
    drain_grace:
        Seconds to wait for in-flight requests during graceful drain.
    seed:
        Namespace for ring points, placement hashes and trace IDs.
    port_file:
        Optional path to write ``{"port", "http_port", "pid"}`` after
        binding, exactly as the single server does.
    """

    host: str = "127.0.0.1"
    port: int = 7465
    http_port: int = 7466
    ring_points: int = 32
    failure_threshold: int = 3
    breaker_reset_s: float = 5.0
    hedge_ms: Optional[float] = None
    hedge_percentile: Optional[float] = None
    hedge_min_samples: int = 20
    replica_rate: Optional[float] = None
    replica_burst: Optional[float] = None
    replica_queue: int = 64
    forward_timeout: Optional[float] = 30.0
    drain_grace: float = 10.0
    seed: int = 0
    port_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ring_points < 1:
            raise ValueError(
                f"ring_points must be >= 1, got {self.ring_points}"
            )
        if self.hedge_ms is not None and self.hedge_ms < 0:
            raise ValueError(f"hedge_ms must be >= 0, got {self.hedge_ms}")
        if self.hedge_percentile is not None and not (
            0.0 < self.hedge_percentile < 1.0
        ):
            raise ValueError(
                f"hedge_percentile must be in (0, 1), "
                f"got {self.hedge_percentile}"
            )
        if self.drain_grace < 0:
            raise ValueError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )


#: Per-replica counter keys tracked by the router.
_REPLICA_COUNTS = (
    "ok", "error", "failed", "refused", "spill", "hedged", "down_skips",
)


class RoutingRouter(ProtocolFront):
    """Protocol front that places, fails over, and hedges across replicas.

    ``replica_set`` is anything with the
    :class:`~repro.serve.replica.ReplicaSet` interface (``n_replicas``,
    ``endpoint(i)``, ``note_request()``, ``counters()``) — a real
    subprocess supervisor or a
    :class:`~repro.serve.replica.StaticReplicaSet` over in-process
    servers.  With ``own_replica_set=True`` the router starts/stops the
    set inside its own lifecycle (the CLI path).
    """

    _REQUESTS = "serve.router.requests"
    _WIRE_V2_REQUESTS = "serve.router.wire_v2_requests"
    _PROTOCOL_ERRORS = "serve.router.protocol_errors"

    def __init__(
        self,
        replica_set,
        config: Optional[RouterConfig] = None,
        *,
        trace_sink: Optional[TraceSink] = None,
        fault_plan: Optional[FaultPlan] = None,
        own_replica_set: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__()
        self.replica_set = replica_set
        self.config = config or RouterConfig()
        self.trace_sink = trace_sink
        self.fault_plan = fault_plan
        self.own_replica_set = own_replica_set
        self.metrics: Metrics = getattr(replica_set, "metrics", None) or (
            Metrics()
        )
        n = replica_set.n_replicas
        self.breakers = [
            CircuitBreaker(
                self.config.failure_threshold,
                self.config.breaker_reset_s,
                clock,
            )
            for _ in range(n)
        ]
        self.admissions = [
            AdmissionController(
                max_queue=self.config.replica_queue,
                rate=self.config.replica_rate,
                burst=self.config.replica_burst,
            )
            for _ in range(n)
        ]
        self._replica_counts = [
            {key: 0 for key in _REPLICA_COUNTS} for _ in range(n)
        ]
        self._ring = self._build_ring(n)
        self._clients: dict[int, AsyncRoutingClient] = {}
        # Serializes close-and-recreate per replica: two concurrent
        # forwards noticing the same dead client must not both rebuild
        # it (the loser's client would leak its reader task).
        self._client_locks = [asyncio.Lock() for _ in range(n)]
        self._latencies: list[float] = []
        self._forward_ids = itertools.count(1)
        self._request_seq = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _build_ring(self, n: int) -> list[tuple[int, int]]:
        ring = [
            (derive_seed(self.config.seed, f"ring:{idx}:{v}"), idx)
            for idx in range(n)
            for v in range(self.config.ring_points)
        ]
        ring.sort()
        return ring

    def placement(self, key: str) -> list[int]:
        """All replica indices in ring-walk order for ``key``.

        The first entry is the home replica; the rest are the failover
        order.  Pure function of ``(config.seed, key)``.
        """
        n = self.replica_set.n_replicas
        point = derive_seed(self.config.seed, f"place:{key}")
        start = bisect.bisect_left(self._ring, (point,))
        order: list[int] = []
        seen: set[int] = set()
        for offset in range(len(self._ring)):
            _, idx = self._ring[(start + offset) % len(self._ring)]
            if idx not in seen:
                seen.add(idx)
                order.append(idx)
                if len(order) == n:
                    break
        return order

    @staticmethod
    def request_key(request) -> str:
        """Canonical placement/fault key of one parsed route request."""
        return repr(canonical_key(
            request.channel, request.connections, request.max_segments,
            request.weight, request.algorithm,
        ))

    # ------------------------------------------------------------------
    # front-door hooks
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        if self.own_replica_set:
            await self.replica_set.start()

    async def _release(self) -> None:
        for client in self._clients.values():
            await client.close()
        self._clients.clear()
        if self.own_replica_set:
            await self.replica_set.stop()

    def _banner(self) -> str:
        return f"routing {self.replica_set.n_replicas} replicas"

    def _readiness(self) -> str:
        """Ready needs a live replica as well as an undrained router."""
        if not self._ready:
            return "draining"
        return "ready" if self._usable_indices() else "no live replicas"

    def _ping(self, message: dict) -> dict:
        return {
            **super()._ping(message),
            "replicas": self.replica_set.n_replicas,
        }

    # ------------------------------------------------------------------
    # the job-affinity path
    # ------------------------------------------------------------------
    async def _handle_job(
        self, op: str, message: dict, conn: Connection, wire: str
    ) -> None:
        """Forward one ``job.*`` op to the job's home replica."""
        self.metrics.incr("serve.router.job_requests")
        raw_id = message.get("id")
        request_id = raw_id if isinstance(raw_id, str) else None
        if not self._ready:
            self.metrics.incr("serve.router.drain_refused")
            await conn.reply(failure_response(
                request_id, STATUS_OVERLOADED,
                "ServeError", "router is draining",
            ), wire)
            return
        try:
            job_id = parse_job_id(message)
        except ProtocolError as exc:
            await self._protocol_error(conn, wire, exc, request_id)
            return
        response = dict(await self._forward_job(message, job_id))
        response["id"] = request_id
        await conn.reply(response, wire)

    async def _forward_job(self, message: dict, job_id: str) -> dict:
        """Affinity forwarding: placement keyed ``job:<job_id>``.

        Job state lives on one replica (its ``jobs_dir``), so *every*
        op for a job — the submit, the status polls, each results page
        — must land on the same replica; the consistent-hash walk keyed
        by the job id (not the instance) guarantees that, across router
        restarts too.  Only transport death moves to the next ring
        candidate (an idempotent resubmit re-creates the job there); a
        replica's actual answer, including refusals and ``JobNotFound``,
        is authoritative for its jobs and is returned as-is.
        """
        last_error = "no live replica"
        for idx in self.placement(f"job:{job_id}"):
            if self.replica_set.endpoint(idx) is None:
                self._replica_counts[idx]["down_skips"] += 1
                continue
            # Re-key under the router's forward-id namespace: the
            # replica connection multiplexes many front connections,
            # whose ids could collide with each other.
            forward = dict(message)
            forward["id"] = f"f{next(self._forward_ids)}"
            try:
                client = await self._client(idx)
                return await client.call(forward)
            except (ServeError, OSError) as exc:
                last_error = str(exc)
                self.metrics.incr("serve.router.job_failovers")
        self.metrics.incr("serve.router.job_errors")
        return failure_response(
            None, STATUS_ERROR, "ReplicaError",
            f"no replica could serve job {job_id!r}: {last_error}",
        )

    def _usable_indices(self) -> list[int]:
        return [
            idx for idx in range(self.replica_set.n_replicas)
            if self.replica_set.endpoint(idx) is not None
        ]

    # ------------------------------------------------------------------
    # the forwarding path
    # ------------------------------------------------------------------
    async def _handle_route(
        self, request, conn: Connection, wire: str, started: float
    ) -> None:
        if not self._ready:
            self.metrics.incr("serve.router.drain_refused")
            await conn.reply(failure_response(
                request.request_id, STATUS_OVERLOADED,
                "ServeError", "router is draining",
            ), wire)
            return

        collector = root = None
        trace_id = parent_id = ""
        if self.trace_sink is not None:
            self._request_seq += 1
            trace_id = request.trace_id or derive_trace_id(
                self.config.seed, f"router:{self._request_seq}"
            )
            collector = SpanCollector(trace_id, "rt")
            root = collector.start(
                "router.request",
                parent_id=request.trace_parent,
                request=request.request_id,
            )
            parent_id = root.span_id

        self.replica_set.note_request()
        response = await self._route_with_failover(
            request, collector, trace_id, parent_id
        )
        response = dict(response)
        response["id"] = request.request_id
        status = str(response.get("status", ""))
        self.metrics.incr(
            "serve.router.ok" if status == STATUS_OK else (
                "serve.router.refused" if status in REJECTION_STATUSES
                else "serve.router.errors"
            )
        )
        self.metrics.observe(
            "serve.router.latency", time.monotonic() - started
        )
        if collector is not None:
            root.set(status=status)
            root.finish()
            self.trace_sink.write_all(collector.drain())
        await conn.reply(response, wire)

    async def _route_with_failover(
        self, request, collector, trace_id, parent_id
    ) -> dict:
        key = self.request_key(request)
        candidates = self.placement(key)
        tried: set[int] = set()
        attempts = itertools.count()
        last_refusal: Optional[dict] = None
        hedged = False
        hedge_delay = self._hedge_delay()
        failures = 0
        # Attempts race as a pool: a straggler (e.g. a hung hedge pair
        # member) keeps racing while the loop moves on to the next
        # candidate, so one slow replica never blocks failover.  The
        # first terminal (ok/error) result wins; every completed
        # attempt settles its own breaker/failover accounting in
        # _try_replica / below, so a hedged pair that both fail counts
        # two failovers, not one.
        racing: set[asyncio.Task] = set()
        hedge_task: Optional[asyncio.Task] = None

        def spawn(idx: int) -> asyncio.Task:
            task = asyncio.get_running_loop().create_task(
                self._try_replica(
                    idx, key, request, next(attempts),
                    collector, trace_id, parent_id,
                )
            )
            racing.add(task)
            return task

        try:
            while True:
                idx = self._next_usable(candidates, tried)
                if idx is not None:
                    tried.add(idx)
                    spawn(idx)
                    if hedge_delay is not None and not hedged:
                        done, _ = await asyncio.wait(
                            racing, timeout=hedge_delay,
                            return_when=asyncio.FIRST_COMPLETED,
                        )
                        if not done:
                            hedge_idx = self._next_usable(candidates, tried)
                            if hedge_idx is not None:
                                tried.add(hedge_idx)
                                hedged = True
                                self.metrics.incr("serve.router.hedges")
                                self._replica_counts[hedge_idx][
                                    "hedged"
                                ] += 1
                                hedge_task = spawn(hedge_idx)
                elif not racing:
                    break
                done, _ = await asyncio.wait(
                    racing, return_when=asyncio.FIRST_COMPLETED
                )
                # Primary-first: a primary and its hedge finishing in
                # the same tick must not spuriously count a hedge win.
                for task in sorted(done, key=lambda t: t is hedge_task):
                    racing.discard(task)
                    try:
                        kind, response = task.result()
                    except asyncio.CancelledError:
                        raise
                    except Exception:  # pragma: no cover - defensive
                        kind, response = "failed", None
                        self.metrics.incr("serve.router.internal_errors")
                    if kind in ("ok", "error"):
                        if task is hedge_task and kind == "ok":
                            self.metrics.incr("serve.router.hedge_wins")
                        return response  # type: ignore[return-value]
                    if kind == "refused" and response is not None:
                        last_refusal = response
                    if kind == "failed":
                        failures += 1
                        self.metrics.incr("serve.router.failovers")
                        self.metrics.incr("serve.router.failover_attempts")
        finally:
            if racing:
                for straggler in racing:
                    straggler.cancel()
                if hedged:
                    self.metrics.incr("serve.router.hedge_cancelled")
                await asyncio.gather(*racing, return_exceptions=True)

        if last_refusal is not None:
            return last_refusal
        error = ReplicaError(
            f"no replica could serve the request "
            f"({failures} failed, {len(tried)} tried of "
            f"{self.replica_set.n_replicas})"
        )
        return failure_response(
            request.request_id, STATUS_ERROR, "ReplicaError", str(error)
        )

    def _next_usable(
        self, candidates: list[int], tried: set[int]
    ) -> Optional[int]:
        """Next untried candidate that is up and breaker-admitted.

        Skipped candidates are marked tried: within one request there is
        no point reconsidering a replica that was down or breaker-open
        a failover ago.
        """
        for idx in candidates:
            if idx in tried:
                continue
            if self.replica_set.endpoint(idx) is None:
                # Rerouting off a dead candidate is a failover even when
                # no attempt was wasted — the supervisor just noticed
                # the death before the router did.
                tried.add(idx)
                self.metrics.incr("serve.router.failovers")
                self.metrics.incr("serve.router.failover_down")
                self._replica_counts[idx]["down_skips"] += 1
                continue
            if not self.breakers[idx].allow():
                tried.add(idx)
                self.metrics.incr("serve.router.breaker_skips")
                continue
            return idx
        return None

    async def _try_replica(
        self, idx, key, request, attempt,
        collector, trace_id, parent_id,
    ) -> tuple[str, Optional[dict]]:
        """One admission-gated, breaker-accounted forward attempt."""
        admission = self.admissions[idx]
        decision = admission.try_admit(request.deadline_ms)
        if not decision.admitted:
            # allow() in _next_usable may have claimed the half-open
            # probe slot; nothing reached the wire, so release it.
            self.breakers[idx].record_abandoned()
            self._replica_counts[idx]["spill"] += 1
            self.metrics.incr("serve.router.spills")
            return ("refused", failure_response(
                request.request_id, decision.status,
                "AdmissionRejected", decision.reason,
            ))
        span = None
        if collector is not None:
            span = collector.start(
                "router.forward", parent_id=parent_id,
                replica=idx, attempt=attempt,
            )
        started = time.monotonic()
        try:
            kind, response = await self._forward_once(
                idx, key, request, attempt,
                trace_id, span.span_id if span is not None else "",
            )
        except asyncio.CancelledError:
            self.breakers[idx].record_abandoned()
            if span is not None:
                span.set(status="cancelled")
                span.finish()
            raise
        finally:
            admission.release()
        elapsed = time.monotonic() - started
        if kind in ("ok", "error"):
            self.breakers[idx].record_success()
            self._replica_counts[idx][
                "ok" if kind == "ok" else "error"
            ] += 1
            admission.observe_service(elapsed)
            self._latencies.append(elapsed)
            if len(self._latencies) > 1024:
                del self._latencies[:512]
        elif kind == "failed":
            self._replica_counts[idx]["failed"] += 1
            if self.breakers[idx].record_failure():
                self.metrics.incr("serve.router.breaker_opens")
        elif kind == "refused":
            # A shed says nothing about replica health — neither a
            # breaker success nor failure — but it does end the probe.
            self.breakers[idx].record_abandoned()
            self._replica_counts[idx]["refused"] += 1
        if span is not None:
            span.set(status=kind)
            span.finish()
        return (kind, response)

    async def _forward_once(
        self, idx, key, request, attempt, trace_id, span_id,
    ) -> tuple[str, Optional[dict]]:
        """Send to one replica and classify the outcome.

        Outcome kinds: ``ok`` (validated success), ``error``
        (deterministic routing error — do not fail over), ``refused``
        (replica-level shed/overload — spill), ``failed`` (transport
        death or invalid assignment — fail over + breaker).

        Forwarding is typed (``call_route`` on the parsed request), so
        a request that arrived as a binary frame is re-packed for the
        replica without ever becoming JSON — and a replica that
        negotiated wire v2 gets binary frames even for v1 clients.
        """
        fault = (
            self.fault_plan.decide_serve(key, attempt)
            if self.fault_plan is not None else None
        )
        if fault == "drop":
            self.metrics.incr("serve.router.injected_drop")
            await self._drop_client(idx)
            return ("failed", None)
        try:
            client = await self._client(idx)
        except (ServeError, OSError):
            return ("failed", None)
        try:
            response = await client.call_route(
                f"f{next(self._forward_ids)}", request,
                trace_id=trace_id, trace_parent=span_id if trace_id else "",
            )
        except (ServeError, OSError):
            return ("failed", None)
        status = response.get("status")
        if status in REJECTION_STATUSES:
            return ("refused", response)
        if status == STATUS_ERROR:
            return ("error", response)
        assignment = response.get("assignment")
        if fault == "garble":
            self.metrics.incr("serve.router.injected_garble")
            response = dict(response)
            response["assignment"] = list(corrupt_assignment(
                tuple(assignment or ()), request.channel.n_tracks
            ))
            assignment = response["assignment"]
        if not self._validate(request, assignment):
            self.metrics.incr("serve.router.invalid_responses")
            return ("failed", response)
        if fault == "latency":
            self.metrics.incr("serve.router.injected_latency")
            await asyncio.sleep(self.fault_plan.latency_seconds)
        return ("ok", response)

    @staticmethod
    def _validate(request, assignment) -> bool:
        """Digest-validate an ``ok`` response before trusting it."""
        if not isinstance(assignment, list):
            return False
        try:
            routing = Routing(
                request.channel, request.connections,
                tuple(int(t) for t in assignment),
            )
        except Exception:
            return False
        return routing.is_valid(request.max_segments)

    def _hedge_delay(self) -> Optional[float]:
        cfg = self.config
        if cfg.hedge_ms is not None:
            return cfg.hedge_ms / 1000.0
        if (
            cfg.hedge_percentile is not None
            and len(self._latencies) >= cfg.hedge_min_samples
        ):
            ordered = sorted(self._latencies)
            rank = min(
                len(ordered) - 1,
                max(0, int(round(cfg.hedge_percentile * (len(ordered) - 1)))),
            )
            return ordered[rank]
        return None

    # ------------------------------------------------------------------
    # replica clients
    # ------------------------------------------------------------------
    async def _client(self, idx: int) -> AsyncRoutingClient:
        """The (lazily connected) client for replica ``idx``.

        Recreated whenever the replica's endpoint moved (restart landed
        on a new port) or the previous connection died.
        """
        async with self._client_locks[idx]:
            endpoint = self.replica_set.endpoint(idx)
            if endpoint is None:
                raise ReplicaError(f"replica {idx} is down")
            client = self._clients.get(idx)
            if client is not None and (
                (client.host, client.port) != endpoint
                or not client.connected
            ):
                self._clients.pop(idx, None)
                await client.close()
                client = None
            if client is None:
                client = AsyncRoutingClient(
                    endpoint[0], endpoint[1],
                    timeout=self.config.forward_timeout,
                    connect_policy=_FORWARD_CONNECT_POLICY,
                    seed=derive_seed(
                        self.config.seed, f"router-client:{idx}"
                    ),
                    resend_on_reconnect=False,
                )
                await client.connect()
                self._clients[idx] = client
            return client

    async def _drop_client(self, idx: int) -> None:
        """Sever the connection to replica ``idx`` (injected ``drop``)."""
        async with self._client_locks[idx]:
            client = self._clients.pop(idx, None)
            if client is not None:
                await client.close()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def replica_counts(self) -> dict:
        """Per-replica routing counters merged with supervision state."""
        supervision = self.replica_set.counters()
        return {
            str(idx): {
                **self._replica_counts[idx],
                **supervision.get(str(idx), {}),
                "breaker": self.breakers[idx].state,
            }
            for idx in range(self.replica_set.n_replicas)
        }

    def metrics_snapshot(self) -> dict:
        """Router metrics in the standard snapshot schema.

        Per-replica counters are flattened into the counter namespace
        (``serve.router.replica0.ok`` ...) so they render to Prometheus,
        and also nested under ``"replicas"`` for reports.
        """
        snap = self.metrics.snapshot()
        counters = dict(snap["counters"])
        replicas = self.replica_counts()
        for idx, counts in replicas.items():
            for key, value in counts.items():
                if isinstance(value, int):
                    counters[f"serve.router.replica{idx}.{key}"] = value
        derived = dict(snap["derived"])
        derived["serve.router.replicas_live"] = len(self._usable_indices())
        for idx in range(self.replica_set.n_replicas):
            derived.update({
                f"serve.router.replica{idx}.queue_depth":
                    self.admissions[idx].pending,
            })
        return {
            "counters": counters,
            "derived": derived,
            "histograms": snap["histograms"],
            "replicas": replicas,
        }
