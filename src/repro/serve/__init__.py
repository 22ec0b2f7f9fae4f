"""repro.serve — asyncio routing service in front of the engine.

The paper routes each channel "in a fraction of a second"; this package
turns that into an online service: a newline-delimited JSON protocol
with an optional negotiated binary framing for the route hot path
(:mod:`.protocol`, :mod:`.wire`), an admission layer with a bounded queue,
token-bucket rate limiting, and deadline-aware load shedding
(:mod:`.admission`), a micro-batcher that routes the requests queued
behind a running solve as one
:meth:`~repro.engine.RoutingEngine.route_many` window
(:mod:`.batcher`), the server itself with health/readiness probes, a
Prometheus ``/metrics`` endpoint, and graceful drain on SIGTERM
(:mod:`.server`), an async client SDK and the blocking client that
runs it (:mod:`.client`), and an open-/closed-loop load generator
(:mod:`.loadgen`).

For fault tolerance, the replicated tier: a :class:`ReplicaSet`
supervises N engine replica processes (heartbeats, restart with
backoff, flap quarantine — :mod:`.replica`) behind a
:class:`RoutingRouter` that places requests by consistent hash of the
canonical instance key, fails over with digest-validated replay, opens
per-replica circuit breakers, and spills past replicas that refuse
(:mod:`.router`); each replica admits its own traffic.  See
``docs/SERVING.md`` for the architecture and knobs.

Quickstart (server)::

    segroute serve --port 7455 --http-port 7456

Quickstart (replicated)::

    segroute serve --replicas 3 --port 7455 --max-queue 32

Quickstart (client)::

    from repro.serve import RoutingClient

    with RoutingClient("127.0.0.1", 7455) as client:
        result = client.route(channel, connections, max_segments=2)
        assert result.ok and result.assignment is not None
"""

from repro.core.errors import (
    AdmissionRejected,
    ConnectionLostError,
    ProtocolError,
    ReplicaError,
    ServeError,
)
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.batcher import MicroBatcher, PendingRequest
from repro.serve.client import AsyncRoutingClient, RoutingClient, ServeResult
from repro.serve.loadgen import run_loadgen
from repro.serve.protocol import (
    CAPABILITIES,
    CAP_WIRE_V1,
    CAP_WIRE_V2,
    JOB_OPS,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHED,
    SUPPORTED_VERSIONS,
)
from repro.serve.replica import ReplicaSet, ReplicaStatus, StaticReplicaSet
from repro.serve.router import CircuitBreaker, RouterConfig, RoutingRouter
from repro.serve.server import RoutingServer, ServeConfig
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    WireCodec,
    WireStats,
)

__all__ = [
    "RoutingServer",
    "ServeConfig",
    "RoutingClient",
    "AsyncRoutingClient",
    "ServeResult",
    "AdmissionController",
    "AdmissionDecision",
    "MicroBatcher",
    "PendingRequest",
    "ReplicaSet",
    "ReplicaStatus",
    "StaticReplicaSet",
    "RoutingRouter",
    "RouterConfig",
    "CircuitBreaker",
    "run_loadgen",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "CAPABILITIES",
    "JOB_OPS",
    "CAP_WIRE_V1",
    "CAP_WIRE_V2",
    "WireCodec",
    "WireStats",
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_SHED",
    "STATUS_OVERLOADED",
    "ServeError",
    "ProtocolError",
    "AdmissionRejected",
    "ConnectionLostError",
    "ReplicaError",
]
