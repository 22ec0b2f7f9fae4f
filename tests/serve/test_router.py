"""Failover router: placement, breakers, failover, spill, drain.

The router is tested against a :class:`StaticReplicaSet` naming real
in-loop :class:`RoutingServer` instances — the full protocol path runs,
only the subprocess supervisor is swapped out (that one is exercised in
``test_replica.py`` and the chaos suite).
"""

import asyncio
import json

import pytest

from repro.engine import EngineConfig, RoutingEngine
from repro.io.results import digest_records, result_record
from repro.serve import (
    AsyncRoutingClient,
    CircuitBreaker,
    RouterConfig,
    RoutingRouter,
    RoutingServer,
    ServeConfig,
    StaticReplicaSet,
    STATUS_OK,
    STATUS_OVERLOADED,
)
from repro.serve.loadgen import build_corpus
from repro.serve.protocol import parse_route_request, route_request
from repro.serve.router import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)

pytestmark = pytest.mark.serve


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, clock=clock)
    assert breaker.state == BREAKER_CLOSED
    assert breaker.record_failure() is False
    assert breaker.record_failure() is False
    assert breaker.state == BREAKER_CLOSED and breaker.allow()
    assert breaker.record_failure() is True  # newly opened
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED  # streak broken by the success


def test_breaker_half_open_admits_a_single_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, reset_timeout_s=5.0, clock=clock
    )
    breaker.record_failure()
    assert not breaker.allow()
    clock.advance(5.0)
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()       # the probe
    assert not breaker.allow()   # but only one
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow()


def test_breaker_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=3, reset_timeout_s=1.0, clock=clock
    )
    for _ in range(3):
        breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()
    # One failed probe re-opens immediately, threshold notwithstanding.
    assert breaker.record_failure() is True
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()


def test_breaker_stale_probe_expires_and_readmits():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, reset_timeout_s=1.0, clock=clock
    )
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()       # the probe
    assert not breaker.allow()   # outstanding
    # The probe's outcome is never recorded (lost caller): after the
    # reset timeout a replacement probe must be admitted, not a wedge.
    clock.advance(1.0)
    assert breaker.allow()
    assert not breaker.allow()


def test_breaker_abandoned_probe_releases_the_slot():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, reset_timeout_s=1.0, clock=clock
    )
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()
    assert not breaker.allow()
    breaker.record_abandoned()  # probe cancelled, e.g. its client left
    assert breaker.allow()


@pytest.mark.parametrize("kwargs", [
    {"failure_threshold": 0},
    {"reset_timeout_s": 0.0},
])
def test_breaker_validation(kwargs):
    with pytest.raises(ValueError):
        CircuitBreaker(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"ring_points": 0},
    {"failure_threshold": 0},
    {"breaker_reset_s": 0.0},
    {"forward_timeout": 0.0},
    {"drain_grace": -1.0},
])
def test_router_config_validation(kwargs):
    with pytest.raises(ValueError):
        RouterConfig(**kwargs)


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
def _keys(n, seed=0):
    corpus = build_corpus(n, seed=seed)
    keys = []
    for i, (channel, conns, k) in enumerate(corpus):
        message = route_request(f"p{i}", channel, conns, max_segments=k)
        keys.append(RoutingRouter.request_key(parse_route_request(message)))
    return keys


def test_placement_is_deterministic_and_complete():
    replica_set = StaticReplicaSet([("h", 1), ("h", 2), ("h", 3)])
    router_a = RoutingRouter(replica_set, RouterConfig(seed=5))
    router_b = RoutingRouter(replica_set, RouterConfig(seed=5))
    for key in _keys(10, seed=5):
        order = router_a.placement(key)
        assert order == router_b.placement(key)  # pure function of (seed, key)
        assert sorted(order) == [0, 1, 2]        # full failover order


def test_placement_spreads_keys_across_replicas():
    replica_set = StaticReplicaSet([("h", 1), ("h", 2), ("h", 3)])
    router = RoutingRouter(replica_set, RouterConfig(seed=7))
    primaries = {router.placement(key)[0] for key in _keys(40, seed=7)}
    assert len(primaries) == 3  # no degenerate all-on-one-replica ring


def test_placement_differs_across_seeds():
    replica_set = StaticReplicaSet([("h", 1), ("h", 2), ("h", 3)])
    keys = _keys(20, seed=11)
    a = [RoutingRouter(replica_set, RouterConfig(seed=1)).placement(k)[0]
         for k in keys]
    b = [RoutingRouter(replica_set, RouterConfig(seed=2)).placement(k)[0]
         for k in keys]
    assert a != b


# ----------------------------------------------------------------------
# end-to-end forwarding
# ----------------------------------------------------------------------
async def _serving_stack(
    n_servers, seed, config=None, clock=None, max_queue=64
):
    """N in-loop replica servers + a router fronting them."""
    servers = []
    for _ in range(n_servers):
        server = RoutingServer(ServeConfig(
            port=0, http_port=0, seed=seed, max_queue=max_queue,
        ))
        await server.start()
        servers.append(server)
    replica_set = StaticReplicaSet(
        [("127.0.0.1", s.port) for s in servers]
    )
    kwargs = {} if clock is None else {"clock": clock}
    router = RoutingRouter(
        replica_set, config or RouterConfig(port=0, http_port=0, seed=seed),
        **kwargs,
    )
    await router.start()
    return servers, replica_set, router


async def _teardown(servers, router):
    await router.drain()
    for server in servers:
        await server.drain()


def test_router_routes_digest_identical_to_offline_engine():
    seed = 17
    corpus = build_corpus(12, seed=seed)

    async def main():
        servers, _, router = await _serving_stack(3, seed)
        try:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                pong = await client.ping()
                results = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                stats = await client.stats()
        finally:
            await _teardown(servers, router)
        return pong, results, stats

    pong, results, stats = asyncio.run(main())
    assert pong["ready"] is True and pong["replicas"] == 3
    assert all(r.status == STATUS_OK for r in results)
    online = digest_records(
        result_record(i, r.ok, r.assignment, r.error_type)
        for i, r in enumerate(results)
    )
    engine = RoutingEngine(EngineConfig(seed=seed))
    offline = engine.route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    engine.close()
    assert online == digest_records(
        result_record(i, r.routing is not None,
                      list(r.routing.assignment) if r.routing else None,
                      r.error_type)
        for i, r in enumerate(offline)
    )
    counters = stats["counters"]
    assert counters["serve.router.requests"] == len(corpus)
    assert counters["serve.router.ok"] == len(corpus)
    assert counters.get("serve.router.failovers", 0) == 0
    # Per-replica counters reach the snapshot, flat and nested.
    assert sum(
        counters.get(f"serve.router.replica{i}.ok", 0) for i in range(3)
    ) == len(corpus)
    assert set(stats["replicas"]) == {"0", "1", "2"}


def test_router_fails_over_past_a_down_replica():
    seed = 19
    channel, conns, k = build_corpus(1, seed=seed)[0]

    async def main():
        servers, replica_set, router = await _serving_stack(3, seed)
        try:
            message = route_request("x", channel, conns, max_segments=k)
            key = RoutingRouter.request_key(parse_route_request(message))
            home = router.placement(key)[0]
            replica_set.set_down(home)
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                result = await client.route(channel, conns, max_segments=k)
        finally:
            await _teardown(servers, router)
        return home, result, router.metrics_snapshot()["counters"]

    home, result, counters = asyncio.run(main())
    assert result.status == STATUS_OK
    assert counters["serve.router.failovers"] == 1
    assert counters["serve.router.failover_down"] == 1
    assert counters[f"serve.router.replica{home}.down_skips"] == 1


def test_router_fails_over_on_dead_connection():
    seed = 23
    channel, conns, k = build_corpus(1, seed=seed)[0]

    async def main():
        servers, replica_set, router = await _serving_stack(2, seed)
        # A port nothing listens on: connection refused, not down-skip.
        probe = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        dead_port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        try:
            message = route_request("x", channel, conns, max_segments=k)
            key = RoutingRouter.request_key(parse_route_request(message))
            home = router.placement(key)[0]
            replica_set.set_endpoint(home, ("127.0.0.1", dead_port))
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                result = await client.route(channel, conns, max_segments=k)
        finally:
            await _teardown(servers, router)
        return home, result, router.metrics_snapshot()["counters"]

    home, result, counters = asyncio.run(main())
    assert result.status == STATUS_OK
    assert counters["serve.router.failover_attempts"] == 1
    assert counters[f"serve.router.replica{home}.failed"] == 1


def test_router_spills_to_overloaded_only_when_all_replicas_refuse():
    seed = 29
    channel, conns, k = build_corpus(1, seed=seed)[0]

    async def main():
        servers, _, router = await _serving_stack(2, seed, max_queue=1)
        try:
            for server in servers:  # hold every replica's only slot
                assert server.admission.try_admit().admitted
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                refused = await client.route(channel, conns, max_segments=k)
                for server in servers:
                    server.admission.release()
                admitted = await client.route(channel, conns, max_segments=k)
        finally:
            await _teardown(servers, router)
        return refused, admitted, router.metrics_snapshot()["counters"]

    refused, admitted, counters = asyncio.run(main())
    assert refused.status == STATUS_OVERLOADED
    assert refused.error_type == "AdmissionRejected"
    assert admitted.status == STATUS_OK
    # Both replicas refused and were spilled past ...
    assert counters["serve.router.replica0.refused"] == 1
    assert counters["serve.router.replica1.refused"] == 1
    assert counters["serve.router.refused"] == 1  # but one client refusal


def test_refused_probe_does_not_wedge_the_breaker():
    """A half-open probe that the replica refuses must release the
    probe slot: the next request is a fresh probe, not a permanent
    route-around of a healthy replica."""
    seed = 61
    channel, conns, k = build_corpus(1, seed=seed)[0]
    clock = FakeClock()

    async def main():
        servers, _, router = await _serving_stack(
            1, seed,
            config=RouterConfig(port=0, http_port=0, seed=seed,
                                failure_threshold=1, breaker_reset_s=5.0),
            clock=clock,
            max_queue=1,
        )
        admission = servers[0].admission
        try:
            breaker = router.breakers[0]
            breaker.record_failure()            # open
            clock.advance(5.0)                  # expires to half-open
            assert admission.try_admit().admitted  # hold the only slot
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                refused = await client.route(channel, conns, max_segments=k)
                admission.release()
                ok = await client.route(channel, conns, max_segments=k)
            state = breaker.state
        finally:
            await _teardown(servers, router)
        return refused, ok, state

    refused, ok, state = asyncio.run(main())
    assert refused.status == STATUS_OVERLOADED
    assert ok.status == STATUS_OK      # the replacement probe went through
    assert state == BREAKER_CLOSED     # ... and closed the breaker


def test_router_drain_refuses_new_requests():
    seed = 31
    channel, conns, k = build_corpus(1, seed=seed)[0]

    async def main():
        servers, _, router = await _serving_stack(2, seed)
        try:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                before = await client.route(channel, conns, max_segments=k)
                router.request_drain()
                after = await client.route(channel, conns, max_segments=k)
        finally:
            await _teardown(servers, router)
        return before, after, router.metrics.snapshot()["counters"]

    before, after, counters = asyncio.run(main())
    assert before.status == STATUS_OK
    assert after.status == STATUS_OVERLOADED
    assert after.error == "router is draining"
    assert counters["serve.router.drain_refused"] == 1


def test_router_readyz_tracks_live_replicas():
    seed = 37

    async def main():
        servers, replica_set, router = await _serving_stack(2, seed)
        try:
            up = await _http_get(router.http_port, "/readyz")
            replica_set.set_down(0)
            replica_set.set_down(1)
            dark = await _http_get(router.http_port, "/readyz")
            replica_set.set_down(0, False)
            back = await _http_get(router.http_port, "/readyz")
        finally:
            await _teardown(servers, router)
        return up, dark, back

    up, dark, back = asyncio.run(main())
    assert up == (200, "ready\n")
    assert dark == (503, "no live replicas\n")
    assert back == (200, "ready\n")


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    return int(head.split()[1]), body


def test_router_port_file(tmp_path):
    seed = 41
    port_file = str(tmp_path / "router.json")

    async def main():
        servers, _, router = await _serving_stack(
            1, seed,
            config=RouterConfig(port=0, http_port=0, seed=seed,
                                port_file=port_file),
        )
        try:
            with open(port_file, encoding="utf-8") as handle:
                ports = json.load(handle)
            assert ports["port"] == router.port
            assert ports["http_port"] == router.http_port
        finally:
            await _teardown(servers, router)

    asyncio.run(main())
