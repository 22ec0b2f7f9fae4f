"""Serve-layer chaos: replica kills, hangs, garbled wires, dead replicas.

Everything here injects faults from a seeded
:class:`~repro.engine.resilience.faults.FaultPlan` (or kills real
replica processes) and asserts the replicated tier's contract: clients
see zero failures, results stay digest-identical to the offline engine,
and every recovery action is visible in the metrics.

Run with ``pytest -m chaos``; excluded from tier-1 (slow: real
subprocess replicas, heartbeat waits, backoff sleeps).
"""

import asyncio
import logging
import os
import signal
import time

import pytest

from repro.engine import EngineConfig, RoutingEngine
from repro.engine.resilience.faults import FaultPlan
from repro.engine.resilience.retry import RetryPolicy
from repro.io.results import digest_records, result_record
from repro.serve import (
    AsyncRoutingClient,
    ReplicaSet,
    RouterConfig,
    RoutingRouter,
    RoutingServer,
    ServeConfig,
    StaticReplicaSet,
    STATUS_OK,
)
from repro.serve.loadgen import build_corpus
from repro.serve.protocol import parse_route_request, route_request
from repro.serve.replica import REPLICA_QUARANTINED, REPLICA_UP
from repro.serve.router import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _offline_digest(corpus, seed):
    engine = RoutingEngine(EngineConfig(seed=seed))
    results = engine.route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    engine.close()
    return digest_records(
        result_record(i, r.routing is not None,
                      list(r.routing.assignment) if r.routing else None,
                      r.error_type)
        for i, r in enumerate(results)
    )


def _online_digest(results):
    return digest_records(
        result_record(i, r.ok, r.assignment, r.error_type)
        for i, r in enumerate(results)
    )


async def _wait_for(predicate, timeout, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# replica death mid-run
# ----------------------------------------------------------------------
def test_replica_killed_mid_batch_is_digest_transparent():
    """Acceptance: kill 1 of 3 replicas mid-run; zero client-visible
    failures, >=1 recorded failover, digest identical to offline."""
    seed = 97
    corpus = build_corpus(10, seed=seed)
    plan = FaultPlan(kill_replica_after=5, seed=seed)

    async def main():
        replicas = ReplicaSet(
            3, ServeConfig(seed=seed, fault_plan=plan),
            heartbeat_interval=0.2,
        )
        router = RoutingRouter(
            replicas,
            RouterConfig(port=0, http_port=0, seed=seed, forward_timeout=5.0),
            fault_plan=plan,
            own_replica_set=True,
        )
        async with router:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                results = []
                for _ in range(2):  # second pass forces failover traffic
                    for channel, conns, k in corpus:
                        results.append(await client.route(
                            channel, conns, max_segments=k
                        ))
            # The supervisor restarts the victim with backoff.
            restarted = await _wait_for(
                lambda: all(
                    s.state == REPLICA_UP for s in replicas.status()
                ),
                timeout=15.0,
            )
            counters = router.metrics_snapshot()["counters"]
            status = replicas.status()
        return results, counters, status, restarted

    results, counters, status, restarted = asyncio.run(main())
    assert all(r.status == STATUS_OK for r in results)  # zero failures
    assert counters["serve.replica.fault_kills"] == 1
    assert counters["serve.router.failovers"] >= 1
    assert sum(s.restarts for s in status) >= 1
    assert restarted, f"victim never came back: {status}"
    # Both passes answered identically, and identically to offline.
    half = len(corpus)
    assert [r.assignment for r in results[:half]] == [
        r.assignment for r in results[half:]
    ]
    assert _online_digest(results[:half]) == _offline_digest(corpus, seed)


def test_hung_replica_is_heartbeat_killed_and_replaced():
    """SIGSTOP (via the seeded plan) looks like a wedged event loop: the
    heartbeat watchdog must SIGKILL and restart it, and in-flight
    traffic must fail over instead of hanging."""
    seed = 101
    corpus = build_corpus(6, seed=seed)
    plan = FaultPlan(stop_replica_after=2, seed=seed)

    async def main():
        replicas = ReplicaSet(
            3, ServeConfig(seed=seed, fault_plan=plan),
            heartbeat_interval=0.2, heartbeat_timeout=0.5,
            heartbeat_misses=2,
        )
        router = RoutingRouter(
            replicas,
            RouterConfig(port=0, http_port=0, seed=seed, forward_timeout=1.0),
            fault_plan=plan,
            own_replica_set=True,
        )
        async with router:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                results = []
                for channel, conns, k in corpus:
                    results.append(await client.route(
                        channel, conns, max_segments=k
                    ))
                    await asyncio.sleep(0.1)  # let heartbeats interleave
            killed = await _wait_for(
                lambda: router.metrics.snapshot()["counters"].get(
                    "serve.replica.heartbeat_kills", 0
                ) >= 1,
                timeout=15.0,
            )
            counters = router.metrics.snapshot()["counters"]
        return results, counters, killed

    results, counters, killed = asyncio.run(main())
    assert all(r.status == STATUS_OK for r in results)
    assert counters["serve.replica.fault_stops"] == 1
    assert killed, f"watchdog never fired: {counters}"
    assert counters["serve.replica.restarts"] >= 1


def test_crash_looping_replica_is_quarantined_and_routed_around():
    seed = 103
    corpus = build_corpus(4, seed=seed)
    policy = RetryPolicy(
        max_attempts=1, base_delay=0.05, max_delay=0.1, jitter=0.0
    )

    async def main():
        replicas = ReplicaSet(
            2, ServeConfig(seed=seed), restart_policy=policy,
            flap_window_s=60.0, heartbeat_interval=0.1,
        )
        router = RoutingRouter(
            replicas,
            RouterConfig(port=0, http_port=0, seed=seed, forward_timeout=5.0),
            own_replica_set=True,
        )
        async with router:
            victim = replicas._replicas[0]
            for _ in range(2):  # budget is 1 restart: second kill flaps it
                pid = victim.process.pid
                os.kill(pid, signal.SIGKILL)
                await _wait_for(
                    lambda: victim.process.pid != pid
                    and victim.state == REPLICA_UP
                    or victim.state == REPLICA_QUARANTINED,
                    timeout=15.0,
                )
            quarantined = await _wait_for(
                lambda: victim.state == REPLICA_QUARANTINED, timeout=15.0
            )
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                results = [
                    await client.route(channel, conns, max_segments=k)
                    for channel, conns, k in corpus
                ]
            counters = router.metrics.snapshot()["counters"]
        return quarantined, results, counters

    quarantined, results, counters = asyncio.run(main())
    assert quarantined
    assert counters["serve.replica.quarantined"] == 1
    # The router serves on, around the quarantined slot.
    assert all(r.status == STATUS_OK for r in results)


# ----------------------------------------------------------------------
# wire faults: drop + garble
# ----------------------------------------------------------------------
async def _static_stack(n_servers, seed, config=None, plan=None, clock=None):
    servers = []
    for _ in range(n_servers):
        server = RoutingServer(ServeConfig(port=0, http_port=0, seed=seed))
        await server.start()
        servers.append(server)
    replica_set = StaticReplicaSet(
        [("127.0.0.1", s.port) for s in servers]
    )
    kwargs = {} if clock is None else {"clock": clock}
    router = RoutingRouter(
        replica_set,
        config or RouterConfig(port=0, http_port=0, seed=seed),
        fault_plan=plan,
        **kwargs,
    )
    await router.start()
    return servers, replica_set, router


async def _static_teardown(servers, router):
    await router.drain()
    for server in servers:
        await server.drain()


def test_dropped_and_garbled_connections_stay_digest_transparent():
    seed = 13
    corpus = build_corpus(12, seed=seed)
    # Plan seed 8 provably injects both kinds on this corpus without
    # ever drawing three consecutive faults for one key (which would
    # exhaust all three replicas).
    plan = FaultPlan(conn_drop=0.1, conn_garble=0.1, seed=8)

    async def main():
        # A generous breaker threshold keeps this a pure wire-fault
        # transparency test; breaker policy is exercised separately.
        servers, _, router = await _static_stack(
            3, seed,
            config=RouterConfig(port=0, http_port=0, seed=seed,
                                failure_threshold=50),
            plan=plan,
        )
        try:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                results = []
                for _ in range(2):
                    for channel, conns, k in corpus:
                        results.append(await client.route(
                            channel, conns, max_segments=k
                        ))
        finally:
            await _static_teardown(servers, router)
        return results, router.metrics.snapshot()["counters"]

    results, counters = asyncio.run(main())
    # The plan is seeded: this specific run injects both fault kinds.
    assert counters["serve.router.injected_drop"] >= 1
    assert counters["serve.router.injected_garble"] >= 1
    assert counters["serve.router.invalid_responses"] >= 1
    assert counters["serve.router.failovers"] >= 2
    # ... and none of it reaches the client.
    assert all(r.status == STATUS_OK for r in results)
    half = len(corpus)
    assert _online_digest(results[:half]) == _offline_digest(corpus, seed)


def test_always_garbled_wire_never_reaches_the_client_as_ok():
    seed = 43
    channel, conns, k = build_corpus(1, seed=seed)[0]
    plan = FaultPlan(conn_garble=1.0, seed=seed)

    async def main():
        servers, _, router = await _static_stack(2, seed, plan=plan)
        try:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                result = await client.route(channel, conns, max_segments=k)
        finally:
            await _static_teardown(servers, router)
        return result, router.metrics.snapshot()["counters"]

    result, counters = asyncio.run(main())
    # Validation catches every corrupted assignment; with every replica
    # garbling, the router reports the failure rather than bad tracks.
    assert result.status != STATUS_OK
    assert result.error_type == "ReplicaError"
    assert counters["serve.router.invalid_responses"] == 2
    assert counters["serve.router.injected_garble"] == 2


# ----------------------------------------------------------------------
# breaker transitions under live forwarding
# ----------------------------------------------------------------------
def test_breaker_opens_half_opens_and_closes_through_traffic():
    seed = 47
    channel, conns, k = build_corpus(1, seed=seed)[0]
    clock = FakeClock()

    async def main():
        servers, replica_set, router = await _static_stack(
            2, seed,
            config=RouterConfig(
                port=0, http_port=0, seed=seed,
                failure_threshold=3, breaker_reset_s=5.0,
            ),
            clock=clock,
        )
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        dead_port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        states = []
        try:
            message = route_request("x", channel, conns, max_segments=k)
            key = RoutingRouter.request_key(parse_route_request(message))
            home = router.placement(key)[0]
            live_endpoint = replica_set.endpoint(home)
            replica_set.set_endpoint(home, ("127.0.0.1", dead_port))
            breaker = router.breakers[home]
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                for _ in range(3):  # three failed forwards open it
                    result = await client.route(channel, conns,
                                                max_segments=k)
                    assert result.status == STATUS_OK  # failover covers
                states.append(breaker.state)           # -> open

                skipped = await client.route(channel, conns, max_segments=k)
                assert skipped.status == STATUS_OK
                before = router.metrics.snapshot()["counters"][
                    "serve.router.breaker_skips"
                ]

                clock.advance(5.0)
                states.append(breaker.state)           # -> half-open
                # Probe fails (still dead): re-opens without the full
                # threshold.
                await client.route(channel, conns, max_segments=k)
                states.append(breaker.state)           # -> open again

                clock.advance(5.0)
                replica_set.set_endpoint(home, live_endpoint)
                probe_ok = await client.route(channel, conns, max_segments=k)
                assert probe_ok.status == STATUS_OK
                states.append(breaker.state)           # -> closed
            counters = router.metrics.snapshot()["counters"]
        finally:
            await _static_teardown(servers, router)
        return states, counters, before

    states, counters, skips_after_open = asyncio.run(main())
    assert states == [
        BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_OPEN, BREAKER_CLOSED,
    ]
    assert counters["serve.router.breaker_opens"] == 2
    assert skips_after_open >= 1


# ----------------------------------------------------------------------
# every replica failing
# ----------------------------------------------------------------------
async def _slow_close_server():
    """A replica stand-in that accepts a request, stalls briefly, then
    drops the connection — a fast 'failed'."""
    async def handler(reader, writer):
        try:
            await reader.readline()
            await asyncio.sleep(0.2)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handler, "127.0.0.1", 0)


def test_two_failed_replicas_count_two_failovers(caplog):
    seed = 71
    channel, conns, k = build_corpus(1, seed=seed)[0]

    async def main():
        failers = [await _slow_close_server() for _ in range(2)]
        replica_set = StaticReplicaSet([
            ("127.0.0.1", s.sockets[0].getsockname()[1]) for s in failers
        ])
        router = RoutingRouter(
            replica_set,
            RouterConfig(port=0, http_port=0, seed=seed,
                         forward_timeout=30.0),
        )
        await router.start()
        try:
            async with AsyncRoutingClient(
                "127.0.0.1", router.port, timeout=30
            ) as client:
                result = await client.route(channel, conns, max_segments=k)
            counters = router.metrics_snapshot()["counters"]
        finally:
            await router.drain()
            for failer in failers:
                failer.close()
                await failer.wait_closed()
        return result, counters

    result, counters = asyncio.run(main())
    assert result.status != STATUS_OK
    assert result.error_type == "ReplicaError"
    # Two replicas were attempted and both failed: the failover
    # counters agree with the per-replica 'failed' counters.
    assert counters["serve.router.failovers"] == 2
    assert counters["serve.router.failover_attempts"] == 2
    assert sum(
        counters.get(f"serve.router.replica{i}.failed", 0)
        for i in range(2)
    ) == 2
    # Drain let every connection handler return: the loop's teardown
    # cancelled none, so asyncio logged no error.
    assert not [
        r for r in caplog.records
        if r.name == "asyncio" and r.levelno >= logging.ERROR
    ]
