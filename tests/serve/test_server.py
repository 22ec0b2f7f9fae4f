"""End-to-end server tests: digest parity, tracing, shedding, drain.

Everything runs against a real server bound to ephemeral ports on
loopback — the asyncio protocol listener, the admission layer, the
micro-batcher, and the engine are all live.
"""

import asyncio

import pytest

from repro.engine import EngineConfig, RoutingEngine
from repro.io.results import result_stream_digest
from repro.obs.report import build_traces
from repro.obs.trace import ListTraceSink
from repro.serve import (
    AsyncRoutingClient,
    RoutingServer,
    ServeConfig,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_SHED,
)
from repro.io.results import digest_records, result_record
from repro.serve.loadgen import build_corpus
from tests.serve.gate import RouteGate

pytestmark = pytest.mark.serve


def _config(**overrides):
    defaults = dict(port=0, http_port=0, drain_grace=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    status = int(head.split()[1])
    return status, body


async def _until(predicate, timeout=30.0):
    """Poll ``predicate`` on the event loop until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def test_fanin_digest_matches_offline_engine():
    """Acceptance: >=50 async fan-in requests, digest-identical offline."""
    corpus = build_corpus(50, seed=42)
    seed = 42

    async def main():
        server = RoutingServer(_config(seed=seed))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                return await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )

    served = asyncio.run(main())
    assert len(served) == 50
    assert all(r.status == STATUS_OK for r in served)

    online_digest = digest_records(
        result_record(i, r.ok, r.assignment, r.error_type)
        for i, r in enumerate(served)
    )
    engine = RoutingEngine(EngineConfig(seed=seed))
    offline = engine.route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    assert online_digest == result_stream_digest(offline)


def test_trace_spans_link_client_server_engine():
    """Acceptance: one connected span tree per request, client->worker,
    and a traced repeat is answered on the cache fast path."""
    corpus = build_corpus(4, seed=7)
    sink = ListTraceSink()

    async def main():
        server = RoutingServer(_config(seed=7), trace_sink=sink)
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30,
                trace_sink=sink, seed=7,
            ) as client:
                passes = []
                for _ in range(2):
                    results = await client.route_many(
                        [(c, s) for c, s, _ in corpus],
                        max_segments=[k for _, _, k in corpus],
                    )
                    passes.append((
                        results, len(sink.spans),
                        server.metrics_snapshot()["counters"],
                    ))
        return passes

    (first, n_first, after_first), (second, _, after_second) = asyncio.run(
        main()
    )
    assert all(r.status == STATUS_OK for r in first + second)

    traces = build_traces(sink.spans[:n_first])
    assert len(traces) == len(corpus)  # one connected tree per request
    for trace in traces.values():
        trace.validate()  # every parent link resolves, exactly one root
        assert trace.root["name"] == "client.request"
        names = trace.names()
        assert "serve.request" in names
        assert "request" in names  # the engine's root span
        by_id = trace.by_id
        serve_span = next(
            s for s in trace.spans if s["name"] == "serve.request"
        )
        engine_span = next(
            s for s in trace.spans if s["name"] == "request"
        )
        # client.request <- serve.request <- request
        assert by_id[serve_span["parent_id"]]["name"] == "client.request"
        assert by_id[engine_span["parent_id"]]["name"] == "serve.request"
        assert serve_span["attrs"]["status"] == STATUS_OK

    # The repeats took the fast path, traced, with no batcher window.
    assert (
        after_second["serve.cache_fastpath"]
        - after_first.get("serve.cache_fastpath", 0)
    ) == len(corpus)
    assert after_second["serve.batches"] == after_first["serve.batches"]
    repeats = build_traces(sink.spans[n_first:])
    assert len(repeats) == len(corpus)
    for trace in repeats.values():
        trace.validate()
        by_id = trace.by_id
        (engine_span,) = [s for s in trace.spans if s["name"] == "request"]
        serve_span = by_id[engine_span["parent_id"]]
        assert serve_span["name"] == "serve.request"
        assert by_id[serve_span["parent_id"]] is trace.root
        assert trace.root["name"] == "client.request"
        assert engine_span["attrs"]["cache"] == "hit"
        children = sorted(
            s["name"] for s in trace.spans
            if s["parent_id"] == engine_span["span_id"]
        )
        assert children == ["cache.lookup", "cache.replay"]


def test_traced_and_untraced_servers_agree():
    """A trace sink changes neither the path nor the answer: the same
    misses-then-repeats sequence gives the same counters and digest."""
    corpus = build_corpus(5, seed=3)

    async def run(sink):
        server = RoutingServer(_config(seed=3), trace_sink=sink)
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30,
            ) as client:
                served = [
                    await client.route(c, s, max_segments=k)
                    for _ in range(2) for c, s, k in corpus
                ]
            counters = server.metrics_snapshot()["counters"]
        digest = digest_records(
            result_record(i, r.ok, r.assignment, r.error_type)
            for i, r in enumerate(served)
        )
        return counters, digest

    sink = ListTraceSink()
    traced = asyncio.run(run(sink))
    untraced = asyncio.run(run(None))
    assert traced == untraced
    assert traced[0]["serve.cache_fastpath"] == len(corpus)
    assert sink.spans  # the traced server did trace


def test_burst_beyond_queue_bound_sheds_typed_responses():
    """Acceptance: overload produces typed rejections, not timeouts."""
    corpus = build_corpus(4, seed=9)

    async def main():
        # A queue of two, held full until 22 requests have been refused,
        # makes overflow deterministic.
        server = RoutingServer(_config(seed=9, max_queue=2))
        RouteGate(server.engine, until=lambda: (
            server.metrics.counter("serve.overloaded") == 22
        ))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                return await asyncio.gather(*(
                    client.route(
                        corpus[i % len(corpus)][0],
                        corpus[i % len(corpus)][1],
                        max_segments=corpus[i % len(corpus)][2],
                    )
                    for i in range(24)
                ))

    results = asyncio.run(main())
    statuses = {r.status for r in results}
    rejected = [
        r for r in results
        if r.status in (STATUS_SHED, STATUS_OVERLOADED)
    ]
    assert len(rejected) == 22, f"typed rejections in {statuses}"
    for r in rejected:
        assert r.error_type == "AdmissionRejected"
        assert r.assignment is None
    # The server stayed useful under overload.
    assert sum(r.status == STATUS_OK for r in results) == 2


def test_rate_limit_rejects_with_overloaded():
    corpus = build_corpus(1, seed=5)
    channel, conns, k = corpus[0]

    async def main():
        server = RoutingServer(_config(seed=5, rate=1.0, burst=1))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as client:
                first = await client.route(channel, conns, max_segments=k)
                second = await client.route(channel, conns, max_segments=k)
                return first, second

    first, second = asyncio.run(main())
    assert first.status == STATUS_OK
    assert second.status == STATUS_OVERLOADED
    assert second.error_type == "AdmissionRejected"


def test_pipelined_requests_answered_out_of_order_by_id():
    corpus = build_corpus(6, seed=21)

    async def main():
        server = RoutingServer(_config(seed=21))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as client:
                results = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                pong = await client.ping()
                stats = await client.stats()
                return results, pong, stats

    results, pong, stats = asyncio.run(main())
    # Each response matched its request despite concurrent in-flight IDs.
    assert [r.request_id for r in results] == [
        f"q{i + 1}" for i in range(len(corpus))
    ]
    assert pong["pong"] is True and pong["ready"] is True
    assert stats["counters"]["serve.requests"] == len(corpus)
    assert stats["counters"]["serve.ok"] == len(corpus)


def test_malformed_lines_get_protocol_error_responses():
    async def main():
        server = RoutingServer(_config())
        async with server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"this is not json\n")
            writer.write(b'{"v": 99, "id": "x", "op": "ping"}\n')
            writer.write(b'{"v": 1, "id": "ok1", "op": "ping"}\n')
            await writer.drain()
            lines = [await reader.readline() for _ in range(3)]
            writer.close()
            stats = server.metrics_snapshot()
        return lines, stats

    lines, stats = asyncio.run(main())
    import json

    messages = [json.loads(line) for line in lines]
    by_status = sorted(m["status"] for m in messages)
    assert by_status == ["error", "error", "ok"]
    for m in messages:
        if m["status"] == "error":
            assert m["error_type"] == "ProtocolError"
    assert stats["counters"]["serve.protocol_errors"] == 2


def test_http_probes_and_metrics():
    corpus = build_corpus(2, seed=3)

    async def main():
        server = RoutingServer(_config(seed=3))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as client:
                await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
            health = await _http_get(server.http_port, "/healthz")
            ready = await _http_get(server.http_port, "/readyz")
            metrics = await _http_get(server.http_port, "/metrics")
            missing = await _http_get(server.http_port, "/nope")
        return health, ready, metrics, missing

    health, ready, metrics, missing = asyncio.run(main())
    assert health == (200, "ok\n")
    assert ready == (200, "ready\n")
    assert missing[0] == 404
    assert metrics[0] == 200
    body = metrics[1]
    # Serve counters, admission gauges, and engine counters all render.
    assert "segroute_serve_requests_total 2" in body
    assert "segroute_serve_queue_bound 64" in body
    assert "segroute_requests_total 2" in body
    assert "# TYPE segroute_serve_latency summary" in body


def test_drain_finishes_inflight_and_refuses_new_work():
    corpus = build_corpus(8, seed=31)

    async def main():
        server = RoutingServer(_config(seed=31))
        gate = RouteGate(server.engine)
        await server.start()
        client = AsyncRoutingClient("127.0.0.1", server.port, timeout=30)
        await client.connect()
        inflight = [
            asyncio.ensure_future(client.route(c, s, max_segments=k))
            for c, s, k in corpus
        ]
        # All eight admitted: one window solving behind the gate, the
        # rest queued behind it.
        await _until(lambda: server.admission.pending == len(corpus))
        ready_before = (await _http_get(server.http_port, "/readyz"))[0]
        drain = asyncio.ensure_future(server.drain())
        await asyncio.sleep(0)
        gate.open()
        results = await asyncio.gather(*inflight, return_exceptions=True)
        await drain
        await client.close()
        return ready_before, results

    ready_before, results = asyncio.run(main())
    assert ready_before == 200
    # Admitted work completes; nothing hangs (gather returned at all).
    assert all(
        not isinstance(r, Exception) and r.status == STATUS_OK
        for r in results
    ), results


def test_drain_is_idempotent_and_closes_owned_engine():
    async def main():
        server = RoutingServer(_config())
        await server.start()
        await server.drain()
        await server.drain()  # second call is a no-op
        return server.engine.closed

    assert asyncio.run(main()) is True


def test_external_engine_is_not_closed_by_drain():
    engine = RoutingEngine(EngineConfig(seed=1))

    async def main():
        server = RoutingServer(_config(), engine=engine)
        await server.start()
        await server.drain()

    asyncio.run(main())
    assert engine.closed is False
    engine.close()


@pytest.mark.parametrize("kwargs", [
    {"timeout": 0.0},
    {"drain_grace": -1.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ServeConfig(**kwargs)


def test_rejected_setting_starts_no_thread():
    """A setting the server rejects leaves no job worker running."""
    import threading

    def job_workers():
        return {
            t for t in threading.enumerate()
            if t.name.startswith("job-worker-")
        }

    before = job_workers()
    with pytest.raises(ValueError, match="max_queue"):
        RoutingServer(ServeConfig(max_queue=0, port=0, http_port=0))
    assert job_workers() == before


def test_readyz_flips_the_instant_drain_is_requested():
    """Drain race: not-ready must be visible *before* drain completes,
    and new routes must be refused while in-flight work finishes."""
    corpus = build_corpus(4, seed=43)

    async def main():
        server = RoutingServer(_config(seed=43))
        gate = RouteGate(server.engine)
        await server.start()
        client = AsyncRoutingClient("127.0.0.1", server.port, timeout=30)
        await client.connect()
        # Requests in flight when drain is requested: one window solving
        # behind the gate, the rest queued behind it.
        inflight = [
            asyncio.ensure_future(client.route(c, s, max_segments=k))
            for c, s, k in corpus[:3]
        ]
        await _until(lambda: server.admission.pending == 3)
        server.request_drain()
        # The probe flips immediately — the listener is still accepting
        # (drain has not even started), but load balancers must stop
        # sending new work now.
        ready = await _http_get(server.http_port, "/readyz")
        late = await client.route(*corpus[3][:2], max_segments=corpus[3][2])
        gate.open()
        results = await asyncio.gather(*inflight, return_exceptions=True)
        await server.drain()
        stats = server.metrics.snapshot()["counters"]
        await client.close()
        return ready, late, results, stats

    ready, late, results, stats = asyncio.run(main())
    assert ready == (503, "draining\n")
    assert late.status == STATUS_OVERLOADED
    assert late.error == "server is draining"
    assert stats["serve.drain_refused"] == 1
    assert all(
        not isinstance(r, Exception) and r.status == STATUS_OK
        for r in results
    ), results


def test_port_file_written_after_bind(tmp_path):
    import json
    import os

    port_file = tmp_path / "server.json"

    async def main():
        server = RoutingServer(_config(port_file=str(port_file)))
        async with server:
            ports = json.loads(port_file.read_text())
            assert ports["port"] == server.port
            assert ports["http_port"] == server.http_port
            assert ports["pid"] == os.getpid()

    asyncio.run(main())


def test_serve_path_counts_exactly_one_miss_per_missed_request():
    """Regression: the fast-path probe must not add a second miss.

    ``route_cached`` probes the canonical cache before the batcher
    path; before the fix the probe counted one ``InstanceCache`` miss
    and the batcher's full path counted another, so every missed
    request was double-counted and ``hit_rate`` was skewed low.
    """
    corpus = build_corpus(1, seed=7)
    channel, conns, k = corpus[0]

    async def main():
        server = RoutingServer(_config())
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as client:
                first = await client.route(channel, conns, max_segments=k)
                cache = server.engine.cache
                after_miss = (cache.hits, cache.misses)
                second = await client.route(channel, conns, max_segments=k)
                after_hit = (cache.hits, cache.misses)
                counters = server.metrics_snapshot()["counters"]
        return first, second, after_miss, after_hit, counters

    first, second, after_miss, after_hit, counters = asyncio.run(main())
    assert first.status == STATUS_OK and second.status == STATUS_OK
    # One missed request -> exactly one counted miss (probe + fallback
    # used to count two), and no phantom hits.
    assert after_miss == (0, 1)
    # The repeat is answered by the fast path: one hit, miss count
    # unchanged.
    assert after_hit == (1, 1)
    assert counters["serve.cache_fastpath"] == 1
    assert counters["cache.hits"] == 1
    assert counters["cache.misses"] == 1


def test_restarted_server_answers_from_persistent_cache(tmp_path):
    """Acceptance: a restarted server (same ``cache_dir``) serves
    previously-solved instances via the cache fast path, digest-
    identical to the first life's answers."""
    cache_dir = str(tmp_path / "cache")
    corpus = build_corpus(6, seed=11)

    async def one_life():
        server = RoutingServer(_config(seed=11, cache_dir=cache_dir))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=60
            ) as client:
                served = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
            counters = server.metrics_snapshot()["counters"]
        return served, counters

    first, first_counters = asyncio.run(one_life())
    assert all(r.status == STATUS_OK for r in first)
    assert first_counters.get("cache.persist.stores", 0) == len(corpus)

    # "Restart": a brand-new server process state over the same dir.
    second, second_counters = asyncio.run(one_life())
    assert all(r.status == STATUS_OK for r in second)
    assert second_counters["cache.persist.hits"] >= len(corpus)
    assert second_counters["serve.cache_fastpath"] == len(corpus)
    # Digest-identical answers across the restart.
    digest = lambda served: digest_records(
        result_record(i, r.ok, r.assignment, r.error_type)
        for i, r in enumerate(served)
    )
    assert digest(second) == digest(first)
