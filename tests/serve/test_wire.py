"""Wire v2 binary framing: codec round trips, negotiation, parity.

The contract under test: binary framing is a pure transport
optimization.  A v2 conversation must produce byte-for-byte the same
routing answers as NDJSON v1 and as the offline engine, v1-only
clients must keep working against a v2 server unmodified, and the
``hello`` handshake must gate who speaks binary.
"""

import asyncio

import pytest

from repro.engine import EngineConfig, RoutingEngine
from repro.io.results import result_stream_digest
from repro.serve import (
    CAP_WIRE_V1,
    CAP_WIRE_V2,
    AsyncRoutingClient,
    RoutingClient,
    RoutingServer,
    ServeConfig,
    STATUS_OK,
)
from repro.io.results import digest_records, result_record
from repro.serve.loadgen import build_corpus
from repro.serve.protocol import ok_response, route_request
from repro.serve.wire import (
    HEADER_SIZE,
    WireCodec,
    decode_ok_frame,
    decode_route_frame,
)

pytestmark = pytest.mark.serve


def _config(**overrides):
    defaults = dict(port=0, http_port=0, drain_grace=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _served_digest(results):
    return digest_records(
        result_record(i, r.ok, r.assignment, r.error_type)
        for i, r in enumerate(results)
    )


def _offline_digest(corpus, seed):
    engine = RoutingEngine(EngineConfig(seed=seed))
    offline = engine.route_many(
        [(c, s) for c, s, _ in corpus],
        max_segments=[k for _, _, k in corpus],
    )
    return result_stream_digest(offline)


# ----------------------------------------------------------------------
# codec round trips (no server)
# ----------------------------------------------------------------------
def test_route_frame_round_trip_matches_json_parse():
    """A packed route frame decodes to the same instance as the JSON."""
    corpus = build_corpus(8, seed=3)
    codec = WireCodec()
    for i, (channel, conns, k) in enumerate(corpus):
        frame = codec.encode_route(
            f"q{i}", channel, conns, max_segments=k,
            weight="length", algorithm="dp", deadline_ms=250.0,
        )
        request = decode_route_frame(frame[HEADER_SIZE:])
        assert request.request_id == f"q{i}"
        assert request.max_segments == k
        assert request.weight == "length"
        assert request.algorithm == "dp"
        assert request.deadline_ms == 250.0
        assert request.channel.n_columns == channel.n_columns
        assert request.channel.n_tracks == channel.n_tracks
        assert [t.breaks for t in request.channel] == [
            t.breaks for t in channel
        ]
        assert [(c.left, c.right, c.name) for c in request.connections] == [
            (c.left, c.right, c.name) for c in conns
        ]


def test_route_frame_defaults_round_trip():
    """Optional fields absent: flags say so and decode restores them."""
    channel, conns, _ = build_corpus(1, seed=5)[0]
    codec = WireCodec()
    frame = codec.encode_route("q1", channel, conns)
    request = decode_route_frame(frame[HEADER_SIZE:])
    assert request.max_segments is None
    assert request.weight is None
    assert request.algorithm == "auto"
    assert request.deadline_ms is None
    assert request.trace_id == ""


def test_ok_frame_round_trip_matches_response_dict():
    """encode_ok -> decode_ok_frame preserves every response field."""

    class _Routing:
        assignment = [0, 2, 1]

    class _Result:
        routing = _Routing()
        algorithm = "dp"
        duration = 0.0042
        cache_hit = True
        fallbacks = 1
        trace_id = "ab12"

    message = ok_response("q9", _Result())
    codec = WireCodec()
    decoded = decode_ok_frame(bytes(codec.encode_ok(message))[HEADER_SIZE:])
    assert decoded["id"] == "q9"
    assert decoded["status"] == STATUS_OK
    assert decoded["assignment"] == [0, 2, 1]
    assert decoded["algorithm"] == "dp"
    assert decoded["cache_hit"] is True
    assert decoded["fallbacks"] == 1
    assert decoded["trace_id"] == "ab12"
    assert decoded["duration_ms"] == pytest.approx(4.2, abs=0.01)


def test_binary_frames_are_smaller_than_ndjson():
    """The point of the packing: fewer bytes per message on the wire."""
    channel, conns, k = build_corpus(1, seed=11)[0]
    codec = WireCodec()
    packed = codec.encode_route("q1", channel, conns, max_segments=k)
    line = codec.encode_line(
        route_request("q1", channel, conns, max_segments=k)
    )
    assert len(packed) < len(line)


# ----------------------------------------------------------------------
# negotiation
# ----------------------------------------------------------------------
def test_hello_negotiates_binary_and_route_ids_start_at_q1():
    """Auto clients end up on v2; the hello probe must not burn q1."""
    corpus = build_corpus(4, seed=13)

    async def main():
        server = RoutingServer(_config(seed=13))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as client:
                results = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                return client.negotiated_wire, client.wire_stats(), results

    negotiated, stats, results = asyncio.run(main())
    assert negotiated == "v2"
    assert stats["negotiated"] == "v2"
    assert stats["frames_out"]["v2"] == len(corpus)
    assert all(r.ok for r in results)


def test_hello_response_carries_capability_set():
    """The handshake advertises versions + capabilities explicitly."""

    async def main():
        server = RoutingServer(_config(seed=1))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30, wire="v1"
            ) as client:
                from repro.serve.protocol import hello_request

                return await client.call(hello_request("hello"))

    response = asyncio.run(main())
    assert response["status"] == STATUS_OK
    assert 2 in response["versions"]
    assert CAP_WIRE_V1 in response["caps"]
    assert CAP_WIRE_V2 in response["caps"]
    assert response["wire"] == "v2"


def test_wire_v1_client_skips_handshake_and_works_unmodified():
    """Back-compat: a v1-only client never sends hello nor binary."""
    corpus = build_corpus(4, seed=17)

    async def main():
        server = RoutingServer(_config(seed=17))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30, wire="v1"
            ) as client:
                results = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                negotiated = client.negotiated_wire
                stats = client.wire_stats()
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as auto_client:
                auto = await auto_client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
            return negotiated, stats, results, auto

    negotiated, stats, results, auto = asyncio.run(main())
    assert negotiated == "v1"
    assert stats["frames_out"]["v2"] == 0
    assert all(r.ok for r in results)
    # Both framings answer identically on the same server.
    assert _served_digest(results) == _served_digest(auto)


# ----------------------------------------------------------------------
# end-to-end parity
# ----------------------------------------------------------------------
def test_binary_server_digest_identical_to_offline_and_ndjson():
    """Acceptance: live v2 digest == live v1 digest == offline digest."""
    corpus = build_corpus(24, seed=23)
    seed = 23

    async def run(wire):
        server = RoutingServer(_config(seed=seed))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=60, wire=wire
            ) as client:
                results = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                assert client.negotiated_wire == wire
                return results

    v2 = asyncio.run(run("v2"))
    v1 = asyncio.run(run("v1"))
    offline = _offline_digest(corpus, seed)
    assert _served_digest(v2) == offline
    assert _served_digest(v1) == offline


def test_sync_client_binary_parity():
    """The blocking client negotiates v2 and matches offline."""
    corpus = build_corpus(6, seed=29)
    seed = 29

    async def main():
        server = RoutingServer(_config(seed=seed))
        async with server:
            loop = asyncio.get_running_loop()

            def drive():
                with RoutingClient(
                    "127.0.0.1", server.port, timeout=30
                ) as client:
                    results = [
                        client.route(c, s, max_segments=k)
                        for c, s, k in corpus
                    ]
                    return client.negotiated_wire, results

            return await loop.run_in_executor(None, drive)

    negotiated, results = asyncio.run(main())
    assert negotiated == "v2"
    assert _served_digest(results) == _offline_digest(corpus, seed)


def test_server_counts_binary_requests_and_fastpath_hits():
    """Metrics: v2 frames counted; repeats answered on the fast path."""
    corpus = build_corpus(4, seed=31)

    async def main():
        server = RoutingServer(_config(seed=31))
        async with server:
            async with AsyncRoutingClient(
                "127.0.0.1", server.port, timeout=30
            ) as client:
                first = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                second = await client.route_many(
                    [(c, s) for c, s, _ in corpus],
                    max_segments=[k for _, _, k in corpus],
                )
                stats = await client.stats()
                return first, second, stats

    first, second, stats = asyncio.run(main())
    assert all(r.ok for r in first) and all(r.ok for r in second)
    assert _served_digest(first) == _served_digest(second)
    counters = stats["counters"]
    assert counters["serve.wire_v2_requests"] == 2 * len(corpus)
    # The whole second pass is canonical-cache hits answered inline.
    assert counters["serve.cache_fastpath"] >= len(corpus)


# ----------------------------------------------------------------------
# decode-cache byte bound
# ----------------------------------------------------------------------
class TestDecodeCacheByteBound:
    def _route_body(self, channel, conns, k):
        codec = WireCodec()
        frame = codec.encode_route("q1", channel, conns, max_segments=k)
        return frame[HEADER_SIZE:]

    def test_cache_bounded_by_total_payload_bytes(self):
        """Regression: the decode memo is bounded by cached payload
        *bytes*, not entry count — the old ``lru_cache(256)`` could pin
        256 near-MAX_FRAME_BYTES payloads (~4 GiB)."""
        from repro.serve.wire import _DecodeCache

        cache = _DecodeCache(max_bytes=1000)
        for i in range(50):
            payload = bytes([i]) * 100  # 100 bytes each, 10 fit
            cache.put(payload, (i,))
        stats = cache.stats()
        assert stats["bytes"] <= 1000
        assert stats["entries"] == 10
        # LRU: the most recent 10 survive, the oldest were evicted.
        assert cache.get(bytes([49]) * 100) == (49,)
        assert cache.get(bytes([0]) * 100) is None

    def test_oversized_payload_never_cached(self):
        from repro.serve.wire import _DecodeCache

        cache = _DecodeCache(max_bytes=100)
        cache.put(b"x" * 101, ("giant",))
        assert cache.stats()["entries"] == 0

    def test_repeat_decode_hits_shared_cache(self):
        from repro.serve.wire import _decode_cache

        corpus = build_corpus(2, seed=9)
        channel, conns, k = corpus[0]
        request = decode_route_frame(self._route_body(channel, conns, k))
        before = _decode_cache.stats()
        again = decode_route_frame(self._route_body(channel, conns, k))
        after = _decode_cache.stats()
        assert after["hits"] == before["hits"] + 1
        # Memoized: the identical payload returns the same objects.
        assert again.channel is request.channel
        assert again.connections is request.connections

    def test_wire_stats_expose_decode_cache_bound(self):
        from repro.serve.wire import DECODE_CACHE_BYTES, WireStats

        snap = WireStats().snapshot()
        assert snap["decode_cache"]["max_bytes"] == DECODE_CACHE_BYTES
        assert snap["decode_cache"]["bytes"] <= DECODE_CACHE_BYTES
