"""Malformed-frame fuzzing: garbled input must never surface as ``ok``.

Raw-socket tests against the protocol front door, each run twice:
against a live server, and against a router fronting one in-process
server (the two share the front door, so both must hold the same
line).  Truncated length prefixes, oversized declared lengths, garbage
frame bodies, and v1/v2 interleave on a single connection.  The
invariants:

* a garbled body gets a typed ``ProtocolError`` response and the
  connection stays usable (the frame boundary was still valid);
* an unframeable length prefix gets a typed error and the connection
  is *closed* (the stream position can no longer be trusted);
* nothing garbled is ever answered with ``status: "ok"``.
"""

import asyncio
import contextlib
import json
import random
import struct

import pytest

from repro.serve import (
    MAX_FRAME_BYTES,
    RouterConfig,
    RoutingRouter,
    RoutingServer,
    ServeConfig,
    StaticReplicaSet,
)
from repro.serve.loadgen import build_corpus
from repro.serve.wire import (
    FRAME_JSON,
    FRAME_ROUTE,
    HEADER_SIZE,
    MAGIC,
    WireCodec,
    decode_ok_frame,
    decode_route_frame,
    read_wire_message,
)
from repro.core.errors import ProtocolError, ReproError

pytestmark = pytest.mark.serve

_HEADER = struct.Struct(">BBI")


def _frame(ftype: int, body: bytes) -> bytes:
    return _HEADER.pack(MAGIC, ftype, len(body)) + body


async def _connect(port):
    return await asyncio.open_connection("127.0.0.1", port)


async def _read_message(reader, timeout=10.0):
    """One response, whichever framing the server answered in.

    Binary-framed requests are answered with binary frames (FRAME_JSON
    for errors, FRAME_OK for routes); NDJSON requests with lines.
    """
    item = await asyncio.wait_for(read_wire_message(reader), timeout)
    assert item is not None, "server closed instead of answering"
    wire, payload = item
    if wire == "v1":
        return json.loads(payload)
    ftype, body = payload
    if ftype == FRAME_JSON:
        return json.loads(body)
    return decode_ok_frame(body)


def _config(**overrides):
    defaults = dict(port=0, http_port=0, max_wait_ms=2.0, drain_grace=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


@contextlib.asynccontextmanager
async def _front_door(front, seed):
    """A started server, or a router fronting one; yields the front."""
    async with RoutingServer(_config(seed=seed)) as server:
        if front == "server":
            yield server
            return
        router = RoutingRouter(
            StaticReplicaSet([("127.0.0.1", server.port)]),
            RouterConfig(port=0, http_port=0, seed=seed, drain_grace=5.0),
        )
        async with router:
            yield router


def _on_each_front(main):
    """Run ``main(front)`` against a server, then against a router."""
    for front in ("server", "router"):
        try:
            asyncio.run(main(front))
        except AssertionError as exc:
            raise AssertionError(f"[{front}] {exc}") from exc


async def _ping_ok(reader, writer):
    """The connection is still alive and sane after whatever preceded."""
    writer.write(json.dumps(
        {"v": 1, "id": "alive", "op": "ping"}
    ).encode() + b"\n")
    await writer.drain()
    response = await _read_message(reader)
    assert response["id"] == "alive"
    assert response["status"] == "ok"


def test_truncated_length_prefix_closes_cleanly():
    """MAGIC + a partial header then EOF: no response, no crash."""

    async def main(front):
        async with _front_door(front, seed=1) as door:
            reader, writer = await _connect(door.port)
            writer.write(bytes([MAGIC, FRAME_ROUTE, 0x00]))  # header cut
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # The server must survive it and keep serving others.
            reader2, writer2 = await _connect(door.port)
            await _ping_ok(reader2, writer2)
            writer2.close()

    _on_each_front(main)


def test_truncated_body_closes_cleanly():
    """A frame whose declared body never fully arrives: clean teardown."""

    async def main(front):
        async with _front_door(front, seed=1) as door:
            reader, writer = await _connect(door.port)
            writer.write(_HEADER.pack(MAGIC, FRAME_ROUTE, 4096) + b"\x01\x02")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            reader2, writer2 = await _connect(door.port)
            await _ping_ok(reader2, writer2)
            writer2.close()

    _on_each_front(main)


def test_oversized_declared_length_typed_error_then_close():
    """A length beyond MAX_FRAME_BYTES: typed error, connection closed."""

    async def main(front):
        async with _front_door(front, seed=1) as door:
            reader, writer = await _connect(door.port)
            writer.write(_HEADER.pack(MAGIC, FRAME_ROUTE, MAX_FRAME_BYTES + 1))
            await writer.drain()
            response = await _read_message(reader)
            assert response["status"] == "error"
            assert response["error_type"] == "ProtocolError"
            # The stream is unframeable: the server must hang up.
            assert await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()

    _on_each_front(main)


def test_unknown_frame_type_typed_error_connection_survives():
    """An unknown frame type is an error; the boundary was still valid."""

    async def main(front):
        async with _front_door(front, seed=1) as door:
            reader, writer = await _connect(door.port)
            writer.write(_frame(0x7F, b"whatever"))
            await writer.drain()
            response = await _read_message(reader)
            assert response["status"] == "error"
            assert response["error_type"] == "ProtocolError"
            await _ping_ok(reader, writer)
            writer.close()

    _on_each_front(main)


def test_garbage_route_bodies_never_ok():
    """Seeded random bodies in valid FRAME_ROUTE frames: all rejected.

    Bodies that happen to decode locally into a valid request are
    skipped (they are not garbled, just improbable); every body that
    fails local decode must come back as a typed error — never ``ok``,
    and never a dropped connection.
    """
    rng = random.Random(0xB2)
    bodies = [
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 200)))
        for _ in range(40)
    ]
    garbled = []
    for body in bodies:
        try:
            decode_route_frame(body)
        except (ProtocolError, ReproError):
            garbled.append(body)
    assert garbled, "fuzz corpus produced no garbled bodies"

    async def main(front):
        async with _front_door(front, seed=1) as door:
            reader, writer = await _connect(door.port)
            for body in garbled:
                writer.write(_frame(FRAME_ROUTE, body))
                await writer.drain()
                response = await _read_message(reader)
                assert response["status"] == "error", response
                assert response["error_type"] == "ProtocolError"
            # After the whole barrage the connection still works.
            await _ping_ok(reader, writer)
            writer.close()

    _on_each_front(main)


def test_mutated_valid_frames_never_ok_unless_still_parseable():
    """Bit-flipped real frames: the server may only say ``ok`` to
    bodies that still decode into a valid request."""
    channel, conns, k = build_corpus(1, seed=9)[0]
    codec = WireCodec()
    original = bytes(codec.encode_route("m0", channel, conns, max_segments=k))
    body = original[HEADER_SIZE:]
    rng = random.Random(42)
    mutants = []
    for _ in range(30):
        mutated = bytearray(body)
        for _ in range(rng.randrange(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.getrandbits(8)
        mutants.append(bytes(mutated))

    expectations = []
    for mutated in mutants:
        try:
            decode_route_frame(mutated)
            expectations.append((mutated, True))
        except (ProtocolError, ReproError):
            expectations.append((mutated, False))

    async def main(front):
        async with _front_door(front, seed=9) as door:
            reader, writer = await _connect(door.port)
            for mutated, parseable in expectations:
                writer.write(_frame(FRAME_ROUTE, mutated))
                await writer.drain()
                response = await _read_message(reader)
                if not parseable:
                    assert response["status"] == "error", response
                    assert response["error_type"] == "ProtocolError"
                # Parseable mutants are legitimate (different) requests;
                # any status is fine as long as the server answered in
                # protocol and the connection survives.
            await _ping_ok(reader, writer)
            writer.close()

    _on_each_front(main)


def test_garbage_json_frame_bodies_never_ok():
    """FRAME_JSON with non-JSON bytes: typed error, not ``ok``."""
    rng = random.Random(7)
    bodies = [b"", b"\x00\x01", b"not json", b"[1,2,3]", b'"str"',
              bytes(rng.getrandbits(8) for _ in range(64))]

    async def main(front):
        async with _front_door(front, seed=1) as door:
            reader, writer = await _connect(door.port)
            for body in bodies:
                writer.write(_frame(FRAME_JSON, body))
                await writer.drain()
                response = await _read_message(reader)
                assert response["status"] == "error", (body, response)
            await _ping_ok(reader, writer)
            writer.close()

    _on_each_front(main)


def test_v1_v2_interleave_on_one_connection():
    """JSON lines and binary frames alternate freely on one socket."""
    channel, conns, k = build_corpus(1, seed=21)[0]
    codec = WireCodec()

    async def main(front):
        async with _front_door(front, seed=21) as door:
            reader, writer = await _connect(door.port)
            # 1) plain v1 ping line
            writer.write(json.dumps(
                {"v": 1, "id": "a", "op": "ping"}
            ).encode() + b"\n")
            # 2) binary route frame
            writer.write(bytes(codec.encode_route(
                "b", channel, conns, max_segments=k,
            )))
            # 3) garbled binary frame
            writer.write(_frame(FRAME_ROUTE, b"\xff\xff\xff"))
            # 4) another v1 line (route via JSON)
            from repro.serve.protocol import route_request

            writer.write(json.dumps(
                route_request("d", channel, conns, max_segments=k)
            ).encode() + b"\n")
            await writer.drain()

            by_id = {}
            while len(by_id) < 4:
                first = await asyncio.wait_for(
                    reader.readexactly(1), 15.0
                )
                if first == bytes([MAGIC]):
                    ftype, length = struct.unpack(
                        ">BI", await reader.readexactly(5)
                    )
                    from repro.serve.wire import decode_ok_frame

                    frame_body = await reader.readexactly(length)
                    if ftype == FRAME_JSON:
                        message = json.loads(frame_body)
                    else:
                        message = decode_ok_frame(frame_body)
                else:
                    line = first + await reader.readline()
                    message = json.loads(line)
                by_id[message.get("id")] = message
            writer.close()
        assert by_id["a"]["status"] == "ok"
        assert by_id["b"]["status"] == "ok"
        assert by_id["d"]["status"] == "ok"
        # The garbled frame answered with a typed, id-less error.
        assert by_id[None]["status"] == "error"
        assert by_id[None]["error_type"] == "ProtocolError"
        # Binary and JSON answers for the same instance agree.
        assert by_id["b"]["assignment"] == by_id["d"]["assignment"]

    _on_each_front(main)
