"""Wire protocol v2: length-prefixed binary framing.

NDJSON (wire v1) spends most of its serve-side time inside
``json.dumps``/``json.loads`` and the ``.sch`` text round trip — for a
24-connection instance the route request is a few KB of text parsed
char by char.  Wire v2 replaces the hot messages with fixed-layout
binary frames packed in a single pass into a preallocated buffer:

``frame  = magic(0xB2) | type(u8) | length(u32, big-endian) | body``

Three body types::

    FRAME_JSON  0x01   a v1-shaped JSON object (UTF-8) — the escape
                       hatch for every non-hot message (ping, stats,
                       hello, all failure responses)
    FRAME_ROUTE 0x02   a packed ``route`` request
    FRAME_OK    0x03   a packed ``ok`` route response

The two framings coexist *per message* on one connection: a JSON line
always starts with ``{`` (0x7B) and a binary frame always starts with
0xB2, so the reader dispatches on the first byte.  A server therefore
answers v1 clients and v2 clients — and a client mixing both framings
mid-connection — without any per-connection mode flag; responses go
back in the framing of the request they answer.  Negotiation is the
``hello`` op (:mod:`repro.serve.protocol`): a client only *sends*
binary frames after the server advertised ``wire.v2.binary``.

Frame bodies are strict: decoders raise
:class:`~repro.core.errors.ProtocolError` on short bodies, trailing
garbage, out-of-range fields, or undecodable strings, so a garbled
frame surfaces as a typed error response, never as an ``ok``.  A
declared body length beyond :data:`MAX_FRAME_BYTES` raises
:class:`FrameTooLargeError` — the stream position can no longer be
trusted, so the connection must close after the error response.

Packing is zero-copy in the practical sense: one buffer per
:class:`WireCodec` (per connection), grown geometrically and reused
for every frame, with ``struct.pack_into`` writing each field exactly
once; the instance payload (channel geometry + connection spans) is
memoized per ``(channel, connections)`` object pair, so a loadgen or
batch client re-sending a corpus pays the packing cost once per entry.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.core.channel import SegmentedChannel, channel_from_breaks
from repro.core.connection import Connection, ConnectionSet
from repro.core.errors import ProtocolError, ReproError

__all__ = [
    "MAGIC",
    "FRAME_JSON",
    "FRAME_ROUTE",
    "FRAME_OK",
    "MAX_FRAME_BYTES",
    "HEADER_SIZE",
    "WIRE_V1",
    "WIRE_V2",
    "DECODE_CACHE_BYTES",
    "FrameTooLargeError",
    "WireStats",
    "WireCodec",
    "decode_cache_stats",
    "decode_route_frame",
    "decode_ok_frame",
    "read_wire_message",
]

#: First byte of every binary frame.  Deliberately outside ASCII so it
#: can never be confused with the ``{`` (0x7B) opening a JSON line.
MAGIC = 0xB2
_MAGIC_BYTE = bytes([MAGIC])

FRAME_JSON = 0x01
FRAME_ROUTE = 0x02
FRAME_OK = 0x03
_KNOWN_FRAMES = (FRAME_JSON, FRAME_ROUTE, FRAME_OK)

#: Upper bound on a declared body length.  Far above any real instance;
#: a frame claiming more is garbage and the connection is unframeable.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Framing labels used across the serve tier.
WIRE_V1 = "v1"
WIRE_V2 = "v2"

_HEADER = struct.Struct(">BBI")          # magic, frame type, body length
_HEADER_TAIL = struct.Struct(">BI")      # frame type, body length

#: Bytes of framing overhead per binary frame.
HEADER_SIZE = _HEADER.size
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_CONN = struct.Struct(">IIH")            # left, right, name length

#: Route-request flag bits.
_RF_HAS_K = 0x01
_RF_HAS_WEIGHT = 0x02
_RF_WEIGHT_SEGMENTS = 0x04               # else "length"
_RF_HAS_ALGORITHM = 0x08                 # else "auto"
_RF_HAS_DEADLINE = 0x10
_RF_HAS_TRACE = 0x20

#: Ok-response flag bits.
_OF_CACHE_HIT = 0x01
_OF_HAS_TRACE = 0x02


class FrameTooLargeError(ProtocolError):
    """A frame declared a body beyond :data:`MAX_FRAME_BYTES`.

    Unlike a garbled body (whose boundary was still valid), an insane
    length means the reader no longer knows where the next frame
    starts — the connection must be closed after reporting the error.
    """


@dataclass
class WireStats:
    """Per-connection serde accounting (the loadgen report breakdown)."""

    bytes_out: int = 0
    bytes_in: int = 0
    encode_s: float = 0.0
    decode_s: float = 0.0
    frames_out: dict = field(default_factory=lambda: {WIRE_V1: 0, WIRE_V2: 0})
    frames_in: dict = field(default_factory=lambda: {WIRE_V1: 0, WIRE_V2: 0})

    def snapshot(self) -> dict:
        # decode_cache is process-wide (the memo is shared across
        # connections), reported here so every wire report carries the
        # byte bound and its current occupancy.
        return {
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "encode_ms": round(self.encode_s * 1000.0, 3),
            "decode_ms": round(self.decode_s * 1000.0, 3),
            "frames_out": dict(self.frames_out),
            "frames_in": dict(self.frames_in),
            "decode_cache": decode_cache_stats(),
        }


# ----------------------------------------------------------------------
# packing primitives
# ----------------------------------------------------------------------
def _utf8(value: str, what: str) -> bytes:
    data = value.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolError(f"{what} too long for the wire ({len(data)} bytes)")
    return data


@lru_cache(maxsize=256)
def _instance_payload(
    channel: SegmentedChannel, connections: ConnectionSet
) -> bytes:
    """Packed channel + connections, memoized per object pair.

    Both types are hashable and immutable, so corpus entries re-sent
    across a run hit this cache and the route encoder degenerates to a
    header + options + one ``bytes`` copy.
    """
    parts: list[bytes] = []
    name = _utf8(channel.name, "channel name")
    parts.append(_U16.pack(len(name)))
    parts.append(name)
    parts.append(_U32.pack(channel.n_columns))
    parts.append(_U16.pack(channel.n_tracks))
    for track in channel.tracks:
        parts.append(_U16.pack(len(track.breaks)))
        if track.breaks:
            parts.append(
                struct.pack(f">{len(track.breaks)}I", *track.breaks)
            )
    parts.append(_U32.pack(len(connections)))
    for conn in connections:
        cname = _utf8(conn.name, "connection name")
        parts.append(_CONN.pack(conn.left, conn.right, len(cname)))
        parts.append(cname)
    return b"".join(parts)


class WireCodec:
    """One connection's frame packer: reusable buffer + serde stats.

    Not thread-safe (nor task-safe): callers must serialize access, as
    the server and clients already do under their per-connection write
    locks.  Every ``encode_*``/``decode_*`` call updates :attr:`stats`.
    """

    def __init__(self, initial: int = 8192) -> None:
        self._buf = bytearray(initial)
        self.stats = WireStats()

    # -- buffer management ---------------------------------------------
    def _ensure(self, size: int) -> None:
        if len(self._buf) < size:
            grown = len(self._buf)
            while grown < size:
                grown *= 2
            self._buf.extend(bytearray(grown - len(self._buf)))

    def _finish(self, ftype: int, offset: int, started: float) -> bytes:
        """Backfill the header length and snapshot the frame."""
        body_len = offset - _HEADER.size
        _HEADER.pack_into(self._buf, 0, MAGIC, ftype, body_len)
        out = bytes(self._buf[:offset])
        self.stats.encode_s += time.perf_counter() - started
        self.stats.bytes_out += len(out)
        self.stats.frames_out[WIRE_V2] += 1
        return out

    def _put_str(self, offset: int, data: bytes) -> int:
        self._ensure(offset + 2 + len(data))
        _U16.pack_into(self._buf, offset, len(data))
        self._buf[offset + 2:offset + 2 + len(data)] = data
        return offset + 2 + len(data)

    # -- encoders ------------------------------------------------------
    def encode_line(self, message: dict) -> bytes:
        """One NDJSON (wire v1) line, byte-identical to
        :func:`repro.serve.protocol.encode`, with serde accounting."""
        started = time.perf_counter()
        data = (
            json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        self.stats.encode_s += time.perf_counter() - started
        self.stats.bytes_out += len(data)
        self.stats.frames_out[WIRE_V1] += 1
        return data

    def encode_json(self, message: dict) -> bytes:
        """Wrap one JSON-shaped message in a FRAME_JSON frame."""
        started = time.perf_counter()
        body = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self._ensure(_HEADER.size + len(body))
        self._buf[_HEADER.size:_HEADER.size + len(body)] = body
        return self._finish(FRAME_JSON, _HEADER.size + len(body), started)

    def encode_route(
        self,
        request_id: str,
        channel: SegmentedChannel,
        connections: ConnectionSet,
        *,
        max_segments: Optional[int] = None,
        weight: Optional[str] = None,
        algorithm: str = "auto",
        deadline_ms: Optional[float] = None,
        trace_id: str = "",
        trace_parent: str = "",
    ) -> bytes:
        """Pack one route request (the v2 hot path, single pass)."""
        started = time.perf_counter()
        offset = self._put_str(_HEADER.size, _utf8(request_id, "request id"))
        flags = 0
        if max_segments is not None:
            flags |= _RF_HAS_K
        if weight is not None:
            if weight not in ("length", "segments"):
                raise ProtocolError(
                    f"'weight' must be 'length' or 'segments', got {weight!r}"
                )
            flags |= _RF_HAS_WEIGHT
            if weight == "segments":
                flags |= _RF_WEIGHT_SEGMENTS
        if algorithm != "auto":
            flags |= _RF_HAS_ALGORITHM
        if deadline_ms is not None:
            flags |= _RF_HAS_DEADLINE
        if trace_id:
            flags |= _RF_HAS_TRACE
        self._ensure(offset + 1 + 4 + 8)
        self._buf[offset] = flags
        offset += 1
        if flags & _RF_HAS_K:
            if max_segments < 0 or max_segments > 0xFFFFFFFF:
                raise ProtocolError(f"'k' out of wire range: {max_segments!r}")
            _U32.pack_into(self._buf, offset, max_segments)
            offset += 4
        if flags & _RF_HAS_ALGORITHM:
            offset = self._put_str(offset, _utf8(algorithm, "algorithm"))
        if flags & _RF_HAS_DEADLINE:
            self._ensure(offset + 8)
            _F64.pack_into(self._buf, offset, float(deadline_ms))
            offset += 8
        if flags & _RF_HAS_TRACE:
            offset = self._put_str(offset, _utf8(trace_id, "trace id"))
            offset = self._put_str(offset, _utf8(trace_parent, "trace parent"))
        payload = _instance_payload(channel, connections)
        self._ensure(offset + len(payload))
        self._buf[offset:offset + len(payload)] = payload
        return self._finish(FRAME_ROUTE, offset + len(payload), started)

    def encode_ok(self, message: dict) -> bytes:
        """Pack one ``ok`` route response (server's v2 hot path).

        ``message`` is the dict :func:`repro.serve.protocol.ok_response`
        builds for a successful routing; callers fall back to
        :meth:`encode_json` for every other response shape.
        """
        started = time.perf_counter()
        offset = self._put_str(
            _HEADER.size, _utf8(str(message["id"]), "request id")
        )
        flags = 0
        if message.get("cache_hit"):
            flags |= _OF_CACHE_HIT
        trace_id = str(message.get("trace_id", ""))
        if trace_id:
            flags |= _OF_HAS_TRACE
        self._ensure(offset + 1)
        self._buf[offset] = flags
        offset += 1
        offset = self._put_str(
            offset, _utf8(str(message.get("algorithm", "")), "algorithm")
        )
        assignment = message["assignment"]
        self._ensure(offset + 8 + 4 + 2 + 4 + 2 * len(assignment))
        _F64.pack_into(
            self._buf, offset, float(message.get("duration_ms", 0.0))
        )
        offset += 8
        _U32.pack_into(self._buf, offset, int(message.get("fallbacks", 0)))
        offset += 4
        if flags & _OF_HAS_TRACE:
            offset = self._put_str(offset, _utf8(trace_id, "trace id"))
            self._ensure(offset + 4 + 2 * len(assignment))
        _U32.pack_into(self._buf, offset, len(assignment))
        offset += 4
        struct.pack_into(
            f">{len(assignment)}H", self._buf, offset, *assignment
        )
        offset += 2 * len(assignment)
        return self._finish(FRAME_OK, offset, started)

    # -- stats-counted decode wrappers ---------------------------------
    def note_in(self, wire: str, nbytes: int) -> None:
        self.stats.bytes_in += nbytes
        self.stats.frames_in[wire] += 1

    def note_out(self, nbytes: int) -> None:
        """Account one NDJSON (v1) send encoded outside the codec."""
        self.stats.bytes_out += nbytes
        self.stats.frames_out[WIRE_V1] += 1

    def timed_decode(self, fn, *args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.stats.decode_s += time.perf_counter() - started


# ----------------------------------------------------------------------
# decoders (stateless)
# ----------------------------------------------------------------------
class _Cursor:
    """Strict little parse cursor over one frame body."""

    __slots__ = ("body", "offset")

    def __init__(self, body: bytes) -> None:
        self.body = body
        self.offset = 0

    def take(self, size: int) -> bytes:
        end = self.offset + size
        if end > len(self.body):
            raise ProtocolError(
                f"truncated frame body: wanted {size} bytes at offset "
                f"{self.offset}, body is {len(self.body)} bytes"
            )
        chunk = self.body[self.offset:end]
        self.offset = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def string(self, what: str) -> str:
        data = self.take(self.u16())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{what} is not UTF-8: {exc}") from exc

    def done(self) -> None:
        if self.offset != len(self.body):
            raise ProtocolError(
                f"frame body has {len(self.body) - self.offset} trailing "
                f"bytes after the last field"
            )


#: Total payload bytes the decode memo may retain.  The memo keys on the
#: raw payload, so an entry-count bound (the old ``lru_cache(256)``) was
#: really a *byte* bound of 256 × MAX_FRAME_BYTES ≈ 4 GiB in the
#: adversarial worst case; 32 MiB holds thousands of realistic corpus
#: entries while bounding the resident worst case to the bound itself.
DECODE_CACHE_BYTES = 32 * 1024 * 1024


class _DecodeCache:
    """LRU over decoded instances, bounded by total *payload bytes*.

    Each entry's cost is the length of its key (the raw payload bytes);
    insertion evicts least-recently-used entries until the total fits
    ``max_bytes``.  A payload larger than the whole bound is decoded but
    never cached — one giant frame cannot flush the working set.
    Thread-safe: the serve loop and client threads share the module
    singleton.
    """

    def __init__(self, max_bytes: int = DECODE_CACHE_BYTES) -> None:
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[bytes, tuple]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, payload: bytes):
        with self._lock:
            value = self._entries.get(payload)
            if value is not None:
                self._entries.move_to_end(payload)
                self.hits += 1
            else:
                self.misses += 1
            return value

    def put(self, payload: bytes, value: tuple) -> None:
        if len(payload) > self.max_bytes:
            return
        with self._lock:
            if payload not in self._entries:
                self._bytes += len(payload)
            self._entries[payload] = value
            self._entries.move_to_end(payload)
            while self._bytes > self.max_bytes:
                evicted, _ = self._entries.popitem(last=False)
                self._bytes -= len(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


_decode_cache = _DecodeCache()


def decode_cache_stats() -> dict:
    """Point-in-time stats of the shared instance-decode cache."""
    return _decode_cache.stats()


def _decode_instance(
    payload: bytes,
) -> tuple[SegmentedChannel, ConnectionSet]:
    """Instance payload bytes -> (channel, connections), memoized.

    The decode twin of :func:`_instance_payload`: a server answering a
    steady request stream sees the same payload bytes again and again,
    and both result types are immutable, so the (validating, per-track)
    object construction is paid once per distinct instance.  The memo
    (:class:`_DecodeCache`) is bounded by total cached payload *bytes*,
    not entry count — 256 near-``MAX_FRAME_BYTES`` payloads under an
    entry-count bound would pin ~4 GiB.  Failed decodes are never
    cached, so garbled payloads stay strict.
    """
    cached = _decode_cache.get(payload)
    if cached is not None:
        return cached
    cur = _Cursor(payload)
    name = cur.string("channel name")
    n_columns = cur.u32()
    n_tracks = cur.u16()
    breaks = []
    for _ in range(n_tracks):
        n_breaks = cur.u16()
        breaks.append(
            struct.unpack(f">{n_breaks}I", cur.take(4 * n_breaks))
        )
    n_conns = cur.u32()
    conns = []
    for _ in range(n_conns):
        left = cur.u32()
        right = cur.u32()
        cname = cur.string("connection name")
        if right > n_columns:
            raise ProtocolError(
                f"connection ({left},{right}) exceeds channel "
                f"width {n_columns}"
            )
        conns.append(Connection(left, right, cname))
    cur.done()
    instance = (
        channel_from_breaks(n_columns, breaks, name=name),
        ConnectionSet(conns),
    )
    _decode_cache.put(payload, instance)
    return instance


def decode_route_frame(body: bytes):
    """Decode one FRAME_ROUTE body into a ``RouteRequest``.

    Strict: every structural or semantic defect raises
    :class:`~repro.core.errors.ProtocolError`, so a garbled frame can
    only ever surface as a typed error response.
    """
    from repro.serve.protocol import RouteRequest

    cur = _Cursor(body)
    try:
        request_id = cur.string("request id")
        if not request_id:
            raise ProtocolError("message needs a non-empty string 'id'")
        flags = cur.u8()
        max_segments = cur.u32() if flags & _RF_HAS_K else None
        weight = None
        if flags & _RF_HAS_WEIGHT:
            weight = (
                "segments" if flags & _RF_WEIGHT_SEGMENTS else "length"
            )
        algorithm = (
            cur.string("algorithm") if flags & _RF_HAS_ALGORITHM else "auto"
        )
        deadline_ms = None
        if flags & _RF_HAS_DEADLINE:
            deadline_ms = cur.f64()
            if not deadline_ms > 0:
                raise ProtocolError(
                    f"'deadline_ms' must be a positive number, "
                    f"got {deadline_ms!r}"
                )
        trace_id = trace_parent = ""
        if flags & _RF_HAS_TRACE:
            trace_id = cur.string("trace id")
            trace_parent = cur.string("trace parent")
        channel, connections = _decode_instance(bytes(body[cur.offset:]))
    except ProtocolError:
        raise
    except (ReproError, struct.error, ValueError) as exc:
        raise ProtocolError(f"bad route frame: {exc}") from exc
    return RouteRequest(
        request_id=request_id,
        channel=channel,
        connections=connections,
        max_segments=max_segments,
        weight=weight,
        algorithm=algorithm,
        deadline_ms=deadline_ms,
        trace_id=trace_id,
        trace_parent=trace_parent,
    )


def decode_ok_frame(body: bytes) -> dict:
    """Decode one FRAME_OK body into the v1-shaped response dict."""
    cur = _Cursor(body)
    try:
        request_id = cur.string("request id")
        flags = cur.u8()
        algorithm = cur.string("algorithm")
        duration_ms = cur.f64()
        fallbacks = cur.u32()
        trace_id = cur.string("trace id") if flags & _OF_HAS_TRACE else ""
        count = cur.u32()
        assignment = list(struct.unpack(f">{count}H", cur.take(2 * count)))
        cur.done()
    except ProtocolError:
        raise
    except struct.error as exc:
        raise ProtocolError(f"bad ok frame: {exc}") from exc
    message = {
        "v": 2,
        "id": request_id,
        "status": "ok",
        "assignment": assignment,
        "algorithm": algorithm,
        "duration_ms": round(duration_ms, 3),
        "cache_hit": bool(flags & _OF_CACHE_HIT),
        "fallbacks": fallbacks,
    }
    if trace_id:
        message["trace_id"] = trace_id
    return message


# ----------------------------------------------------------------------
# stream readers (the per-message framing dispatch)
# ----------------------------------------------------------------------
async def read_wire_message(reader):
    """Read one message off an asyncio stream, whichever framing.

    Returns ``None`` at clean EOF, ``(WIRE_V1, line_bytes)`` for a JSON
    line, or ``(WIRE_V2, (frame_type, body_bytes))`` for a binary
    frame.  Raises :class:`FrameTooLargeError` for an unframeable
    length and ``asyncio.IncompleteReadError`` for a frame truncated by
    connection loss.
    """
    first = await reader.read(1)
    if not first:
        return None
    if first == _MAGIC_BYTE:
        ftype, length = _HEADER_TAIL.unpack(
            await reader.readexactly(_HEADER_TAIL.size)
        )
        if length > MAX_FRAME_BYTES:
            raise FrameTooLargeError(
                f"frame declares a {length}-byte body "
                f"(limit {MAX_FRAME_BYTES}); closing the connection"
            )
        return (WIRE_V2, (ftype, await reader.readexactly(length)))
    if first == b"\n":
        # A bare blank line must not swallow the *next* line.
        return (WIRE_V1, b"\n")
    return (WIRE_V1, first + await reader.readline())
