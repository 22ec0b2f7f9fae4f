"""Structured tracing: spans, per-request collectors, and trace sinks.

One *trace* is the full story of one routing request: a tree of *spans*
rooted at the engine-side ``request`` span, with children for cache
lookups, journal writes, worker-side execution (``task`` → ``attempt`` →
``solve`` → ``kernel.dp``), and retries.  See
``docs/OBSERVABILITY.md`` for the span taxonomy and schema.

Design constraints, in order:

* **One path, traced or not.**  Tracing is off unless the owner of a
  :class:`TraceSink` (an engine, server, router, client, chip pipeline
  or cache store) was given one.  The owner picks a request's trace ID
  once; with no sink it picks the empty ID, whose collector is *inert*:
  it hands out one shared span that records nothing and allocates no
  span.  So every call site traces unconditionally, and traced and
  untraced requests run the same code.
* **Reproducible identity.**  Trace IDs are derived with
  :func:`repro.substrate.prng.derive_seed` from the engine seed, the
  batch sequence number, and the request's canonical task key — two runs
  of the same batch produce the same trace IDs, so traces can be diffed
  across runs.  Span IDs are sequence numbers under a per-collector
  prefix (parent ``p``, worker attempt ``w<n>:``), unique within a
  trace without any cross-process coordination.
* **Spans cross process boundaries as plain dicts.**  Worker processes
  cannot reach the parent's sink; they accumulate spans in a local
  :class:`SpanCollector` and ship them back inside the result
  (``TaskOutcome.spans``).  The parent adopts them into the request's
  collector, so the emitted trace is one connected tree even when
  several processes contributed spans.

A span on the wire (one JSONL line in a trace file)::

    {"v": 1, "trace_id": "8f3a...", "span_id": "p1", "parent_id": "p0",
     "name": "cache.lookup", "ts": 1722950000.123, "dur": 0.0001,
     "attrs": {"hit": false}}

``ts`` is epoch seconds at span start (comparable across processes on
one host), ``dur`` is elapsed seconds measured on the monotonic clock.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Iterable, Optional

from repro.substrate.prng import derive_seed

__all__ = [
    "SPAN_VERSION",
    "SPAN_FIELDS",
    "derive_trace_id",
    "completed_span",
    "ActiveSpan",
    "SpanCollector",
    "NO_TRACE",
    "TraceSink",
    "JsonlTraceSink",
    "ListTraceSink",
]

#: Wire-format version stamped on every span.
SPAN_VERSION = 1

#: Required keys of a serialized span, in canonical order.
SPAN_FIELDS = ("v", "trace_id", "span_id", "parent_id", "name", "ts", "dur", "attrs")


def derive_trace_id(seed: int, stream: str) -> str:
    """Reproducible 64-bit hex trace ID for substream ``stream``.

    Pure function of ``(seed, stream)`` — the engine passes
    ``"{batch}:{index}:{task_key}"`` so re-running a batch regenerates
    identical trace IDs.
    """
    return f"{derive_seed(seed, f'trace:{stream}'):016x}"


def completed_span(
    trace_id: str,
    span_id: str,
    parent_id: str,
    name: str,
    ts: float,
    dur: float = 0.0,
    **attrs,
) -> dict:
    """Build an already-finished span dict (for events timed externally)."""
    return {
        "v": SPAN_VERSION,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "ts": ts,
        "dur": dur,
        "attrs": attrs,
    }


class ActiveSpan:
    """An in-flight span; finished explicitly or by leaving its ``with``.

    Used as a context manager it records the error type if the body
    raises.
    """

    __slots__ = ("_collector", "span_id", "parent_id", "name", "attrs",
                 "_ts", "_t0", "_done")

    def __init__(
        self, collector: "SpanCollector", span_id: str, parent_id: str,
        name: str, attrs: dict,
    ) -> None:
        self._collector = collector
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self._done = False

    def set(self, **attrs) -> None:
        """Attach attributes to the span (last write per key wins)."""
        self.attrs.update(attrs)

    def finish(self) -> None:
        """Close the span and hand it to the collector (idempotent)."""
        if self._done:
            return
        self._done = True
        self._collector._spans.append(completed_span(
            self._collector.trace_id, self.span_id, self.parent_id,
            self.name, self._ts, time.perf_counter() - self._t0,
            **self.attrs,
        ))

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        self.finish()


class _InertSpan:
    """The span an inert collector hands out: it records nothing."""

    __slots__ = ()
    span_id = ""

    def set(self, **attrs) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_InertSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_INERT_SPAN = _InertSpan()


class SpanCollector:
    """Accumulates the spans one process side contributes to one trace.

    A collector with an empty ``trace_id`` is *inert*: :meth:`start` and
    :meth:`span` return one shared span whose ``set`` and ``finish`` do
    nothing, :meth:`emit` and :meth:`adopt` drop their input, and
    :meth:`drain` returns ``[]``.  The owner of a sink chooses the trace
    ID, so whether anything is recorded is decided there, once.

    ``sink`` is where :meth:`flush` writes the spans; a worker-side
    collector has none and ships :meth:`drain`'s spans back instead.

    Not thread-safe by design: each collector belongs to one request in
    one process (the engine holds one per in-flight request; workers
    build their own and ship the spans back).  Inert collectors hold no
    state, so :data:`NO_TRACE` is shared.
    """

    __slots__ = ("trace_id", "prefix", "sink", "_seq", "_spans")

    def __init__(
        self, trace_id: str, prefix: str = "p",
        sink: Optional["TraceSink"] = None,
    ) -> None:
        self.trace_id = trace_id
        self.prefix = prefix
        self.sink = sink
        self._seq = 0
        self._spans: list[dict] = []

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        span_id = f"{self.prefix}{self._seq}"
        self._seq += 1
        return span_id

    def start(self, name: str, parent_id: str = "", **attrs) -> ActiveSpan:
        """Open a span; caller must :meth:`ActiveSpan.finish` it."""
        if not self.trace_id:
            return _INERT_SPAN
        return ActiveSpan(self, self._next_id(), parent_id, name, attrs)

    #: :meth:`start` for a ``with`` block, which finishes the span.
    span = start

    def emit(self, name: str, parent_id: str, ts: float, dur: float, **attrs) -> str:
        """Append an externally-timed, already-complete span; returns its ID."""
        if not self.trace_id:
            return ""
        span_id = self._next_id()
        self._spans.append(completed_span(
            self.trace_id, span_id, parent_id, name, ts, dur, **attrs
        ))
        return span_id

    def adopt(self, spans: Iterable[dict]) -> None:
        """Absorb spans produced by another process (already serialized)."""
        if self.trace_id:
            self._spans.extend(spans)

    def drain(self) -> list[dict]:
        """Return and clear the collected spans."""
        spans, self._spans = self._spans, []
        return spans

    def flush(self) -> None:
        """Write the collected spans to :attr:`sink` and clear them."""
        if self._spans:
            self.sink.write_all(self.drain())


#: The shared inert collector, for call sites that trace nothing.
NO_TRACE = SpanCollector("")


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TraceSink:
    """Where finished spans go.  Subclasses override :meth:`write`."""

    def write(self, span: dict) -> None:
        raise NotImplementedError

    def write_all(self, spans: Iterable[dict]) -> None:
        for span in spans:
            self.write(span)

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlTraceSink(TraceSink):
    """Thread-safe JSONL file sink: one span per line, sorted keys."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh: Optional[object] = open(path, "w", encoding="utf-8")

    def write(self, span: dict) -> None:
        line = json.dumps(span, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                raise ValueError(f"{self.path}: trace sink is closed")
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None


class ListTraceSink(TraceSink):
    """In-memory sink for tests and programmatic inspection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def write(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)
