"""Structured tracing: spans, per-request collectors, and trace sinks.

One *trace* is the full story of one routing request: a tree of *spans*
rooted at the engine-side ``request`` span, with children for cache
lookups, journal writes, worker-side execution (``task`` → ``attempt`` →
``solve`` → ``kernel.dp``), and retries.  See
``docs/OBSERVABILITY.md`` for the span taxonomy and schema.

Design constraints, in order:

* **Zero overhead when disabled.**  Tracing is off unless the engine was
  given a :class:`TraceSink`; every instrumented call site guards on a
  ``None`` collector / empty ``trace_id`` before doing any work.
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
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.substrate.prng import derive_seed

__all__ = [
    "SPAN_VERSION",
    "SPAN_FIELDS",
    "derive_trace_id",
    "completed_span",
    "ActiveSpan",
    "SpanCollector",
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
    """An in-flight span; finished explicitly or by the ``span`` context."""

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


class SpanCollector:
    """Accumulates the spans one process side contributes to one trace.

    Not thread-safe by design: each collector belongs to one request in
    one process (the engine holds one per in-flight request; workers
    build their own and ship the spans back).
    """

    def __init__(self, trace_id: str, prefix: str = "p") -> None:
        self.trace_id = trace_id
        self.prefix = prefix
        self._seq = 0
        self._spans: list[dict] = []

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        span_id = f"{self.prefix}{self._seq}"
        self._seq += 1
        return span_id

    def start(self, name: str, parent_id: str = "", **attrs) -> ActiveSpan:
        """Open a span; caller must :meth:`ActiveSpan.finish` it."""
        return ActiveSpan(self, self._next_id(), parent_id, name, dict(attrs))

    @contextmanager
    def span(self, name: str, parent_id: str = "", **attrs) -> Iterator[ActiveSpan]:
        """Context-managed span; records the error type if the body raises."""
        active = self.start(name, parent_id, **attrs)
        try:
            yield active
        except BaseException as exc:
            active.set(error=type(exc).__name__)
            raise
        finally:
            active.finish()

    def emit(self, name: str, parent_id: str, ts: float, dur: float, **attrs) -> str:
        """Append an externally-timed, already-complete span; returns its ID."""
        span_id = self._next_id()
        self._spans.append(completed_span(
            self.trace_id, span_id, parent_id, name, ts, dur, **attrs
        ))
        return span_id

    def adopt(self, spans: Iterable[dict]) -> None:
        """Absorb spans produced by another process (already serialized)."""
        self._spans.extend(spans)

    def drain(self) -> list[dict]:
        """Return and clear the collected spans."""
        spans, self._spans = self._spans, []
        return spans


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
