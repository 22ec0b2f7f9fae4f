"""Admission control: bounded queue, token bucket, deadline-aware shedding.

The admission layer decides, *before* a request is queued, whether
queuing it can possibly end well.  Three gates, in order:

1. **Token bucket** — sustained rate ``rate`` requests/second with burst
   capacity ``burst``.  An empty bucket refuses with ``overloaded``:
   the client is sending faster than this server is provisioned for.
2. **Bounded queue** — at most ``max_queue`` admitted-but-unfinished
   requests.  A full queue refuses with ``overloaded``: the server is
   at capacity and queuing deeper only adds latency for everyone.
3. **Deadline shed** — a request carrying ``deadline_ms`` whose budget
   is smaller than the *estimated* queue wait (pending depth × an
   exponentially-weighted estimate of per-request service time) is
   refused with ``shed``: it would time out anyway, so the server
   spends zero solve time on it and tells the client immediately.

The service-time estimate is 0 until the first request completes (an
unmeasured server never deadline-sheds), and it decays back toward 0
with a half-life of 30 s while no requests complete — a transient spike
observed just before an idle period cannot shed forever.

Gates 1 and 2 protect the server; gate 3 protects the client.  Both
refusals are typed (:class:`~repro.core.errors.AdmissionRejected`) and
reach the wire as ``overloaded`` / ``shed`` responses — load shedding
is an answer, not an error path.

The controller is thread-safe and clock-injectable; decisions are pure
functions of (state, now), which is what the unit tests exercise.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import AdmissionRejected
from repro.serve.protocol import STATUS_OVERLOADED, STATUS_SHED

__all__ = ["AdmissionController", "AdmissionDecision"]

#: Weight of the newest sample in the service-time EWMA.
_EWMA_ALPHA = 0.2

#: Seconds of idleness that halve the service-time estimate.
_DECAY_HALFLIFE_S = 30.0


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    status: str = ""   # "" when admitted, else STATUS_SHED / STATUS_OVERLOADED
    reason: str = ""

    def to_error(self) -> AdmissionRejected:
        """The typed error equivalent (for callers that prefer raising)."""
        return AdmissionRejected(self.reason, status=self.status)


class AdmissionController:
    """Admission state for one server: tokens, pending depth, service EWMA.

    Parameters
    ----------
    max_queue:
        Maximum admitted-but-unfinished requests (queued + batching +
        solving).  Admission *holds* one slot until :meth:`release`.
    rate:
        Sustained token-bucket refill rate in requests/second, or
        ``None`` for unlimited.
    burst:
        Bucket capacity; defaults to ``rate`` (1 second of burst).
        Ignored when ``rate`` is ``None``.
    clock:
        Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        max_queue: int = 64,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst is not None and burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.max_queue = max_queue
        self.rate = rate
        self.burst = float(burst if burst is not None else (rate or 0.0)) or 1.0
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._refilled_at = clock()
        self._pending = 0
        self._service_ewma_s: Optional[float] = None
        self._observed_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Admitted requests not yet released (queue + in flight)."""
        with self._lock:
            return self._pending

    def estimated_wait_s(self) -> float:
        """Predicted queue wait for a newly admitted request.

        Pending depth times the effective per-request service-time
        estimate (0 before any observation; idle-decayed EWMA after —
        see :meth:`effective_service_s`).
        """
        with self._lock:
            return self._estimated_wait_s()

    def effective_service_s(self) -> float:
        """Current per-request service-time estimate in seconds."""
        with self._lock:
            return self._effective_service_s()

    def _effective_service_s(self) -> float:
        if self._service_ewma_s is None:
            return 0.0
        idle = max(0.0, self._clock() - self._observed_at)
        return self._service_ewma_s * 0.5 ** (idle / _DECAY_HALFLIFE_S)

    def _estimated_wait_s(self) -> float:
        return self._pending * self._effective_service_s()

    # ------------------------------------------------------------------
    def try_admit(
        self, deadline_ms: Optional[float] = None
    ) -> AdmissionDecision:
        """Run the three gates; on admission, hold one queue slot."""
        with self._lock:
            self._refill()
            if self.rate is not None and self._tokens < 1.0:
                return AdmissionDecision(
                    False, STATUS_OVERLOADED,
                    f"rate limit: {self.rate:g} req/s "
                    f"(burst {self.burst:g}) exhausted",
                )
            if self._pending >= self.max_queue:
                return AdmissionDecision(
                    False, STATUS_OVERLOADED,
                    f"admission queue full: {self._pending} pending "
                    f"(bound {self.max_queue})",
                )
            if deadline_ms is not None:
                wait_ms = self._estimated_wait_s() * 1000.0
                if wait_ms > deadline_ms:
                    return AdmissionDecision(
                        False, STATUS_SHED,
                        f"deadline {deadline_ms:g}ms < estimated queue "
                        f"wait {wait_ms:.1f}ms; shedding instead of "
                        f"queuing doomed work",
                    )
            if self.rate is not None:
                self._tokens -= 1.0
            self._pending += 1
            return AdmissionDecision(True)

    def release(self) -> None:
        """Return one queue slot (call exactly once per admitted request)."""
        with self._lock:
            if self._pending > 0:
                self._pending -= 1

    def observe_service(self, seconds: float) -> None:
        """Feed one completed request's service time into the EWMA.

        The update applies to the *decayed* estimate, so a sample after
        a long idle period moves on from near 0, not from a stale
        spike.
        """
        if seconds < 0:
            return
        with self._lock:
            if self._service_ewma_s is None:
                self._service_ewma_s = seconds
            else:
                base = self._effective_service_s()
                self._service_ewma_s = base + _EWMA_ALPHA * (seconds - base)
            self._observed_at = self._clock()

    # ------------------------------------------------------------------
    def _refill(self) -> None:
        if self.rate is None:
            return
        now = self._clock()
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now

    def snapshot(self) -> dict:
        """Introspection dict (rendered under ``/metrics`` as gauges)."""
        with self._lock:
            return {
                "serve.queue_depth": self._pending,
                "serve.queue_bound": self.max_queue,
                "serve.tokens": round(self._tokens, 3),
                "serve.estimated_wait_s": round(self._estimated_wait_s(), 6),
                "serve.service_estimate_s": round(
                    self._effective_service_s(), 6
                ),
            }
