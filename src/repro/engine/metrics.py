"""Lightweight engine observability: counters and latency histograms.

No external metrics dependency — a :class:`Metrics` registry keeps
thread-safe counters and bounded-memory histograms, and renders them as a
plain dict (:meth:`Metrics.snapshot`) so callers can log, JSON-serialize,
or print them.  The engine records:

counters
    ``requests``, ``cache.hits``, ``cache.misses``, ``timeouts``,
    ``fallbacks``, ``errors``, ``dp_nodes_pruned`` (frontiers dropped by the DP kernel's
    dominance pruning — see ``docs/PERFORMANCE.md``), plus the
    resilience layer's ``retries_total``, ``tasks_quarantined``,
    ``worker_crashes``, ``workers_killed`` (pool workers SIGKILLed as
    hung past their task's deadline),
    ``pool_rebuilds``, ``checkpoint_records_written``, and
    ``checkpoint_records_skipped``.
histograms
    ``latency.<algorithm>`` — wall-clock seconds per completed request,
    keyed by the algorithm that actually produced the routing.

Histograms are memory-bounded: each keeps exact ``count``/``total``/
``min``/``max`` forever, plus a fixed-size uniform reservoir
(Vitter's Algorithm R, :data:`_RESERVOIR_SIZE` samples) for quantiles.
Up to the reservoir bound the p50/p95 are exact; beyond it they are
unbiased estimates over a uniform sample of the *whole* stream (not a
recency window, so a long steady phase is not erased by a recent burst).
Reservoir replacement uses a per-histogram deterministic PRNG seeded
from the histogram name, so snapshots are reproducible run-to-run for
identical observation sequences.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.substrate.prng import derive_seed

__all__ = ["Metrics", "HistogramSummary", "render_snapshot"]

#: Samples kept per histogram for quantile estimates.  Quantiles are exact
#: up to this many observations and reservoir-sampled estimates beyond it.
_RESERVOIR_SIZE = 4096


@dataclass
class HistogramSummary:
    """Aggregated view of one histogram at snapshot time."""

    count: int
    total: float
    mean: float
    min: float
    max: float
    p50: float
    p95: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
        }


@dataclass
class _Histogram:
    """Exact aggregates + a bounded uniform reservoir for quantiles."""

    name: str = ""
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    reservoir: list[float] = field(default_factory=list)
    _rng: random.Random = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._rng is None:
            self._rng = random.Random(derive_seed(0, f"metrics:{self.name}"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        # Algorithm R: keep each of the `count` observations in the
        # reservoir with equal probability `size / count`.
        if len(self.reservoir) < _RESERVOIR_SIZE:
            self.reservoir.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < _RESERVOIR_SIZE:
                self.reservoir[j] = value

    def summary(self) -> HistogramSummary:
        ordered = sorted(self.reservoir)
        return HistogramSummary(
            count=self.count,
            total=self.total,
            mean=self.total / self.count if self.count else 0.0,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
            p50=_quantile(ordered, 0.50),
            p95=_quantile(ordered, 0.95),
        )


def _quantile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class Metrics:
    """Thread-safe counter/histogram registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram(name=name)
            hist.observe(value)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view: ``{"counters": {...}, "histograms": {...}}``.

        Adds the derived ``cache.hit_rate`` (in [0, 1]) when any cache
        lookups were recorded.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = {
                name: hist.summary().as_dict()
                for name, hist in sorted(self._histograms.items())
            }
        lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
        derived: dict[str, float] = {}
        if lookups:
            derived["cache.hit_rate"] = counters.get("cache.hits", 0) / lookups
        return {"counters": counters, "derived": derived, "histograms": histograms}

    def reset(self) -> None:
        """Zero every counter and histogram."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line rendering (used by ``--stats``)."""
        return render_snapshot(self.snapshot())

    def render_prometheus(self) -> str:
        """Prometheus text-exposition rendering (see ``repro.obs.prom``)."""
        from repro.obs.prom import render_prometheus

        return render_prometheus(self.snapshot())


def render_snapshot(snap: dict) -> str:
    """Human-readable rendering of a :meth:`Metrics.snapshot` dict."""
    lines = ["engine stats:"]
    if snap["counters"]:
        lines.append("  counters:")
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"    {name:<28} {value}")
    for name, value in sorted(snap.get("derived", {}).items()):
        lines.append(f"    {name:<28} {value:.3f}")
    if snap["histograms"]:
        lines.append("  latency (seconds):")
        for name, h in snap["histograms"].items():
            lines.append(
                f"    {name:<20} n={h['count']:<5} mean={h['mean']:.4f} "
                f"p50={h['p50']:.4f} p95={h['p95']:.4f} max={h['max']:.4f}"
            )
    return "\n".join(lines) + "\n"
