"""Engine configuration.

:class:`EngineConfig` gathers every knob of the portfolio routing engine
in one immutable object so that an engine's behaviour is fully described
by its config (plus the instance stream it is fed).  All fields have
production-sensible defaults; ``EngineConfig()`` is the configuration the
module-level :func:`repro.engine.route_many` convenience uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.resilience.faults import FaultPlan
from repro.engine.resilience.retry import RetryPolicy

__all__ = ["EngineConfig", "WEIGHT_SPECS", "default_jobs"]

#: Weight objectives the engine can ship across process boundaries.
#: Arbitrary ``WeightFunction`` callables close over the channel and do
#: not pickle, so the engine names the paper's objectives instead and
#: each worker rebuilds the callable locally (see ``executor.py``).
WEIGHT_SPECS = ("length", "segments")


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: one per CPU, capped
    so a laptop does not fork 128 interpreters for a 10-instance batch."""
    return min(os.cpu_count() or 1, 8)


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of a :class:`repro.engine.RoutingEngine`.

    Attributes
    ----------
    jobs:
        Worker processes for :meth:`~repro.engine.RoutingEngine.route_many`.
        ``1`` routes sequentially in-process (no pool, no pickling);
        ``0`` means :func:`default_jobs`.
    timeout:
        Per-request deadline in seconds, or ``None`` for no deadline.
        With a deadline, each algorithm attempt gets a share of the
        budget, which the solvers check cooperatively at their natural
        boundaries (see :mod:`repro.substrate.deadline`).
    ladder:
        Degradation sequence tried after the primary algorithm times
        out.  Each rung gets the *remaining* budget; when the last rung
        times out too, the request raises
        :class:`~repro.core.errors.EngineTimeout`.
    portfolio:
        When true, ``route`` races the shape-selected candidate
        algorithms concurrently and returns the first valid routing
        (or the best-weight one when a weight objective is set),
        terminating the losers.  Race winners are never cached (the
        winner depends on timing); cached answers still serve races.
    cache:
        Enable the canonical instance cache.
    cache_size:
        Maximum number of cached routings (LRU eviction).
    cache_dir:
        Directory for the persistent shared cache tier
        (:class:`~repro.engine.cache_store.CacheStore`), or ``None``
        (the default) for in-memory caching only.  Processes pointed at
        the same directory — replicas behind one router, successive
        ``segroute batch`` runs — share solved results across process
        boundaries and restarts.  Requires ``cache=True``.
    seed:
        Base seed for worker-process PRNG streams; per-task substreams
        are derived via :func:`repro.substrate.prng.derive_seed` so
        results are bit-identical regardless of ``jobs`` or scheduling.
    validate:
        Re-validate every routing in the parent process before handing
        it back (cheap; on by default — the engine's contract is that
        every result passed a :meth:`Routing.validate` call).
    retry:
        :class:`~repro.engine.resilience.RetryPolicy` governing retry
        with backoff for transient failures (worker crashes, corrupt
        results) and poison-task quarantine.
    watchdog:
        Seconds a *started* task may run without its worker returning
        before the worker is declared hung and SIGKILLed (the pool is
        rebuilt and the task retried).  ``None`` disables hang
        detection; set it comfortably above the slowest legitimate
        solve, and above ``timeout`` when one is configured.
    fault_plan:
        Optional :class:`~repro.engine.resilience.FaultPlan` injecting
        deterministic worker crashes/hangs/corruption — the chaos-test
        hook, never set in production.
    keep_pool:
        Keep one :class:`~repro.engine.resilience.SupervisedExecutor`
        (and its worker pool) alive across ``route_many`` calls instead
        of building and tearing one down per batch.  This is the serving
        mode — :mod:`repro.serve` feeds the engine a stream of
        micro-batches and cannot afford pool start-up per window — and
        it obliges the owner to call :meth:`RoutingEngine.close` (or use
        the engine as a context manager) so the workers are released
        deterministically.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    ladder: tuple[str, ...] = ("lp", "greedy1")
    portfolio: bool = False
    cache: bool = True
    cache_size: int = 4096
    cache_dir: Optional[str] = None
    seed: int = 0
    validate: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    watchdog: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    keep_pool: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.cache_dir is not None and not self.cache:
            raise ValueError("cache_dir requires cache=True")
        if self.watchdog is not None and self.watchdog <= 0:
            raise ValueError(f"watchdog must be positive, got {self.watchdog}")

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else default_jobs()
