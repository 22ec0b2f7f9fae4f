"""Engine configuration.

:class:`EngineConfig` gathers every knob of the routing engine in one
immutable object so that an engine's behaviour is fully described by its
config (plus the instance stream it is fed).  All fields have
production-sensible defaults; ``EngineConfig()`` is the configuration the
module-level :func:`repro.engine.route_many` convenience uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.api import ALGORITHMS
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
        more builds one supervised pool per call, torn down before the
        call returns; ``0`` means :func:`default_jobs`.
    timeout:
        Per-request deadline in seconds, or ``None`` for no deadline.
        With a deadline, each algorithm attempt gets a share of the
        budget, which the solvers check cooperatively at their natural
        boundaries (see :mod:`repro.substrate.deadline`).  It is the
        one bound on a solve: on a pool, a worker still running a task
        a grace second past its deadline is SIGKILLed as hung.
    ladder:
        Degradation sequence tried after the primary algorithm times
        out.  Each rung gets the *remaining* budget; when the last rung
        times out too, the request raises
        :class:`~repro.core.errors.EngineTimeout`.  Every rung must be
        one of :data:`repro.core.api.ALGORITHMS`.
    cache:
        Enable the canonical instance cache (an LRU of 4096 routings).
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
    retry:
        :class:`~repro.engine.resilience.RetryPolicy` governing a pool's
        retry with backoff for transient failures (worker crashes, hung
        workers killed past their deadline, corrupt results) and
        poison-task quarantine.  In process each request runs once.
    fault_plan:
        Optional :class:`~repro.engine.resilience.FaultPlan` injecting
        deterministic pool-worker crashes/hangs/corruption and the
        engine-side ``kill_after_checkpoints`` — the chaos-test hook,
        never set in production.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    ladder: tuple[str, ...] = ("lp", "greedy1")
    cache: bool = True
    cache_dir: Optional[str] = None
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.cache_dir is not None and not self.cache:
            raise ValueError("cache_dir requires cache=True")
        for rung in self.ladder:
            if rung not in ALGORITHMS:
                raise ValueError(
                    f"unknown ladder rung {rung!r}; pick from {ALGORITHMS}"
                )

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else default_jobs()
