"""repro.engine — parallel routing engine.

The serving layer over :mod:`repro.core`: batch routing across a worker
pool, a canonical instance cache, per-request deadlines with graceful
degradation (``exact`` → ``lp`` → ``greedy``), and engine metrics.
See ``docs/ENGINE.md`` for the architecture.

Quickstart::

    from repro.engine import RoutingEngine, EngineConfig

    engine = RoutingEngine(EngineConfig(jobs=4, timeout=2.0))
    results = engine.route_many(instances)        # input order preserved
    routing = engine.route(channel, conns, max_segments=2)
    print(engine.stats()["counters"])
"""

from repro.core.errors import (
    CheckpointError,
    EngineError,
    EngineTimeout,
    TaskQuarantinedError,
    WorkerCrashError,
)
from repro.engine.cache import InstanceCache, canonical_key
from repro.engine.cache_store import CacheStore, key_digest
from repro.engine.config import EngineConfig, default_jobs
from repro.engine.engine import (
    BatchResult,
    RoutingEngine,
    close_default_engine,
    default_engine,
    reset_stats,
    route_many,
    stats,
)
from repro.engine.metrics import Metrics
from repro.engine.weights import WeightTable
from repro.engine.resilience import (
    CheckpointJournal,
    FaultPlan,
    RetryPolicy,
    SupervisedExecutor,
)

__all__ = [
    "RoutingEngine",
    "EngineConfig",
    "BatchResult",
    "route_many",
    "stats",
    "reset_stats",
    "default_engine",
    "close_default_engine",
    "default_jobs",
    "InstanceCache",
    "canonical_key",
    "CacheStore",
    "key_digest",
    "Metrics",
    "WeightTable",
    "RetryPolicy",
    "FaultPlan",
    "CheckpointJournal",
    "SupervisedExecutor",
    "EngineError",
    "EngineTimeout",
    "WorkerCrashError",
    "TaskQuarantinedError",
    "CheckpointError",
]
