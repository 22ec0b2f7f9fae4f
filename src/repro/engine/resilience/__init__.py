"""repro.engine.resilience — the engine's fault-tolerance layer.

Four cooperating pieces (see ``docs/RESILIENCE.md``):

* :mod:`.retry` — :class:`RetryPolicy`: bounded retries with
  exponential backoff and deterministic seeded jitter, plus the
  poison-task quarantine budget;
* :mod:`.checkpoint` — :class:`CheckpointJournal`: a checksummed JSONL
  journal of completed batch results enabling ``--checkpoint`` /
  ``--resume`` runs that re-run only lost work;
* :mod:`.supervisor` — :class:`SupervisedExecutor`: heartbeat-tracked
  worker pool that SIGKILLs a worker hung past its task's deadline,
  recovers from ``BrokenProcessPool``, and keeps per-task
  retry/quarantine ledgers; :func:`run_sequential` runs each task once
  in process;
* :mod:`.faults` — :class:`FaultPlan`: seeded, fully deterministic
  fault injection (pool-worker crash / hang / garbage result) behind
  ``ENGINE_FAULT_PLAN`` / ``--inject-faults``, used by the chaos suite.
"""

from repro.engine.resilience.checkpoint import CheckpointJournal, record_key
from repro.engine.resilience.faults import FaultPlan, corrupt_assignment
from repro.engine.resilience.retry import (
    DEFAULT_RETRYABLE,
    RetryPolicy,
    backoff_delay,
)
from repro.engine.resilience.supervisor import (
    SupervisedExecutor,
    run_sequential,
)

__all__ = [
    "RetryPolicy",
    "backoff_delay",
    "DEFAULT_RETRYABLE",
    "CheckpointJournal",
    "record_key",
    "FaultPlan",
    "corrupt_assignment",
    "SupervisedExecutor",
    "run_sequential",
]
