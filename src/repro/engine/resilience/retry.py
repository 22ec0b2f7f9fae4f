"""Retry policy: bounded attempts, exponential backoff, deterministic jitter.

A :class:`RetryPolicy` describes *when* the engine's worker pool re-runs
a failed task and *how long* it waits before doing so (in process each
task runs once).  Two budgets are tracked independently per task:

* ``max_attempts`` bounds attempts that fail with a **retryable error**
  (a worker returned, but with a transient-looking failure such as a
  corrupt result);
* ``max_worker_crashes`` bounds **worker crashes** (the worker died, was
  OOM-killed, or was killed as hung past its task's deadline).
  Beyond it the task is *quarantined* — permanently failed with
  :class:`~repro.core.errors.TaskQuarantinedError` — so a poison task
  cannot wedge the pool in a crash/rebuild loop.

Backoff is exponential with a cap, plus *deterministic seeded jitter*:
the jitter fraction is derived from
:func:`repro.substrate.prng.derive_seed` over ``(seed, task_key,
attempt)``, so two runs of the same batch back off identically —
reproducibility extends to the failure path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ValidationError
from repro.substrate.prng import derive_seed

__all__ = ["RetryPolicy", "backoff_delay", "DEFAULT_RETRYABLE"]

#: Error *type names* (as recorded on a ``TaskOutcome``) that are safe to
#: retry: they describe the worker or the transport, not the instance.
#: ``ValidationError`` is the one by default: a recovered-but-corrupt
#: result (e.g. from fault injection or a bit flip) fails validation in
#: the supervisor and a clean re-run is the correct response;
#: deterministic validation failures simply exhaust ``max_attempts`` and
#: surface.  Worker crashes never arrive as an outcome: the supervisor
#: charges them to ``max_worker_crashes``.
DEFAULT_RETRYABLE = (ValidationError.__name__,)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/quarantine knobs for one engine's worker pool.

    Attributes
    ----------
    max_attempts:
        Total attempts allowed per task for retryable *error* outcomes
        (1 = never retry errors).
    max_worker_crashes:
        Worker crashes (or kills of a worker hung past its task's
        deadline) tolerated per task before it is quarantined.
    base_delay / multiplier / max_delay:
        Exponential backoff: attempt ``n`` waits
        ``min(base_delay * multiplier**(n-1), max_delay)`` seconds
        before the jitter factor.
    jitter:
        Maximum extra delay as a fraction of the backoff (0.25 = up to
        +25%), drawn deterministically from the engine seed and task key.
    retryable:
        Error type names eligible for retry; everything else (e.g.
        ``RoutingInfeasibleError``, ``EngineTimeout``) fails fast.
    """

    max_attempts: int = 3
    max_worker_crashes: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    retryable: tuple[str, ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.max_worker_crashes < 1:
            raise ValueError(
                f"max_worker_crashes must be >= 1, got {self.max_worker_crashes}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def is_retryable(self, error_type: object) -> bool:
        return error_type in self.retryable


def backoff_delay(
    policy: RetryPolicy, attempt: int, seed: int, task_key: str
) -> float:
    """Delay in seconds before retry number ``attempt`` (1-based).

    Pure function of its arguments: the jitter comes from
    :func:`derive_seed`, not wall-clock entropy, so a resumed or
    repeated run backs off identically.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    delay = min(
        policy.base_delay * policy.multiplier ** (attempt - 1), policy.max_delay
    )
    unit = derive_seed(seed, f"retry:{task_key}:{attempt}") / 2**64
    return delay * (1.0 + policy.jitter * unit)
