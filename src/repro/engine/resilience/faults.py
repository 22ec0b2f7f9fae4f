"""Deterministic fault injection: seeded worker crashes, hangs, garbage.

A :class:`FaultPlan` makes the engine's failure handling *testable*: it
decides, as a pure function of ``(seed, task_key, attempt)``, whether a
given task attempt should crash its pool worker (``os._exit``), hang it
(sleep past the task's deadline until the supervisor kills it), or
corrupt its result (an out-of-range track assignment that can never
validate).  Because the decision stream is seeded, a chaos test can
assert bit-identical results against a fault-free run, and a failure
found under injection replays exactly.  These three fire only in pool
workers (``jobs > 1``): an engine solving in process ignores them, and
the CLI refuses them where every solve runs in process.

Plans are written as compact ``key=value`` spec strings so they can ride
an environment variable (``ENGINE_FAULT_PLAN``) or CLI flag
(``--inject-faults``) into pool worker initializers::

    crash=0.1,hang=0.05,garbage=0.05,seed=7,hang_seconds=30

``kill_after_checkpoints=N`` is a parent-side fault: the engine SIGKILLs
its own process after ``N`` checkpoint records have been journaled,
which is how the checkpoint/resume path is exercised deterministically.

Serve-layer faults (see ``docs/RESILIENCE.md``) extend the same spec
grammar one tier up, into :mod:`repro.serve`:

* ``conn_drop`` / ``conn_garble`` are per-forward-attempt rates drawn
  by :meth:`FaultPlan.decide_serve` — the router drops the replica
  connection mid-request, or garbles the replica's response assignment
  (which can never pass validation);
* ``kill_replica_after=N`` / ``stop_replica_after=N`` are parent-side
  faults applied by the :class:`~repro.serve.replica.ReplicaSet`:
  after ``N`` routed requests a seeded-chosen replica process is
  SIGKILLed (crash mid-batch) or SIGSTOPped (hang until the heartbeat
  watchdog kills and restarts it).

All serve-layer decisions are pure functions of the plan seed, so a
chaos run under injection is replayable and can be digest-compared to a
fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import FormatError
from repro.substrate.prng import derive_seed

__all__ = ["FaultPlan", "corrupt_assignment"]

_FLOAT_FIELDS = (
    "crash", "hang", "garbage", "hang_seconds", "conn_drop", "conn_garble",
)
_INT_FIELDS = (
    "seed", "kill_after_checkpoints",
    "kill_replica_after", "stop_replica_after",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault-injection plan (all rates are per *attempt*).

    Rates are independent draws per attempt, so a task whose first
    attempt crashes usually succeeds on retry — which is exactly the
    failure mode the retry layer exists for.  ``hang_seconds`` is how
    long an injected hang sleeps; set it well past the task's
    ``timeout`` (plus the supervisor's one-second grace) so hung
    workers are killed rather than finishing late.  An untimed task
    is never killed: its hang just finishes late.
    """

    crash: float = 0.0
    hang: float = 0.0
    garbage: float = 0.0
    seed: int = 0
    hang_seconds: float = 3600.0
    kill_after_checkpoints: Optional[int] = None
    #: Serve-layer per-forward-attempt rates (see :meth:`decide_serve`).
    conn_drop: float = 0.0
    conn_garble: float = 0.0
    #: Parent-side replica faults applied by the ReplicaSet.
    kill_replica_after: Optional[int] = None
    stop_replica_after: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "garbage", "conn_drop", "conn_garble"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FormatError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        if self.crash + self.hang + self.garbage > 1.0:
            raise FormatError("fault rates must sum to <= 1")
        if self.conn_drop + self.conn_garble > 1.0:
            raise FormatError("serve fault rates must sum to <= 1")
        if self.hang_seconds <= 0:
            raise FormatError(
                f"hang_seconds must be positive, got {self.hang_seconds}"
            )
        for name in ("kill_after_checkpoints", "kill_replica_after",
                     "stop_replica_after"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise FormatError(f"{name} must be >= 1, got {value}")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value[,key=value...]`` spec string."""
        fields: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise FormatError(f"fault plan entry {part!r} is not key=value")
            try:
                if key in _FLOAT_FIELDS:
                    fields[key] = float(value)
                elif key in _INT_FIELDS:
                    fields[key] = int(value)
                else:
                    raise FormatError(
                        f"unknown fault plan key {key!r} (known: "
                        f"{', '.join(_FLOAT_FIELDS + _INT_FIELDS)})"
                    )
            except ValueError as exc:
                raise FormatError(
                    f"bad fault plan value for {key!r}: {value!r}"
                ) from exc
        return cls(**fields)

    def as_spec(self) -> str:
        """Inverse of :meth:`parse` (used to ship plans to pool workers)."""
        parts = [
            f"crash={self.crash!r}",
            f"hang={self.hang!r}",
            f"garbage={self.garbage!r}",
            f"seed={self.seed}",
            f"hang_seconds={self.hang_seconds!r}",
        ]
        if self.kill_after_checkpoints is not None:
            parts.append(f"kill_after_checkpoints={self.kill_after_checkpoints}")
        # Serve-layer fields ride along only when active, so worker-bound
        # spec strings from engine-only plans are unchanged.
        for name in ("conn_drop", "conn_garble"):
            rate = getattr(self, name)
            if rate:
                parts.append(f"{name}={rate!r}")
        for name in ("kill_replica_after", "stop_replica_after"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    def decide(self, task_key: str, attempt: int) -> Optional[str]:
        """Fault for this attempt: ``"crash"``/``"hang"``/``"garbage"``/None.

        Pure function of ``(self.seed, task_key, attempt)`` — the same
        attempt of the same task always draws the same fault.
        """
        unit = derive_seed(self.seed, f"fault:{task_key}:{attempt}") / 2**64
        if unit < self.crash:
            return "crash"
        if unit < self.crash + self.hang:
            return "hang"
        if unit < self.crash + self.hang + self.garbage:
            return "garbage"
        return None

    def decide_serve(self, request_key: str, attempt: int) -> Optional[str]:
        """Serve-layer fault for one forward attempt:
        ``"drop"``/``"garble"``/None.

        Pure function of ``(self.seed, request_key, attempt)``, drawn
        from a stream distinct from :meth:`decide` so engine- and
        serve-layer injections never correlate.
        """
        unit = derive_seed(
            self.seed, f"serve-fault:{request_key}:{attempt}"
        ) / 2**64
        if unit < self.conn_drop:
            return "drop"
        if unit < self.conn_drop + self.conn_garble:
            return "garble"
        return None

    def replica_victim(self, n_replicas: int, kind: str) -> int:
        """Seeded victim index for a ``kill``/``stop`` replica fault."""
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        return derive_seed(self.seed, f"replica-victim:{kind}") % n_replicas


def corrupt_assignment(
    assignment: tuple[int, ...], n_tracks: int
) -> tuple[int, ...]:
    """Garbage a routing assignment so it can never validate.

    Shifting every track index past the channel guarantees an
    out-of-range reference, which the validator rejects unconditionally
    — unlike an in-range swap, which can accidentally stay valid.
    """
    return tuple(t + n_tracks for t in assignment)
