"""Worker supervision: heartbeats, hang detection, pool rebuild, retries.

This module is the fault-tolerant replacement for the engine's plain
``pool.map`` execution.  Two entry points:

* :class:`SupervisedExecutor` — the pool path (``jobs > 1``).  Tasks are
  submitted individually to a :class:`ProcessPoolExecutor` whose workers
  heartbeat ``(task index, attempt, pid)`` through a shared queue the
  moment they pick a task up.  The supervisor loop drains heartbeats on
  every tick, so it knows *which pid runs which task*:

  - a worker still running a started task more than ``_HANG_GRACE``
    seconds past the task's own ``timeout`` is **hung** (its solve
    stopped checking its deadline) and is SIGKILLed; an untimed task is
    never killed, and a task still queued is not started;
  - a dead worker breaks the pool (``BrokenProcessPool``); the
    supervisor rebuilds it and re-submits every incomplete task — tasks
    that never reached a worker are re-queued free of charge, while the
    task(s) actually in flight on the dead worker are charged a crash;
  - a task that keeps crashing workers is quarantined after
    ``RetryPolicy.max_worker_crashes`` (see :mod:`.retry`) instead of
    cycling the pool forever.

* :func:`run_sequential` — the in-process path (``jobs == 1``, which
  single-request routing and every server solve take).  Each task runs
  once: ``run_task`` re-seeds identically on every attempt, so a retry
  in the same process could only repeat the answer.  Injected worker
  faults (crash, hang, garbage) fire only in pool workers.

Every successful outcome is re-validated here, *before* the engine sees
it.  On the pool path a worker returning garbage (fault injection,
memory corruption) is indistinguishable from a transient failure and is
retried, and the engine installs what passes without checking it again.
Because ``run_task`` re-seeds from ``derive_seed(seed, task_key)`` on
every attempt, a retried task reproduces the original result
bit-for-bit, so batches complete identically with or without faults.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.core.errors import TaskQuarantinedError
from repro.core.routing import Routing
from repro.engine.executor import (
    RouteTask,
    TaskOutcome,
    run_task,
    worker_initializer,
)
from repro.engine.metrics import Metrics
from repro.engine.resilience.faults import FaultPlan, corrupt_assignment
from repro.engine.resilience.retry import RetryPolicy, backoff_delay
from repro.obs.trace import SpanCollector

__all__ = ["SupervisedExecutor", "run_sequential"]

#: Supervisor tick: heartbeat drain + hang check cadence (seconds).
_POLL_INTERVAL = 0.05

#: Seconds a started task may run past its own ``timeout`` before its
#: worker is declared hung and SIGKILLed.  The solvers' cooperative
#: deadline checks overrun by about 11 ms at most (``deadline_overrun``
#: in ``BENCH_engine.json``) and heartbeats are drained every
#: ``_POLL_INTERVAL``, so a healthy worker never comes near it.
_HANG_GRACE = 1.0

#: Exit code used by injected worker crashes (simulating an OOM kill).
_CRASH_EXIT = 66


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork when available (fast, no pickling of the worker payload);
    spawn otherwise — the payload is picklable either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker state installed by the pool initializer (heartbeat queue +
#: parsed fault plan).  Module-level because pool tasks must be
#: top-level picklable callables.
_worker_state: dict = {"heartbeats": None, "fault_plan": None}


def _supervised_worker_init(base_seed, heartbeats, fault_spec) -> None:
    """Pool initializer: seed the PRNG, install heartbeat/fault state."""
    worker_initializer(base_seed)
    _worker_state["heartbeats"] = heartbeats
    _worker_state["fault_plan"] = (
        FaultPlan.parse(fault_spec) if fault_spec else None
    )


def run_supervised_task(payload: tuple[RouteTask, int]) -> TaskOutcome:
    """Worker entry: heartbeat, apply any injected fault, run the task."""
    task, try_no = payload
    heartbeats = _worker_state["heartbeats"]
    if heartbeats is not None:
        heartbeats.put((task.index, try_no, os.getpid()))
    plan: Optional[FaultPlan] = _worker_state["fault_plan"]
    fault = (
        plan.decide(task.task_key or str(task.index), try_no) if plan else None
    )
    if fault == "crash":
        os._exit(_CRASH_EXIT)  # bypasses finally/atexit, like a real kill
    if fault == "hang":
        time.sleep(plan.hang_seconds)
    outcome = run_task(task, attempt=try_no)
    if fault == "garbage" and outcome.ok:
        outcome.assignment = corrupt_assignment(
            outcome.assignment, task.channel.n_tracks
        )
    return outcome


# ----------------------------------------------------------------------
# shared bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _TaskState:
    """Supervisor-side ledger for one task."""

    task: RouteTask
    tries: int = 0      # submissions so far (fault/jitter stream position)
    failures: int = 0   # retryable error outcomes so far
    crashes: int = 0    # worker crashes / hang kills so far
    began: bool = False  # current submission reached a worker
    pool: Optional[ProcessPoolExecutor] = None  # current submission's pool
    #: Spans of superseded attempts and parent-side ``retry`` markers,
    #: whose ``rt`` span-ID prefix never collides with worker-side
    #: ``w<attempt>:`` spans.  Inert when the task is untraced.
    spans: SpanCollector = field(init=False)

    def __post_init__(self) -> None:
        self.spans = SpanCollector(self.task.trace_id, "rt")

    def mark_retry(self, reason: str) -> None:
        """Record a ``retry`` span for the submission that just failed."""
        self.spans.emit(
            "retry", self.task.trace_parent, time.time(), 0.0,
            attempt=self.tries, reason=reason,
        )


def _finalize_spans(state: _TaskState, outcome: TaskOutcome) -> TaskOutcome:
    """Prepend spans accumulated from earlier attempts to the outcome."""
    outcome.spans[:0] = state.spans.drain()
    return outcome


def _validated(task: RouteTask, outcome: TaskOutcome) -> TaskOutcome:
    """Independently re-validate a successful outcome (defense in depth).

    A corrupt assignment is converted into a retryable
    ``ValidationError`` outcome rather than surfacing as a bad routing.
    """
    if not outcome.ok:
        return outcome
    try:
        routing = Routing(task.channel, task.connections, outcome.assignment)
        routing.validate(task.max_segments)
    except Exception as exc:
        outcome.assignment = None
        outcome.algorithm = None
        outcome.error_type = "ValidationError"
        outcome.error = f"recovered result failed re-validation: {exc}"
    return outcome


def _quarantine_outcome(task: RouteTask, crashes: int, limit: int) -> TaskOutcome:
    return TaskOutcome(
        index=task.index,
        error_type=TaskQuarantinedError.__name__,
        error=(
            f"poison task: crashed {crashes} workers "
            f"(limit {limit}); quarantined"
        ),
    )


# ----------------------------------------------------------------------
# in-process path
# ----------------------------------------------------------------------
def run_sequential(tasks: Iterable[RouteTask]) -> Iterator[TaskOutcome]:
    """Run each task once in process, re-validated, yielding as done."""
    for task in tasks:
        yield _validated(task, run_task(task))


# ----------------------------------------------------------------------
# pool path
# ----------------------------------------------------------------------
class SupervisedExecutor:
    """A fault-tolerant pool front end for :class:`RouteTask` batches.

    Owns the worker pool, the heartbeat queue, and the per-task ledgers;
    ``run`` yields :class:`TaskOutcome` objects as tasks finalize
    (out of input order — callers index by ``outcome.index``).  The
    pool is torn down when ``run`` finishes, so a batch leaves no worker
    processes behind.  Not for callers running an event loop: a forked
    worker keeps the loop's SIGTERM handler, so teardown would run the
    caller's handler (a server's drain) instead of stopping the worker.
    """

    def __init__(
        self,
        jobs: int,
        *,
        seed: int = 0,
        policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.seed = seed
        self.policy = policy or RetryPolicy()
        self.fault_plan = fault_plan
        self.metrics = metrics
        self._ctx = _mp_context()
        self._heartbeats = None  # the current pool's; see _ensure_pool
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.incr(name, amount)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Per pool: a worker killed mid-put leaves the queue's write
            # lock held, blocking every later worker's heartbeat.
            self._heartbeats = self._ctx.SimpleQueue()
            spec = self.fault_plan.as_spec() if self.fault_plan else None
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=self._ctx,
                initializer=_supervised_worker_init,
                initargs=(self.seed, self._heartbeats, spec),
            )
        return self._pool

    def _teardown_pool(self) -> None:
        """Shut the pool down hard: hung or doomed workers are killed,
        never waited on (a worker sleeping in an injected hang would
        otherwise block interpreter exit for its full sleep)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values() or ())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except ValueError:  # pragma: no cover - already closed
                continue
        deadline = time.monotonic() + 1.0
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            except ValueError:  # pragma: no cover - already closed
                continue

    # ------------------------------------------------------------------
    def run(self, tasks: list[RouteTask]) -> Iterator[TaskOutcome]:
        """Execute ``tasks``, yielding outcomes as they finalize."""
        states = {task.index: _TaskState(task=task) for task in tasks}
        ready: list[int] = [task.index for task in tasks]
        delayed: list[tuple[float, int]] = []  # (due monotonic time, index)
        active: dict[Future, int] = {}
        started: dict[int, tuple[int, float]] = {}  # index -> (pid, t0)
        finalized: set[int] = set()
        try:
            while ready or delayed or active:
                now = time.monotonic()
                if delayed:
                    ready.extend(i for due, i in delayed if due <= now)
                    delayed = [(due, i) for due, i in delayed if due > now]
                while ready:
                    index = ready.pop(0)
                    state = states[index]
                    state.tries += 1
                    state.began = False
                    try:
                        state.pool = self._ensure_pool()
                        future = state.pool.submit(
                            run_supervised_task, (state.task, state.tries)
                        )
                    except BrokenExecutor:
                        # Broke between completion handling and submit:
                        # rebuild and retry this submission untouched.
                        self._teardown_pool()
                        self._incr("pool_rebuilds")
                        state.tries -= 1
                        ready.insert(0, index)
                        continue
                    active[future] = index

                tick = _POLL_INTERVAL
                if delayed:
                    next_due = min(due for due, _ in delayed)
                    tick = min(tick, max(0.0, next_due - now))
                if not active:
                    time.sleep(tick)
                    continue
                done, _ = wait(
                    list(active), timeout=tick, return_when=FIRST_COMPLETED
                )
                self._drain_heartbeats(states, started, finalized)
                for future in done:
                    index = active.pop(future)
                    state = states[index]
                    started.pop(index, None)
                    outcome = self._collect(future, state, ready, delayed)
                    if outcome is not None:
                        finalized.add(index)
                        yield outcome
                self._check_watchdog(states, started)
        finally:
            self._teardown_pool()

    # ------------------------------------------------------------------
    def _drain_heartbeats(
        self,
        states: dict[int, _TaskState],
        started: dict[int, tuple[int, float]],
        finalized: set[int],
    ) -> None:
        """Absorb worker heartbeats: mark which pid began which task."""
        now = time.monotonic()
        while not self._heartbeats.empty():
            index, try_no, pid = self._heartbeats.get()
            state = states.get(index)
            if state is None or index in finalized:
                continue
            if try_no != state.tries:
                continue  # stale heartbeat from a superseded attempt
            state.began = True
            started.setdefault(index, (pid, now))

    def _check_watchdog(
        self,
        states: dict[int, _TaskState],
        started: dict[int, tuple[int, float]],
    ) -> None:
        """SIGKILL workers whose task outlived its deadline by ``_HANG_GRACE``.

        Only *started*, timed tasks are eligible — a task still queued
        behind a busy pool is slow scheduling, not a hang, and an untimed
        task has no bound to outlive.  The kill breaks the pool; the
        broken-future handling then charges the task a crash and
        rebuilds.
        """
        now = time.monotonic()
        for index, (pid, t0) in list(started.items()):
            timeout = states[index].task.timeout
            if timeout is None or now - t0 <= timeout + _HANG_GRACE:
                continue
            started.pop(index)
            self._incr("workers_killed")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - already gone
                pass

    def _collect(
        self,
        future: Future,
        state: _TaskState,
        ready: list[int],
        delayed: list[tuple[float, int]],
    ) -> Optional[TaskOutcome]:
        """Fold one completed future into the ledger.

        Returns a final outcome to yield, or ``None`` when the task was
        re-scheduled (retry or free re-queue).
        """
        task = state.task
        key = task.task_key or str(task.index)
        try:
            outcome = future.result()
        except BrokenExecutor:
            # Never tear down a healthy successor for a late failure of
            # a replaced pool: its cancelled queued futures never count
            # as done in ``wait``, so the run would hang.
            if state.pool is self._pool:
                self._teardown_pool()
                self._incr("pool_rebuilds")
            if not state.began:
                # Never reached a worker: an unrelated crash took the
                # pool down.  Re-queue with no crash charged and no
                # backoff — the task did nothing wrong.
                ready.append(task.index)
                return None
            state.crashes += 1
            self._incr("worker_crashes")
            if state.crashes >= self.policy.max_worker_crashes:
                self._incr("tasks_quarantined")
                return _finalize_spans(state, _quarantine_outcome(
                    task, state.crashes, self.policy.max_worker_crashes
                ))
            # The worker died with its spans; only the parent-side
            # retry marker survives for this attempt.
            state.mark_retry("WorkerCrashError")
            self._incr("retries_total")
            due = time.monotonic() + backoff_delay(
                self.policy, state.tries, self.seed, key
            )
            delayed.append((due, task.index))
            return None
        except Exception as exc:  # submission/pickling-layer failure
            outcome = TaskOutcome(
                index=task.index,
                error_type=type(exc).__name__,
                error=str(exc),
            )
        outcome = _validated(task, outcome)
        if outcome.ok:
            return _finalize_spans(state, outcome)
        if self.policy.is_retryable(outcome.error_type):
            state.failures += 1
            if state.failures < self.policy.max_attempts:
                state.spans.adopt(outcome.spans)
                state.mark_retry(outcome.error_type or "unknown")
                self._incr("retries_total")
                due = time.monotonic() + backoff_delay(
                    self.policy, state.tries, self.seed, key
                )
                delayed.append((due, task.index))
                return None
        return _finalize_spans(state, outcome)
