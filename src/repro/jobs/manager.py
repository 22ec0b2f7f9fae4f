"""Job manager: the submit/status/cancel/results lifecycle for chip jobs.

A *job* is one :class:`~repro.jobs.pipeline.ChipSpec` run through
:func:`~repro.jobs.pipeline.run_chip_pipeline`.  The manager provides
the long-running-work half of the serving tier:

* **bounded concurrency** — ``max_active`` worker threads run jobs;
  submissions beyond ``max_queued`` waiting jobs are refused with a
  typed :class:`~repro.core.errors.AdmissionRejected` (the job-class
  admission gate: chip jobs never enter the single-channel latency
  queue, so they cannot starve it);
* **its own engine** — jobs solve in process on a dedicated
  :class:`~repro.engine.RoutingEngine` (``timeout=None``) so results
  are digest-identical to the offline serial path, while sharing the
  persistent ``cache_dir`` tier with the latency engine;
* **per-job deadline** — enforced at round granularity through the
  pipeline's abort hook (a deadline abort is final and persisted); the
  manager branches on each abort's ``kind``, never on its message;
* **durability** — with ``jobs_dir``, each job persists its spec at
  submit and its outcome at completion, and the pipeline journals every
  round.  A manager restarted over the same directory re-queues
  unfinished jobs and resumes them bit-identically from their journals
  (completed jobs reload their recorded results without recompute).

The manager is transport-agnostic: :mod:`repro.serve.server` exposes it
over the ``job.*`` protocol ops, and the CLI's offline mode bypasses it
entirely.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import AdmissionRejected, ReproError
from repro.engine.config import EngineConfig
from repro.engine.engine import RoutingEngine
from repro.engine.metrics import Metrics
from repro.jobs.pipeline import (
    ChipSpec,
    PipelineAbort,
    PipelineResult,
    RoundReport,
    run_chip_pipeline,
)

__all__ = [
    "JobError",
    "JobNotFound",
    "JobConflict",
    "JobNotReady",
    "JobRecord",
    "JobManager",
    "JOB_STATES",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_JOB_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_CANCEL_REASON = "cancelled by client"


class JobError(ReproError):
    """Base class for job-lifecycle errors."""


class JobNotFound(JobError):
    """No job with the requested ID exists on this server."""


class JobConflict(JobError):
    """A job ID was resubmitted with a *different* spec.

    Resubmitting the identical spec under the same ID is idempotent
    (that is how a client re-attaches after a server restart); changing
    the spec under an existing ID is always a client error.
    """


class JobNotReady(JobError):
    """Results were requested before the job finished."""


def _spec_fingerprint(payload: dict) -> str:
    import hashlib
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass
class JobRecord:
    """One job's full lifecycle state (in-memory view)."""

    job_id: str
    spec: ChipSpec
    spec_fingerprint: str
    deadline_s: Optional[float]
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    rounds: list[dict] = field(default_factory=list)
    records: Optional[list[dict]] = None
    digest: Optional[str] = None
    ok: Optional[bool] = None
    best_round: Optional[int] = None
    resumed_records: int = 0
    resumed_job: bool = False
    duration_s: Optional[float] = None
    error_type: str = ""
    error: str = ""
    cancel_event: threading.Event = field(default_factory=threading.Event)
    _queued_monotonic: float = field(default_factory=time.monotonic)

    def status_payload(self) -> dict:
        """The ``job.status`` response body."""
        payload = {
            "job_id": self.job_id,
            "state": self.state,
            "ok": self.ok,
            "digest": self.digest,
            "rounds": list(self.rounds),
            "n_rounds": len(self.rounds),
            "deadline_s": self.deadline_s,
            "cancel_requested": self.cancel_event.is_set(),
            "resumed": self.resumed_job,
            "resumed_records": self.resumed_records,
        }
        if self.error_type:
            payload["error_type"] = self.error_type
            payload["error"] = self.error
        if self.records is not None:
            payload["n_records"] = len(self.records)
        if self.duration_s is not None:
            payload["duration_s"] = round(self.duration_s, 6)
        return payload


class JobManager:
    """Run chip-routing jobs on worker threads with a dedicated engine.

    Parameters
    ----------
    max_active:
        Worker threads — jobs running concurrently.
    max_queued:
        Waiting jobs admitted beyond the running ones; further submits
        are refused with :class:`AdmissionRejected` (``overloaded``).
    jobs_dir:
        Durability root.  Per job: ``spec.json`` (at submit),
        round/engine journals (while running), ``done.json`` (at
        completion).  A new manager over the same directory reloads
        completed jobs and re-queues + resumes unfinished ones.
    cache_dir / seed / fault_plan / trace_sink:
        Settings of the manager's own in-process engine (no timeout),
        which it builds here and closes on :meth:`close`.
    default_deadline_s:
        Deadline applied when a submission carries none (positive).
    """

    def __init__(
        self,
        *,
        max_active: int = 2,
        max_queued: int = 16,
        jobs_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        seed: int = 0,
        fault_plan=None,
        trace_sink=None,
        default_deadline_s: Optional[float] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be positive, got {default_deadline_s}"
            )
        self.max_active = max_active
        self.max_queued = max_queued
        self.jobs_dir = jobs_dir
        self.default_deadline_s = default_deadline_s
        self.metrics = metrics if metrics is not None else Metrics()
        self.engine = RoutingEngine(
            EngineConfig(seed=seed, cache_dir=cache_dir, fault_plan=fault_plan),
            trace_sink=trace_sink,
        )
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._pending: deque[str] = deque()
        self._running: set[str] = set()
        self._closed = False
        self._job_seq = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"job-worker-{i}", daemon=True
            )
            for i in range(max_active)
        ]
        if jobs_dir is not None:
            os.makedirs(jobs_dir, exist_ok=True)
            self._recover_jobs_dir()
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # public lifecycle API
    # ------------------------------------------------------------------
    def submit(
        self,
        spec_payload: dict,
        *,
        job_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Admit one job; returns its ``job.status`` payload.

        Raises :class:`~repro.core.errors.FormatError` on a bad spec,
        :class:`JobConflict` on an ID collision with a different spec,
        and :class:`AdmissionRejected` when the waiting queue is full.
        Resubmitting an identical (id, spec) pair is idempotent and
        returns the existing job's status.
        """
        spec = ChipSpec.from_payload(spec_payload)
        fingerprint = _spec_fingerprint(spec.to_payload())
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if deadline_s is not None and deadline_s <= 0:
            raise AdmissionRejected(
                f"job deadline must be positive, got {deadline_s}", "shed"
            )
        with self._lock:
            if self._closed:
                raise AdmissionRejected("job manager is closed", "overloaded")
            if job_id is None:
                self._job_seq += 1
                job_id = f"job-{self._job_seq}-{fingerprint[:12]}"
            elif not _JOB_ID_RE.match(job_id):
                raise JobError(
                    f"invalid job_id {job_id!r}: must match "
                    f"{_JOB_ID_RE.pattern}"
                )
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.spec_fingerprint != fingerprint:
                    raise JobConflict(
                        f"job {job_id!r} already exists with a different spec"
                    )
                self.metrics.incr("jobs.duplicate_submits")
                return existing.status_payload()
            if len(self._pending) >= self.max_queued:
                self.metrics.incr("jobs.rejected")
                raise AdmissionRejected(
                    f"job queue full ({len(self._pending)} waiting, "
                    f"bound {self.max_queued})",
                    "overloaded",
                )
            record = JobRecord(
                job_id=job_id,
                spec=spec,
                spec_fingerprint=fingerprint,
                deadline_s=deadline_s,
            )
            self._jobs[job_id] = record
            self._persist_spec(record)
            self._pending.append(job_id)
            self.metrics.incr("jobs.submitted")
            self._wake.notify()
            return record.status_payload()

    def status(self, job_id: str) -> dict:
        return self._get(job_id).status_payload()

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; queued jobs cancel immediately, running
        jobs abort at the next round boundary, finished jobs no-op."""
        record = self._get(job_id)
        with self._lock:
            record.cancel_event.set()
            if record.state == "queued":
                try:
                    self._pending.remove(job_id)
                except ValueError:  # pragma: no cover - already claimed
                    pass
                else:
                    self._finish_aborted(record, PipelineAbort(_CANCEL_REASON))
        return record.status_payload()

    def results(
        self, job_id: str, *, start: int = 0, limit: Optional[int] = None
    ) -> dict:
        """One page of per-channel result records.

        Records are :func:`repro.io.results.result_record` dicts in
        channel order; hashing *all* pages with
        :func:`repro.io.results.digest_records` reproduces the job
        digest (the client SDK and loadgen verify exactly that).
        """
        record = self._get(job_id)
        if record.state in ("queued", "running"):
            raise JobNotReady(
                f"job {job_id!r} is {record.state}; results are available "
                f"once it is done"
            )
        if record.records is None:
            raise JobError(
                f"job {job_id!r} {record.state}"
                + (f": {record.error_type}: {record.error}"
                   if record.error_type else "")
            )
        if start < 0:
            raise JobError(f"start must be >= 0, got {start}")
        total = len(record.records)
        if limit is None:
            page = record.records[start:]
        else:
            if limit < 1:
                raise JobError(f"limit must be >= 1, got {limit}")
            page = record.records[start:start + limit]
        next_start = start + len(page)
        return {
            "job_id": job_id,
            "state": record.state,
            "records": page,
            "start": start,
            "next": next_start,
            "total": total,
            "eof": next_start >= total,
            "digest": record.digest,
            "ok": record.ok,
        }

    def list_jobs(self) -> list[dict]:
        with self._lock:
            records = list(self._jobs.values())
        return [r.status_payload() for r in records]

    def metrics_snapshot(self) -> dict:
        """Manager counters plus the dedicated job engine's, namespaced.

        The job engine's counters appear under ``jobs.engine.*`` so they
        never collide with the latency engine's identically-named ones
        when a server merges both into one snapshot.
        """
        snapshot = self.metrics.snapshot()
        with self._lock:
            snapshot["counters"]["jobs.active"] = len(self._running)
            snapshot["counters"]["jobs.queued"] = len(self._pending)
        engine_snapshot = self.engine.metrics.snapshot()
        for name, value in engine_snapshot.get("counters", {}).items():
            snapshot["counters"][f"jobs.engine.{name}"] = value
        return snapshot

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop workers (running jobs abort at the next round boundary;
        their journals remain, so a restart resumes them)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        for worker in self._workers:
            worker.join(timeout=timeout / max(1, len(self._workers)))
        self.engine.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise JobNotFound(f"no such job: {job_id!r}")
        return record

    def _job_dir(self, job_id: str) -> Optional[str]:
        if self.jobs_dir is None:
            return None
        return os.path.join(self.jobs_dir, job_id)

    def _persist_spec(self, record: JobRecord) -> None:
        job_dir = self._job_dir(record.job_id)
        if job_dir is None:
            return
        os.makedirs(job_dir, exist_ok=True)
        _atomic_write_json(os.path.join(job_dir, "spec.json"), {
            "v": 1,
            "job_id": record.job_id,
            "spec": record.spec.to_payload(),
            "deadline_s": record.deadline_s,
            "submitted_at": record.submitted_at,
        })

    def _persist_done(self, record: JobRecord) -> None:
        job_dir = self._job_dir(record.job_id)
        if job_dir is None:
            return
        _atomic_write_json(os.path.join(job_dir, "done.json"), {
            "v": 1,
            "job_id": record.job_id,
            "state": record.state,
            "ok": record.ok,
            "digest": record.digest,
            "rounds": record.rounds,
            "records": record.records,
            "best_round": record.best_round,
            "resumed_records": record.resumed_records,
            "duration_s": record.duration_s,
            "error_type": record.error_type,
            "error": record.error,
        })

    def _recover_jobs_dir(self) -> None:
        """Reload completed jobs; re-queue and resume unfinished ones."""
        for name in sorted(os.listdir(self.jobs_dir)):
            job_dir = os.path.join(self.jobs_dir, name)
            spec_path = os.path.join(job_dir, "spec.json")
            if not os.path.isfile(spec_path):
                continue
            try:
                with open(spec_path, encoding="utf-8") as fh:
                    meta = json.load(fh)
                spec = ChipSpec.from_payload(meta["spec"])
            except (OSError, ValueError, KeyError, ReproError):
                self.metrics.incr("jobs.recover_errors")
                continue
            record = JobRecord(
                job_id=meta.get("job_id", name),
                spec=spec,
                spec_fingerprint=_spec_fingerprint(spec.to_payload()),
                deadline_s=meta.get("deadline_s"),
                submitted_at=meta.get("submitted_at", time.time()),
                resumed_job=True,
            )
            done_path = os.path.join(job_dir, "done.json")
            if os.path.isfile(done_path):
                try:
                    with open(done_path, encoding="utf-8") as fh:
                        done = json.load(fh)
                except (OSError, ValueError):
                    self.metrics.incr("jobs.recover_errors")
                    continue
                record.state = done.get("state", "done")
                record.ok = done.get("ok")
                record.digest = done.get("digest")
                record.rounds = done.get("rounds") or []
                record.records = done.get("records")
                record.best_round = done.get("best_round")
                record.resumed_records = done.get("resumed_records", 0)
                record.duration_s = done.get("duration_s")
                record.error_type = done.get("error_type", "")
                record.error = done.get("error", "")
                self._jobs[record.job_id] = record
                self.metrics.incr("jobs.recovered_done")
            else:
                self._jobs[record.job_id] = record
                self._pending.append(record.job_id)
                self.metrics.incr("jobs.resumed")

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed:
                    return
                job_id = self._pending.popleft()
                record = self._jobs[job_id]
                record.state = "running"
                record.started_monotonic = time.monotonic()
                self._running.add(job_id)
            try:
                self._run_job(record)
            finally:
                with self._lock:
                    self._running.discard(job_id)

    def _abort_reason(self, record: JobRecord) -> Optional[PipelineAbort]:
        """The typed abort that stops ``record``'s run now, or ``None``
        (the pipeline polls this before every round)."""
        if record.cancel_event.is_set():
            return PipelineAbort(_CANCEL_REASON)
        if self._closed:
            return PipelineAbort("server shutting down", "shutdown")
        if (
            record.deadline_s is not None
            and record.started_monotonic is not None
            and time.monotonic() - record.started_monotonic > record.deadline_s
        ):
            return PipelineAbort(
                f"deadline exceeded ({record.deadline_s}s)", "deadline"
            )
        return None

    def _run_job(self, record: JobRecord) -> None:
        def on_round(report: RoundReport) -> None:
            record.rounds.append(report.to_payload())
            self.metrics.incr("jobs.rounds")
            self.metrics.incr("jobs.channels_routed", report.n_solved)

        try:
            result: PipelineResult = run_chip_pipeline(
                record.spec,
                engine=self.engine,
                state_dir=self._job_dir(record.job_id),
                job_id=record.job_id,
                on_round=on_round,
                check_abort=lambda: self._abort_reason(record),
            )
        except PipelineAbort as exc:
            if exc.kind == "shutdown":
                # Not an outcome: leave no done.json so a restart over
                # the same jobs_dir re-queues and resumes this job.
                record.state = "queued"
                self.metrics.incr("jobs.interrupted")
                return
            self._finish_aborted(record, exc)
            return
        except Exception as exc:  # any other raise fails this job only
            record.finished_monotonic = time.monotonic()
            record.state = "failed"
            record.error_type = type(exc).__name__
            record.error = str(exc)
            record.duration_s = self._elapsed(record)
            self.metrics.incr("jobs.failed")
            self._persist_done(record)
            return
        record.finished_monotonic = time.monotonic()
        record.state = "done"
        record.ok = result.ok
        record.digest = result.digest
        record.records = result.records()
        record.best_round = result.best_round
        record.resumed_records = result.resumed_records
        record.duration_s = self._elapsed(record)
        self.metrics.incr("jobs.completed")
        self.metrics.incr("jobs.completed_ok", int(result.ok))
        self.metrics.observe("jobs.duration_s", record.duration_s)
        self.metrics.observe("jobs.rounds_per_job", len(result.rounds))
        self._persist_done(record)

    def _finish_aborted(self, record: JobRecord, abort: PipelineAbort) -> None:
        record.finished_monotonic = time.monotonic()
        record.state = "cancelled"
        record.error_type = "PipelineAbort"
        record.error = abort.reason
        record.duration_s = self._elapsed(record)
        self.metrics.incr(
            "jobs.deadline_aborts" if abort.kind == "deadline"
            else "jobs.cancelled"
        )
        self._persist_done(record)

    @staticmethod
    def _elapsed(record: JobRecord) -> float:
        if record.started_monotonic is None:
            return 0.0
        end = record.finished_monotonic or time.monotonic()
        return end - record.started_monotonic
