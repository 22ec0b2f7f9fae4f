"""Job-manager lifecycle tests: submit/status/cancel/results, admission,
deadlines, and restart recovery over a ``jobs_dir``."""

import functools
import json
import os
import time

import pytest

from repro.core.errors import AdmissionRejected, FormatError
from repro.fpga.netlist import random_netlist
from repro.io.netlist_format import dumps_netlist
from repro.io.results import digest_records
from repro.jobs import JobConflict, JobError, JobManager, JobNotFound, JobNotReady
from repro.jobs.pipeline import ChipSpec, run_chip_pipeline


def _payload(seed=23, nets=14, tracks=5, max_rounds=8, cells_per_row=6):
    return {
        "netlist_text": dumps_netlist(random_netlist(nets, 3, seed=seed)),
        "rows": 3,
        "cells_per_row": cells_per_row,
        "tracks": tracks,
        "seg_types": 2,
        "seed": seed,
        "max_rounds": max_rounds,
    }


#: Converges ok after one negotiation round (2 rounds total), ~20ms.
QUICK = _payload()
#: Never converges: a wide starved chip that burns all 64 rounds over
#: several seconds — the slow job for cancel, deadline, queue-pressure,
#: and interrupted-resume tests.
HEAVY = _payload(seed=11, nets=300, tracks=4, max_rounds=64, cells_per_row=100)


@functools.lru_cache(maxsize=None)
def _offline_digest(seed, nets, tracks, max_rounds, cells_per_row) -> str:
    spec = ChipSpec.from_payload(_payload(
        seed=seed, nets=nets, tracks=tracks, max_rounds=max_rounds,
        cells_per_row=cells_per_row,
    ))
    return run_chip_pipeline(spec).digest


def QUICK_DIGEST() -> str:
    return _offline_digest(23, 14, 5, 8, 6)


def HEAVY_DIGEST() -> str:
    return _offline_digest(11, 300, 4, 64, 100)


def _wait(manager, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = manager.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish: {status}")


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(
        max_active=1, max_queued=4, jobs_dir=str(tmp_path / "jobs"),
    )
    yield mgr
    mgr.close()


class TestLifecycle:
    def test_submit_runs_to_done_with_offline_digest(self, manager):
        submitted = manager.submit(QUICK, job_id="j1")
        assert submitted["state"] in ("queued", "running")
        status = _wait(manager, "j1")
        assert status["state"] == "done"
        assert status["ok"] is True
        assert status["digest"] == QUICK_DIGEST()
        assert status["n_rounds"] == 2

    def test_results_pages_rebuild_the_digest(self, manager):
        manager.submit(QUICK, job_id="j1")
        _wait(manager, "j1")
        records, start = [], 0
        while True:
            page = manager.results("j1", start=start, limit=2)
            assert len(page["records"]) <= 2
            records.extend(page["records"])
            start = page["next"]
            if page["eof"]:
                break
        assert len(records) == page["total"]
        assert digest_records(records) == QUICK_DIGEST()

    def test_duplicate_submit_is_idempotent(self, manager):
        manager.submit(QUICK, job_id="j1")
        again = manager.submit(QUICK, job_id="j1")
        assert again["job_id"] == "j1"
        assert manager.metrics_snapshot()["counters"][
            "jobs.duplicate_submits"
        ] == 1

    def test_conflicting_spec_same_id_raises(self, manager):
        manager.submit(QUICK, job_id="j1")
        with pytest.raises(JobConflict):
            manager.submit(HEAVY, job_id="j1")

    def test_bad_spec_and_bad_id_are_typed(self, manager):
        with pytest.raises(FormatError):
            manager.submit({"rows": 3})
        with pytest.raises(JobError):
            manager.submit(QUICK, job_id="../evil")

    def test_unknown_job_raises(self, manager):
        with pytest.raises(JobNotFound):
            manager.status("nope")

    def test_results_before_done_raises(self, manager):
        manager.submit(HEAVY, job_id="slow")
        with pytest.raises(JobNotReady):
            manager.results("slow")

    def test_queue_bound_rejects(self, tmp_path):
        mgr = JobManager(
            max_active=1, max_queued=1, jobs_dir=str(tmp_path / "jobs"),
        )
        try:
            mgr.submit(HEAVY, job_id="busy")
            time.sleep(0.3)  # let the worker claim it off the queue
            mgr.submit(QUICK, job_id="waiting")
            with pytest.raises(AdmissionRejected) as excinfo:
                mgr.submit(_payload(seed=24), job_id="rejected")
            assert excinfo.value.status == "overloaded"
        finally:
            mgr.close()

    def test_cancel_running_job(self, manager):
        manager.submit(HEAVY, job_id="slow")
        time.sleep(0.2)
        manager.cancel("slow")
        status = _wait(manager, "slow")
        assert status["state"] == "cancelled"
        assert status["error"] == "cancelled by client"
        assert manager.metrics.counter("jobs.cancelled") == 1
        assert manager.metrics.counter("jobs.deadline_aborts") == 0
        with pytest.raises(JobError):
            manager.results("slow")

    def test_cancel_queued_job_is_immediate(self, manager):
        manager.submit(HEAVY, job_id="busy")
        manager.submit(QUICK, job_id="queued")
        status = manager.cancel("queued")
        assert status["state"] == "cancelled"

    def test_deadline_aborts(self, manager):
        manager.submit(HEAVY, job_id="late", deadline_s=0.05)
        status = _wait(manager, "late")
        assert status["state"] == "cancelled"
        assert "deadline" in (status.get("error") or "")
        assert manager.metrics.counter("jobs.deadline_aborts") == 1
        assert manager.metrics.counter("jobs.cancelled") == 0

    @pytest.mark.parametrize("deadline", [0, -1.0])
    def test_non_positive_default_deadline_is_rejected(self, deadline):
        # Refused at construction, not by shedding every later submit.
        with pytest.raises(ValueError, match="default_deadline_s"):
            JobManager(default_deadline_s=deadline)

    def test_raising_job_fails_without_killing_its_worker(
        self, manager, monkeypatch
    ):
        import repro.jobs.manager as manager_module

        def pipeline(spec, **kwargs):
            if spec.seed == 99:
                raise RuntimeError("engine blew up")
            return run_chip_pipeline(spec, **kwargs)

        monkeypatch.setattr(manager_module, "run_chip_pipeline", pipeline)
        manager.submit({**QUICK, "seed": 99}, job_id="boom")
        manager.submit(QUICK, job_id="after")
        failed = _wait(manager, "boom", timeout=20)
        assert failed["state"] == "failed"
        assert failed["error_type"] == "RuntimeError"
        assert failed["error"] == "engine blew up"
        after = _wait(manager, "after", timeout=20)
        assert after["state"] == "done"
        assert after["digest"] == QUICK_DIGEST()
        assert manager.metrics.counter("jobs.failed") == 1
        # One worker: "boom" wrote its outcome before "after" started.
        done_path = os.path.join(manager.jobs_dir, "boom", "done.json")
        with open(done_path, encoding="utf-8") as fh:
            assert json.load(fh)["state"] == "failed"


class TestRecovery:
    def test_done_jobs_survive_restart(self, tmp_path):
        jobs_dir = str(tmp_path / "jobs")
        first = JobManager(max_active=1, jobs_dir=jobs_dir)
        try:
            first.submit(QUICK, job_id="j1")
            _wait(first, "j1")
        finally:
            first.close()
        second = JobManager(max_active=1, jobs_dir=jobs_dir)
        try:
            status = second.status("j1")
            assert status["state"] == "done"
            assert status["digest"] == QUICK_DIGEST()
            page = second.results("j1")
            assert digest_records(page["records"]) == QUICK_DIGEST()
        finally:
            second.close()

    def test_interrupted_job_resumes_bit_identically(self, tmp_path):
        jobs_dir = str(tmp_path / "jobs")
        first = JobManager(max_active=1, jobs_dir=jobs_dir)
        try:
            first.submit(HEAVY, job_id="j1")
            time.sleep(0.2)  # into the early rounds, journals on disk
        finally:
            # Shutdown aborts the running job at its next round
            # boundary and leaves NO done.json: the job is still owed.
            first.close()
        assert os.path.exists(os.path.join(jobs_dir, "j1", "spec.json"))
        assert not os.path.exists(os.path.join(jobs_dir, "j1", "done.json"))
        second = JobManager(max_active=1, jobs_dir=jobs_dir)
        try:
            status = _wait(second, "j1")
            assert status["state"] == "done"
            assert status["resumed"] is True
            assert status["digest"] == HEAVY_DIGEST()
        finally:
            second.close()

    def test_recovery_tolerates_junk_entries(self, tmp_path):
        jobs_dir = str(tmp_path / "jobs")
        os.makedirs(os.path.join(jobs_dir, "broken"))
        with open(
            os.path.join(jobs_dir, "broken", "spec.json"), "w"
        ) as fh:
            fh.write("{not json")
        manager = JobManager(max_active=1, jobs_dir=jobs_dir)
        try:
            snap = manager.metrics_snapshot()
            assert snap["counters"].get("jobs.recover_errors", 0) == 1
            manager.submit(QUICK, job_id="fresh")
            assert _wait(manager, "fresh")["digest"] == QUICK_DIGEST()
        finally:
            manager.close()

    def test_done_json_holds_the_full_outcome(self, tmp_path):
        jobs_dir = str(tmp_path / "jobs")
        manager = JobManager(max_active=1, jobs_dir=jobs_dir)
        try:
            manager.submit(QUICK, job_id="j1")
            _wait(manager, "j1")
        finally:
            manager.close()
        with open(os.path.join(jobs_dir, "j1", "done.json")) as fh:
            done = json.load(fh)
        assert done["digest"] == QUICK_DIGEST()
        assert digest_records(done["records"]) == QUICK_DIGEST()
