"""Resilience layer: retry policy, fault plans, checkpoint journal,
in-process runs, supervised pool recovery, manifest errors.

Fast deterministic coverage for tier-1; the heavyweight end-to-end
chaos scenarios (high fault rates over a large corpus, SIGKILLed CLI
runs) live in ``test_chaos.py`` behind the ``chaos`` marker.
"""

import argparse
import multiprocessing
import time

import pytest

from repro.core.errors import (
    CheckpointError,
    FormatError,
    ManifestError,
    TaskQuarantinedError,
    ValidationError,
)
from repro.core.routing import Routing
from repro.engine import EngineConfig, RoutingEngine
from repro.engine.cache import canonical_key
from repro.engine.resilience import (
    CheckpointJournal,
    FaultPlan,
    RetryPolicy,
    backoff_delay,
    corrupt_assignment,
    record_key,
)
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)
from repro.io.results import result_stream_digest

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Fast backoff so retry-heavy tests do not sleep their way to a minute.
FAST_RETRY = RetryPolicy(
    max_attempts=6, max_worker_crashes=8, base_delay=0.001, max_delay=0.01
)


def small_corpus(n=8):
    instances = []
    for i in range(n):
        channel = random_channel(6, 24, 4.0, seed=100 + i)
        conns = random_feasible_instance(channel, 8, seed=200 + i,
                                         max_segments=2)
        instances.append((channel, conns))
    return instances


def corpus_task_keys(instances, k=2):
    return [
        repr(canonical_key(ch, conns, k, None, "auto"))
        for ch, conns in instances
    ]


# ----------------------------------------------------------------------
# RetryPolicy / backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts >= 1
        # Crashes are charged to max_worker_crashes, never retried as an
        # error outcome.
        assert not policy.is_retryable("WorkerCrashError")
        assert policy.is_retryable("ValidationError")
        assert not policy.is_retryable("RoutingInfeasibleError")
        assert not policy.is_retryable("EngineTimeout")

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"max_worker_crashes": 0},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_deterministic(self):
        policy = RetryPolicy()
        a = backoff_delay(policy, 2, seed=7, task_key="k1")
        b = backoff_delay(policy, 2, seed=7, task_key="k1")
        assert a == b
        assert backoff_delay(policy, 2, seed=8, task_key="k1") != a
        assert backoff_delay(policy, 2, seed=7, task_key="k2") != a

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        delays = [backoff_delay(policy, n, 0, "k") for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.25)
        for n in range(1, 20):
            d = backoff_delay(policy, n, seed=3, task_key=f"k{n}")
            assert 1.0 <= d <= 1.25

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            backoff_delay(RetryPolicy(), 0, 0, "k")


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(crash=0.1, hang=0.05, garbage=0.02, seed=7,
                         hang_seconds=30.0, kill_after_checkpoints=4)
        assert FaultPlan.parse(plan.as_spec()) == plan

    def test_parse(self):
        plan = FaultPlan.parse("crash=0.2, hang=0.1, seed=9")
        assert plan.crash == 0.2 and plan.hang == 0.1 and plan.seed == 9
        assert plan.garbage == 0.0

    @pytest.mark.parametrize("spec", [
        "crash=lots",             # non-numeric value
        "explode=0.5",            # unknown key
        "crash",                  # not key=value
        "crash=0.7,hang=0.7",     # rates sum past 1
        "crash=-0.1",             # negative rate
        "hang_seconds=0",         # non-positive hang
        "kill_after_checkpoints=0",
    ])
    def test_bad_specs_raise_format_error(self, spec):
        with pytest.raises(FormatError):
            FaultPlan.parse(spec)

    def test_decide_deterministic_and_attempt_dependent(self):
        plan = FaultPlan(crash=0.3, hang=0.2, garbage=0.1, seed=13)
        keys = [f"task-{i}" for i in range(400)]
        first = [plan.decide(k, 1) for k in keys]
        assert first == [plan.decide(k, 1) for k in keys]
        # Each class is actually drawn, at roughly its configured rate.
        for fault, rate in (("crash", 0.3), ("hang", 0.2), ("garbage", 0.1)):
            frac = first.count(fault) / len(keys)
            assert abs(frac - rate) < 0.1
        # Decisions are independent across attempts: a crashed first
        # attempt usually draws clean later (else retries could never
        # converge and the chaos suite could never match digests).
        crashed = [k for k, f in zip(keys, first) if f == "crash"]
        assert any(plan.decide(k, 2) != "crash" for k in crashed)

    def test_zero_plan_never_faults(self):
        plan = FaultPlan(seed=1)
        assert all(plan.decide(f"k{i}", 1) is None for i in range(50))

    def test_corrupt_assignment_never_validates(self):
        channel, conns = small_corpus(1)[0]
        good = RoutingEngine().route(channel, conns, max_segments=2)
        bad = corrupt_assignment(good.assignment, channel.n_tracks)
        with pytest.raises(Exception):
            Routing(channel, conns, bad).validate(2)


# ----------------------------------------------------------------------
# CheckpointJournal
# ----------------------------------------------------------------------
class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("a", {"x": 1})
            journal.append("b", {"y": [2, 3]})
            assert journal.records_written == 2
        with CheckpointJournal(path, resume=True) as journal:
            assert len(journal) == 2
            assert journal.has("a") and journal.get("b") == {"y": [2, 3]}
            assert not journal.has("c")

    def test_fresh_open_truncates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("a", {"x": 1})
        with CheckpointJournal(path):  # resume=False: a fresh run
            pass
        with CheckpointJournal(path, resume=True) as journal:
            assert len(journal) == 0

    def test_torn_tail_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("a", {"x": 1})
            journal.append("b", {"x": 2})
        with open(path, "a") as fh:
            fh.write('{"key": "c", "payload": {"x": 3}, "sha')  # torn write
        with CheckpointJournal(path, resume=True) as journal:
            assert len(journal) == 2 and not journal.has("c")
            journal.append("c", {"x": 33})
        # The torn line was physically truncated: a second resume sees a
        # clean three-record journal, not mid-file corruption.
        with CheckpointJournal(path, resume=True) as journal:
            assert len(journal) == 3 and journal.get("c") == {"x": 33}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal(path) as journal:
            journal.append("a", {"x": 1})
            journal.append("b", {"x": 2})
        lines = open(path).read().splitlines()
        tampered = lines[0].replace('"x":1', '"x":9')  # checksum now wrong
        with open(path, "w") as fh:
            fh.write("\n".join([tampered, lines[1]]) + "\n")
        with pytest.raises(CheckpointError, match="line 1"):
            CheckpointJournal(path, resume=True)

    def test_append_after_close_raises(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        with pytest.raises(CheckpointError):
            journal.append("a", {})

    def test_record_key_stable_and_index_scoped(self):
        assert record_key(3, "key") == record_key(3, "key")
        assert record_key(3, "key") != record_key(4, "key")
        assert record_key(3, "key") != record_key(3, "other")


# ----------------------------------------------------------------------
# route_many + journal
# ----------------------------------------------------------------------
class TestCheckpointedBatch:
    def test_journal_then_resume_is_bit_identical(self, tmp_path):
        instances = small_corpus()
        baseline = RoutingEngine(EngineConfig(jobs=1)).route_many(
            instances, max_segments=2
        )
        digest = result_stream_digest(baseline)
        path = str(tmp_path / "ckpt.jsonl")

        first = RoutingEngine(EngineConfig(jobs=1))
        with CheckpointJournal(path) as journal:
            # Interrupted run: only the first half of the batch ran.
            partial = first.route_many(
                instances[:4], max_segments=2, journal=journal
            )
        assert all(r.ok for r in partial)
        assert first.metrics.counter("checkpoint_records_written") == 4

        second = RoutingEngine(EngineConfig(jobs=1))
        with CheckpointJournal(path, resume=True) as journal:
            results = second.route_many(
                instances, max_segments=2, journal=journal
            )
        assert result_stream_digest(results) == digest
        assert second.metrics.counter("checkpoint_records_skipped") == 4
        assert second.metrics.counter("checkpoint_records_written") == 4
        with CheckpointJournal(path, resume=True) as journal:
            assert len(journal) == len(instances)

    def test_restored_records_are_revalidated(self, tmp_path):
        instances = small_corpus(2)
        path = str(tmp_path / "ckpt.jsonl")
        channel, conns = instances[0]
        key = repr(canonical_key(channel, conns, 2, None, "auto"))
        with CheckpointJournal(path) as journal:
            # A record with a *valid checksum* but a garbage assignment —
            # e.g. the manifest changed between runs.
            journal.append(record_key(0, key), {
                "ok": True,
                "assignment": [channel.n_tracks + 5] * len(conns),
                "algorithm": "exact", "duration": 0.0, "cache_hit": False,
                "fallbacks": 0, "timed_out": False,
                "error_type": None, "error": None, "max_segments": 2,
            })
        engine = RoutingEngine(EngineConfig(jobs=1))
        with CheckpointJournal(path, resume=True) as journal:
            with pytest.raises(CheckpointError, match="does not validate"):
                engine.route_many(instances, max_segments=2, journal=journal)

    def test_failed_results_are_journaled_too(self, tmp_path):
        channel, conns = small_corpus(1)[0]
        path = str(tmp_path / "ckpt.jsonl")
        engine = RoutingEngine(EngineConfig(jobs=1))
        with CheckpointJournal(path) as journal:
            results = engine.route_many(
                [(channel, conns)], max_segments=0, journal=journal
            )
        assert not results[0].ok
        engine2 = RoutingEngine(EngineConfig(jobs=1))
        with CheckpointJournal(path, resume=True) as journal:
            resumed = engine2.route_many(
                [(channel, conns)], max_segments=0, journal=journal
            )
        assert resumed[0].error_type == results[0].error_type
        assert engine2.metrics.counter("checkpoint_records_skipped") == 1


# ----------------------------------------------------------------------
# in-process runs (jobs=1: each task runs once, no worker to fault)
# ----------------------------------------------------------------------
def test_in_process_engine_ignores_worker_faults():
    instances = small_corpus()
    baseline = RoutingEngine(EngineConfig(jobs=1)).route_many(
        instances, max_segments=2
    )
    engine = RoutingEngine(EngineConfig(
        jobs=1, fault_plan=FaultPlan(crash=1.0, seed=0),
    ))
    results = engine.route_many(instances, max_segments=2)
    assert all(r.ok for r in results)
    assert result_stream_digest(results) == result_stream_digest(baseline)
    assert engine.metrics.counter("retries_total") == 0


# ----------------------------------------------------------------------
# supervised pool recovery (small; the big ones are chaos-marked)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
class TestSupervisedPool:
    def test_pool_survives_worker_crashes(self):
        instances = small_corpus(6)
        keys = corpus_task_keys(instances)
        # Pick a seed that actually crashes at least one first attempt.
        seed = next(
            s for s in range(100)
            if any(FaultPlan(crash=0.35, seed=s).decide(k, 1) == "crash"
                   for k in keys)
        )
        baseline = RoutingEngine(EngineConfig(jobs=1)).route_many(
            instances, max_segments=2
        )
        engine = RoutingEngine(EngineConfig(
            jobs=2, retry=FAST_RETRY,
            fault_plan=FaultPlan(crash=0.35, seed=seed),
        ))
        results = engine.route_many(instances, max_segments=2)
        assert all(r.ok for r in results)
        assert result_stream_digest(results) == result_stream_digest(baseline)
        assert engine.metrics.counter("worker_crashes") > 0
        assert engine.metrics.counter("pool_rebuilds") > 0

    def test_poison_task_quarantined_and_batch_continues(self):
        instances = small_corpus(3)
        engine = RoutingEngine(EngineConfig(
            jobs=2,
            retry=RetryPolicy(max_attempts=3, max_worker_crashes=2,
                              base_delay=0.001, max_delay=0.002),
            fault_plan=FaultPlan(crash=1.0, seed=0),  # every attempt crashes
        ))
        results = engine.route_many(instances, max_segments=2)
        assert len(results) == len(instances)
        assert all(
            r.error_type == TaskQuarantinedError.__name__ for r in results
        )
        assert engine.metrics.counter("tasks_quarantined") == len(instances)

    def test_permanent_garbage_surfaces_validation_error(self):
        engine = RoutingEngine(EngineConfig(
            jobs=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001,
                              max_delay=0.002),
            fault_plan=FaultPlan(garbage=1.0, seed=0),
        ))
        results = engine.route_many(small_corpus(2), max_segments=2)
        assert [r.error_type for r in results] == [
            ValidationError.__name__
        ] * 2

    def test_timed_hang_is_killed_long_before_it_ends(self):
        instances = small_corpus(4)
        keys = corpus_task_keys(instances)
        # A seed whose plan hangs some first attempts and no second one.
        seed = next(
            s for s in range(200)
            if any(FaultPlan(hang=0.4, seed=s).decide(k, 1) == "hang"
                   for k in keys)
            and all(FaultPlan(hang=0.4, seed=s).decide(k, 2) is None
                    for k in keys)
        )
        baseline = RoutingEngine(EngineConfig(jobs=1)).route_many(
            instances, max_segments=2
        )
        engine = RoutingEngine(EngineConfig(
            jobs=2, retry=FAST_RETRY,
            fault_plan=FaultPlan(hang=0.4, seed=seed, hang_seconds=60.0),
        ))
        started = time.monotonic()
        results = engine.route_many(instances, max_segments=2, timeout=0.5)
        elapsed = time.monotonic() - started
        assert all(r.ok for r in results)
        assert result_stream_digest(results) == result_stream_digest(baseline)
        assert engine.metrics.counter("workers_killed") > 0
        # Killed a grace second past the deadline, not slept out.
        assert elapsed < 20.0

    def test_healthy_timed_batch_never_kills(self):
        engine = RoutingEngine(EngineConfig(jobs=2))
        results = engine.route_many(
            small_corpus(6), max_segments=2, timeout=5.0
        )
        assert all(r.ok for r in results)
        assert engine.metrics.counter("workers_killed") == 0
        assert engine.metrics.counter("pool_rebuilds") == 0

    def test_late_failure_from_a_replaced_pool_keeps_the_current_pool(self):
        """Tearing down the current pool would cancel its queued futures,
        which ``wait`` never reports as done: the batch would hang."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine.executor import RouteTask
        from repro.engine.resilience.supervisor import (
            SupervisedExecutor,
            _TaskState,
        )

        channel, conns = small_corpus(1)[0]
        executor = SupervisedExecutor(1, policy=FAST_RETRY)
        replaced = executor._ensure_pool()
        executor._teardown_pool()
        current = executor._ensure_pool()
        try:
            state = _TaskState(
                task=RouteTask(index=0, channel=channel, connections=conns),
                tries=1, pool=replaced,
            )
            late = Future()
            late.set_exception(BrokenProcessPool("replaced pool died"))
            ready: list[int] = []
            assert executor._collect(late, state, ready, []) is None
            assert executor._pool is current
            assert ready == [0]  # never began: re-queued, no crash charged
            assert state.crashes == 0
        finally:
            executor._teardown_pool()

    def test_a_leaked_heartbeat_lock_dies_with_its_pool(self):
        """A worker killed in the middle of a heartbeat put leaves the
        queue's write lock held; the next pool's workers must not block
        on it."""
        import threading

        from repro.engine.executor import RouteTask
        from repro.engine.resilience.supervisor import SupervisedExecutor

        tasks = [
            RouteTask(index=i, channel=channel, connections=conns,
                      max_segments=2)
            for i, (channel, conns) in enumerate(small_corpus(2))
        ]
        executor = SupervisedExecutor(2, policy=FAST_RETRY)
        executor._ensure_pool()
        executor._heartbeats._wlock.acquire()  # its holder was killed
        executor._teardown_pool()
        outcomes = []
        runner = threading.Thread(
            target=lambda: outcomes.extend(executor.run(tasks)), daemon=True
        )
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "workers blocked on a dead pool's lock"
        assert sorted(o.index for o in outcomes) == [0, 1]
        assert all(o.ok for o in outcomes)


# ----------------------------------------------------------------------
# manifest errors (CLI satellite)
# ----------------------------------------------------------------------
def _batch_args(manifest, k=None):
    return argparse.Namespace(instances=[], manifest=manifest, k=k)


class TestManifestError:
    @pytest.mark.parametrize("line, match", [
        ("not json at all", ":2: bad manifest line"),
        ("[1, 2, 3]", "expected a JSON object"),
        ('{"k": 2}', ":2:"),                       # no path at all
        ('{"path": 42}', "must be a string"),
        ('{"path": "x.sch", "k": "two"}', "k must be an integer"),
    ])
    def test_bad_line_raises_typed_error(self, tmp_path, line, match):
        from repro.cli import _load_batch_specs

        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"path": "ok.sch"}\n' + line + "\n")
        with pytest.raises(ManifestError, match=match):
            _load_batch_specs(_batch_args(str(manifest)))

    def test_good_manifest_loads(self, tmp_path):
        from repro.cli import _load_batch_specs

        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            "# comment\n"
            '{"path": "a.sch", "k": 2}\n'
            "\n"
            '{"instance": "b.sch"}\n'
        )
        specs = _load_batch_specs(_batch_args(str(manifest), k=3))
        assert specs == [("a.sch", 2), ("b.sch", 3)]

    def test_missing_manifest_file(self, tmp_path):
        from repro.cli import _load_batch_specs

        with pytest.raises(ManifestError, match="cannot read manifest"):
            _load_batch_specs(_batch_args(str(tmp_path / "absent.jsonl")))

    def test_cli_reports_line_number_not_traceback(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "m.jsonl"
        manifest.write_text("}{ garbage\n")
        assert main(["batch", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}:1:" in err and "Traceback" not in err

    def test_resume_requires_checkpoint(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["batch", "x.sch", "--resume"]) == 1
        assert "--resume requires --checkpoint" in capsys.readouterr().err


# ----------------------------------------------------------------------
# metrics rendering (satellite)
# ----------------------------------------------------------------------
def test_resilience_counters_render():
    names = ("retries_total", "worker_crashes", "workers_killed",
             "pool_rebuilds", "tasks_quarantined",
             "checkpoint_records_written", "checkpoint_records_skipped")
    engine = RoutingEngine(EngineConfig(jobs=1))
    engine.route_many(small_corpus(), max_segments=2)
    for name in names:
        engine.metrics.incr(name)
    rendered = engine.render_stats()
    assert all(name in rendered for name in names)


def test_fault_plan_env_var_fallback(tmp_path, monkeypatch):
    from repro.cli import _fault_plan

    args = argparse.Namespace(inject_faults=None)
    monkeypatch.setenv("ENGINE_FAULT_PLAN", "crash=0.25,seed=9")
    plan = _fault_plan(args)
    assert plan == FaultPlan(crash=0.25, seed=9)
    args = argparse.Namespace(inject_faults="hang=0.5,seed=1")
    assert _fault_plan(args) == FaultPlan(hang=0.5, seed=1)
    monkeypatch.delenv("ENGINE_FAULT_PLAN")
    assert _fault_plan(argparse.Namespace(inject_faults=None)) is None
