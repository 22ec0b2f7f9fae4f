"""Replica supervision: state machine, backoff, quarantine, faults.

The restart/quarantine state machine is driven directly (no processes)
so it tests deterministically; one test launches a real subprocess
replica end-to-end.  Crash/hang recovery under live traffic lives in
the chaos suite (``test_chaos_serve.py``).
"""

import asyncio
import os
import sys
import time

import pytest

from repro.core.errors import ServeError
from repro.engine.resilience.faults import FaultPlan
from repro.engine.resilience.retry import RetryPolicy
from repro.serve.replica import (
    REPLICA_QUARANTINED,
    REPLICA_RESTARTING,
    REPLICA_STOPPED,
    REPLICA_UP,
    ReplicaSet,
    StaticReplicaSet,
)
from repro.serve.server import ServeConfig

pytestmark = pytest.mark.serve


# ----------------------------------------------------------------------
# StaticReplicaSet (the in-process stand-in the router tests use)
# ----------------------------------------------------------------------
def test_static_set_endpoints_and_down_marks():
    replica_set = StaticReplicaSet([("a", 1), ("b", 2)])
    assert replica_set.n_replicas == 2
    assert replica_set.endpoint(0) == ("a", 1)
    assert replica_set.live_indices() == [0, 1]

    replica_set.set_down(0)
    assert replica_set.endpoint(0) is None
    assert replica_set.live_indices() == [1]
    assert replica_set.counters()["0"]["state"] == REPLICA_STOPPED

    replica_set.set_endpoint(0, ("c", 3))  # "restart" clears the down mark
    assert replica_set.endpoint(0) == ("c", 3)
    assert [s.state for s in replica_set.status()] == [
        REPLICA_UP, REPLICA_UP,
    ]
    replica_set.note_request()  # interface no-op, never raises


def test_static_set_rejects_empty():
    with pytest.raises(ValueError):
        StaticReplicaSet([])


# ----------------------------------------------------------------------
# supervision state machine (no processes)
# ----------------------------------------------------------------------
def _bare_set(fault_plan=None):
    return ReplicaSet(
        2, ServeConfig(seed=3, fault_plan=fault_plan),
        restart_policy=RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.02, jitter=0.0
        ),
        flap_window_s=60.0,
    )


def test_failure_schedules_backoff_restart():
    replica_set = _bare_set()
    replica = replica_set._replicas[0]
    before = time.monotonic()
    replica_set._on_failure(replica, "exit")
    assert replica.state == REPLICA_RESTARTING
    assert replica.restarts == 1 and replica.total_restarts == 1
    assert replica.port is None
    assert replica.restart_at >= before  # delayed, not immediate
    counters = replica_set.metrics.snapshot()["counters"]
    assert counters["serve.replica.failures"] == 1
    assert counters["serve.replica.restarts"] == 1


def test_flapping_replica_is_quarantined():
    replica_set = _bare_set()
    replica = replica_set._replicas[1]
    for _ in range(2):  # inside the restart budget
        replica_set._on_failure(replica, "exit")
        assert replica.state == REPLICA_RESTARTING
    replica_set._on_failure(replica, "exit")  # budget exhausted
    assert replica.state == REPLICA_QUARANTINED
    assert replica_set.endpoint(1) is None
    counters = replica_set.metrics.snapshot()["counters"]
    assert counters["serve.replica.quarantined"] == 1
    assert counters["serve.replica.failures"] == 3
    assert counters["serve.replica.restarts"] == 2  # quarantine != restart


def test_backoff_delays_are_deterministic_per_seed():
    first = _bare_set()
    second = _bare_set()
    for replica_set in (first, second):
        replica_set._on_failure(replica_set._replicas[0], "exit")
    assert first._replicas[0].restart_at - second._replicas[0].restart_at == (
        pytest.approx(0.0, abs=0.5)
    )


def test_note_request_fires_each_fault_exactly_once():
    plan = FaultPlan(kill_replica_after=3, stop_replica_after=5, seed=13)
    replica_set = _bare_set(fault_plan=plan)
    # No processes are running, so the signal is a no-op — but the
    # trigger bookkeeping must still fire exactly once per fault kind.
    for _ in range(2):
        replica_set.note_request()
    assert replica_set._fault_fired == set()
    replica_set.note_request()
    assert replica_set._fault_fired == {"kill"}
    for _ in range(10):
        replica_set.note_request()
    assert replica_set._fault_fired == {"kill", "stop"}


def test_replica_victim_is_seeded_and_in_range():
    plan = FaultPlan(kill_replica_after=1, seed=21)
    same = FaultPlan(kill_replica_after=1, seed=21)
    other = FaultPlan(kill_replica_after=1, seed=22)
    victims = [plan.replica_victim(5, "kill") for _ in range(4)]
    assert all(0 <= v < 5 for v in victims)
    assert len(set(victims)) == 1  # stable within a plan
    assert victims[0] == same.replica_victim(5, "kill")
    assert any(
        plan.replica_victim(n, "kill") != other.replica_victim(n, "kill")
        for n in (3, 5, 7, 11)
    )


def test_argv_forwards_every_serve_knob():
    replica_set = ReplicaSet(2, ServeConfig(
        port=7455, http_port=7456, port_file="front.json",
        seed=9, timeout=1.5, max_queue=32, rate=100.0, burst=10.0,
        drain_grace=1.0, cache_dir="shared-cache", jobs_dir="jobs",
        max_active_jobs=2, max_queued_jobs=5, job_deadline_s=60.0,
        fault_plan=FaultPlan(kill_replica_after=3, seed=1),
    ))
    replica = replica_set._replicas[1]
    replica.port_file = "/tmp/pf.json"
    argv = replica_set._argv(replica)
    text = " ".join(argv)
    assert "-m repro serve" in text
    assert "--port 0" in text and "--http-port 0" in text
    assert "--port-file /tmp/pf.json" in text
    assert "--seed 9" in text
    assert "--jobs" not in argv  # replicas route in process
    assert "--timeout 1.5" in text and "--rate 100.0" in text
    assert "--burst 10.0" in text and "--max-queue 32" in text
    assert "--drain-grace 1.0" in text
    # The cache is shared; each replica keeps its own jobs directory.
    assert "--cache-dir shared-cache" in text
    assert f"--jobs-dir {os.path.join('jobs', 'replica-1')}" in text
    assert "--max-active-jobs 2" in text and "--max-queued-jobs 5" in text
    assert "--job-deadline 60.0" in text
    # The fault plan is applied by the parent, not the replicas.
    assert "--inject-faults" not in argv


def test_replica_set_validation():
    with pytest.raises(ValueError):
        ReplicaSet(0)


# ----------------------------------------------------------------------
# one real subprocess replica, launched and stopped
# ----------------------------------------------------------------------
def test_replica_set_launches_and_stops_a_real_server():
    async def main():
        async with ReplicaSet(
            1, ServeConfig(seed=7), heartbeat_interval=0.2
        ) as replicas:
            endpoint = replicas.endpoint(0)
            assert endpoint is not None
            assert replicas.live_indices() == [0]
            status = replicas.status()[0]
            assert status.state == REPLICA_UP
            assert status.pid is not None and status.port == endpoint[1]
            # The child is a full RoutingServer: it answers a ping.
            assert await replicas._ping(replicas._replicas[0])
        assert replicas.endpoint(0) is None
        assert replicas.status()[0].state == REPLICA_STOPPED

    asyncio.run(main())


def test_partial_launch_failure_terminates_started_replicas():
    """One replica failing to launch must not orphan the ones that
    did: start() terminates them before the error propagates."""
    async def main():
        replicas = ReplicaSet(2, ServeConfig(seed=7))
        real_argv = replicas._argv

        def argv(replica):
            if replica.index == 1:  # dies immediately during startup
                return [sys.executable, "-c", "import sys; sys.exit(3)"]
            return real_argv(replica)

        replicas._argv = argv
        with pytest.raises(ServeError):
            await replicas.start()
        survivor = replicas._replicas[0].process
        assert survivor is not None
        assert survivor.poll() is not None  # terminated, not orphaned
        assert all(
            r.state == REPLICA_STOPPED for r in replicas._replicas
        )
        assert replicas._workdir is None

    asyncio.run(main())
