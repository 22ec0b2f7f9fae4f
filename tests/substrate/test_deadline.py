"""Per-thread solve deadlines: set, nest, restore, check, and stay on
the thread that set them."""

import threading
import time

import pytest

from repro.core.api import route
from repro.core.connection import ConnectionSet
from repro.core.errors import EngineTimeout
from repro.core.npc import build_two_segment_instance, normalize_nmts
from repro.engine.executor import attempt_route
from repro.generators.paper_examples import example1_nmts
from repro.substrate.deadline import bounded, check


def test_check_without_deadline_never_raises():
    check()
    with bounded(None):
        check()


def test_check_raises_once_the_deadline_passes():
    with bounded(0.02):
        check()
        time.sleep(0.03)
        with pytest.raises(EngineTimeout):
            check()
    check()  # restored on exit


def test_nested_budget_never_extends_the_enclosing_one():
    with bounded(0.02):
        with bounded(60.0):
            time.sleep(0.03)
            with pytest.raises(EngineTimeout):
                check()
        with bounded(None):
            with pytest.raises(EngineTimeout):
                check()


def test_inner_deadline_is_restored_on_error():
    with pytest.raises(ValueError):
        with bounded(0.0):
            raise ValueError("solver failed")
    check()


def test_deadline_does_not_leak_across_threads():
    # The serve dispatch thread and the job-manager workers share one
    # process: an expired deadline on one thread must not reach a
    # deadline-free solve on another.
    norm, _, _ = normalize_nmts(example1_nmts())
    built = build_two_segment_instance(norm)
    channel = built.channel
    prefix = ConnectionSet(built.connections.connections[:26])
    entered, release = threading.Event(), threading.Event()
    worker_errors = []

    def hold_expired_deadline():
        with bounded(0.01):
            entered.set()
            release.wait(10)  # the deadline passes while this thread waits
            try:
                check()
            except EngineTimeout as exc:
                worker_errors.append(exc)

    worker = threading.Thread(target=hold_expired_deadline)
    worker.start()
    try:
        assert entered.wait(10)
        time.sleep(0.02)
        routing = route(channel, prefix, max_segments=2, algorithm="dp")
        assert attempt_route(channel, prefix, 2, None, "dp", None)[0] == (
            routing.assignment
        )
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    routing.validate(2)
    assert len(worker_errors) == 1
