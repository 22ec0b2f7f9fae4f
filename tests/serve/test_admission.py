"""Admission controller: queue bound, token bucket, deadline shedding.

All time-dependent behaviour runs against an injected fake clock, so
every decision here is deterministic.
"""

import pytest

from repro.core.errors import AdmissionRejected
from repro.serve.admission import AdmissionController
from repro.serve.protocol import STATUS_OVERLOADED, STATUS_SHED


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_admits_until_queue_bound():
    ctl = AdmissionController(max_queue=3, clock=FakeClock())
    assert all(ctl.try_admit().admitted for _ in range(3))
    decision = ctl.try_admit()
    assert not decision.admitted
    assert decision.status == STATUS_OVERLOADED
    assert "queue full" in decision.reason


def test_release_frees_a_slot():
    ctl = AdmissionController(max_queue=1, clock=FakeClock())
    assert ctl.try_admit().admitted
    assert not ctl.try_admit().admitted
    ctl.release()
    assert ctl.try_admit().admitted
    assert ctl.pending == 1


def test_release_never_goes_negative():
    ctl = AdmissionController(max_queue=2, clock=FakeClock())
    ctl.release()
    assert ctl.pending == 0
    assert ctl.try_admit().admitted


def test_token_bucket_exhausts_and_refills():
    clock = FakeClock()
    ctl = AdmissionController(max_queue=100, rate=10.0, burst=2, clock=clock)
    assert ctl.try_admit().admitted
    assert ctl.try_admit().admitted
    decision = ctl.try_admit()
    assert not decision.admitted and decision.status == STATUS_OVERLOADED
    assert "rate limit" in decision.reason
    clock.advance(0.1)  # one token at 10 req/s
    assert ctl.try_admit().admitted
    assert not ctl.try_admit().admitted


def test_token_bucket_caps_at_burst():
    clock = FakeClock()
    ctl = AdmissionController(max_queue=100, rate=10.0, burst=3, clock=clock)
    clock.advance(1000.0)  # a long idle period must not bank >burst tokens
    admitted = sum(ctl.try_admit().admitted for _ in range(10))
    assert admitted == 3


def test_deadline_shed_needs_an_estimate():
    # An unmeasured server never sheds on deadline: estimate is 0.
    ctl = AdmissionController(max_queue=10, clock=FakeClock())
    assert ctl.try_admit(deadline_ms=0.001).admitted


def test_deadline_shed_uses_ewma_and_depth():
    ctl = AdmissionController(max_queue=10, clock=FakeClock())
    ctl.observe_service(0.1)  # 100ms per request
    assert ctl.try_admit(deadline_ms=500).admitted  # depth 0 -> wait 0
    # depth 1 -> estimated wait 100ms
    decision = ctl.try_admit(deadline_ms=50)
    assert not decision.admitted
    assert decision.status == STATUS_SHED
    assert "shed" in decision.reason
    # A roomier deadline still gets in.
    assert ctl.try_admit(deadline_ms=500).admitted
    # Requests without deadlines are never deadline-shed.
    assert ctl.try_admit().admitted


def test_ewma_tracks_recent_service_times():
    ctl = AdmissionController(max_queue=10, clock=FakeClock())
    ctl.observe_service(1.0)
    for _ in range(50):
        ctl.observe_service(0.01)
    ctl.try_admit()  # depth 1
    assert ctl.estimated_wait_s() < 0.1  # converged near 10ms, not 1s


def test_decision_to_error_carries_status():
    ctl = AdmissionController(max_queue=1, clock=FakeClock())
    ctl.try_admit()
    error = ctl.try_admit().to_error()
    assert isinstance(error, AdmissionRejected)
    assert error.status == STATUS_OVERLOADED
    assert "queue full" in str(error)


def test_snapshot_gauges():
    clock = FakeClock()
    ctl = AdmissionController(max_queue=5, rate=10.0, burst=4, clock=clock)
    ctl.try_admit()
    ctl.observe_service(0.2)
    snap = ctl.snapshot()
    assert snap["serve.queue_depth"] == 1
    assert snap["serve.queue_bound"] == 5
    assert snap["serve.tokens"] == 3.0
    assert snap["serve.estimated_wait_s"] == pytest.approx(0.2)


@pytest.mark.parametrize("kwargs", [
    {"max_queue": 0},
    {"rate": 0.0},
    {"rate": -1.0},
    {"rate": 10.0, "burst": 0},
])
def test_constructor_validation(kwargs):
    with pytest.raises(ValueError):
        AdmissionController(**kwargs)


# ----------------------------------------------------------------------
# cold start + idle decay (regression: the EWMA used to hold a stale
# spike forever)
# ----------------------------------------------------------------------
def test_zero_prior_reproduces_never_shed_cold_start():
    ctl = AdmissionController(max_queue=10, clock=FakeClock())
    ctl.try_admit()
    assert ctl.try_admit(deadline_ms=0.001).admitted  # estimate is still 0


def test_ewma_decays_toward_prior_while_idle():
    # The prior is 0 and the half-life 30 s.
    clock = FakeClock()
    ctl = AdmissionController(max_queue=10, clock=clock)
    ctl.observe_service(1.0)
    assert ctl.effective_service_s() == pytest.approx(1.0)
    clock.advance(30.0)  # one half-life: halfway back to 0
    assert ctl.effective_service_s() == pytest.approx(0.5)
    clock.advance(30.0)
    assert ctl.effective_service_s() == pytest.approx(0.25)
    clock.advance(540.0)  # twenty half-lives: effectively 0
    assert ctl.effective_service_s() == pytest.approx(0.0, abs=1e-6)


def test_stale_spike_cannot_shed_forever():
    clock = FakeClock()
    ctl = AdmissionController(max_queue=10, clock=clock)
    ctl.observe_service(5.0)  # one pathological request...
    ctl.try_admit()           # ...with depth 1 queued behind it
    assert not ctl.try_admit(deadline_ms=100).admitted
    clock.advance(300.0)      # ten half-lives later, the spike is gone
    assert ctl.try_admit(deadline_ms=100).admitted


def test_observation_after_idle_updates_from_decayed_base():
    clock = FakeClock()
    ctl = AdmissionController(max_queue=10, clock=clock)
    ctl.observe_service(1.0)
    clock.advance(3000.0)  # the 1s spike has fully decayed
    ctl.observe_service(0.1)
    # The EWMA restarts from the decayed base, not the stale spike:
    # 0 + alpha * (0.1 - 0) = 0.02, nowhere near 1.0-ish.
    assert ctl.effective_service_s() < 0.1


def test_snapshot_reports_service_estimate():
    clock = FakeClock()
    ctl = AdmissionController(max_queue=10, clock=clock)
    assert ctl.snapshot()["serve.service_estimate_s"] == 0.0
    ctl.observe_service(0.25)
    assert ctl.snapshot()["serve.service_estimate_s"] == pytest.approx(0.25)
