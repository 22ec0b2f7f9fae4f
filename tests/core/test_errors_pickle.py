"""Every engine-raised error must survive a process boundary.

The engine ships failures from forked workers back to the parent — as
pickled exceptions (pool futures) and as ``TaskOutcome.error_type``
strings.  Both paths require that each :class:`ReproError` subclass (a) pickle round-trips
preserving its concrete type and message, and (b) is resolvable by name
from :mod:`repro.core.errors` so ``TaskOutcome.raise_error`` re-raises
the *typed* exception, not a generic one.
"""

import multiprocessing
import pickle

import pytest

import repro.core.errors as errors_module
from repro.core.errors import ReproError
from repro.engine.executor import TaskOutcome

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def all_error_classes():
    """Every concrete ReproError subclass exported by the errors module."""
    classes = [
        obj
        for obj in vars(errors_module).values()
        if isinstance(obj, type) and issubclass(obj, ReproError)
    ]
    assert len(classes) >= 10  # the taxonomy, not an accidental subset
    return classes


@pytest.mark.parametrize(
    "cls", all_error_classes(), ids=lambda cls: cls.__name__
)
class TestPickleRoundTrip:
    def test_type_and_message_survive(self, cls):
        exc = cls("worker 3 reporting: boom")
        restored = pickle.loads(pickle.dumps(exc))
        assert type(restored) is cls
        assert str(restored) == "worker 3 reporting: boom"

    def test_resolvable_by_name(self, cls):
        # The pipe / TaskOutcome protocols ship only the type *name*.
        resolved = getattr(errors_module, cls.__name__)
        assert resolved is cls

    def test_raise_error_restores_type(self, cls):
        outcome = TaskOutcome(
            index=0, error_type=cls.__name__, error="typed failure"
        )
        with pytest.raises(cls, match="typed failure"):
            outcome.raise_error()


def _raise_named(name):
    raise getattr(errors_module, name)(f"raised in pid-isolated worker: {name}")


@pytest.mark.skipif(not _HAS_FORK, reason="needs fork start method")
def test_errors_cross_process_boundary():
    """An exception raised in a pool worker arrives typed in the parent."""
    from concurrent.futures import ProcessPoolExecutor

    names = [cls.__name__ for cls in all_error_classes()]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        for name in names:
            with pytest.raises(getattr(errors_module, name)) as excinfo:
                pool.submit(_raise_named, name).result()
            assert name in str(excinfo.value)


def test_unknown_error_type_degrades_to_repro_error():
    outcome = TaskOutcome(index=0, error_type="SegfaultFromMars", error="???")
    with pytest.raises(ReproError, match="SegfaultFromMars"):
        outcome.raise_error()
