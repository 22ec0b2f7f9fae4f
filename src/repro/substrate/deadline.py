"""Cooperative per-thread solve deadlines.

Exact routing is strongly NP-complete (Theorems 1-2), so a caller with a
time budget must be able to stop a solve.  :func:`bounded` sets a
deadline for the calling thread; the solvers call :func:`check` at their
natural boundaries (DP levels and batches of frontier expansions, search
nodes, simplex pivots, Hungarian rows), never per edge, and it raises
:class:`~repro.core.errors.EngineTimeout` once the deadline has passed.
Other threads of the process keep their own deadlines.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.errors import EngineTimeout

__all__ = ["bounded", "check"]


class _Deadline(threading.local):
    at: Optional[float] = None  # time.monotonic() value; None = unbounded


_deadline = _Deadline()


def check() -> None:
    """Raise :class:`EngineTimeout` if this thread's deadline has passed."""
    at = _deadline.at
    if at is not None and time.monotonic() >= at:
        raise EngineTimeout("solve deadline passed")


@contextmanager
def bounded(seconds: Optional[float]) -> Iterator[None]:
    """Bound this thread's solves to ``seconds`` from now (``None``: keep
    any enclosing deadline).  A nested budget never extends an enclosing
    one, and the previous deadline is restored on exit."""
    previous = _deadline.at
    if seconds is not None:
        at = time.monotonic() + seconds
        _deadline.at = at if previous is None else min(previous, at)
    try:
        yield
    finally:
        _deadline.at = previous
