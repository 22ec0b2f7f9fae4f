"""A gate on one engine's ``route_many``, for holding requests in flight.

Serve tests that need requests queued behind a running window hold the
dispatch thread inside ``route_many`` until the test opens the gate (or
a condition it names comes true), rather than relying on timing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

#: Longest a gated call waits before it fails instead of hanging.
_GATE_TIMEOUT_S = 30.0


class RouteGate:
    """Replace ``engine.route_many`` with a call that waits to be let through.

    Every call records its window size in :attr:`sizes`, sets
    :attr:`entered`, then waits until :meth:`open` is called or
    ``until()`` returns true (polled from the dispatch thread).  A gate
    still shut after 30 s raises, so a broken test fails instead of
    hanging its server.
    """

    def __init__(
        self, engine, until: Optional[Callable[[], bool]] = None
    ) -> None:
        self._route_many = engine.route_many
        self._until = until
        self._opened = threading.Event()
        self.entered = threading.Event()
        self.sizes: list[int] = []
        engine.route_many = self

    def __call__(self, instances, **kwargs):
        self.sizes.append(len(instances))
        self.entered.set()
        deadline = time.monotonic() + _GATE_TIMEOUT_S
        while not self._opened.wait(0.005):
            if self._until is not None and self._until():
                self._opened.set()
            elif time.monotonic() > deadline:
                raise TimeoutError("the route gate was never opened")
        return self._route_many(instances, **kwargs)

    def open(self) -> None:
        """Let every held and future call through."""
        self._opened.set()
