"""Detailed routing: run the paper's algorithms inside every channel.

:func:`route_chip` takes an architecture, netlist and placement, performs
global routing, then routes each channel's demand with the core library
(defaulting to ``route(..., algorithm="auto")``).  The result records the
per-channel routings, which channels failed (if any), and aggregate
statistics used by the flow example and the FPGA benches.

The per-channel solve loop is factored out as :func:`solve_demands` so
the congestion negotiator (:mod:`repro.fpga.congestion`) and the chip
pipeline (:mod:`repro.jobs.pipeline`) share one implementation.  It has
two backends:

* **serial** (``engine=None``) — direct :func:`repro.core.api.route`
  calls, one channel at a time, exactly the paper's flow;
* **engine** — the batch is dispatched through
  :meth:`repro.engine.RoutingEngine.route_many`, so channels solve in
  parallel, hit the canonical instance cache (including a shared
  persistent ``--cache-dir`` tier), and can be checkpoint-journaled.

With an engine configured for parity (``timeout=None``, the default)
the two backends are bit-identical: the engine runs the same core
``route()`` on each instance, records the same typed error names, and
cache replay reconstructs assignments positionally.  :func:`chip_digest` hashes exactly the fields both
backends agree on, so serial and engine-backed chip routings can be
compared byte-for-byte (the regression tests assert this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.api import route
from repro.core.channel import SegmentedChannel
from repro.core.connection import ConnectionSet, density
from repro.core.errors import HeuristicFailure, RoutingInfeasibleError
from repro.core.routing import Routing
from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.global_route import ChannelDemand, global_route
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement
from repro.io.results import digest_records, result_record

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dep
    from repro.engine.engine import RoutingEngine
    from repro.engine.resilience.checkpoint import CheckpointJournal

__all__ = [
    "ChannelResult",
    "ChipRouting",
    "route_chip",
    "solve_demands",
    "chip_result_records",
    "chip_digest",
]


@dataclass(frozen=True)
class ChannelResult:
    """Outcome of one channel: either a routing or a failure reason."""

    channel_index: int
    demand: ChannelDemand
    routing: Optional[Routing]
    failure: str = ""
    error_type: str = ""

    @property
    def ok(self) -> bool:
        return self.routing is not None

    @property
    def density(self) -> int:
        return density(self.demand.connection_set())


@dataclass(frozen=True)
class ChipRouting:
    """Whole-chip detailed routing result."""

    architecture: FPGAArchitecture
    netlist: Netlist
    placement: Placement
    channels: tuple[ChannelResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.channels)

    @property
    def failed_channels(self) -> list[int]:
        return [c.channel_index for c in self.channels if not c.ok]

    @property
    def n_connections(self) -> int:
        return sum(c.demand.n_connections for c in self.channels)

    def max_segments_used(self) -> int:
        return max(
            (c.routing.max_segments_used() for c in self.channels if c.routing),
            default=0,
        )

    def summary(self) -> str:
        lines = [
            f"chip routing: {self.n_connections} connections over "
            f"{len(self.channels)} channels — "
            f"{'COMPLETE' if self.ok else 'FAILED in ' + str(self.failed_channels)}"
        ]
        for c in self.channels:
            status = "ok" if c.ok else f"FAILED ({c.failure})"
            kmax = c.routing.max_segments_used() if c.routing else "-"
            lines.append(
                f"  channel {c.channel_index}: {c.demand.n_connections:>3} "
                f"connections, density {c.density:>2}, max segs {kmax}: {status}"
            )
        return "\n".join(lines)


def solve_demands(
    architecture: FPGAArchitecture,
    demands: Sequence[ChannelDemand],
    *,
    max_segments: Optional[int] = None,
    algorithm: str = "auto",
    engine: Optional["RoutingEngine"] = None,
    journal: Optional["CheckpointJournal"] = None,
    trace_parents: Optional[Sequence] = None,
) -> tuple[ChannelResult, ...]:
    """Solve every channel's demand; serial or engine-backed.

    Empty channels short-circuit to an empty routing in both backends
    (the engine never sees them, so journals and digests only cover
    channels with actual work).  ``journal`` and ``trace_parents`` are
    forwarded to :meth:`RoutingEngine.route_many` and require
    ``engine``; ``trace_parents`` is indexed per *non-empty* demand, in
    demand order.
    """
    if engine is None:
        if journal is not None:
            raise ValueError("journal requires an engine")
        return tuple(
            _solve_serial(architecture, demand, max_segments, algorithm)
            for demand in demands
        )

    results: dict[int, ChannelResult] = {}
    instances: list[tuple[SegmentedChannel, ConnectionSet]] = []
    pending: list[ChannelDemand] = []
    for demand in demands:
        conns = demand.connection_set()
        channel = architecture.channels[demand.channel_index]
        if len(conns) == 0:
            results[demand.channel_index] = ChannelResult(
                demand.channel_index, demand, _empty_routing(channel)
            )
            continue
        instances.append((channel, conns))
        pending.append(demand)
    if instances:
        batch = engine.route_many(
            instances,
            max_segments=max_segments,
            algorithm=algorithm,
            journal=journal,
            trace_parents=trace_parents,
        )
        for demand, result in zip(pending, batch):
            if result.routing is not None:
                results[demand.channel_index] = ChannelResult(
                    demand.channel_index, demand, result.routing
                )
            else:
                results[demand.channel_index] = ChannelResult(
                    demand.channel_index,
                    demand,
                    None,
                    failure=result.error,
                    error_type=result.error_type,
                )
    return tuple(results[d.channel_index] for d in demands)


def _solve_serial(
    architecture: FPGAArchitecture,
    demand: ChannelDemand,
    max_segments: Optional[int],
    algorithm: str,
) -> ChannelResult:
    conns = demand.connection_set()
    channel = architecture.channels[demand.channel_index]
    if len(conns) == 0:
        return ChannelResult(demand.channel_index, demand, _empty_routing(channel))
    try:
        routing = route(
            channel, conns, max_segments=max_segments, algorithm=algorithm
        )
        return ChannelResult(demand.channel_index, demand, routing)
    except (RoutingInfeasibleError, HeuristicFailure) as exc:
        return ChannelResult(
            demand.channel_index,
            demand,
            None,
            failure=str(exc),
            error_type=type(exc).__name__,
        )


def chip_result_records(chip: ChipRouting) -> list[dict]:
    """Per-channel :func:`repro.io.results.result_record` dicts.

    The record schema is the same one the engine and serving layer hash,
    so a chip digest is comparable across the serial path, the
    engine-backed path, and results streamed over the job API.
    """
    return [
        result_record(
            c.channel_index,
            c.ok,
            c.routing.assignment if c.routing is not None else None,
            c.error_type,
        )
        for c in chip.channels
    ]


def chip_digest(chip: ChipRouting) -> str:
    """SHA-256 digest of a chip routing's semantic outcome.

    Hashes, per channel: index, ok, track assignment, and typed error
    name — not failure message text, durations, or cache provenance.
    """
    return digest_records(chip_result_records(chip))


def route_chip(
    architecture: FPGAArchitecture,
    netlist: Netlist,
    placement: Placement,
    max_segments: Optional[int] = None,
    algorithm: str = "auto",
    engine: Optional["RoutingEngine"] = None,
) -> ChipRouting:
    """Global + detailed routing of a placed netlist.

    Channels that cannot be routed are reported in the result rather than
    raised, so a caller can inspect partial outcomes (e.g. to decide to
    add tracks and retry — which is what the design-evaluation loop in
    :mod:`repro.design.evaluate` does).

    With ``engine`` the per-channel solves run through
    :meth:`RoutingEngine.route_many` (parallel, cached) and are
    digest-identical to the serial default — see :func:`solve_demands`.
    """
    demands = global_route(architecture, netlist, placement)
    results = solve_demands(
        architecture,
        demands,
        max_segments=max_segments,
        algorithm=algorithm,
        engine=engine,
    )
    return ChipRouting(architecture, netlist, placement, results)


def _empty_routing(channel: SegmentedChannel) -> Routing:
    return Routing(channel, ConnectionSet([]), ())
