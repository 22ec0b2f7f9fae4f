"""The chip-routing pipeline: netlist → global route → negotiated solves.

One pipeline run is the engine-backed, checkpointable equivalent of
:func:`repro.fpga.congestion.route_chip_negotiated`:

1. **build** — parse the :class:`ChipSpec` (netlist text + architecture
   parameters), construct the deterministic architecture and placement;
2. **round 0** — global-route the placed netlist and solve every
   channel's demand through :meth:`RoutingEngine.route_many` (parallel
   workers, canonical + persistent cache);
3. **negotiate** — while channels fail, migrate sinks out of congested
   channels (:func:`repro.fpga.congestion._negotiate_moves`, the exact
   PathFinder-flavoured step the offline negotiator uses) and re-route;
4. **finish** — first fully-routed round wins, else the best (fewest
   failing channels) attempt after ``max_rounds``.

Every step is a deterministic function of the spec, so the final
:func:`repro.fpga.detail_route.chip_digest` is byte-identical to an
offline ``route_chip_negotiated`` run of the same instance — that is the
invariant the serving tier's job API is verified against.

Checkpointing (``state_dir``): each round's channel solves append to a
:class:`CheckpointJournal` (``round-<r>.jsonl``) via the engine, and the
round outcome (digest, failed channels, moves) is recorded in
``rounds.jsonl``.  A re-run after a crash replays journaled channel
results instead of solving (bit-identical by the engine's resume
contract), fast-forwards through completed rounds, and cross-checks each
recomputed round digest against the journaled one — divergence raises
:class:`~repro.core.errors.CheckpointError` instead of silently
returning a different answer.

Tracing: with a traced engine and a ``job_id``, the run emits a
``job`` → ``job.round`` span tree; each channel's engine-side
``request`` span is stitched under its round span via
``route_many(trace_parents=...)``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.api import ALGORITHMS
from repro.core.channel import uniform_channel
from repro.core.errors import CheckpointError, FormatError, ReproError
from repro.design.segmentation import geometric_segmentation
from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.congestion import (
    _demands_from,
    _negotiate_moves,
    _sink_assignments,
)
from repro.fpga.detail_route import (
    ChipRouting,
    chip_digest,
    chip_result_records,
    solve_demands,
)
from repro.fpga.global_route import global_route
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement, improve_placement, place_greedy
from repro.io.netlist_format import loads_netlist
from repro.obs.trace import SpanCollector, derive_trace_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import RoutingEngine

__all__ = [
    "ChipSpec",
    "RoundReport",
    "PipelineResult",
    "PipelineAbort",
    "build_chip_instance",
    "run_chip_pipeline",
]

_CHANNEL_KINDS = ("geometric", "uniform")


def _is_int(value: object) -> bool:
    """An int that is not a bool (JSON ``true`` is no row count)."""
    return isinstance(value, int) and not isinstance(value, bool)


class PipelineAbort(ReproError):
    """A pipeline run was stopped between rounds.  ``reason`` is the
    abort cause reported to the client; ``kind`` — ``"cancelled"``,
    ``"deadline"`` or ``"shutdown"`` — is what callers branch on."""

    def __init__(self, reason: str, kind: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason
        self.kind = kind


@dataclass(frozen=True)
class ChipSpec:
    """Everything needed to reconstruct one chip-routing problem.

    The spec is the *unit of submission* for the job API: it travels as
    a plain JSON payload, and rebuilding the architecture + placement
    from it is deterministic, so a server that crashed mid-job can
    reconstruct the identical problem from the persisted spec and resume
    from its journals.
    """

    netlist_text: str
    rows: int
    cells_per_row: int
    inputs: int = 3
    tracks: int = 8
    channel_kind: str = "geometric"
    #: Shortest segment length (geometric) / segment length (uniform).
    seg_length: int = 4
    seg_ratio: float = 2.0
    seg_types: int = 3
    max_segments: Optional[int] = 2
    algorithm: str = "auto"
    max_rounds: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rows", "cells_per_row", "inputs", "tracks",
                     "seg_length", "seg_types"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise FormatError(
                    f"chip spec: {name} must be a positive int, got {value!r}"
                )
        if self.channel_kind not in _CHANNEL_KINDS:
            raise FormatError(
                f"chip spec: channel_kind must be one of {_CHANNEL_KINDS}, "
                f"got {self.channel_kind!r}"
            )
        ratio = self.seg_ratio
        if not (
            (_is_int(ratio) or isinstance(ratio, float)) and math.isfinite(ratio)
            and (ratio > 1 or self.channel_kind != "geometric")
        ):
            raise FormatError(
                "chip spec: seg_ratio must be a finite number, > 1 for a "
                f"geometric channel, got {ratio!r}"
            )
        if self.max_segments is not None and (
            not _is_int(self.max_segments) or self.max_segments < 1
        ):
            raise FormatError(
                f"chip spec: max_segments must be a positive int or null, "
                f"got {self.max_segments!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise FormatError(
                f"chip spec: algorithm must be one of {ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if not _is_int(self.max_rounds) or self.max_rounds < 0:
            raise FormatError(
                f"chip spec: max_rounds must be an int >= 0, "
                f"got {self.max_rounds!r}"
            )
        if not _is_int(self.seed):
            raise FormatError(f"chip spec: seed must be an int, got {self.seed!r}")
        # Fail fast on malformed netlist text: a bad submit should be a
        # typed protocol error, not a job that fails minutes later.
        loads_netlist(self.netlist_text)

    @classmethod
    def from_payload(cls, payload: dict) -> "ChipSpec":
        """Build a spec from a wire payload, with typed errors."""
        if not isinstance(payload, dict):
            raise FormatError(f"chip spec must be an object, got {payload!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise FormatError(
                f"chip spec: unknown fields {sorted(unknown)}"
            )
        missing = [
            f for f in ("netlist_text", "rows", "cells_per_row")
            if f not in payload
        ]
        if missing:
            raise FormatError(f"chip spec: missing fields {missing}")
        if not isinstance(payload["netlist_text"], str):
            raise FormatError("chip spec: netlist_text must be a string")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise FormatError(f"chip spec: {exc}") from exc

    def to_payload(self) -> dict:
        return {
            "netlist_text": self.netlist_text,
            "rows": self.rows,
            "cells_per_row": self.cells_per_row,
            "inputs": self.inputs,
            "tracks": self.tracks,
            "channel_kind": self.channel_kind,
            "seg_length": self.seg_length,
            "seg_ratio": self.seg_ratio,
            "seg_types": self.seg_types,
            "max_segments": self.max_segments,
            "algorithm": self.algorithm,
            "max_rounds": self.max_rounds,
            "seed": self.seed,
        }


def build_chip_instance(
    spec: ChipSpec,
) -> tuple[FPGAArchitecture, Netlist, Placement]:
    """Deterministically reconstruct (architecture, netlist, placement)."""
    netlist = loads_netlist(spec.netlist_text)
    if spec.channel_kind == "geometric":
        def factory(n: int):
            return geometric_segmentation(
                spec.tracks, n, spec.seg_length, spec.seg_ratio, spec.seg_types
            )
    else:
        def factory(n: int):
            return uniform_channel(spec.tracks, n, spec.seg_length)
    if netlist.n_cells > spec.rows * spec.cells_per_row:
        raise FormatError(
            f"chip spec: netlist has {netlist.n_cells} cells but the array "
            f"holds {spec.rows} x {spec.cells_per_row}"
        )
    architecture = FPGAArchitecture(
        spec.rows, spec.cells_per_row, spec.inputs, channel_factory=factory
    )
    placement = improve_placement(
        place_greedy(architecture, netlist, seed=spec.seed),
        netlist,
        seed=spec.seed + 1,
    )
    return architecture, netlist, placement


@dataclass(frozen=True)
class RoundReport:
    """Outcome of one pipeline round (one full-chip solve attempt)."""

    round_index: int
    moved: int
    ok: bool
    failed_channels: tuple[int, ...]
    digest: str
    n_solved: int
    resumed_records: int
    duration_s: float

    def to_payload(self) -> dict:
        return {
            "round": self.round_index,
            "moved": self.moved,
            "ok": self.ok,
            "failed_channels": list(self.failed_channels),
            "digest": self.digest,
            "n_solved": self.n_solved,
            "resumed_records": self.resumed_records,
            "duration_s": round(self.duration_s, 6),
        }


@dataclass
class PipelineResult:
    """Final pipeline outcome: the winning chip routing plus round log."""

    chip: ChipRouting
    digest: str
    rounds: list[RoundReport] = field(default_factory=list)
    best_round: int = 0
    resumed_records: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.chip.ok

    def records(self) -> list[dict]:
        """Per-channel result records (the job API's streamed payload)."""
        return chip_result_records(self.chip)


def run_chip_pipeline(
    spec: ChipSpec,
    *,
    engine: Optional["RoutingEngine"] = None,
    state_dir: Optional[str] = None,
    job_id: str = "",
    on_round: Optional[Callable[[RoundReport], None]] = None,
    check_abort: Optional[Callable[[], Optional[PipelineAbort]]] = None,
) -> PipelineResult:
    """Run the full pipeline for one spec; see the module docstring.

    ``state_dir`` (requires ``engine``) enables journal checkpointing:
    per-round engine journals plus a round-state journal, giving
    bit-identical resume after a crash.  ``check_abort`` is polled
    before every round; the :class:`PipelineAbort` it returns, if any,
    is raised (journals stay on disk, so an aborted job can still be
    resumed later).  ``on_round`` observes each
    :class:`RoundReport` as it completes — the job manager uses it to
    publish live status.
    """
    if state_dir is not None and engine is None:
        raise ValueError("state_dir checkpointing requires an engine")
    started = time.monotonic()
    architecture, netlist, placement = build_chip_instance(spec)

    state = None
    if state_dir is not None:
        os.makedirs(state_dir, exist_ok=True)
        from repro.engine.resilience.checkpoint import CheckpointJournal
        state = CheckpointJournal(
            os.path.join(state_dir, "rounds.jsonl"), resume=True,
            fsync_interval=1,
        )

    sink = getattr(engine, "trace_sink", None)
    trace_id = ""
    if sink is not None and job_id:
        trace_id = derive_trace_id(engine.config.seed, f"job:{job_id}")
    collector = SpanCollector(trace_id, "jb", sink)
    root = collector.start("job", job_id=job_id, rows=spec.rows,
                           cells_per_row=spec.cells_per_row)

    rounds: list[RoundReport] = []
    resumed_total = 0

    def abort_check() -> None:
        if check_abort is None:
            return
        abort = check_abort()
        if abort is not None:
            raise abort

    def solve_round(round_index: int, demands, moved: int) -> ChipRouting:
        nonlocal resumed_total
        round_started = time.monotonic()
        journal = None
        resumed = 0
        if state_dir is not None:
            from repro.engine.resilience.checkpoint import CheckpointJournal
            journal = CheckpointJournal(
                os.path.join(state_dir, f"round-{round_index}.jsonl"),
                resume=True,
            )
            resumed = len(journal)
        round_span = collector.start(
            "job.round", parent_id=root.span_id,
            round=round_index, moved=moved,
        )
        parents = None
        if trace_id:
            parents = [
                (
                    derive_trace_id(
                        engine.config.seed,
                        f"job:{job_id}:round:{round_index}"
                        f":chan:{d.channel_index}",
                    ),
                    round_span.span_id,
                )
                for d in demands
                if len(d.connection_set()) > 0
            ]
        try:
            results = solve_demands(
                architecture,
                demands,
                max_segments=spec.max_segments,
                algorithm=spec.algorithm,
                engine=engine,
                journal=journal,
                trace_parents=parents,
            )
        finally:
            if journal is not None:
                journal.close()
        chip = ChipRouting(architecture, netlist, placement, results)
        digest = chip_digest(chip)
        if state is not None:
            key = f"round:{round_index}"
            prior = state.get(key)
            if prior is None:
                state.append(key, {
                    "digest": digest,
                    "ok": chip.ok,
                    "failed_channels": chip.failed_channels,
                    "moved": moved,
                })
            elif prior.get("digest") != digest:
                raise CheckpointError(
                    f"{state.path}: round {round_index} digest mismatch on "
                    f"resume: journaled {prior.get('digest')}, recomputed "
                    f"{digest} (spec or code changed between runs?)"
                )
        resumed_total += resumed
        report = RoundReport(
            round_index=round_index,
            moved=moved,
            ok=chip.ok,
            failed_channels=tuple(chip.failed_channels),
            digest=digest,
            n_solved=sum(
                1 for d in demands if len(d.connection_set()) > 0
            ),
            resumed_records=resumed,
            duration_s=time.monotonic() - round_started,
        )
        rounds.append(report)
        round_span.set(
            ok=chip.ok, failed=len(chip.failed_channels), digest=digest
        )
        round_span.finish()
        if on_round is not None:
            on_round(report)
        return chip

    def finish(chip: ChipRouting, best_round: int) -> PipelineResult:
        if state is not None:
            state.close()
        root.set(
            ok=chip.ok, rounds=len(rounds),
            digest=rounds[best_round].digest if rounds else "",
        )
        root.finish()
        collector.flush()
        return PipelineResult(
            chip=chip,
            digest=chip_digest(chip),
            rounds=rounds,
            best_round=best_round,
            resumed_records=resumed_total,
            duration_s=time.monotonic() - started,
        )

    try:
        abort_check()
        chip = solve_round(0, global_route(architecture, netlist, placement), 0)
        if chip.ok:
            return finish(chip, 0)
        best, best_round = chip, 0

        assignments = _sink_assignments(architecture, netlist, placement)
        for round_index in range(1, spec.max_rounds + 1):
            if not best.failed_channels:  # pragma: no cover - defensive
                break
            abort_check()
            moved = _negotiate_moves(
                assignments, best.failed_channels, architecture.n_channels
            )
            if not moved:
                break
            chip = solve_round(
                round_index, _demands_from(architecture, assignments), moved
            )
            if chip.ok:
                return finish(chip, round_index)
            if len(chip.failed_channels) < len(best.failed_channels):
                best, best_round = chip, round_index
        return finish(best, best_round)
    except PipelineAbort:
        if state is not None:
            state.close()
        root.set(aborted=True, rounds=len(rounds))
        root.finish()
        collector.flush()
        raise
