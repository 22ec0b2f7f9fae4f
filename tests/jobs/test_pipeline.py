"""Chip-pipeline unit tests: spec validation, determinism, resume."""

import os

import pytest

from repro.core.errors import CheckpointError, FormatError
from repro.engine import EngineConfig, RoutingEngine
from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.congestion import route_chip_negotiated
from repro.fpga.detail_route import chip_digest
from repro.fpga.netlist import random_netlist
from repro.io.netlist_format import dumps_netlist, loads_netlist
from repro.jobs import (
    ChipSpec,
    PipelineAbort,
    build_chip_instance,
    run_chip_pipeline,
)


def _spec(**overrides):
    fields = dict(
        netlist_text=dumps_netlist(random_netlist(14, 3, seed=23)),
        rows=3, cells_per_row=6, tracks=5, seg_types=2, seed=23,
    )
    fields.update(overrides)
    return ChipSpec(**fields)


@pytest.fixture(scope="module")
def engine():
    eng = RoutingEngine(EngineConfig(jobs=1))
    yield eng
    eng.close()


class TestChipSpec:
    def test_payload_round_trip(self):
        spec = _spec()
        assert ChipSpec.from_payload(spec.to_payload()) == spec

    def test_rejects_unknown_payload_fields(self):
        payload = _spec().to_payload()
        payload["wat"] = 1
        with pytest.raises(FormatError):
            ChipSpec.from_payload(payload)

    def test_rejects_missing_payload_fields(self):
        payload = _spec().to_payload()
        del payload["rows"]
        with pytest.raises(FormatError):
            ChipSpec.from_payload(payload)

    def test_validates_field_values(self):
        with pytest.raises(FormatError):
            _spec(rows=0)
        with pytest.raises(FormatError):
            _spec(channel_kind="diagonal")
        with pytest.raises(FormatError):
            _spec(max_rounds=-1)
        with pytest.raises(FormatError):
            _spec(netlist_text="this is not a netlist {")

    @pytest.mark.parametrize("field,value", [
        ("algorithm", "bogus"),
        ("seg_ratio", "x"),
        ("seg_ratio", True),
        ("seg_ratio", None),
        ("seg_ratio", float("nan")),
        ("seg_ratio", 1.0),
        ("seg_ratio", 0),
        ("rows", True),
        ("inputs", True),
        ("seg_types", True),
        ("max_segments", True),
        ("max_rounds", True),
        ("seed", False),
    ])
    def test_rejects_malformed_fields_from_payload(self, field, value):
        payload = _spec().to_payload()
        payload[field] = value
        with pytest.raises(FormatError, match=field):
            ChipSpec.from_payload(payload)

    def test_seg_ratio_bound_is_geometric_only(self):
        assert _spec(channel_kind="uniform", seg_ratio=1).seg_ratio == 1
        assert _spec(seg_ratio=3).seg_ratio == 3

    def test_build_chip_instance_deterministic(self):
        spec = _spec()
        arch1, nl1, pl1 = build_chip_instance(spec)
        arch2, nl2, pl2 = build_chip_instance(spec)
        assert isinstance(arch1, FPGAArchitecture)
        assert nl1.nets == nl2.nets
        assert pl1.sites == pl2.sites
        assert loads_netlist(spec.netlist_text).nets == nl1.nets


class TestRunChipPipeline:
    def test_matches_route_chip_negotiated(self):
        spec = _spec()
        result = run_chip_pipeline(spec)
        arch, nl, pl = build_chip_instance(spec)
        offline = route_chip_negotiated(
            arch, nl, pl, max_segments=spec.max_segments,
            max_rounds=spec.max_rounds,
        )
        assert result.ok == offline.ok
        assert result.digest == chip_digest(offline)
        # Per-round digests cover the negotiation trajectory: the last
        # report is the returned chip for a converged run.
        assert result.rounds[-1].digest == result.digest
        assert result.rounds[0].ok is False  # infeasible-first corpus

    def test_engine_path_digest_identical(self, engine):
        spec = _spec()
        serial = run_chip_pipeline(spec)
        engined = run_chip_pipeline(spec, engine=engine)
        assert engined.digest == serial.digest
        assert [r.digest for r in engined.rounds] == [
            r.digest for r in serial.rounds
        ]

    def test_state_dir_requires_engine(self, tmp_path):
        with pytest.raises(ValueError):
            run_chip_pipeline(_spec(), state_dir=str(tmp_path))

    def test_journal_resume_digest_identical(self, engine, tmp_path):
        spec = _spec()
        state = str(tmp_path / "job")
        first = run_chip_pipeline(spec, engine=engine, state_dir=state)
        assert first.resumed_records == 0
        assert os.path.exists(os.path.join(state, "rounds.jsonl"))
        # Rerun over the same state dir: every per-channel solve is
        # replayed from its round journal, bit-identically.
        second = run_chip_pipeline(spec, engine=engine, state_dir=state)
        assert second.digest == first.digest
        assert second.resumed_records == sum(
            r.n_solved for r in first.rounds
        )

    def test_resume_rejects_diverged_journal(self, engine, tmp_path):
        spec = _spec()
        state = str(tmp_path / "job")
        run_chip_pipeline(spec, engine=engine, state_dir=state)
        # A different spec against the same journals is a corruption
        # hazard, not a resume: the round-digest cross-check trips.
        other = _spec(seed=24)
        with pytest.raises(CheckpointError):
            run_chip_pipeline(other, engine=engine, state_dir=state)

    def test_abort_check_raises(self):
        calls = []

        def check_abort():
            calls.append(True)
            if len(calls) > 1:
                return PipelineAbort("test abort", "deadline")
            return None

        with pytest.raises(PipelineAbort) as excinfo:
            run_chip_pipeline(_spec(), check_abort=check_abort)
        assert excinfo.value.reason == "test abort"
        assert excinfo.value.kind == "deadline"

    def test_on_round_reports(self):
        reports = []
        result = run_chip_pipeline(_spec(), on_round=reports.append)
        assert [r.round_index for r in reports] == list(
            range(len(result.rounds))
        )
        payload = reports[0].to_payload()
        assert payload["digest"] == reports[0].digest
        assert payload["round"] == 0


#: The first benchmark chips (``perfbench/common.py``'s chip pool) and
#: the ``(ok, rounds, digest)`` that ``perfbench/expected.json`` records
#: for each.
BENCHMARK_CHIPS = {
    200: (False, 2,
          "221f4da32ed2a8fa131c183c0dd4bea2ed8e0b0b16210cf592befa26eff6f59b"),
    201: (True, 1,
          "4013b053328b3c771d8311d9194860f7a9d06cfbd86508d5e6ac824eb0905456"),
    202: (True, 1,
          "dbe9f6f961680f97a010b8d22e4397f57fb93e117483f8d8c328457335585608"),
    203: (True, 1,
          "469c3dd670a50e68417339669f7cef540b5a14da3eafebba89a6264463112dce"),
}


@pytest.mark.parametrize("seed", sorted(BENCHMARK_CHIPS))
def test_benchmark_chip_digests(seed):
    spec = ChipSpec(
        netlist_text=dumps_netlist(random_netlist(40, 3, seed=seed)),
        rows=3, cells_per_row=20, tracks=10, seg_types=2, max_segments=5,
        seed=seed,
    )
    result = run_chip_pipeline(spec)
    assert (result.ok, len(result.rounds), result.digest) == BENCHMARK_CHIPS[seed]
