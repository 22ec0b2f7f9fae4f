"""Observability layer: span schema, collectors, sinks, end-to-end traces.

The round-trip tests drive real engine batches (worker pool, deadline
children, portfolio races) through a trace sink and assert that every
span written parses against the schema, that parent/child IDs link into
one connected tree per request, and that worker-side spans show up in
the parent's trace.
"""

import json

import pytest

from repro.engine import EngineConfig, RoutingEngine
from repro.generators.random_instances import (
    random_channel,
    random_feasible_instance,
)
from repro.obs.report import (
    TraceError,
    build_traces,
    load_spans,
    render_summary,
    summarize,
)
from repro.obs.trace import (
    SPAN_FIELDS,
    SPAN_VERSION,
    JsonlTraceSink,
    ListTraceSink,
    SpanCollector,
    completed_span,
    derive_trace_id,
)


def _instances(n, tracks=4, columns=24, conns=6, seed0=0):
    out = []
    for i in range(n):
        ch = random_channel(tracks, columns, 4.0, seed=seed0 + i)
        out.append(
            (ch, random_feasible_instance(ch, conns, seed=100 + seed0 + i))
        )
    return out


class TestSpanPrimitives:
    def test_completed_span_has_all_fields(self):
        span = completed_span("t", "p0", "", "request", 1.0, 0.5, ok=True)
        assert tuple(span) == SPAN_FIELDS
        assert span["v"] == SPAN_VERSION
        assert span["attrs"] == {"ok": True}

    def test_derive_trace_id_reproducible(self):
        assert derive_trace_id(7, "0:1:key") == derive_trace_id(7, "0:1:key")
        assert derive_trace_id(7, "0:1:key") != derive_trace_id(7, "0:2:key")
        assert len(derive_trace_id(7, "x")) == 16

    def test_collector_span_ids_use_prefix(self):
        col = SpanCollector("t", "w3:")
        a = col.start("task")
        b = col.start("attempt", parent_id=a.span_id)
        b.finish()
        a.finish()
        ids = [s["span_id"] for s in col.drain()]
        assert ids == ["w3:1", "w3:0"]  # children finish first

    def test_span_context_records_error_type(self):
        col = SpanCollector("t")
        with pytest.raises(RuntimeError):
            with col.span("solve"):
                raise RuntimeError("boom")
        (span,) = col.drain()
        assert span["attrs"]["error"] == "RuntimeError"

    def test_finish_is_idempotent(self):
        col = SpanCollector("t")
        span = col.start("x")
        span.finish()
        span.finish()
        assert len(col.drain()) == 1

    def test_adopt_merges_foreign_spans(self):
        parent = SpanCollector("t", "p")
        child = SpanCollector("t", "w1:")
        child.start("task").finish()
        parent.adopt(child.drain())
        parent.start("request").finish()
        ids = {s["span_id"] for s in parent.drain()}
        assert ids == {"w1:0", "p0"}


class TestSinks:
    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.write(completed_span("t", "p0", "", "request", 1.0))
        spans = load_spans(path)
        assert len(spans) == 1 and spans[0]["span_id"] == "p0"

    def test_jsonl_sink_rejects_writes_after_close(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError):
            sink.write(completed_span("t", "p0", "", "request", 1.0))

    def test_list_sink_collects(self):
        sink = ListTraceSink()
        sink.write_all([completed_span("t", "p0", "", "request", 1.0)])
        assert len(sink.spans) == 1


class TestEndToEndTrace:
    """Batches through the real engine produce valid connected traces."""

    def test_batch_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlTraceSink(path)
        engine = RoutingEngine(EngineConfig(jobs=2), trace_sink=sink)
        instances = _instances(5)
        results = engine.route_many(instances, timeout=30.0)
        sink.close()

        assert all(r.ok for r in results)
        spans = load_spans(path)  # every line parses against the schema
        traces = build_traces(spans)  # IDs unique, parents resolve, 1 root
        assert len(traces) == len(instances)
        assert {r.trace_id for r in results} == set(traces)
        for trace in traces.values():
            names = trace.names()
            assert "request" in names
            assert "cache.lookup" in names
            # Worker-side spans crossed the process boundary into the
            # parent's trace.
            assert any(
                s["span_id"].startswith("w") for s in trace.spans
            ), sorted(names)
            assert "task" in names
            # Each attempt's in-process solve span came back with the task.
            assert "solve" in names

    def test_cache_hit_trace_replays(self):
        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
        (inst,) = _instances(1)
        engine.route(*inst)
        engine.route(*inst)
        traces = build_traces(sink.spans)
        hits = [
            t for t in traces.values()
            if t.root["attrs"].get("cache") == "hit"
        ]
        assert len(hits) == 1
        assert "cache.replay" in hits[0].names()

    def test_portfolio_race_spans(self):
        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=2), trace_sink=sink)
        (inst,) = _instances(1)
        engine.route(*inst, portfolio=True)
        (trace,) = build_traces(sink.spans).values()
        names = trace.names()
        assert "race" in names
        assert "candidate" in names
        assert any(s["span_id"].startswith("c:") for s in trace.spans)

    def test_kernel_spans_for_dp(self):
        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
        (inst,) = _instances(1)
        engine.route(*inst, algorithm="dp", timeout=30.0)
        (trace,) = build_traces(sink.spans).values()
        kernel = [s for s in trace.spans if s["name"] == "kernel.dp"]
        assert kernel, sorted(trace.names())
        assert kernel[0]["attrs"]["kernel"] in ("packed", "reference")
        assert kernel[0]["attrs"]["nodes"] > 0

    def test_trace_ids_reproducible_across_runs(self):
        def run():
            sink = ListTraceSink()
            engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
            engine.route_many(_instances(3))
            return sorted(build_traces(sink.spans))

        assert run() == run()

    def test_no_sink_means_no_trace_ids(self):
        engine = RoutingEngine(EngineConfig(jobs=1))
        results = engine.route_many(_instances(2))
        assert all(r.trace_id == "" for r in results)

    def test_failed_request_traced(self):
        from repro.core.channel import channel_from_breaks
        from repro.core.connection import ConnectionSet

        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
        ch = channel_from_breaks(6, [()])
        conns = ConnectionSet.from_spans([(1, 3), (2, 5)])  # infeasible
        (result,) = engine.route_many([(ch, conns)])
        assert not result.ok
        (trace,) = build_traces(sink.spans).values()
        root = trace.root
        assert root["attrs"]["ok"] is False
        assert root["attrs"]["error"] == "RoutingInfeasibleError"


class TestReport:
    def test_summarize_rates_and_phases(self):
        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
        (inst,) = _instances(1)
        engine.route(*inst)
        engine.route(*inst)  # cache hit
        summary = summarize(build_traces(sink.spans))
        assert summary["requests"] == 2
        assert summary["rates"]["cache_hit"] == 0.5
        assert summary["phases"]["request"]["count"] == 2
        assert len(summary["slowest"]) == 2
        text = render_summary(summary)
        assert "cache_hit=50.0%" in text

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError, match="line 1"):
            load_spans(str(path))

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"v": 1, "trace_id": "t"}) + "\n")
        with pytest.raises(TraceError, match="missing fields"):
            load_spans(str(path))

    def test_build_rejects_orphan_parent(self):
        spans = [
            completed_span("t", "p0", "", "request", 1.0),
            completed_span("t", "p1", "nope", "task", 1.0),
        ]
        with pytest.raises(TraceError, match="unknown parent"):
            build_traces(spans)

    def test_build_rejects_rootless_trace(self):
        spans = [completed_span("t", "p1", "p0", "task", 1.0)]
        with pytest.raises(TraceError, match="root"):
            build_traces(spans)
