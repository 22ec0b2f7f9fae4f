"""Observability layer: span schema, collectors, sinks, end-to-end traces.

The round-trip tests drive real engine batches (worker pool, deadlines,
single-request routing) through a trace sink and assert that every
span written parses against the schema, that parent/child IDs link into
one connected tree per request, and that worker-side spans show up in
the parent's trace.
"""

import json

import pytest

from repro.engine import EngineConfig, RoutingEngine
from repro.io.results import result_stream_digest
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
    NO_TRACE,
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

    def test_inert_collector_records_nothing(self):
        sink = ListTraceSink()
        col = SpanCollector("", "p", sink)
        span = col.start("request", ok=True)
        assert span is col.start("task") is NO_TRACE.start("x")
        assert span.span_id == ""
        span.set(ok=False)
        span.finish()
        with pytest.raises(RuntimeError):
            with col.span("solve"):
                raise RuntimeError("boom")
        assert col.emit("kernel.dp", "", 1.0, 0.5) == ""
        col.adopt([completed_span("t", "w1:0", "", "task", 1.0)])
        assert col.drain() == []
        col.flush()
        assert sink.spans == []

    def test_flush_writes_to_the_sink(self):
        sink = ListTraceSink()
        col = SpanCollector("t", "p", sink)
        col.start("request").finish()
        col.flush()
        col.flush()  # nothing left to write
        assert [s["span_id"] for s in sink.spans] == ["p0"]

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

    def test_kernel_spans_for_dp(self):
        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
        (inst,) = _instances(1)
        engine.route(*inst, algorithm="dp", timeout=30.0)
        (trace,) = build_traces(sink.spans).values()
        kernel = [s for s in trace.spans if s["name"] == "kernel.dp"]
        assert kernel, sorted(trace.names())
        assert kernel[0]["attrs"]["kernel"] == "vectorized"
        assert kernel[0]["attrs"]["nodes"] > 0

    def test_trace_ids_reproducible_across_runs(self):
        def run():
            sink = ListTraceSink()
            engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
            engine.route_many(_instances(3))
            return sorted(build_traces(sink.spans))

        assert run() == run()

    def test_traced_and_untraced_engines_agree(self):
        """A sink changes neither counters nor answers: misses (with an
        intra-batch duplicate), repeats, then fast-path probes."""
        instances = _instances(4)

        def run(sink):
            engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
            digests = [
                result_stream_digest(engine.route_many(batch))
                for batch in (instances + instances[:1], instances)
            ]
            probes = [engine.route_cached(*inst) for inst in instances]
            assert all(p is not None and p.ok for p in probes)
            digests.append(result_stream_digest(probes))
            return engine.stats()["counters"], digests

        sink = ListTraceSink()
        assert run(sink) == run(None)
        assert len(build_traces(sink.spans)) == 5 + 4 + 4

    def test_route_cached_traces_hits_only(self):
        sink = ListTraceSink()
        engine = RoutingEngine(EngineConfig(jobs=1), trace_sink=sink)
        first, second = _instances(2)
        engine.route(*first)
        written = len(sink.spans)
        assert engine.route_cached(*second) is None
        assert len(sink.spans) == written  # a miss emits nothing
        hit = engine.route_cached(*first, trace_parent=("feed", "sv0"))
        (trace,) = build_traces(
            [completed_span("feed", "sv0", "", "serve.request", 1.0)]
            + sink.spans[written:]
        ).values()
        trace.validate()
        (request,) = [s for s in trace.spans if s["name"] == "request"]
        assert request["parent_id"] == "sv0"
        assert request["attrs"]["cache"] == "hit"
        assert hit.trace_id == "feed"
        assert sorted(
            s["name"] for s in trace.spans
            if s["parent_id"] == request["span_id"]
        ) == ["cache.lookup", "cache.replay"]

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
