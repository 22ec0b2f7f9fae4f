"""CLI tests (direct main() invocation; no subprocesses)."""

import json

import pytest

from repro.cli import main
from repro.generators.paper_examples import fig3_channel, fig3_connections
from repro.io.text_format import dump_instance, load_instance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "fig3.sch"
    dump_instance(path, fig3_channel(), fig3_connections())
    return str(path)


class TestRoute:
    def test_text_output(self, instance_file, capsys):
        assert main(["route", instance_file, "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "routing of 5 connections" in out

    def test_csv_output(self, instance_file, capsys):
        assert main(["route", instance_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,left,right,track,segments_used")

    def test_json_output(self, instance_file, capsys):
        assert main(["route", instance_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channel"]["n_tracks"] == 3

    def test_unreadable_instance_is_one_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.sch")
        assert main(["route", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read instance: ")
        assert missing in err and len(err.splitlines()) == 1

    def test_weighted(self, instance_file, capsys):
        assert (
            main(["route", instance_file, "--k", "1", "--weight", "length"])
            == 0
        )
        assert "total weight" in capsys.readouterr().out

    def test_explicit_algorithm(self, instance_file, capsys):
        assert main(["route", instance_file, "--algorithm", "dp"]) == 0

    def test_infeasible_is_error_exit(self, tmp_path, capsys):
        from repro.core.channel import channel_from_breaks
        from repro.core.connection import ConnectionSet

        path = tmp_path / "bad.sch"
        dump_instance(
            path,
            channel_from_breaks(6, [()]),
            ConnectionSet.from_spans([(1, 3), (2, 5)]),
        )
        assert main(["route", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_solver_crash_is_one_error_line(
        self, tmp_path, capsys, deep_exact_instance
    ):
        path = tmp_path / "deep.sch"
        dump_instance(path, *deep_exact_instance)
        assert main(["route", str(path), "--algorithm", "exact"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RecursionError: ")
        assert err.count("\n") == 1


class TestRouteEngineFlags:
    def test_route_with_timeout(self, instance_file, capsys):
        assert main(["route", instance_file, "--k", "1", "--timeout", "30"]) == 0
        assert "routing of 5 connections" in capsys.readouterr().out

    def test_route_has_no_jobs_flag(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["route", instance_file, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_route_stats_flag(self, instance_file, capsys):
        assert main(["route", instance_file, "--k", "1", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "latency" in out


class TestBatch:
    def test_batch_paths(self, instance_file, tmp_path, capsys):
        other = tmp_path / "other.sch"
        dump_instance(other, fig3_channel(), fig3_connections())
        assert main(["batch", instance_file, str(other)]) == 0
        out = capsys.readouterr().out
        assert "2/2 routed" in out
        assert "hit" in out  # identical geometry: second is a cache hit

    def test_batch_stats(self, instance_file, capsys):
        assert main(["batch", instance_file, instance_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "cache.hits" in out
        assert "latency" in out

    def test_batch_json(self, instance_file, capsys):
        assert main(["batch", instance_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["ok"] is True
        assert payload["results"][0]["assignment"]

    def test_batch_manifest(self, instance_file, tmp_path, capsys):
        manifest = tmp_path / "batch.jsonl"
        manifest.write_text(
            json.dumps({"path": instance_file, "k": 1}) + "\n"
            + "# comment line\n"
            + json.dumps({"instance": "@fig3"}) + "\n"
        )
        assert main(["batch", "--manifest", str(manifest)]) == 0
        assert "2/2 routed" in capsys.readouterr().out

    def test_batch_registry_instances(self, capsys):
        assert main(["batch", "@fig3", "--k", "1"]) == 0
        assert "1/1 routed" in capsys.readouterr().out

    def test_batch_infeasible_exits_nonzero(self, instance_file, tmp_path, capsys):
        from repro.core.channel import channel_from_breaks
        from repro.core.connection import ConnectionSet

        bad = tmp_path / "bad.sch"
        dump_instance(
            bad,
            channel_from_breaks(6, [()]),
            ConnectionSet.from_spans([(1, 3), (2, 5)]),
        )
        assert main(["batch", instance_file, str(bad)]) == 1
        out = capsys.readouterr().out
        assert "1/2 routed" in out
        assert "RoutingInfeasibleError" in out

    def test_batch_without_inputs_is_error(self, capsys):
        assert main(["batch"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_negative_jobs_is_error(self, instance_file, capsys):
        assert main(["batch", instance_file, "--jobs", "-3"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_batch_has_no_watchdog_flag(self, instance_file, capsys):
        # A solve is bounded by its --timeout alone.
        with pytest.raises(SystemExit) as exc:
            main(["batch", instance_file, "--watchdog", "5"])
        assert exc.value.code == 2
        assert "--watchdog" in capsys.readouterr().err

    def test_worker_faults_need_a_pool(self, instance_file, capsys):
        assert main(["batch", instance_file, "--jobs", "1",
                     "--inject-faults", "garbage=0.2,seed=1"]) == 1
        assert capsys.readouterr().err == (
            "error: fault plan sets pool-worker faults (garbage), but "
            "every solve here runs in process\n"
        )
        # One instance never reaches a pool, whatever --jobs says.
        assert main(["batch", instance_file, "--jobs", "2",
                     "--inject-faults", "garbage=0.2,seed=1"]) == 1
        assert "runs in process" in capsys.readouterr().err
        assert main(["batch", instance_file, "@example1-q", "--jobs", "2",
                     "--inject-faults", "garbage=0.2,seed=1"]) == 0

    def test_batch_unreadable_instance_is_one_error_line(
        self, instance_file, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.sch")
        assert main(["batch", instance_file, missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read instance: ")
        assert missing in err and len(err.splitlines()) == 1

    def test_batch_bad_manifest_line(self, tmp_path, capsys):
        manifest = tmp_path / "bad.jsonl"
        manifest.write_text("{not json}\n")
        assert main(["batch", "--manifest", str(manifest)]) == 1
        assert "manifest" in capsys.readouterr().err


class TestBatchResume:
    def test_resume_missing_journal_is_typed_error(self, instance_file, tmp_path, capsys):
        journal = tmp_path / "never_written.jsonl"
        code = main([
            "batch", instance_file,
            "--checkpoint", str(journal), "--resume",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot resume" in err
        assert "does not exist" in err
        assert str(journal) in err
        assert "Traceback" not in err

    def test_resume_empty_journal_is_typed_error(self, instance_file, tmp_path, capsys):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        code = main([
            "batch", instance_file,
            "--checkpoint", str(journal), "--resume",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot resume" in err
        assert "no records" in err
        assert str(journal) in err
        assert "Traceback" not in err

    def test_resume_with_records_still_works(self, instance_file, tmp_path, capsys):
        journal = str(tmp_path / "ck.jsonl")
        assert main(["batch", instance_file, "--checkpoint", journal]) == 0
        capsys.readouterr()
        assert main([
            "batch", instance_file, "--checkpoint", journal, "--resume",
        ]) == 0
        assert "1/1 routed" in capsys.readouterr().out


class TestObservabilityCLI:
    def test_batch_trace_and_metrics_out(self, instance_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        stats = tmp_path / "stats.json"
        assert main([
            "batch", instance_file, instance_file,
            "--trace", str(trace), "--metrics-out", str(stats),
        ]) == 0
        from repro.obs.report import build_traces, load_spans

        traces = build_traces(load_spans(str(trace)))
        assert len(traces) == 2
        snap = json.loads(stats.read_text())
        assert snap["counters"]["requests"] == 2
        # trace IDs surface in the batch JSON report
        capsys.readouterr()
        assert main([
            "batch", instance_file, "--format", "json",
            "--trace", str(tmp_path / "t2.jsonl"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["trace_id"]

    def test_route_trace_flag(self, instance_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "route", instance_file, "--k", "1", "--trace", str(trace),
        ]) == 0
        from repro.obs.report import build_traces, load_spans

        (t,) = build_traces(load_spans(str(trace))).values()
        assert t.root["name"] == "request"

    def test_stats_subcommand_renders_snapshot(self, instance_file, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert main([
            "batch", instance_file, "--metrics-out", str(stats),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out and "requests" in out
        assert main(["stats", str(stats), "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "segroute_requests_total 1" in prom
        assert "# TYPE segroute_latency_seconds summary" in prom
        assert main(["stats", str(stats), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["counters"]["requests"] == 1

    def test_stats_rejects_non_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["stats", str(bad)]) == 1
        assert "not a metrics snapshot" in capsys.readouterr().err


class TestRender:
    def test_render(self, instance_file, capsys):
        assert main(["render", instance_file]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "o" in out

    def test_render_routed(self, instance_file, capsys):
        assert main(["render", instance_file, "--routed", "--k", "1"]) == 0
        assert "==" in capsys.readouterr().out


class TestGenerate:
    def test_generate_round_trips(self, tmp_path, capsys):
        out = tmp_path / "gen.sch"
        code = main(
            [
                "generate", "--tracks", "4", "--columns", "30",
                "--connections", "8", "--seed", "3", "-o", str(out),
            ]
        )
        assert code == 0
        channel, conns = load_instance(out)
        assert channel.n_tracks == 4
        assert len(conns) == 8
        # Generated instances are feasible: route them via the CLI too.
        assert main(["route", str(out)]) == 0


class TestReduce:
    def test_reduce_theorem1(self, tmp_path, capsys):
        out = tmp_path / "q.sch"
        code = main(
            [
                "reduce", "--x", "2,5,8", "--y", "9,11,12",
                "--z", "11,17,19", "-o", str(out),
            ]
        )
        assert code == 0
        channel, conns = load_instance(out)
        assert channel.n_tracks == 9
        assert len(conns) == 30

    def test_reduce_theorem2(self, tmp_path, capsys):
        out = tmp_path / "q2.sch"
        code = main(
            [
                "reduce", "--x", "2,5,8", "--y", "9,11,12",
                "--z", "11,17,19", "--two-segment", "-o", str(out),
            ]
        )
        assert code == 0
        channel, conns = load_instance(out)
        assert channel.n_tracks == 15

    def test_bad_integers(self, tmp_path, capsys):
        code = main(
            ["reduce", "--x", "a,b", "--y", "1", "--z", "1", "-o",
             str(tmp_path / "x.sch")]
        )
        assert code == 1


class TestRegistryIntegration:
    def test_route_registry_instance(self, capsys):
        assert main(["route", "@fig3", "--k", "1"]) == 0
        assert "routing of 5 connections" in capsys.readouterr().out

    def test_render_registry_instance(self, capsys):
        assert main(["render", "@fig4"]) == 0
        assert "t3" in capsys.readouterr().out

    def test_route_reduction_instance(self, capsys):
        assert main(["route", "@example1-q", "--algorithm", "exact"]) == 0
        assert "30 connections" in capsys.readouterr().out

    def test_unknown_registry_name(self, capsys):
        assert main(["route", "@nothere"]) == 1
        assert "known" in capsys.readouterr().err


class TestChip:
    def test_chip_flow(self, tmp_path, capsys):
        from repro.fpga.netlist import random_netlist
        from repro.io.netlist_format import dump_netlist

        nl = random_netlist(12, 3, seed=5)
        path = tmp_path / "design.net"
        dump_netlist(path, nl)
        code = main(
            [
                "chip", str(path), "--rows", "3", "--cells-per-row", "4",
                "--inputs", "3", "--timing",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "design closure" in out
        assert "critical path" in out


class TestGeneralizedCLI:
    def test_generalized_route(self, capsys):
        assert main(["route", "@fig4", "--generalized"]) == 0
        out = capsys.readouterr().out
        assert "track changes:" in out
        assert "programmed switches:" in out

    def test_generalized_min_switches(self, capsys):
        assert main(
            ["route", "@fig4", "--generalized", "--min-switches"]
        ) == 0
        out = capsys.readouterr().out
        assert "programmed switches: 16" in out

    def test_generalized_infeasible(self, tmp_path, capsys):
        from repro.core.channel import channel_from_breaks
        from repro.core.connection import ConnectionSet
        from repro.io.text_format import dump_instance

        path = tmp_path / "bad.sch"
        dump_instance(
            path,
            channel_from_breaks(6, [()]),
            ConnectionSet.from_spans([(1, 3), (2, 5)]),
        )
        assert main(["route", str(path), "--generalized"]) == 1


class TestMoreCoverage:
    def test_weight_segments(self, instance_file, capsys):
        assert (
            main(["route", instance_file, "--weight", "segments"]) == 0
        )
        assert "total weight" in capsys.readouterr().out

    def test_render_random_registry(self, capsys):
        assert main(["render", "@random-T4-M6-s2", "--routed"]) == 0
        assert "==" in capsys.readouterr().out

    def test_q2_registry_renders(self, capsys):
        # Exact routing of Q2(n=3) is expensive (Theorem 2 is the point);
        # the registry instance still loads and renders.
        assert main(["render", "@example1-q2"]) == 0
        out = capsys.readouterr().out
        assert "t15" in out


class TestBench:
    def test_bench_quick_check(self, tmp_path, capsys):
        out_path = str(tmp_path / "BENCH_kernels.json")
        assert main([
            "bench", "--quick", "--check", "--repeats", "1", "-o", out_path,
        ]) == 0
        with open(out_path) as fh:
            report = json.load(fh)
        assert report["schema"] == "kernel-bench/3"
        assert report["batches"]
        for batch in report["batches"]:
            assert batch["results_identical"] is True
            assert batch["dp_nodes_pruned"] >= 0
        out = capsys.readouterr().out
        assert "check passed" in out

    def test_bench_bad_repeats(self, tmp_path, capsys):
        assert main([
            "bench", "--quick", "--repeats", "0",
            "-o", str(tmp_path / "b.json"),
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_serve_has_no_jobs_flag(self, capsys):
        # Servers route in process; `--jobs` must not be read as a
        # prefix of `--jobs-dir` either.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_serve_has_no_hedge_flag(self, capsys):
        # The router keeps one attempt in flight per request.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--hedge-ms", "50"])
        assert exc.value.code == 2
        assert "--hedge-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--max-wait-ms", "5"),
        ("--max-batch", "8"),
    ])
    def test_serve_has_no_batch_window_flags(self, flag, value, capsys):
        # The batcher takes whatever queued while it was busy: its
        # window has no timer and no size setting.
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--drain-grace", "-1"], "drain_grace must be >= 0"),
        (["--job-deadline", "0"], "default_deadline_s must be positive"),
        (["--max-queue", "0"], "max_queue must be >= 1"),
        (["--replicas", "2", "--drain-grace", "-1"],
         "drain_grace must be >= 0"),
    ], ids=[
        "drain-grace", "job-deadline", "max-queue", "replicas-drain-grace",
    ])
    def test_rejected_setting_is_one_error_line(self, flags, message, capsys):
        code = main(["serve", "--port", "0", "--http-port", "0", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_replica_rejected_setting_is_one_error_line(self, capsys):
        # The replica checks --rate itself; the parent reports its reason.
        code = main(["serve", "--port", "0", "--http-port", "0",
                     "--replicas", "1", "--rate", "-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: replica 0 exited during startup" in err
        assert "rate must be positive" in err
        assert "Traceback" not in err

    def test_replicas_get_the_admission_settings(self, monkeypatch):
        import repro.serve.replica
        from repro.serve.router import RoutingRouter

        calls = []

        class RecordingReplicaSet:
            def __init__(self, n_replicas, config):
                self.n_replicas = n_replicas
                calls.append(config)

        async def run(self):
            return None

        monkeypatch.setattr(
            repro.serve.replica, "ReplicaSet", RecordingReplicaSet
        )
        monkeypatch.setattr(RoutingRouter, "run", run)
        assert main(["serve", "--replicas", "2", "--rate", "5",
                     "--burst", "3", "--max-queue", "7",
                     "--jobs-dir", "jobs", "--job-deadline", "60",
                     "--max-active-jobs", "2",
                     "--max-queued-jobs", "4"]) == 0
        assert len(calls) == 1
        config = calls[0]
        assert (config.rate, config.burst, config.max_queue) == (5.0, 3.0, 7)
        # The chip-job settings reach the replicas too.
        assert config.jobs_dir == "jobs"
        assert config.job_deadline_s == 60.0
        assert (config.max_active_jobs, config.max_queued_jobs) == (2, 4)

    @pytest.mark.parametrize("flags, keys", [
        (["--inject-faults", "crash=0.5"], "crash"),
        (["--replicas", "3", "--inject-faults", "crash=0.5,hang=0.1"],
         "crash, hang"),
    ], ids=["single", "replicas"])
    def test_worker_faults_are_refused(self, flags, keys, capsys):
        # A server never forks solvers, so a worker fault would never fire.
        code = main(["serve", "--port", "0", "--http-port", "0", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            f"error: fault plan sets pool-worker faults ({keys}), but "
            f"every solve here runs in process\n"
        )

    def test_env_fault_plan_is_checked_too(self, monkeypatch, capsys):
        monkeypatch.setenv("ENGINE_FAULT_PLAN", "garbage=0.1,seed=2")
        assert main(["serve", "--port", "0", "--http-port", "0"]) == 1
        assert "pool-worker faults (garbage)" in capsys.readouterr().err

    def test_engine_side_and_serve_faults_are_accepted(self, monkeypatch):
        import repro.serve

        configs = []

        class RecordingServer:
            def __init__(self, config, trace_sink=None):
                configs.append(config)

            async def run(self):
                return None

        monkeypatch.setattr(repro.serve, "RoutingServer", RecordingServer)
        assert main(["serve", "--inject-faults",
                     "kill_after_checkpoints=2,conn_drop=0.1,seed=3"]) == 0
        plan = configs[0].fault_plan
        assert (plan.kill_after_checkpoints, plan.conn_drop) == (2, 0.1)
