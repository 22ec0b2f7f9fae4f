"""The repository benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the repository root.

Workloads (see ``README.md`` for why each was chosen):

* ``serve_cold``    — open loop of distinct, never-cached instances;
* ``serve_hot_mix`` — open loop, 95% skewed hot-set repeats, 5% fresh,
  over one v2 and one v1 connection;
* ``batch_deadline`` — ``route_many`` with ``jobs = nproc`` and a
  generous deadline (fork-per-attempt path);
* ``chip_jobs``     — closed loop of chip-routing jobs.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs the workload twice for half the time each,
untraced then under the timing wrappers, and reports the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it carries the provenance header and every metric's sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common

SETUPS = 5            # server/child launches per run; setup_s is their median
LAG_BOUND_MS = 25.0   # open-loop generator lag p95 above this voids a run



def _measure(workload: str, seed: int, seconds: float, workdir: str,
             setups: int, spans: str = "") -> dict:
    if workload in ("serve_cold", "serve_hot_mix"):
        import serve_load

        return serve_load.measure(workload, seed, seconds, workdir, setups,
                                  spans)
    if workload == "batch_deadline":
        import batch_load

        return batch_load.measure(seed, seconds, workdir, setups, spans)
    import chip_load

    return chip_load.measure(seed, seconds, workdir, setups, spans)


def _verdict(phase: dict) -> list:
    """Reasons the phase is not a correct, valid run (empty if it is)."""
    problems = []
    if phase["mismatches"]:
        problems.append(f"{phase['mismatches']} answers differ from "
                        "the offline engine")
    if not phase["digest_ok"]:
        problems.append("result digest differs from the offline engine")
    if not phase["consistent"]:
        problems.append("repeats of one instance answered differently")
    lag = common.quantile(phase["lags_ms"], 0.95)
    if lag > LAG_BOUND_MS:
        problems.append(f"invalid run: generator lag p95 {lag:.1f}ms "
                        f"exceeds {LAG_BOUND_MS}ms")
    if not phase["latencies_ms"]:
        problems.append("no operation completed")
    return problems


def _end_to_end(phase: dict) -> dict:
    latencies = phase["latencies_ms"]
    values = {
        "setup_s": common.median(phase["setup_s"]),
        "latency_p50_ms": common.median(latencies),
        "latency_tail_ms": common.quantile(latencies, phase["tail_q"]),
        "solves_per_s": phase["solves"] / phase["wall_s"],
        "peak_rss_mb": phase["rss_mb"],
    }
    counts = {
        "setup_s": len(phase["setup_s"]),
        "latency_p50_ms": len(latencies),
        "latency_tail_ms": len(latencies),
        "solves_per_s": phase["solves"],
        "peak_rss_mb": 1,
    }
    detail = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                    "n": counts[m["name"]]}
        for m in common.benchmark()["end_to_end"]
    }
    detail["latency_tail_ms"]["percentile"] = round(phase["tail_q"] * 100)
    return detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        "serve_cold", "serve_hot_mix", "batch_deadline", "chip_jobs",
    ])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"error: no program to measure at {common.SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.use_src()
    os.makedirs(common.WORK_ROOT, exist_ok=True)
    workdir = common.work_dir(args.workload)
    try:
        if args.trace:
            result = _traced(args, workdir)
        else:
            phase = _measure(args.workload, args.seed, args.seconds, workdir,
                             SETUPS)
            detail = _end_to_end(phase)
            result = _result(phase, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(common.WORK_ROOT)
        except OSError:
            pass
    detail_line = {
        "header": common.header(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "problems": result.pop("problems"),
        "detail": result.pop("detail"),
    }
    print(json.dumps(detail_line, sort_keys=True))
    print(json.dumps(result))
    return 0


def _result(phase: dict, detail: dict, problems=()) -> dict:
    problems = list(problems) + _verdict(phase)
    return {
        "correct": not problems,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in detail.items()
        },
        "problems": problems,
        "detail": detail,
    }


def _traced(args, workdir: str) -> dict:
    import layers
    import tracer

    half = args.seconds / 2
    untraced = _measure(args.workload, args.seed, half, workdir, 1)
    spans_path = os.path.join(workdir, "spans.json")
    traced = _measure(args.workload, args.seed, half, workdir, 1, spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)
    tracer.install()
    replay_ms = layers.replay(traced["instances"])
    detail = layers.compute(args.workload, traced, untraced, spans,
                            tracer.SPANS, replay_ms)
    result = _result(traced, detail, _verdict(untraced))
    result["attempted"] += untraced["attempted"]
    result["failed"] += untraced["failed"]
    return result


if __name__ == "__main__":
    sys.exit(main())
