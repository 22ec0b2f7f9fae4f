"""Rebuild ``expected.json``: the offline engine's answers for every pool.

Run from the repository root::

    python3 perfbench/make_expected.py

Single-channel pools are solved by ``RoutingEngine.route_many`` with one
job and no deadline (the plain offline path); chips by the serial
``run_chip_pipeline``.  Every benchmark run checks the program's answers
against this file, so regenerate it only when the answers are meant to
change.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main() -> int:
    common.use_src()
    from repro.engine import EngineConfig, RoutingEngine
    from repro.jobs import run_chip_pipeline

    out = {
        "shape": common.SHAPE,
        "pools": {},
        "chips": {"params": common.CHIP, "specs": []},
    }
    for name in common.POOLS:
        corpus = common.build_pool(name)
        started = time.perf_counter()
        with RoutingEngine(EngineConfig(jobs=1, cache=False)) as engine:
            results = engine.route_many(
                [(c, conns) for c, conns, _ in corpus],
                max_segments=[k for _, _, k in corpus],
            )
        outcomes = [
            common.outcome_of(
                r.ok, r.routing.assignment if r.ok else None, r.error_type
            )
            for r in results
        ]
        out["pools"][name] = {
            "seed": common.POOLS[name][0],
            "size": len(corpus),
            "fingerprint": common.pool_fingerprint(corpus),
            "digest": common.stream_digest(outcomes),
            "outcomes": outcomes,
        }
        print(f"pool {name}: {len(corpus)} instances, "
              f"{sum(o[0] is not None for o in outcomes)} ok, "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    for spec in common.chip_specs():
        started = time.perf_counter()
        result = run_chip_pipeline(spec)
        out["chips"]["specs"].append({
            "seed": spec.seed,
            "ok": result.ok,
            "rounds": len(result.rounds),
            "digest": result.digest,
        })
        print(f"chip seed={spec.seed}: ok={result.ok} "
              f"rounds={len(result.rounds)} "
              f"{time.perf_counter() - started:.2f}s", file=sys.stderr)
    with open(common.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
