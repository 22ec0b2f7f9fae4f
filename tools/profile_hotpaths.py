#!/usr/bin/env python3
"""Profile the routing hot paths: cProfile top-N per algorithm.

Routes a mid-size random corpus through each algorithm under cProfile
and prints the top functions by cumulative time — the view that
motivated the packed-frontier DP kernel and the shared geometry tables
(see docs/PERFORMANCE.md).  Use it before and after touching an inner
loop to see where the time actually went.

``--serde`` profiles the wire layer instead of the solvers: it
round-trips the same request/response corpus through both framings
(NDJSON v1 via :func:`repro.serve.protocol.encode`/``decode`` and
binary v2 via :class:`repro.serve.wire.WireCodec`) and prints per-op
timings plus bytes on the wire — the view that motivated the
length-prefixed v2 framing.

Usage:
    python tools/profile_hotpaths.py                    # all algorithms
    python tools/profile_hotpaths.py --algorithm dp
    python tools/profile_hotpaths.py --top 15 --scale 2
    python tools/profile_hotpaths.py --serde --scale 4
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

#: Per-algorithm workloads: (label, K, corpus shape overrides).  Greedy and
#: left-edge are near-free, so they get proportionally more instances.
PROFILES = {
    "dp": {"k": None, "tracks": 6, "columns": 80, "conns": 24, "count": 30},
    "dp_weighted": {"k": None, "tracks": 6, "columns": 80, "conns": 24,
                    "count": 30, "weight": True},
    "greedy1": {"k": 1, "tracks": 8, "columns": 80, "conns": 24, "count": 200},
    "exact": {"k": None, "tracks": 5, "columns": 60, "conns": 14, "count": 30},
    "left_edge": {"k": None, "tracks": 8, "columns": 80, "conns": 24,
                  "count": 200, "identical": True},
}


def _build_corpus(spec: dict, scale: int) -> list[tuple]:
    from repro.core.channel import identical_channel
    from repro.generators.random_instances import (
        random_channel,
        random_feasible_instance,
    )

    corpus = []
    for s in range(spec["count"] * scale):
        if spec.get("identical"):
            # Evenly segmented identical tracks; segment length ~ mean 5.
            channel = identical_channel(
                spec["tracks"], spec["columns"],
                list(range(5, spec["columns"], 5)),
            )
        else:
            channel = random_channel(
                spec["tracks"], spec["columns"], 5.0, seed=1000 + s
            )
        conns = random_feasible_instance(
            channel, spec["conns"], seed=2000 + s, max_segments=spec["k"]
        )
        corpus.append((channel, conns))
    return corpus


def _route_corpus(name: str, spec: dict, corpus: list[tuple]) -> None:
    from repro.core.errors import RoutingInfeasibleError
    from repro.core.routing import occupied_length_weight

    if name.startswith("dp"):
        from repro.core.dp import route_dp as solver
    elif name == "greedy1":
        from repro.core.greedy import route_one_segment_greedy

        solver = lambda ch, cs, **kw: route_one_segment_greedy(ch, cs)
    elif name == "exact":
        from repro.core.exact import route_exact as solver
    elif name == "left_edge":
        from repro.core.left_edge import route_left_edge_identical as solver
    else:
        raise SystemExit(f"unknown algorithm {name!r}")

    for channel, conns in corpus:
        kwargs = {}
        if name.startswith("dp"):
            kwargs["max_segments"] = spec["k"]
            if spec.get("weight"):
                kwargs["weight"] = occupied_length_weight(channel)
        try:
            solver(channel, conns, **kwargs)
        except RoutingInfeasibleError:
            pass


def profile_serde(scale: int, repeats: int = 50) -> str:
    """Time both wire framings over one corpus of requests/responses.

    Encodes and decodes every message ``repeats`` times per framing and
    reports per-message microseconds plus bytes on the wire, requests
    and responses separately — apples-to-apples because both framings
    carry exactly the same corpus.
    """
    import time

    from repro.serve.protocol import (
        decode,
        ok_response,
        parse_route_request,
        route_request,
    )
    from repro.serve.wire import (
        HEADER_SIZE,
        WireCodec,
        decode_ok_frame,
        decode_route_frame,
    )

    spec = {"k": 2, "tracks": 12, "columns": 24, "conns": 8, "count": 16}
    corpus = _build_corpus(spec, scale)

    class _Result:
        """Shaped like an engine ``BatchResult`` for ``ok_response``."""

        class _Routing:
            def __init__(self, assignment):
                self.assignment = assignment

        def __init__(self, n_tracks, n_conns):
            self.routing = self._Routing([i % n_tracks for i in range(n_conns)])
            self.algorithm = "dp"
            self.duration = 0.0123
            self.cache_hit = True
            self.fallbacks = 0
            self.trace_id = ""

    requests = [
        route_request(f"p{i}", channel, conns, max_segments=spec["k"])
        for i, (channel, conns) in enumerate(corpus)
    ]
    responses = [
        ok_response(f"p{i}", _Result(spec["tracks"], len(conns)))
        for i, (_, conns) in enumerate(corpus)
    ]

    def timed(fn, items):
        started = time.perf_counter()
        for _ in range(repeats):
            for item in items:
                fn(item)
        per_msg = (time.perf_counter() - started) / (repeats * len(items))
        return per_msg * 1e6  # µs

    codec = WireCodec()
    rows = []

    # --- v1: NDJSON lines both directions.
    v1_req = [bytes(codec.encode_line(m)) for m in requests]
    v1_resp = [bytes(codec.encode_line(m)) for m in responses]
    rows.append((
        "v1 request", timed(codec.encode_line, requests),
        timed(decode, v1_req),
        timed(lambda line: parse_route_request(decode(line)), v1_req),
        sum(map(len, v1_req)) / len(v1_req),
    ))
    rows.append((
        "v1 response", timed(codec.encode_line, responses),
        timed(decode, v1_resp), None,
        sum(map(len, v1_resp)) / len(v1_resp),
    ))

    # --- v2: packed binary frames (encode via the route/ok packers;
    # decode on the frame bodies, header stripped).
    def encode_route(pair):
        i, (channel, conns) = pair
        return codec.encode_route(
            f"p{i}", channel, conns, max_segments=spec["k"],
            weight=None, algorithm="auto", deadline_ms=None,
            trace_id="", trace_parent="",
        )

    indexed = list(enumerate(corpus))
    v2_req = [bytes(encode_route(p))[HEADER_SIZE:] for p in indexed]
    v2_resp = [bytes(codec.encode_ok(m))[HEADER_SIZE:] for m in responses]
    rows.append((
        "v2 request", timed(encode_route, indexed),
        timed(decode_route_frame, v2_req),
        timed(decode_route_frame, v2_req),
        HEADER_SIZE + sum(map(len, v2_req)) / len(v2_req),
    ))
    rows.append((
        "v2 response", timed(codec.encode_ok, responses),
        timed(decode_ok_frame, v2_resp), None,
        HEADER_SIZE + sum(map(len, v2_resp)) / len(v2_resp),
    ))

    out = io.StringIO()
    print(
        f"{len(corpus)} messages x {repeats} repeats "
        "(decode+parse = decode through to a typed RouteRequest)",
        file=out,
    )
    print(
        f"{'framing':<14}{'encode µs':>12}{'decode µs':>12}"
        f"{'decode+parse µs':>18}{'bytes/msg':>12}", file=out,
    )
    for label, enc, dec, full, nbytes in rows:
        full_s = f"{full:18.2f}" if full is not None else f"{'-':>18}"
        print(
            f"{label:<14}{enc:12.2f}{dec:12.2f}{full_s}{nbytes:12.1f}",
            file=out,
        )
    return out.getvalue()


def profile_algorithm(name: str, top: int, scale: int) -> str:
    spec = PROFILES[name]
    corpus = _build_corpus(spec, scale)
    profiler = cProfile.Profile()
    profiler.enable()
    _route_corpus(name, spec, corpus)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--algorithm", choices=sorted(PROFILES), default=None,
        help="profile one algorithm (default: all)",
    )
    parser.add_argument(
        "--top", type=int, default=12,
        help="functions to show per algorithm (default: 12)",
    )
    parser.add_argument(
        "--scale", type=int, default=1,
        help="corpus size multiplier for longer, steadier profiles",
    )
    parser.add_argument(
        "--serde", action="store_true",
        help="profile the wire layer (NDJSON v1 vs binary v2) instead "
             "of the solvers",
    )
    args = parser.parse_args(argv)

    if args.serde:
        print("=== serde (NDJSON v1 vs binary v2) ===")
        print(profile_serde(args.scale))
        return 0

    from repro.core.kernels import active_kernel

    names = [args.algorithm] if args.algorithm else sorted(PROFILES)
    for name in names:
        print(f"=== {name} (kernel {active_kernel()}) ===")
        print(profile_algorithm(name, args.top, args.scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
