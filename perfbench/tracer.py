"""Timing wrappers installed from outside the program under test.

The traced run never uses the engine's own ``trace_sink``: with a sink set,
``RoutingEngine.route_cached`` answers ``None`` and every warm request takes
the batcher path instead of the fast path.  Instead, :func:`install`
replaces a fixed list of public functions and methods with thin wrappers
that record one span per call, ``[name, start, end, parent, id, thread,
attrs]``, with ``time.perf_counter`` stamps.  The parent is the innermost wrapped call
still open on the same thread, so nested synchronous layers (route_many ->
core solve -> DP kernel) form a tree.  Spans stay in memory and
:func:`dump` writes them out when the process ends.

Work done in forked children (deadline attempts, pool workers) is invisible
here; the benchmark measures that layer by an in-process replay instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

SPANS: list = []
_ids = itertools.count(1)
_local = threading.local()


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _wrap(fn, name, attrs_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        span_id = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            SPANS.append(
                [name, start, end, parent, span_id,
                 threading.get_ident(), attrs]
            )
    return wrapper


# (module, attribute path, span name, attrs extractor)
_TARGETS = [
    ("repro.serve.server", "decode_route_frame", "wire.decode",
     lambda a, k, r: {"bytes": _size(a[0])}),
    ("repro.serve.server", "decode", "wire.decode",
     lambda a, k, r: {"bytes": _size(a[0])}),
    ("repro.serve.wire", "WireCodec.encode_ok", "wire.encode",
     lambda a, k, r: {"bytes": _size(r)}),
    ("repro.serve.wire", "WireCodec.encode_json", "wire.encode",
     lambda a, k, r: {"bytes": _size(r)}),
    ("repro.serve.server", "encode", "wire.encode",
     lambda a, k, r: {"bytes": _size(r)}),
    ("repro.serve.admission", "AdmissionController.try_admit",
     "admission.admit",
     lambda a, k, r: None if r is None or r.admitted
     else {"rejected": r.status}),
    ("repro.engine.engine", "RoutingEngine.route_cached",
     "engine.route_cached", lambda a, k, r: {"hit": r is not None}),
    ("repro.engine.engine", "RoutingEngine.route_many", "engine.route_many",
     None),
    ("repro.engine.executor", "route", "core.solve", None),
    ("repro.core.dp", "run_dp_packed", "kernels.dp", None),
    ("repro.core.dp", "run_dp_vectorized", "kernels.dp", None),
    ("repro.core.dp", "run_dp_reference", "kernels.dp", None),
    ("repro.engine.cache_store", "CacheStore.put", "cache_store.append",
     None),
    ("repro.engine.resilience.checkpoint", "CheckpointJournal.append",
     "checkpoint.append", None),
    ("repro.jobs.pipeline", "build_chip_instance", "fpga.build", None),
    ("repro.jobs.pipeline", "global_route", "fpga.global_route", None),
    ("repro.jobs.pipeline", "solve_demands", "jobs.round", None),
    ("repro.jobs.manager", "run_chip_pipeline", "jobs.pipeline",
     lambda a, k, r: {"job_id": k.get("job_id", "")}),
    ("repro.jobs.manager", "JobManager.submit", "jobs.submit",
     lambda a, k, r: {"job_id": (r or {}).get("job_id", "")}),
]


def install() -> None:
    """Wrap every target in place (call before the program starts)."""
    for module_name, path, span_name, attrs_of in _TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        setattr(owner, attr, _wrap(getattr(owner, attr), span_name, attrs_of))


def dump(path: str) -> None:
    """Write every recorded span as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(SPANS, handle, separators=(",", ":"))
