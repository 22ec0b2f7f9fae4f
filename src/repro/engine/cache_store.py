"""Persistent shared canonical-result cache (the disk tier).

The in-memory :class:`~repro.engine.cache.InstanceCache` is per-process:
replicas re-solve each other's work and a cold restart starts from zero.
:class:`CacheStore` is the shared tier underneath it — a directory of
append-only *segment files* of canonical results that any number of
engine processes read and write concurrently:

* one record per line: the SHA-256 digest of the canonical cache key
  (see :func:`key_digest`), the canonical assignment, and a checksum
  over both, so a record is self-validating exactly like a checkpoint
  journal record;
* **per-writer segment files** — every writing process appends to its
  own ``seg-<pid>-<token>.jsonl``, so writers never contend and no
  cross-process lock exists anywhere (the read path takes only the
  in-process mutex);
* **atomic append + fsync batching** — each record is one buffered
  ``write`` + ``flush`` (all-or-nothing per line), with ``fsync`` every
  ``fsync_interval`` records, the same crash-safety model as
  :class:`~repro.engine.resilience.checkpoint.CheckpointJournal`;
* **digest-validated load** — on open (and on incremental refresh) every
  complete line is checksum-verified.  A corrupt record is *skipped*
  with a :class:`~repro.core.errors.CacheCorruptionWarning` and counted
  in ``cache.persist.corrupt_records`` (the cache is advisory — the
  worst outcome of a dropped record is a re-solve, so unlike the
  journal, mid-file corruption is not fatal).  A partial final line —
  the torn tail of a write interrupted by SIGKILL, or of a write another
  process has in flight *right now* — is left unconsumed and re-examined
  on the next refresh: torn-tail repair without ever truncating a file
  another process may still be appending to;
* **second-chance reads** — a miss in the in-memory index triggers an
  incremental refresh (new bytes of known files + newly appeared files,
  rate-limited by ``refresh_interval_s``), which is how a result solved
  on replica 0 becomes a warm hit on replica 2 moments later;
* **compaction** — when the directory accumulates more than
  ``compact_threshold`` segment files (each process restart starts a
  fresh one), a writer folds every known record into a single new
  segment (write-temp + fsync + atomic rename) and unlinks the files it
  merged.  A sibling writer whose active file was unlinked underneath it
  detects the lost inode before its next append and re-appends its own
  records to a fresh segment, so compaction can never lose an entry;
  duplicate records across segments are harmless (same digest → same
  assignment; loaders dedupe by digest).

Storing assignments keyed by the canonical-key digest is sound for the
same reason the in-memory cache is: the key captures the full Problem-3
instance (geometry, spans, ``K``, weight digest, algorithm), every
replayed assignment is re-validated by the engine before being served,
and replicas share one seed so the deterministic solvers regenerate
bit-identical assignments — a persistent hit is digest-identical to a
fresh solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from typing import Optional

from repro.core.errors import CacheCorruptionWarning
from repro.obs.trace import SpanCollector, derive_trace_id

__all__ = ["CacheStore", "key_digest"]

_VERSION = 1
_PREFIX = "seg-"
_SUFFIX = ".jsonl"


def key_digest(key) -> str:
    """SHA-256 hex digest of a canonical cache key.

    The canonical key (:func:`repro.engine.cache.canonical_key`) is a
    nested tuple of ints and strings, whose ``repr`` is deterministic
    across processes and interpreter runs — the same property the
    checkpoint journal's :func:`~repro.engine.resilience.checkpoint
    .record_key` relies on.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _checksum(digest: str, assignment: tuple[int, ...]) -> str:
    body = f"{digest}:{list(assignment)!r}".encode()
    return hashlib.sha256(body).hexdigest()[:32]


def _encode_record(digest: str, assignment: tuple[int, ...]) -> str:
    return json.dumps({
        "k": digest,
        "a": list(assignment),
        "s": _checksum(digest, assignment),
        "v": _VERSION,
    }, sort_keys=True, separators=(",", ":"))


def _decode_record(text: bytes) -> Optional[tuple[str, tuple[int, ...]]]:
    """Decode + verify one segment line; ``None`` if corrupt."""
    try:
        record = json.loads(text.decode("utf-8"))
        digest = record["k"]
        assignment = tuple(int(t) for t in record["a"])
        checksum = record["s"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    if not isinstance(digest, str) or not isinstance(checksum, str):
        return None
    if _checksum(digest, assignment) != checksum:
        return None
    return digest, assignment


class CacheStore:
    """Disk-backed canonical-result cache shared across processes.

    Parameters
    ----------
    cache_dir:
        Directory holding the segment files (created if missing).  Every
        process sharing it — replicas, offline ``segroute batch`` runs —
        sees every other's solved results.
    fsync_interval:
        Appended records between ``fsync`` calls (1 = every record).
    refresh_interval_s:
        Minimum seconds between on-miss directory refreshes.  ``0``
        refreshes on every miss (what the tests use); the small default
        keeps a cold-miss storm from stat()ing the directory per
        request while still propagating sibling writes within tens of
        milliseconds.
    compact_threshold:
        Segment-file count above which :meth:`put` triggers
        :meth:`compact`.
    metrics:
        Optional :class:`~repro.engine.metrics.Metrics` registry; the
        store mirrors its counters there as ``cache.persist.hits`` /
        ``loads`` / ``corrupt_records`` / ``compactions`` / ``stores``.
    trace_sink / seed:
        Optional span sink: ``load`` and ``compact`` emit one
        ``cache.persist.*`` span each (trace IDs derived from ``seed``,
        so re-runs regenerate identical IDs).

    Thread-safe; the instance mutex is in-process only — cross-process
    coordination needs no lock by construction (per-writer files,
    self-validating records, idempotent duplicates).
    """

    def __init__(
        self,
        cache_dir: str,
        *,
        fsync_interval: int = 8,
        refresh_interval_s: float = 0.05,
        compact_threshold: int = 8,
        metrics=None,
        trace_sink=None,
        seed: int = 0,
    ) -> None:
        if fsync_interval < 1:
            raise ValueError(
                f"fsync_interval must be >= 1, got {fsync_interval}"
            )
        if compact_threshold < 2:
            raise ValueError(
                f"compact_threshold must be >= 2, got {compact_threshold}"
            )
        self.cache_dir = cache_dir
        self.fsync_interval = fsync_interval
        self.refresh_interval_s = refresh_interval_s
        self.compact_threshold = compact_threshold
        self._metrics = metrics
        self._trace_sink = trace_sink
        self._seed = seed
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, ...]] = {}
        #: basename -> byte offset consumed (complete lines only).
        self._offsets: dict[str, int] = {}
        #: every record this process wrote (replayed if compacted away).
        self._own: dict[str, tuple[int, ...]] = {}
        self._fh = None
        self._writer_path: Optional[str] = None
        self._writer_ino: Optional[int] = None
        self._since_fsync = 0
        self._last_refresh = 0.0
        self._span_seq = 0
        self._closed = False
        # public counters (also mirrored into ``metrics`` when given)
        self.hits = 0
        self.loads = 0
        self.corrupt_records = 0
        self.compactions = 0
        self.stores = 0
        os.makedirs(cache_dir, exist_ok=True)
        with self._lock:
            loaded, corrupt, files = self._refresh_locked(force=True)
        self._emit_span(
            "cache.persist.load",
            records=loaded, corrupt=corrupt, files=files,
        )

    # ------------------------------------------------------------------
    # counters / observability plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if n:
            setattr(self, name, getattr(self, name) + n)
            if self._metrics is not None:
                self._metrics.incr(f"cache.persist.{name}", n)

    def _emit_span(self, name: str, **attrs) -> None:
        self._span_seq += 1
        trace_id = ""
        if self._trace_sink is not None:
            trace_id = derive_trace_id(
                self._seed, f"cache-store:{self._span_seq}"
            )
        collector = SpanCollector(trace_id, "cs", self._trace_sink)
        collector.start(name, **attrs).finish()
        collector.flush()

    def counters(self) -> dict:
        """Point-in-time counter snapshot (the ``stats`` surface)."""
        with self._lock:
            return {
                "hits": self.hits,
                "loads": self.loads,
                "corrupt_records": self.corrupt_records,
                "compactions": self.compactions,
                "stores": self.stores,
                "entries": len(self._index),
                "segment_files": len(self._segment_files()),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    # ------------------------------------------------------------------
    # loading / refresh
    # ------------------------------------------------------------------
    def _segment_files(self) -> list[str]:
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return []
        return sorted(
            n for n in names
            if n.startswith(_PREFIX) and n.endswith(_SUFFIX)
        )

    def _refresh_locked(self, force: bool = False) -> tuple[int, int, int]:
        """Fold new on-disk bytes into the index (rate-limited).

        Returns ``(records_loaded, corrupt_skipped, files_seen)`` for
        the caller's span/telemetry; ``force`` bypasses the rate limit
        (initial load, compaction).
        """
        now = time.monotonic()
        if not force and now - self._last_refresh < self.refresh_interval_s:
            return (0, 0, 0)
        self._last_refresh = now
        loaded = corrupt = 0
        files = self._segment_files()
        # Offsets of files that vanished (compacted away) are dropped;
        # their records were folded into the compacted segment.
        live = set(files)
        for stale in [n for n in self._offsets if n not in live]:
            del self._offsets[stale]
        for name in files:
            path = os.path.join(self.cache_dir, name)
            offset = self._offsets.get(name, 0)
            try:
                size = os.path.getsize(path)
                if size <= offset:
                    continue
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue  # unlinked between listdir and open (compaction)
            consumed, got, bad = self._ingest(path, chunk)
            self._offsets[name] = offset + consumed
            loaded += got
            corrupt += bad
        self._count("loads", loaded)
        self._count("corrupt_records", corrupt)
        return (loaded, corrupt, len(files))

    def _ingest(self, path: str, chunk: bytes) -> tuple[int, int, int]:
        """Parse complete lines of ``chunk``; returns (bytes, ok, bad).

        The final fragment without a newline is *not* consumed: it is
        either a torn tail (crashed writer — repaired by ignoring it) or
        a sibling writer's append in flight (completed by the next
        refresh).  Complete lines that fail validation are corrupt:
        skipped, counted, warned about — never fatal.
        """
        consumed = loaded = corrupt = 0
        for line in chunk.split(b"\n")[:-1]:  # last piece has no newline
            consumed += len(line) + 1
            text = line.strip()
            if not text:
                continue
            record = _decode_record(text)
            if record is None:
                corrupt += 1
                warnings.warn(
                    f"{path}: skipping corrupt cache record "
                    f"(checksum or JSON mismatch)",
                    CacheCorruptionWarning,
                    stacklevel=4,
                )
                continue
            digest, assignment = record
            self._index[digest] = assignment
            loaded += 1
        return consumed, loaded, corrupt

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[tuple[int, ...]]:
        """Canonical assignment for ``digest``, or ``None``.

        A hit counts ``cache.persist.hits``.  A miss triggers one
        (rate-limited) incremental refresh and re-probes — the second
        chance that picks up sibling processes' writes.
        """
        with self._lock:
            assignment = self._index.get(digest)
            if assignment is None:
                self._refresh_locked()
                assignment = self._index.get(digest)
            if assignment is not None:
                self._count("hits")
            return assignment

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _open_writer_locked(self) -> None:
        token = f"{os.getpid():x}-{threading.get_ident() & 0xFFFF:04x}-" \
                f"{int(time.monotonic() * 1e6) & 0xFFFFFF:06x}"
        path = os.path.join(self.cache_dir, f"{_PREFIX}{token}{_SUFFIX}")
        self._fh = open(path, "a", encoding="utf-8")
        self._writer_path = path
        self._writer_ino = os.fstat(self._fh.fileno()).st_ino
        self._since_fsync = 0
        # Our own file needs no re-reading: mark it fully consumed as it
        # grows (we update the offset on every append below).
        self._offsets[os.path.basename(path)] = 0

    def _writer_alive_locked(self) -> bool:
        """True while our segment file still exists at its path.

        Compaction in another process unlinks merged segments; appending
        to an unlinked inode would silently lose records, so the writer
        re-checks the inode before every append and reopens (re-seeding
        its own records) when the path vanished or was replaced.
        """
        if self._fh is None:
            return False
        try:
            return os.stat(self._writer_path).st_ino == self._writer_ino
        except OSError:
            return False

    def _append_locked(self, digest: str, assignment: tuple[int, ...]) -> None:
        line = _encode_record(digest, assignment) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self._offsets[os.path.basename(self._writer_path)] += len(
            line.encode("utf-8")
        )
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_interval:
            self._sync_locked()

    def _sync_locked(self) -> None:
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._since_fsync = 0

    def put(self, digest: str, assignment: tuple[int, ...]) -> None:
        """Write-through one canonical result (idempotent per digest)."""
        assignment = tuple(assignment)
        compact_now = False
        with self._lock:
            if self._closed:
                return
            if self._index.get(digest) == assignment:
                self._own.setdefault(digest, assignment)
                return
            if not self._writer_alive_locked():
                replay = dict(self._own)
                self._open_writer_locked()
                for re_digest, re_assignment in replay.items():
                    self._append_locked(re_digest, re_assignment)
            self._index[digest] = assignment
            self._own[digest] = assignment
            self._append_locked(digest, assignment)
            self._count("stores")
            compact_now = len(self._segment_files()) > self.compact_threshold
        if compact_now:
            self.compact()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Fold every known record into one fresh segment file.

        Refreshes first (so sibling writers' flushed records are
        captured), writes the merged segment via temp-file + ``fsync``
        + atomic rename, then unlinks the merged inputs.  Records a
        sibling appends *between* our refresh and its file's unlink are
        protected by the writer-side inode check (see
        :meth:`_writer_alive_locked`).  Returns the number of segment
        files removed.
        """
        with self._lock:
            if self._closed:
                return 0
            self._refresh_locked(force=True)
            merged = self._segment_files()
            if len(merged) <= 1:
                return 0
            # Our active file is merged too: close it so this process's
            # next put starts a fresh segment.
            if self._fh is not None:
                self._sync_locked()
                self._fh.close()
                self._fh = None
                self._writer_path = None
                self._writer_ino = None
            token = f"compact-{os.getpid():x}-" \
                    f"{int(time.monotonic() * 1e6) & 0xFFFFFF:06x}"
            final = os.path.join(self.cache_dir, f"{_PREFIX}{token}{_SUFFIX}")
            tmp = final + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                for digest in sorted(self._index):
                    fh.write(
                        _encode_record(digest, self._index[digest]) + "\n"
                    )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            removed = 0
            for name in merged:
                try:
                    os.unlink(os.path.join(self.cache_dir, name))
                    removed += 1
                except OSError:
                    pass  # a sibling compactor got there first
                self._offsets.pop(name, None)
            self._offsets[os.path.basename(final)] = os.path.getsize(final)
            self._count("compactions")
            entries = len(self._index)
        self._emit_span(
            "cache.persist.compact", merged=removed, entries=entries,
        )
        return removed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush + fsync + close the writer (idempotent)."""
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.flush()
                self._sync_locked()
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
