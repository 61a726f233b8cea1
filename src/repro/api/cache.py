"""On-disk result cache keyed on ``(spec_hash, code_version)``.

PR 3 gave every experiment a canonical spec hash; this module turns it
into a content-addressed memo table so re-running an unchanged spec —
``repro regen`` with nothing edited, a repeated ``repro run --spec``,
any :func:`repro.api.run.run` call with ``cache=`` — loads the stored
:class:`~repro.api.run.Result` instead of re-simulating.  Because runs
are bit-deterministic, a cached result is *identical* to a fresh one;
the cache can never change what an experiment produces, only how fast.

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    <root>/
      index.json                  # entry metadata: sizes + LRU clocks
      objects/<spec_hash>.<code_version>.pkl

Keys pair the spec's canonical-JSON SHA-256 with ``repro.__version__``,
so any code release invalidates every stored result.  The index carries
per-entry ``last_used`` stamps; when the store exceeds ``max_bytes``
(``$REPRO_CACHE_MAX_MB``, default 512 MB) the least-recently-used
entries are evicted.  Every read path is corruption-tolerant: a missing,
truncated or unreadable object — or a damaged index — degrades to a
cache miss, never an error.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.run import Result
    from repro.api.spec import ExperimentSpec

#: Environment variable relocating the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable capping the store size, in megabytes.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"
#: Default size cap when neither argument nor environment specifies one.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: What ``run(spec, cache=...)`` accepts: nothing, a boolean toggle, or
#: a concrete :class:`ResultCache`.
CacheLike = Union[None, bool, "ResultCache"]


def writer_tag() -> str:
    """Temp-file tag unique to the writing thread: ``<pid>-<thread id>``.

    Temp files named by pid alone collide when two threads of one
    process publish the same file — one thread's rename can then
    publish, or lose, the other's bytes.
    """
    return f"{os.getpid()}-{threading.get_ident()}"


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored result (the index row, not the payload)."""

    key: str
    spec_hash: str
    code_version: str
    name: str
    kind: str
    size_bytes: int
    created: float
    last_used: float


#: Index row holding the persisted usage counters (``#`` keeps it out of
#: the object-key namespace — object keys are ``<hex>.<version>``).
_STATS_KEY = "#stats"


@dataclass(frozen=True)
class CacheStats:
    """Persisted lifetime usage counters of one cache store.

    Survive across processes in the index (advisory, like the LRU
    clocks) and reset when the store is cleared.  ``bytes_read`` /
    ``bytes_written`` count object payloads actually loaded/stored, so
    ``bytes_read / max(hits, 1)`` approximates the per-hit transport
    saving.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls accounted (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """hits / lookups (1.0 for an unused store)."""
        return self.hits / self.lookups if self.lookups else 1.0


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _env_max_bytes() -> int:
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if raw:
        try:
            return max(1, int(float(raw) * 1024 * 1024))
        except ValueError:
            pass
    return DEFAULT_MAX_BYTES


class ResultCache:
    """A content-addressed store of :class:`~repro.api.run.Result` values.

    Instances are cheap (two fields) and picklable, so a cache rides
    along to pool workers — each worker then reads/writes the same
    on-disk store.  Concurrent writers are safe-by-construction: object
    files are written atomically (temp file + rename) and the index is
    advisory metadata that every reader can rebuild from the object
    directory.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None \
            else _env_max_bytes()

    # -- paths ------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        """Directory holding the pickled result payloads."""
        return self.root / "objects"

    @property
    def index_path(self) -> Path:
        """The advisory metadata index file."""
        return self.root / "index.json"

    @staticmethod
    def key_of(spec_hash: str, code_version: str) -> str:
        """The composite cache key of one ``(spec, code release)`` pair."""
        return f"{spec_hash}.{code_version}"

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.pkl"

    # -- index ------------------------------------------------------------

    def _read_index(self) -> dict:
        try:
            data = json.loads(self.index_path.read_text())
            if isinstance(data, dict):
                return data
        except (OSError, ValueError):
            pass
        return {}

    def _write_index(self, index: dict) -> None:
        """Publish the index atomically (temp file + ``os.replace``).

        The temp name embeds the writer's pid and thread
        (:func:`writer_tag`): two writers sharing a store (worker
        daemons, or threads of one process) must never write the *same*
        temp file, or one writer's rename
        can publish the other's half-written bytes — silently dropping
        the LRU clocks and the ``#stats`` row.  Updates remain
        last-writer-wins (the index is advisory), but every published
        file is complete and parseable.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.index_path.with_name(
                f"index.json.{writer_tag()}.tmp")
            tmp.write_text(json.dumps(index, indent=1, sort_keys=True))
            os.replace(tmp, self.index_path)
        except OSError:  # pragma: no cover - advisory metadata only
            pass

    # -- operations -------------------------------------------------------

    def _bump_stats(self, index: dict, **deltas: int) -> None:
        """Fold counter deltas into the index's stats row (in place)."""
        row = index.get(_STATS_KEY)
        if not isinstance(row, dict):
            row = {}
            index[_STATS_KEY] = row
        for counter, delta in deltas.items():
            try:
                row[counter] = int(row.get(counter, 0)) + delta
            except (TypeError, ValueError):
                row[counter] = delta

    def _count_miss(self) -> None:
        """Persist one miss (advisory, like every index write)."""
        index = self._read_index()
        self._bump_stats(index, misses=1)
        self._write_index(index)

    def stats(self) -> CacheStats:
        """The persisted lifetime counters (zeros for a fresh store)."""
        row = self._read_index().get(_STATS_KEY)
        if not isinstance(row, dict):
            return CacheStats()

        def _int(name: str) -> int:
            try:
                return int(row.get(name, 0))
            except (TypeError, ValueError):
                return 0

        return CacheStats(hits=_int("hits"), misses=_int("misses"),
                          stores=_int("stores"),
                          bytes_read=_int("bytes_read"),
                          bytes_written=_int("bytes_written"))

    def has(self, digest: str) -> bool:
        """Whether a payload for ``digest`` exists under this code version.

        A cheap existence probe (one ``stat``, no payload read, no
        counter bump) — the service front door answers warm re-submits
        with it without touching the queue.  A ``True`` can still turn
        into a :meth:`get_object` miss if the object is concurrently
        evicted or corrupt; callers must treat it as advisory.
        """
        import repro
        return self._object_path(
            self.key_of(digest, repro.__version__)).exists()

    def get_object(self, digest: str) -> Optional[object]:
        """Load the payload stored under ``digest`` (current code version).

        The digest-keyed twin of :meth:`get` for arbitrary picklable
        payloads (the service plane checkpoints shard outcomes this
        way, and fetches job results by their spec hash without needing
        the spec object).  Returns ``None`` on any miss: absent entry,
        different code version, or a corrupt/truncated object (which is
        deleted).  Every lookup lands in the persisted hit/miss
        counters (:meth:`stats`).

        Under an active fault plan, the ``cache.corrupt`` site can turn
        a successful read into exactly the corrupt-object path — object
        discarded, miss counted, ``None`` returned — so recompute-on-
        corruption is exercised end to end.  The decision is keyed
        ``{digest}:r{n}`` with ``n`` this process's read count of the
        digest, so repeated polls of one artifact are independent
        decisions (a digest is never *permanently* corrupt, which would
        deadlock clients waiting on a done job).
        """
        import repro
        key = self.key_of(digest, repro.__version__)
        path = self._object_path(key)
        try:
            payload = path.read_bytes()
            value = pickle.loads(payload)
        except OSError:
            self._count_miss()
            return None
        except Exception:
            # Truncated or otherwise unreadable entry: drop it and miss.
            self.discard(key)
            self._count_miss()
            return None
        from repro.faults import get_injector
        injector = get_injector()
        if injector is not None:
            occurrence = injector.occurrence("cache.corrupt", digest)
            if injector.fire("cache.corrupt", f"{digest}:r{occurrence}"):
                self.discard(key)
                self._count_miss()
                return None
        index = self._read_index()
        entry = index.get(key)
        if isinstance(entry, dict):
            entry["last_used"] = time.time()
        self._bump_stats(index, hits=1, bytes_read=len(payload))
        self._write_index(index)
        return value

    def put_object(self, digest: str, payload: object, name: str = "?",
                   kind: str = "object") -> Optional[Path]:
        """Store an arbitrary picklable ``payload`` under ``digest``.

        The digest-keyed twin of :meth:`put`: written atomically
        (per-thread temp file + rename), LRU cap enforced, best-effort (an
        I/O failure returns ``None`` rather than failing the caller).
        ``name``/``kind`` label the index row for ``repro cache ls``.
        """
        import repro
        key = self.key_of(digest, repro.__version__)
        path = self._object_path(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = path.with_suffix(f".tmp{writer_tag()}")
        try:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        now = time.time()
        index = self._read_index()
        index[key] = {
            "spec_hash": digest,
            "code_version": repro.__version__,
            "name": name,
            "kind": kind,
            "size_bytes": len(blob),
            "created": now,
            "last_used": now,
        }
        self._bump_stats(index, stores=1, bytes_written=len(blob))
        self._evict(index, keep=key)
        self._write_index(index)
        return path

    def get(self, spec: "ExperimentSpec",
            spec_digest: Optional[str] = None) -> Optional["Result"]:
        """The stored result of ``spec`` under the current code version.

        Returns ``None`` on any miss: absent entry, different code
        version, or a corrupt/truncated object (which is deleted).
        ``spec_digest`` skips re-hashing when the caller already holds
        the spec hash (``run()`` computes it for provenance anyway).
        Every lookup lands in the persisted hit/miss counters
        (:meth:`stats`).
        """
        if spec_digest is None:
            from repro.api.spec import spec_hash
            spec_digest = spec_hash(spec)
        return self.get_object(spec_digest)

    def put(self, spec: "ExperimentSpec", result: "Result",
            spec_digest: Optional[str] = None) -> Optional[Path]:
        """Store ``result`` for ``spec``; returns the object path.

        The payload is the *portable* result (live agents dropped —
        exactly what any pool-transported result already is), written
        atomically, then the LRU cap is enforced.  ``spec_digest``
        skips re-hashing, as in :meth:`get`.  Storing is best-effort:
        an I/O failure (disk full, racing ``clear``) returns ``None``
        rather than failing the run whose result was being memoized.
        """
        if spec_digest is None:
            from repro.api.spec import spec_hash
            spec_digest = spec_hash(spec)
        return self.put_object(spec_digest, result.portable(),
                               name=spec.name, kind=spec.kind)

    def discard(self, key: str) -> None:
        """Remove one entry (object + index row); missing is fine."""
        try:
            self._object_path(key).unlink()
        except OSError:
            pass
        index = self._read_index()
        if index.pop(key, None) is not None:
            self._write_index(index)

    def _evict(self, index: dict, keep: Optional[str] = None) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        Sizes come from the object directory itself, not the index, so
        objects orphaned by a concurrent index rewrite (the index is
        advisory and last-writer-wins) still count toward — and age out
        of — the cap; their LRU stamp falls back to the file mtime.
        ``keep`` (the entry just written) is never evicted, so a cap
        smaller than a single result degrades to "cache of one" instead
        of thrashing.
        """
        sizes: dict[str, int] = {}
        stamps: dict[str, float] = {}
        try:
            listing = list(self.objects_dir.glob("*.pkl"))
            self._sweep_stale_tmp()
        except OSError:  # pragma: no cover - unreadable store
            return
        for path in listing:
            key = path.name[:-len(".pkl")]
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing deleter
                continue
            sizes[key] = stat.st_size
            entry = index.get(key)
            stamps[key] = float(entry.get("last_used", stat.st_mtime)) \
                if isinstance(entry, dict) else stat.st_mtime
        total = sum(sizes.values())
        for key in sorted(sizes, key=lambda k: stamps[k]):
            if total <= self.max_bytes:
                break
            if key == keep:
                continue
            try:
                self._object_path(key).unlink()
            except OSError:  # pragma: no cover - racing deleter
                pass
            total -= sizes[key]
            index.pop(key, None)

    def entries(self) -> list[CacheEntry]:
        """Every stored entry, most recently used first.

        Reconciled against the object directory: index rows whose object
        vanished are skipped, objects missing from the index are listed
        with file-system metadata.
        """
        index = self._read_index()
        rows: list[CacheEntry] = []
        seen: set[str] = set()
        for key, entry in index.items():
            if not isinstance(entry, dict):
                continue
            path = self._object_path(key)
            if not path.exists():
                continue
            seen.add(key)
            rows.append(CacheEntry(
                key=key,
                spec_hash=str(entry.get("spec_hash", key.split(".")[0])),
                code_version=str(entry.get("code_version", "?")),
                name=str(entry.get("name", "?")),
                kind=str(entry.get("kind", "?")),
                size_bytes=int(entry.get("size_bytes", 0)),
                created=float(entry.get("created", 0.0)),
                last_used=float(entry.get("last_used", 0.0))))
        if self.objects_dir.is_dir():
            for path in sorted(self.objects_dir.glob("*.pkl")):
                key = path.name[:-len(".pkl")]
                if key in seen:
                    continue
                try:
                    stat = path.stat()
                except OSError:  # racing deleter (clear/evict elsewhere)
                    continue
                spec_digest, _, version = key.partition(".")
                rows.append(CacheEntry(
                    key=key, spec_hash=spec_digest, code_version=version,
                    name="?", kind="?", size_bytes=stat.st_size,
                    created=stat.st_mtime, last_used=stat.st_mtime))
        rows.sort(key=lambda row: row.last_used, reverse=True)
        return rows

    def total_bytes(self) -> int:
        """Bytes currently stored (object payloads only)."""
        return sum(entry.size_bytes for entry in self.entries())

    def _sweep_stale_tmp(self, max_age_s: float = 300.0) -> None:
        """Delete abandoned ``*.tmp<writer>`` files from interrupted puts.

        Only files older than ``max_age_s`` go, so a concurrent writer's
        in-flight temp file is never pulled out from under its rename.
        """
        now = time.time()
        listing = list(self.objects_dir.glob("*.tmp*"))
        if self.root.is_dir():
            listing.extend(self.root.glob("index.json.*.tmp"))
        for tmp in listing:
            try:
                if now - tmp.stat().st_mtime > max_age_s:
                    tmp.unlink()
            except OSError:  # pragma: no cover - racing writer/deleter
                pass

    def clear(self) -> int:
        """Delete every entry; returns how many objects were removed.

        Also sweeps abandoned temp files left by interrupted stores and
        resets the persisted usage counters (they live in the index).
        """
        removed = 0
        if self.objects_dir.is_dir():
            for path in self.objects_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing deleter
                    pass
            self._sweep_stale_tmp(max_age_s=0.0)
        try:
            self.index_path.unlink()
        except OSError:
            pass
        return removed


def resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalize the ``cache=`` argument of :func:`repro.api.run.run`.

    ``None``/``False`` disable caching, ``True`` selects the default
    on-disk store, and a :class:`ResultCache` instance is used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    raise TypeError(
        f"cache must be None, a bool or a ResultCache, got {cache!r}")
