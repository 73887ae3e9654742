"""Persistent, content-addressed campaign result cache.

The suite runner has always deduplicated campaigns *within* one run
(``SuiteRunner._by_hash``) and *within* one manifest directory (resume).
This module extends the same idea across suites, manifests and users: a
:class:`ResultCache` is an on-disk directory keyed by
:meth:`~repro.scenarios.spec.ScenarioSpec.spec_hash`, holding one
completed format-2 segment store per distinct campaign. Any suite run
pointed at the cache (``SuiteRunner(cache_dir=...)``, ``repro suite run
--cache-dir``, or the ``REPRO_CACHE`` environment variable) satisfies
cache-hit scenarios by hard-linking/copying the stored bytes instead of
simulating — identical requests from many users hit the store, not the
simulator.

Directory layout (see ``docs/file_formats.md`` for the full spec)::

    <cache root>/
        <spec_hash>.qfs    # the completed campaign: a format-2 segment store
        <spec_hash>.json   # metadata sidecar: producer id, sizes, hit counts
        <spec_hash>.lock   # advisory lock file (flock); persists, ~0 bytes

Entries are *content-addressed*: the spec hash covers every
record-influencing field, so a hit is byte-equivalent to recomputing.
Scenario identity (labels) is **not** part of the key — consumers re-badge
a loaded result for their own scenario, exactly like the in-run spec-hash
cache — so the cached store's metadata badge records whichever scenario
produced it first.

Concurrency protocol:

* writes are atomic (unique temp name + ``os.replace``), so readers never
  observe a torn entry and the last concurrent writer wins with a valid
  store;
* :meth:`ResultCache.lock` takes an exclusive advisory ``flock`` on the
  entry's lock file for the duration of a compute — two suites sharing a
  cache serialize on it, and the loser of the race re-checks the cache
  after acquiring instead of recomputing (compute-once across processes);
* locks are released automatically when the holder dies (``flock``
  semantics), so a killed suite never wedges the cache.

A cache entry that fails validation (torn, corrupt, foreign bytes) is
discarded on load and recomputed by the caller — the same
corrupt-store-recompute machinery the manifest resume path uses — which
repairs the entry in place on the subsequent ``put``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..faults.campaign import CampaignResult
from ..faults.checkpoint import load_completed_store
from ..faults.store import compact, scan_store

try:  # POSIX advisory locking; absent on some exotic platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ENTRY_SUFFIX",
    "SIDECAR_SUFFIX",
    "LOCK_SUFFIX",
    "CacheEntry",
    "ResultCache",
    "resolve_cache_dir",
    "write_result_store",
]

ENTRY_SUFFIX = ".qfs"
SIDECAR_SUFFIX = ".json"
LOCK_SUFFIX = ".lock"

#: Environment variable naming a cache directory shared across suites
#: (and users): consulted when neither the API nor the CLI names one.
CACHE_ENV = "REPRO_CACHE"


def write_result_store(path: str, result: CampaignResult) -> None:
    """Atomically write ``result`` as a compacted segment store at ``path``."""
    compact(path, result.table_meta(), result.table)


def resolve_cache_dir(
    explicit: Optional[str],
    manifest_dir: Optional[str],
    enabled: bool = True,
) -> Optional[str]:
    """Where a suite run's result cache lives, if anywhere.

    Resolution order: an explicit directory wins; otherwise the
    ``REPRO_CACHE`` environment variable (the share-one-cache-per-host
    idiom); otherwise a ``cache/`` directory under the manifest root.
    In-memory runs (no manifest) without an explicit/environment cache
    run uncached, as does ``enabled=False``.
    """
    if not enabled:
        return None
    if explicit:
        return explicit
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    if manifest_dir:
        return os.path.join(manifest_dir, "cache")
    return None


@dataclass(frozen=True)
class CacheEntry:
    """One cached campaign, as enumerated by :meth:`ResultCache.entries`."""

    spec_hash: str
    path: str
    nbytes: int
    scenario_id: Optional[str]
    num_records: Optional[int]
    created: Optional[float]
    last_used: Optional[float]
    hits: int

    @property
    def age_seconds(self) -> Optional[float]:
        """Seconds since the entry was last used (or created)."""
        stamp = self.last_used or self.created
        return None if stamp is None else max(0.0, time.time() - stamp)


class _EntryLock:
    """Exclusive advisory lock on one cache entry's lock file.

    A context manager around ``flock(LOCK_EX)``: acquisition blocks while
    another process (or thread — each acquisition opens its own file
    description) holds the entry, and release is guaranteed both by the
    ``finally`` path and by the kernel when the holder dies. Platforms
    without ``fcntl`` degrade to no-op locking (single-process correctness
    is unaffected; cross-process compute-once becomes best-effort).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def __enter__(self) -> "_EntryLock":
        if fcntl is not None:
            self._handle = open(self.path, "ab")
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            except OSError:  # pragma: no cover - exotic filesystems
                self._handle.close()
                self._handle = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None


class ResultCache:
    """A content-addressed store of completed campaign results.

    One directory, one entry per distinct ``spec_hash`` (see the module
    docstring for layout and concurrency semantics). All methods are
    safe under concurrent use from multiple processes sharing the
    directory; :meth:`lock` is the compute-once gate.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _entry_path(self, spec_hash: str) -> str:
        return os.path.join(self.root, f"{spec_hash}{ENTRY_SUFFIX}")

    def _sidecar_path(self, spec_hash: str) -> str:
        return os.path.join(self.root, f"{spec_hash}{SIDECAR_SUFFIX}")

    def _lock_path(self, spec_hash: str) -> str:
        return os.path.join(self.root, f"{spec_hash}{LOCK_SUFFIX}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has(self, spec_hash: str) -> bool:
        """Whether an entry exists for ``spec_hash`` (no validation).

        The budget estimator's zero-cost test: existence is checked
        without reading the store, so pricing a large suite stays O(1)
        per scenario. A corrupt entry prices as a hit and is repaired
        (recomputed) when the run actually reaches it.
        """
        return os.path.exists(self._entry_path(spec_hash))

    def lock(self, spec_hash: str) -> _EntryLock:
        """The entry's exclusive compute lock (a context manager).

        Hold it across the check-compute-put sequence: the second of two
        racing suites blocks here, then finds the first one's entry on
        its post-acquisition re-check instead of recomputing.
        """
        return _EntryLock(self._lock_path(spec_hash))

    def load(self, spec_hash: str) -> Optional[CampaignResult]:
        """The cached result for ``spec_hash``, or ``None``.

        Validates by fully parsing the store (header scan + payload
        read); an entry that fails — torn tail, interior corruption,
        foreign bytes — is *discarded* so the caller's recompute repairs
        it in place, mirroring the manifest resume path's
        corrupt-store-recompute behaviour. A successful load bumps the
        sidecar's hit count (best effort).
        """
        path = self._entry_path(spec_hash)
        if not os.path.exists(path):
            return None
        result = load_completed_store(path)
        if result is not None:
            # Torn-tail guard: a truncated entry can still parse (the
            # meta segment leads the store; a torn record segment is
            # dropped, not an error), so cross-check the record count
            # the sidecar saw at publish time.
            expected = self._read_sidecar(spec_hash).get("num_records")
            if expected is not None and result.num_injections != expected:
                result = None
        if result is None:
            self.discard(spec_hash)
            return None
        self._record_use(spec_hash)
        return result

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(
        self,
        spec_hash: str,
        result: CampaignResult,
        store_path: Optional[str] = None,
    ) -> str:
        """Store ``result`` under ``spec_hash``; returns the entry path.

        With ``store_path`` (a manifest store already holding these
        bytes) the entry is hard-linked — zero-copy on the common
        same-filesystem layout — falling back to a byte copy across
        devices. Without one, the store is written from the result
        directly. Either way the publish is atomic (unique temp +
        ``os.replace``), so concurrent writers cannot tear an entry and
        readers never see partial bytes.
        """
        entry = self._entry_path(spec_hash)
        tmp = f"{entry}.{os.getpid()}.tmp"
        try:
            if store_path is not None:
                try:
                    os.link(store_path, tmp)
                except OSError:
                    shutil.copyfile(store_path, tmp)
            else:
                write_result_store(tmp, result)
            os.replace(tmp, entry)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error cleanup
                os.unlink(tmp)
        self._write_sidecar(
            spec_hash,
            {
                "spec_hash": spec_hash,
                "scenario_id": result.metadata.get("scenario_id"),
                "circuit_name": result.circuit_name,
                "num_records": result.num_injections,
                "nbytes": os.path.getsize(entry),
                "created": time.time(),
                "last_used": None,
                "hits": 0,
            },
        )
        return entry

    def discard(self, spec_hash: str) -> None:
        """Remove an entry and its sidecar (missing files are fine).

        The lock file is left behind deliberately: unlinking it while
        another process holds the flock would let a third process acquire
        a fresh inode and defeat the compute-once gate.
        """
        for path in (
            self._entry_path(spec_hash),
            self._sidecar_path(spec_hash),
        ):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Sidecar bookkeeping
    # ------------------------------------------------------------------
    def _write_sidecar(
        self, spec_hash: str, payload: Dict[str, object]
    ) -> None:
        path = self._sidecar_path(spec_hash)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - sidecars are best-effort
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _read_sidecar(self, spec_hash: str) -> Dict[str, object]:
        try:
            with open(
                self._sidecar_path(spec_hash), "r", encoding="utf-8"
            ) as handle:
                data = json.load(handle)
            return data if isinstance(data, dict) else {}
        except (OSError, ValueError):
            return {}

    def _record_use(self, spec_hash: str) -> None:
        """Bump the entry's hit count and last-used stamp (best effort).

        Read-modify-write through an atomic replace: concurrent hits may
        lose an increment to each other, which is acceptable for an
        observability counter — the alternative (locking every read)
        would serialize cache hits across suites.
        """
        sidecar = self._read_sidecar(spec_hash)
        if not sidecar:
            return
        sidecar["hits"] = int(sidecar.get("hits") or 0) + 1
        sidecar["last_used"] = time.time()
        self._write_sidecar(spec_hash, sidecar)

    # ------------------------------------------------------------------
    # Maintenance (the ``repro cache`` CLI surface)
    # ------------------------------------------------------------------
    def entries(self) -> List[CacheEntry]:
        """Every entry in the cache, most recently used first."""
        found: List[CacheEntry] = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(ENTRY_SUFFIX):
                continue
            spec_hash = name[: -len(ENTRY_SUFFIX)]
            path = os.path.join(self.root, name)
            try:
                nbytes = os.path.getsize(path)
            except OSError:
                continue
            sidecar = self._read_sidecar(spec_hash)
            found.append(
                CacheEntry(
                    spec_hash=spec_hash,
                    path=path,
                    nbytes=nbytes,
                    scenario_id=sidecar.get("scenario_id"),
                    num_records=sidecar.get("num_records"),
                    created=sidecar.get("created"),
                    last_used=sidecar.get("last_used"),
                    hits=int(sidecar.get("hits") or 0),
                )
            )
        found.sort(
            key=lambda e: e.last_used or e.created or 0.0, reverse=True
        )
        return found

    def total_bytes(self) -> int:
        """Bytes the cache's entries occupy (sidecars excluded)."""
        return sum(entry.nbytes for entry in self.entries())

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> List[CacheEntry]:
        """Evict entries by age and/or size; returns what was removed.

        Age first: anything unused for longer than ``max_age_seconds``
        goes. Then size: least-recently-used entries are evicted until
        the remainder fits ``max_bytes``. With neither bound this is a
        no-op.
        """
        removed: List[CacheEntry] = []
        survivors: List[CacheEntry] = []
        for entry in self.entries():  # most recently used first
            age = entry.age_seconds
            if (
                max_age_seconds is not None
                and age is not None
                and age > max_age_seconds
            ):
                removed.append(entry)
            else:
                survivors.append(entry)
        if max_bytes is not None:
            total = sum(entry.nbytes for entry in survivors)
            while survivors and total > max_bytes:
                victim = survivors.pop()  # least recently used
                total -= victim.nbytes
                removed.append(victim)
        for entry in removed:
            self.discard(entry.spec_hash)
        return removed

    def verify(self) -> List[Dict[str, object]]:
        """Integrity-check every entry via the segment header scan.

        Each entry's store runs the format-2 header scan
        (:func:`~repro.faults.store.scan_store` — magic, header JSON,
        payload/count consistency; payloads are never read, so verifying
        a multi-gigabyte cache is cheap). Returns one row per entry:
        ``{"spec_hash", "ok", "records", "detail"}``. Corrupt entries
        are reported, not removed — pruning is the operator's call (a
        corrupt entry is also self-healing: the next run that wants it
        recomputes and overwrites it).
        """
        rows: List[Dict[str, object]] = []
        for entry in self.entries():
            summary = scan_store(entry.path)
            rows.append(
                {
                    "spec_hash": entry.spec_hash,
                    "ok": summary["ok"],
                    "records": (
                        summary["num_records"] if summary["ok"] else None
                    ),
                    "detail": summary["error"],
                }
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({self.root!r})"
