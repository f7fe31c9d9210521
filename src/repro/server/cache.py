"""Content-addressed campaign result cache: LRU memory + optional disk.

A coverage campaign is a pure function of its
:class:`~repro.analysis.request.CampaignRequest`: the stream digest
(:meth:`~repro.sim.ir.OpStream.digest`), the
:class:`~repro.faults.universe.UniverseSpec` and the geometry fully
determine the :class:`CoverageReport` -- every engine returns the same
report -- and the request's ``cache_key()`` is a SHA-256 content address
over exactly those parts (plus a key-format version).
:class:`ResultCache` exploits that:

* **in-process LRU** -- the hot tier; bounded entry count, most recently
  used kept.  Values are stored *pickled* and every hit unpickles a
  fresh copy, so a caller mutating its report can never poison the
  cache (and a hit is byte-for-byte identical to a cold run).
* **optional on-disk tier** -- ``disk_dir`` persists every entry as
  ``<key>.pickle``.  Because keys are content addresses stable across
  processes and Python runs, a cache directory written by one server
  process serves the next one (or a fleet sharing a volume).
* **single-flight compute** -- :meth:`get_or_compute` takes a per-key
  lock, so concurrent identical requests (the job executor, overlapping
  HTTP requests) run the campaign once and share the result.

>>> cache = ResultCache(maxsize=2)
>>> cache.put("ab12", {"coverage": 1.0})
>>> cache.get("ab12")
{'coverage': 1.0}
>>> cache.get("ab12") is cache.get("ab12")   # always a fresh copy
False
>>> cache.stats()["hits"]
3
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from collections import OrderedDict
from collections.abc import Callable

__all__ = ["ResultCache", "default_cache", "reset_default_cache"]

_KEY_CHARS = set("0123456789abcdef")

_log = logging.getLogger("repro.server")


class ResultCache:
    """Bounded LRU of pickled results, optionally spilled to disk.

    Parameters
    ----------
    maxsize:
        Maximum in-memory entries; least recently used are evicted.
        Evicted entries remain on disk when ``disk_dir`` is set, so an
        eviction costs a re-read, not a re-run.
    disk_dir:
        Optional directory for the persistent tier (created on first
        write).  Keys must be hex content addresses (they are file
        names); anything else raises ``ValueError``.
    """

    def __init__(self, maxsize: int = 128, disk_dir: str | None = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = disk_dir
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_promotions = 0
        self._disk_errors = 0

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _check_key(key: str) -> str:
        if not isinstance(key, str) or not key or not set(key) <= _KEY_CHARS:
            raise ValueError(
                f"cache keys must be hex content addresses, got {key!r}"
            )
        return key

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.pickle")

    def _remember(self, key: str, blob: bytes) -> None:
        """Insert into the LRU (lock held by caller)."""
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    # -- the store ----------------------------------------------------------

    def get(self, key: str):
        """The cached value for ``key`` (a fresh unpickled copy), or None.

        Checks the memory LRU first, then the disk tier; a disk entry is
        loaded before it is promoted back into memory.  One that fails
        to load (a truncated or corrupt file) is logged, counted in
        ``disk_errors`` and served as a miss, so the next
        :meth:`put` of the key overwrites it.
        """
        key = self._check_key(key)
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                self._hits += 1
        if blob is not None:
            return pickle.loads(blob)
        if self.disk_dir is not None:
            try:
                with open(self._disk_path(key), "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = None
            if blob is not None:
                try:
                    value = pickle.loads(blob)
                except Exception as exc:  # any bytes may be on disk
                    _log.warning("cache entry %s on disk failed to load "
                                 "(%s: %s); treating it as a miss", key,
                                 type(exc).__name__, exc)
                    with self._lock:
                        self._disk_errors += 1
                else:
                    with self._lock:
                        self._remember(key, blob)
                        self._hits += 1
                        self._disk_promotions += 1
                    return value
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (pickled; both tiers)."""
        key = self._check_key(key)
        blob = pickle.dumps(value)
        with self._lock:
            self._remember(key, blob)
        if self.disk_dir is not None:
            os.makedirs(self.disk_dir, exist_ok=True)
            path = self._disk_path(key)
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)  # atomic: readers never see torn writes

    def get_or_compute(self, key: str,
                       compute: Callable[[], object]) -> tuple[object, bool]:
        """``(value, fresh)`` -- cached copy, or ``compute()`` exactly once.

        ``fresh`` is True when this call ran ``compute``.  Concurrent
        callers with the same key serialize on a per-key lock: one
        computes, the rest get the cached copy.
        """
        key = self._check_key(key)
        value = self.get(key)
        if value is not None:
            return value, False
        with self._lock:
            gate = self._inflight.setdefault(key, threading.Lock())
        try:
            with gate:
                value = self.get(key)  # a racer may have filled it
                if value is not None:
                    return value, False
                result = compute()
                self.put(key, result)
        finally:
            with self._lock:
                self._inflight.pop(key, None)
        return result, True

    # -- bookkeeping --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return (self.disk_dir is not None
                and os.path.exists(self._disk_path(self._check_key(key))))

    def stats(self) -> dict:
        """Hit/miss/eviction/disk-promotion counters plus current sizes.

        ``disk_promotions`` counts hits served from the disk tier and
        re-pinned in memory -- high values against a small ``maxsize``
        mean the memory LRU is thrashing over the working set.
        ``disk_errors`` counts disk entries that failed to load.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "disk_promotions": self._disk_promotions,
                "disk_errors": self._disk_errors,
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "disk_dir": self.disk_dir,
            }

    def clear(self) -> None:
        """Drop the memory tier and the counters (disk files are kept)."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0
            self._disk_promotions = self._disk_errors = 0

    def __repr__(self) -> str:
        disk = f", disk={self.disk_dir!r}" if self.disk_dir else ""
        return (f"ResultCache({len(self._entries)}/{self.maxsize} "
                f"entries{disk})")


# -- process default --------------------------------------------------------

_DEFAULT: ResultCache | None = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The process-wide cache ``run_coverage(request)`` consults.

    Created lazily.  ``REPRO_CACHE_DIR`` in the environment enables the
    persistent disk tier; ``REPRO_CACHE_SIZE`` overrides the in-memory
    entry bound (default 128).
    """
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            disk_dir = os.environ.get("REPRO_CACHE_DIR") or None
            maxsize = int(os.environ.get("REPRO_CACHE_SIZE", "128"))
            _DEFAULT = ResultCache(maxsize=maxsize, disk_dir=disk_dir)
        return _DEFAULT


def reset_default_cache() -> None:
    """Drop the process-wide default (tests; env re-read on next use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None
