"""Persistent worker pools for process-sharded fault campaigns.

Spawning a multiprocessing pool costs tens of milliseconds plus one
Python interpreter per worker -- paid *per campaign* it dwarfs the win
of sharding the scalar-fallback faults (see the ``compiled-mp`` rows of
``benchmarks/out/bench_campaign_engine.json``).  A :class:`WorkerPool`
therefore outlives individual campaigns:

* **lazy start** -- the OS pool is created on first use, so merely
  threading ``workers=N`` through an API costs nothing until a campaign
  actually shards;
* **streams inside their tasks** -- a campaign pickles its compiled
  :class:`~repro.sim.ir.OpStream` once (:meth:`WorkerPool.stream_pair`)
  and every shard task carries the pair ``(digest, blob)``.  A worker
  unpickles the blob the first time it meets the digest and keeps the
  last ``STREAM_CACHE`` streams, so repeated campaigns over one content
  -- the same object, or a structurally identical recompilation from
  another request -- cost one unpickle per worker, and a worker that
  :class:`multiprocessing.pool.Pool` respawned simply unpickles the blob
  of its next task.  :meth:`WorkerPool.broadcast_stats` counts the
  digests shipped and the campaigns that reused one;
* **unordered drain** -- :meth:`WorkerPool.imap_unordered` queues a
  campaign's whole task list at once, and results surface in completion
  order for a position-keyed merge;
* **spec shards** -- combined with
  :class:`repro.faults.universe.UniverseSpec`, a unit of work is just
  ``((digest, blob), spec, index range)``: workers enumerate their
  faults locally (cached per process) instead of unpickling fault lists
  per chunk;
* **graceful degradation** -- environments that cannot fork (sandboxes,
  seccomp, missing /dev/shm) raise :class:`PoolUnavailable`, which
  the campaign engines catch to fall back to single-process execution
  with identical results.

The module-level :func:`shared_pool` registry gives the campaign engines
one long-lived pool per worker count; :func:`shutdown_shared_pools` is
registered with :mod:`atexit`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import threading
from collections.abc import Callable, Iterable, Iterator

from repro.sim.ir import OpStream

__all__ = [
    "PoolUnavailable",
    "WorkerPool",
    "shared_pool",
    "shutdown_shared_pools",
]

#: Streams a worker keeps unpickled, least recently used evicted first.
#: A campaign ships one stream, so a few cover the tests a service or a
#: ``compare`` run alternates between, and a worker's stream memory
#: stays bounded however many distinct streams it serves.
STREAM_CACHE = 4


class PoolUnavailable(RuntimeError):
    """The process pool cannot be created or has broken down.

    Campaign engines catch this and degrade to single-process execution;
    it is only visible to callers who drive a :class:`WorkerPool`
    directly.
    """


# One pool worker serves many campaigns; this is its stream cache,
# keyed by content digest.  A forked worker inherits the parent's
# entries, which is harmless: equal digests mean equal streams.
_WORKER_STREAMS: dict[str, OpStream] = {}


def worker_stream(digest: str, blob: bytes) -> OpStream:
    """The stream a shard task carries, unpickled once per worker.

    ``blob`` is the parent's own ``pickle.dumps`` of the stream whose
    :meth:`~repro.sim.ir.OpStream.digest` is ``digest``
    (:meth:`WorkerPool.stream_pair`); it is unpickled only when this
    process holds no stream under that digest.
    """
    stream = _WORKER_STREAMS.pop(digest, None)
    if stream is None:
        stream = pickle.loads(blob)
        if len(_WORKER_STREAMS) >= STREAM_CACHE:
            del _WORKER_STREAMS[next(iter(_WORKER_STREAMS))]
    _WORKER_STREAMS[digest] = stream
    return stream


class WorkerPool:
    """A lazily-started, reusable multiprocessing pool for campaigns.

    Parameters
    ----------
    workers:
        Number of worker processes.
    context:
        Optional multiprocessing start-method name; defaults to
        ``"fork"`` where available (workers inherit the loaded library
        for free) with the platform default as fallback.

    Use as a context manager for deterministic shutdown, or rely on the
    :func:`shared_pool` registry's atexit hook::

        with WorkerPool(4) as pool:
            run_campaign(stream, universe, workers=4, pool=pool)
            run_campaign(stream2, universe2, workers=4, pool=pool)

    The second campaign pays no pool startup, and a repeated stream no
    unpickling in the workers.
    """

    def __init__(self, workers: int, context: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._context_name = context
        self._pool = None
        self._broken = False
        self._lock = threading.Lock()
        # Digests of the last STREAM_CACHE streams shipped, the ones the
        # workers may still hold.
        self._recent: dict[str, None] = {}
        self._streams = 0
        self._dedup_hits = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once the OS pool exists (it is created lazily)."""
        return self._pool is not None

    @property
    def broken(self) -> bool:
        """True when the pool failed to start or broke mid-run."""
        return self._broken

    def broadcast_stats(self) -> dict:
        """Stream transport counters of the campaigns this pool served.

        ``streams`` counts digests shipped that were not among the last
        ``STREAM_CACHE`` shipped, so workers had to unpickle them;
        ``pickle`` equals it, because every stream travels pickled
        inside its tasks, and ``shm`` is always 0.  ``dedup_hits``
        counts campaigns whose stream the workers may already hold.
        """
        return {"streams": self._streams, "shm": 0, "pickle": self._streams,
                "dedup_hits": self._dedup_hits}

    def _ensure(self):
        if self._broken:
            raise PoolUnavailable("worker pool is broken")
        if self._pool is None:
            try:
                if self._context_name is not None:
                    context = multiprocessing.get_context(self._context_name)
                else:
                    try:
                        context = multiprocessing.get_context("fork")
                    except ValueError:  # platforms without fork
                        context = multiprocessing.get_context()
                self._pool = context.Pool(processes=self.workers)
            except (OSError, PermissionError, ImportError, ValueError) as exc:
                # Restricted environments (no /dev/shm, seccomp'd fork):
                # the caller degrades to single-process execution.
                self._broken = True
                raise PoolUnavailable(
                    f"cannot start a {self.workers}-process pool: {exc}"
                ) from exc
        return self._pool

    def close(self) -> None:
        """Terminate the workers, and with them their stream caches."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        with self._lock:
            self._recent.clear()

    def mark_broken(self) -> None:
        """Record a mid-run failure; the pool refuses further work."""
        self._broken = True
        self.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- work --------------------------------------------------------------

    def stream_pair(self, stream: OpStream) -> tuple[str, bytes]:
        """``(digest, blob)`` for the shard tasks of one campaign.

        The blob is ``stream`` pickled once; workers key their cache on
        the digest (:func:`worker_stream`), so equal-content streams
        from distinct objects share one unpickle per worker.
        """
        digest = stream.digest()
        with self._lock:
            if digest in self._recent:
                del self._recent[digest]  # re-inserted as the newest
                self._dedup_hits += 1
            else:
                self._streams += 1
                if len(self._recent) >= STREAM_CACHE:
                    del self._recent[next(iter(self._recent))]
            self._recent[digest] = None
        return digest, pickle.dumps(stream, protocol=pickle.HIGHEST_PROTOCOL)

    def imap_unordered(self, fn: Callable, tasks: Iterable) -> Iterator:
        """Unordered lazy fan-out (thin wrapper over
        ``Pool.imap_unordered``).

        Results arrive in completion order; the iterator's
        ``next(timeout)`` raises ``multiprocessing.TimeoutError`` when
        none arrives in time, which is how a drain notices a lost worker.
        """
        return self._ensure().imap_unordered(fn, tasks)

    def __repr__(self) -> str:
        state = "broken" if self._broken else (
            "started" if self.started else "idle")
        return f"WorkerPool(workers={self.workers}, {state})"


# -- shared registry --------------------------------------------------------

_SHARED: dict[int, WorkerPool] = {}


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide pool for ``workers`` processes.

    Campaign engines route ``workers=N`` calls here, so consecutive
    campaigns (a CLI ``compare`` run, a benchmark sweep, a service
    handling many requests) reuse one pool and amortize its startup.  A
    pool that broke is replaced on the next request, giving transient
    failures a fresh chance without poisoning the registry.
    """
    pool = _SHARED.get(workers)
    if pool is None or pool.broken:
        pool = WorkerPool(workers)
        _SHARED[workers] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Close every registry pool (idempotent; registered with atexit)."""
    for pool in _SHARED.values():
        pool.close()
    _SHARED.clear()


atexit.register(shutdown_shared_pools)
