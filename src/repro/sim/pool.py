"""Persistent worker pools for process-sharded fault campaigns.

Spawning a multiprocessing pool costs tens of milliseconds plus one
Python interpreter per worker -- paid *per campaign* it dwarfs the win
of sharding the scalar-fallback faults (see the ``compiled-mp`` rows of
``benchmarks/out/bench_campaign_engine.json``).  A :class:`WorkerPool`
therefore outlives individual campaigns:

* **lazy start** -- the OS pool is created on first use, so merely
  threading ``workers=N`` through an API costs nothing until a campaign
  actually shards;
* **stream broadcast** -- a compiled :class:`~repro.sim.ir.OpStream` is
  shipped to this host exactly once and pinned in every worker under a
  small integer token; every subsequent shard of every campaign
  references the token, so the stream never rides the task queue again.
  Large streams travel through one :mod:`multiprocessing.shared_memory`
  segment (written once, attached by each worker) instead of being
  re-pickled onto the task queue per worker; small streams and
  environments without shared memory take the pickle path.  Broadcasts
  dedup by :meth:`~repro.sim.ir.OpStream.digest` -- structurally
  identical streams share one token even when they are distinct objects
  (a test recompiled per request, a stream unpickled from a job queue)
  -- and :meth:`WorkerPool.broadcast_stats` counts exactly how many
  distinct digests were shipped which way;
* **unordered drain** -- :meth:`WorkerPool.imap_unordered` queues a
  campaign's whole task list at once, so workers start while the parent
  does its own work (the batched engine's lane passes), and results
  surface in completion order for a position-keyed merge;
* **spec shards** -- combined with
  :class:`repro.faults.universe.UniverseSpec`, a unit of work is just
  ``(token, spec, index range)``: workers enumerate their faults locally
  (cached per process) instead of unpickling fault lists per chunk;
* **graceful degradation** -- environments that cannot fork (sandboxes,
  seccomp, missing /dev/shm) raise :class:`PoolUnavailable`, which the
  campaign engines catch to fall back to single-process execution with
  identical results.

The module-level :func:`shared_pool` registry gives the campaign engines
one long-lived pool per worker count; :func:`shutdown_shared_pools` is
registered with :mod:`atexit`.
"""

from __future__ import annotations

import atexit
import contextlib
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

#: Seconds a worker waits for its broadcast peers before declaring the
#: pool broken.  Broadcasts happen before campaign shards are queued, so
#: the barrier only ever waits on pool startup latency, never on work.
BROADCAST_TIMEOUT = 60.0

#: Streams whose pickle is at least this large broadcast through one
#: shared-memory segment instead of riding the task queue once per
#: worker.  Below it the copy is cheaper than the segment setup.
SHM_MIN_BYTES = 1 << 16


class PoolUnavailable(RuntimeError):
    """The process pool cannot be created or has broken down.

    Campaign engines catch this and degrade to single-process execution;
    it is only visible to callers who drive a :class:`WorkerPool`
    directly.
    """


# -- worker-side state ------------------------------------------------------
#
# One pool worker serves many campaigns; these globals are its local
# cache.  ``_init_worker`` runs once per worker process and *clears* the
# stream cache: under fork the child inherits the parent module state,
# and a parent that was itself once a worker (nested pools) must not
# leak another pool's token namespace into this one.

_WORKER_STREAMS: dict[int, OpStream] = {}
_WORKER_BARRIER = None


def _init_worker(barrier) -> None:
    """Pool initializer: pin the broadcast barrier, reset the cache."""
    global _WORKER_BARRIER
    _WORKER_BARRIER = barrier
    _WORKER_STREAMS.clear()


def _attach_shared_blob(name: str, size: int) -> bytes:
    """Copy ``size`` bytes out of a named shared-memory segment."""
    from multiprocessing import resource_tracker, shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf[:size])
    finally:
        shm.close()
        # On CPython < 3.13 merely *attaching* registers the segment
        # with this process's resource tracker, which would unlink it
        # when the worker exits (bpo-39959).  The parent owns the
        # segment's lifetime; this process must only detach.
        with contextlib.suppress(Exception):
            resource_tracker.unregister(shm._name, "shared_memory")


def _load_stream(args: tuple) -> bool:
    """Broadcast unit of work: cache one stream under its token.

    ``payload`` is ``("pickle", stream)`` -- the stream rode the task
    queue -- or ``("shm", name, size)`` -- unpickle it out of the named
    shared-memory segment.  The barrier holds this worker until every
    sibling has its copy -- with exactly one broadcast task per worker
    on the queue, no worker can take a second task before all of them
    have loaded the stream.
    """
    token, payload = args
    try:
        stream = (pickle.loads(_attach_shared_blob(payload[1], payload[2]))
                  if payload[0] == "shm" else payload[1])
        _WORKER_STREAMS[token] = stream
    except Exception:
        # Attach failed (segment gone, /dev/shm policy): fail the
        # broadcast cleanly so the parent can degrade.
        with contextlib.suppress(threading.BrokenBarrierError):
            _WORKER_BARRIER.wait(BROADCAST_TIMEOUT)
        return False
    try:
        _WORKER_BARRIER.wait(BROADCAST_TIMEOUT)
    except threading.BrokenBarrierError:
        return False
    return True


def worker_stream(token: int) -> OpStream:
    """The stream a broadcast pinned in this worker (shard-side lookup)."""
    try:
        return _WORKER_STREAMS[token]
    except KeyError:
        # A respawned worker (predecessor died) missed earlier
        # broadcasts; surfacing PoolUnavailable lets the parent degrade.
        raise PoolUnavailable(
            f"worker holds no stream for token {token} "
            "(worker respawned after a broadcast?)"
        ) from None


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
    max_streams:
        Broadcast streams are pinned in the parent and in every worker
        for the pool's lifetime (that is what makes repeat campaigns
        free).  A pool that has accumulated this many distinct streams
        is *recycled* on the next new broadcast -- workers restart with
        empty caches -- so a long-running service iterating over many
        tests holds a bounded amount of stream memory.

    Use as a context manager for deterministic shutdown, or rely on the
    :func:`shared_pool` registry's atexit hook::

        with WorkerPool(4) as pool:
            run_campaign(stream, universe, workers=4, pool=pool)
            run_campaign(stream2, universe2, workers=4, pool=pool)

    The second campaign pays neither pool startup nor (for a repeated
    stream) the broadcast.
    """

    def __init__(self, workers: int, context: str | None = None,
                 max_streams: int = 32):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        self.workers = workers
        self.max_streams = max_streams
        self._context_name = context
        self._pool = None
        self._barrier = None
        self._broken = False
        self._tokens: dict[str, int] = {}  # stream.digest() -> token
        self._next_token = 0
        self._broadcasts = {"streams": 0, "shm": 0, "pickle": 0,
                            "dedup_hits": 0, "shm_bytes": 0}

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once the OS pool exists (it is created lazily)."""
        return self._pool is not None

    @property
    def broken(self) -> bool:
        """True when the pool failed to start or broke mid-run."""
        return self._broken

    @property
    def streams_broadcast(self) -> int:
        """Number of distinct streams pinned in the workers."""
        return len(self._tokens)

    def broadcast_stats(self) -> dict:
        """Transport counters for the broadcasts this pool performed.

        ``streams`` counts distinct digests actually shipped to this
        host (each at most once per pool generation), split into
        ``shm``/``pickle`` by transport; ``dedup_hits`` counts
        broadcasts satisfied by an already-pinned digest without any
        shipping; ``shm_bytes`` totals the shared-memory payload.
        """
        return dict(self._broadcasts)

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
                self._barrier = context.Barrier(self.workers)
                self._pool = context.Pool(processes=self.workers,
                                          initializer=_init_worker,
                                          initargs=(self._barrier,))
            except (OSError, PermissionError, ImportError, ValueError) as exc:
                # Restricted environments (no /dev/shm, seccomp'd fork):
                # the caller degrades to single-process execution.
                self._broken = True
                raise PoolUnavailable(
                    f"cannot start a {self.workers}-process pool: {exc}"
                ) from exc
        return self._pool

    def close(self) -> None:
        """Terminate the workers and drop the broadcast bookkeeping."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._barrier = None
        self._tokens.clear()

    def mark_broken(self) -> None:
        """Record a mid-run failure; the pool refuses further work."""
        self._broken = True
        self.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- work --------------------------------------------------------------

    def broadcast_stream(self, stream: OpStream) -> int:
        """Pin ``stream`` in every worker; returns its token.

        Idempotent per stream *content*: broadcasts dedup on
        :meth:`~repro.sim.ir.OpStream.digest`, so repeated campaigns
        over the same compiled stream -- whether the literal object the
        :mod:`repro.sim.compilers` ``cached_*`` adapters memoize, or a
        structurally identical recompilation from another request --
        ship to this host only once (:meth:`broadcast_stats` proves it).
        Large streams travel via one shared-memory segment; small ones
        and shm-less environments ride the task queue pickled.  Once
        ``max_streams`` distinct streams have accumulated, the pool is
        recycled first so stream memory stays bounded.
        """
        digest = stream.digest()
        token = self._tokens.get(digest)
        if token is not None:
            self._broadcasts["dedup_hits"] += 1
            return token
        if len(self._tokens) >= self.max_streams:
            # Recycle: drop the workers (and with them every pinned
            # stream) and start fresh ones lazily.  Amortized over the
            # max_streams campaigns in between, the restart is noise.
            self.close()
        pool = self._ensure()
        token = self._next_token
        payload, shm = self._broadcast_payload(stream)
        try:
            # chunksize=1 puts one broadcast task per queue entry; each
            # worker blocks in the barrier until all have loaded, so no
            # worker can consume two.  The async get carries its own
            # timeout: a worker killed mid-broadcast loses its task, and
            # a bare map() would wait on it forever (the survivors'
            # barrier breaks after BROADCAST_TIMEOUT, but the parent
            # must not hang with them).
            loaded = pool.map_async(
                _load_stream, [(token, payload)] * self.workers, chunksize=1,
            ).get(BROADCAST_TIMEOUT + 30.0)
        except Exception as exc:
            self.mark_broken()
            raise PoolUnavailable(f"stream broadcast failed: {exc}") from exc
        finally:
            if shm is not None:
                # Workers copied the blob out; the segment's job is done
                # either way.
                shm.close()
                shm.unlink()
        if not all(loaded):
            self.mark_broken()
            raise PoolUnavailable("stream broadcast barrier broke")
        self._next_token += 1
        self._tokens[digest] = token
        self._broadcasts["streams"] += 1
        self._broadcasts["shm" if payload[0] == "shm" else "pickle"] += 1
        return token

    def _broadcast_payload(self, stream: OpStream):
        """``(payload, shm_segment_or_None)`` for one stream broadcast.

        Prefers a single shared-memory segment for large streams; any
        failure to create or fill one (sandboxes without /dev/shm,
        size limits) falls back to the per-worker pickle payload.
        """
        with contextlib.suppress(Exception):
            blob = pickle.dumps(stream, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) >= SHM_MIN_BYTES:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(create=True, size=len(blob))
                shm.buf[:len(blob)] = blob
                self._broadcasts["shm_bytes"] += len(blob)
                return ("shm", shm.name, len(blob)), shm
        return ("pickle", stream), None

    def imap_unordered(self, fn: Callable, tasks: Iterable) -> Iterator:
        """Unordered lazy fan-out (thin wrapper over
        ``Pool.imap_unordered``).

        Results arrive in completion order; the iterator's
        ``next(timeout)`` raises ``multiprocessing.TimeoutError`` when
        none arrives in time, which is how a drain notices a lost worker.
        """
        return self._ensure().imap_unordered(fn, tasks)

    def imap(self, fn: Callable, tasks: Iterable) -> Iterator:
        """Ordered lazy fan-out (thin wrapper over ``Pool.imap``).

        Workers start consuming immediately; the parent is free to do
        its own work before draining the result iterator.
        """
        return self._ensure().imap(fn, tasks)

    def __repr__(self) -> str:
        state = "broken" if self._broken else (
            "started" if self.started else "idle")
        return (f"WorkerPool(workers={self.workers}, {state}, "
                f"{self.streams_broadcast} streams broadcast)")


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
