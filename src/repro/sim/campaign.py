"""The batched fault-campaign engine: one compiled stream, many faults.

The standard single-fault-injection methodology re-runs the complete test
for every fault of a universe.  Interpreted, that costs
``O(|universe| * test_length)`` with a large per-operation Python
constant (March element walks, LFSR stepping, background recomputation).
:func:`run_campaign` replays a compiled :class:`~repro.sim.ir.OpStream`
instead:

* **compile once** -- addresses, data values, recurrence multipliers and
  expected values are resolved a single time, not per fault;
* **cached fault-free reference pass** -- the stream is validated once on
  a healthy memory (zero mismatches) and the result cached on the stream;
* **early abort** -- a fault is *detected* at the first mismatching
  checked read, so the typical detected fault costs a short prefix of the
  stream, not the full test;
* **fixed shards** -- faults are processed in contiguous chunks of at
  most ``SERIAL_CHUNK`` faults, giving a progress hook and the unit of
  work for the ``workers=N`` process fan-out.

The ``workers=N`` path shards over the persistent pools of
:mod:`repro.sim.pool`: the compiled stream is pickled once per campaign
and rides inside every shard task (each worker unpickles a digest once),
and a universe carrying a :class:`~repro.faults.universe.UniverseSpec`
travels as ``(spec, index range)`` shards that workers enumerate
locally -- no fault pickling at all.  The plan cuts
``min(SERIAL_CHUNK, ceil(total / (4 * workers)))`` faults per shard, so
a small universe still gives every worker a few shards and a large one
never queues shards longer than the serial cadence.  Completed shards
merge by universe index, so results are byte-identical whichever worker
ran what.  Pools outlive campaigns, so back-to-back campaigns
(``compare``, benchmark sweeps, services) amortize pool startup.

Replay cost is ``O(|universe| * detection_prefix)`` -- for strong tests
the mean prefix is a small fraction of the test length, which is where
the engine's wall-clock win over the interpreted loop comes from (see
``benchmarks/bench_campaign_engine.py``).
"""

from __future__ import annotations

import logging
import multiprocessing
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field as dataclass_field
from dataclasses import fields as dataclass_fields

from repro.faults.base import Fault, VectorSemantics
from repro.faults.injector import FaultInjector
from repro.faults.universe import DescriptorTable, materialize_spec
from repro.memory.multiport import MultiPortRAM, PortConflictError
from repro.memory.ram import SinglePortRAM
from repro.sim.ir import OpStream
from repro.sim.pool import (
    PoolUnavailable,
    WorkerPool,
    shared_pool,
    worker_stream,
)

__all__ = ["CampaignResult", "run_campaign", "partition_universe",
           "partition_table"]

#: Longest shard, in faults, and the serial-path chunk length (progress
#: cadence).
SERIAL_CHUNK = 128

#: Shards the sharded plan cuts per worker on a small universe, so a
#: worker that drew slow faults does not hold the whole drain up.
SHARDS_PER_WORKER = 4


@dataclass
class CampaignResult:
    """Outcome of one batched campaign.

    ``verdicts[i]`` is the ``detected`` flag of ``faults[i]``, in
    universe order.  ``faults`` is the campaign's universe: for a
    :class:`~repro.faults.universe.FaultUniverse` made from a spec it is
    the lazy universe itself, so a caller that tallies the verdicts
    with :func:`repro.faults.universe.tally` (as
    :func:`repro.analysis.coverage.run_coverage` reports) builds no
    :class:`~repro.faults.base.Fault`.
    ``outcomes`` is the ``(fault, detected)`` list of every fault.
    Two results are equal when their fields are, with ``faults``
    compared element by element rather than by universe identity.
    ``faults_batched`` counts the faults the bit-packed engine resolved
    lane-parallel (always 0 for :func:`run_campaign`; see
    :func:`repro.sim.batched.run_campaign_batched`).
    """

    stream_name: str
    n: int
    m: int
    faults: Sequence[Fault] = dataclass_field(default_factory=list,
                                              compare=False)
    verdicts: list[bool] = dataclass_field(default_factory=list)
    operations_replayed: int = 0
    reference_operations: int = 0
    workers_used: int = 0
    faults_batched: int = 0

    @property
    def outcomes(self) -> list[tuple[Fault, bool]]:
        """``(fault, detected)`` pairs in universe order (builds every
        fault of a lazy universe)."""
        return list(zip(self.faults, self.verdicts, strict=True))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in dataclass_fields(self) if f.compare)
                and list(self.faults) == list(other.faults))

    @property
    def faults_total(self) -> int:
        """Number of faults injected."""
        return len(self.verdicts)

    @property
    def detected_total(self) -> int:
        """Number of detected faults."""
        return sum(self.verdicts)

    @property
    def detection_ratio(self) -> float:
        """Detected / total (1.0 for an empty campaign)."""
        if not self.verdicts:
            return 1.0
        return self.detected_total / self.faults_total

    @property
    def missed(self) -> list[Fault]:
        """The faults that escaped, in universe order."""
        return [self.faults[index]
                for index, detected in enumerate(self.verdicts)
                if not detected]

    def __repr__(self) -> str:
        return (
            f"CampaignResult({self.stream_name!r}, "
            f"{self.detected_total}/{self.faults_total} detected, "
            f"{self.operations_replayed} ops replayed)"
        )


def _stream_ram(n: int, m: int, ports: int):
    """The canonical perfect memory for a stream: single-port for flat
    streams, an N-port front-end for cycle-grouped ones."""
    if ports > 1:
        return MultiPortRAM(n, m=m, ports=ports)
    return SinglePortRAM(n, m=m)


def _run_one(stream: OpStream, fault: Fault) -> tuple[bool, int]:
    """Inject one fault into a fresh canonical RAM and replay with early
    abort.

    A :class:`~repro.memory.multiport.PortConflictError` raised
    mid-replay counts as a *detection*: healthy-logical streams never
    conflict (validated at compile time), so a replay-time conflict
    means the injected fault -- a decoder fault aliasing two addresses
    onto one cell -- drove the test into undefined port behaviour, which
    is exactly how the interpreted multi-port engines fail on it too.
    """
    ram = _stream_ram(stream.n, stream.m, stream.ports)
    injector = FaultInjector([fault])
    injector.install(ram)
    mismatches: list[tuple[int, int]] = []
    try:
        executed = ram.apply_stream(stream.ops, tables=stream.tables,
                                    stop_on_mismatch=True,
                                    mismatches=mismatches)
    except PortConflictError:
        injector.remove(ram)
        return True, 0
    injector.remove(ram)
    return bool(mismatches), executed


def partition_universe(
    universe: Iterable[Fault], n: int, m: int = 1,
) -> tuple[dict[str, list[tuple[int, Fault, VectorSemantics]]],
           list[tuple[int, Fault]]]:
    """Split a universe into lane-vectorizable classes and a remainder.

    A fault is vectorizable when it describes itself through
    :meth:`~repro.faults.base.Fault.vector_semantics` *and* every bit the
    descriptor touches exists in the ``n x m`` geometry -- the contract
    of :class:`~repro.memory.packed.PackedMemoryArray` (word-oriented
    geometries pack ``m`` bit planes per lane, so a descriptor may name
    any ``bit < m``).  Everything else lands in the scalar ``fallback``
    list.

    Returns ``(classes, fallback)``: ``classes`` maps the descriptor kind
    (``"stuck"``, ``"transition"``, ``"coupling"``, ``"stuck-open"``,
    ``"state"``, ``"npsf"``, ``"bridge"``, ``"retention"``, ``"linked"``,
    ``"decoder"``) to ``(universe_index, fault, semantics)`` triples,
    ``fallback`` holds ``(universe_index, fault)`` pairs; indices let the
    batched engine reassemble outcomes in universe order.

    This asks every fault for its descriptor, so it builds every fault of
    a lazy universe.  A universe made from a spec carries the same
    descriptors already (:attr:`~repro.faults.universe.FaultUniverse
    .descriptors`); :func:`partition_table` splits those without a
    :class:`~repro.faults.base.Fault`, and is what the batched engine
    uses for such universes.

    >>> from repro.faults import single_cell_universe
    >>> classes, fallback = partition_universe(
    ...     single_cell_universe(8), n=8)
    >>> sorted((kind, len(group)) for kind, group in classes.items())
    [('retention', 8), ('stuck', 16), ('stuck-open', 8), ('transition', 16)]
    >>> len(fallback)   # every built-in class carries lane semantics
    0
    """
    faults = list(universe)
    classes, fallback = _partition_faults(faults, n, m)
    return ({kind: [(index, faults[index], semantics)
                    for index, semantics in members]
             for kind, members in classes.items()},
            [(index, faults[index]) for index in fallback])


def _partition_faults(faults, n: int, m: int):
    """Per-fault split: ``({kind: [(index, semantics)]}, [index])``."""
    classes: dict[str, list[tuple[int, VectorSemantics]]] = {}
    fallback: list[int] = []
    for index, fault in enumerate(faults):
        semantics = fault.vector_semantics()
        if semantics is not None and _fits_geometry(semantics, n, m):
            classes.setdefault(semantics.kind, []).append((index, semantics))
        else:
            fallback.append(index)
    return classes, fallback


def partition_table(
    table: DescriptorTable, n: int, m: int = 1,
) -> tuple[dict[str, list[tuple[int, VectorSemantics]]], list[int]]:
    """Split a descriptor table into lane classes and a scalar remainder.

    The same split as :func:`partition_universe`, read from the rows of
    a :class:`~repro.faults.universe.DescriptorTable` with no
    :class:`~repro.faults.base.Fault` built: ``classes`` maps each
    descriptor kind to ``(universe_index, semantics)`` pairs and
    ``fallback`` lists the indices whose descriptor does not fit the
    ``n x m`` geometry.  Rows of a generator part recorded for a memory
    no larger than ``n x m`` fit by construction; only rows of larger
    parts are checked one by one.

    This walks every row.  The batched engine calls it only for tables
    whose :meth:`~repro.faults.universe.DescriptorTable.lane_plan` is
    None (a ``sample``, or a part larger than the stream); otherwise the
    plan splits the universe by kind from the generator records alone
    (:func:`repro.sim.batched.lane_plan_of`).

    >>> from repro.faults import descriptor_table, standard_universe_spec
    >>> spec = standard_universe_spec(8)
    >>> classes, fallback = partition_table(descriptor_table(spec), n=8)
    >>> sorted((kind, len(group)) for kind, group in classes.items())[:2]
    [('bridge', 14), ('coupling', 84)]
    >>> fallback
    []
    >>> small = partition_table(descriptor_table(spec), n=4)[1]
    >>> small == [i for i, _ in partition_universe(spec.build(), n=4)[1]]
    True
    """
    classes: dict[str, list[tuple[int, VectorSemantics]]] = {}
    fallback: list[int] = []
    rows = table.rows
    for start, stop, part_n, part_m in table.spans:
        checked = part_n > n or part_m > m
        for index in range(start, stop):
            semantics = rows[index][1]
            if checked and not _fits_geometry(semantics, n, m):
                fallback.append(index)
                continue
            members = classes.get(semantics.kind)
            if members is None:
                members = classes[semantics.kind] = []
            members.append((index, semantics))
    return classes, fallback


def _fits_geometry(semantics: VectorSemantics, n: int, m: int) -> bool:
    """True when every bit the descriptor touches exists in an n x m array.

    Kind-aware: the structural kinds carry their sites in ``extra``
    (decoder override pairs, NPSF neighbourhood patterns, linked
    component descriptors), so the generic cell/bit/victim check alone
    would accept descriptors the lane models cannot place.
    """
    kind = semantics.kind
    if kind == "linked":
        # Only pure edge-coupling compositions have a lane model; each
        # component must individually fit.
        return bool(semantics.extra) and all(
            part.kind == "coupling" and _fits_geometry(part, n, m)
            for part in semantics.extra
        )
    if kind == "decoder":
        if not semantics.extra:
            return False
        for addr, cells in semantics.extra:
            if not 0 <= addr < n:
                return False
            if any(not 0 <= cell < n for cell in cells):
                return False
        return True
    if not 0 <= semantics.bit < m or not 0 <= semantics.cell < n:
        return False
    if kind == "npsf":
        if semantics.value is None or not 0 <= semantics.value < (1 << m):
            return False
        return bool(semantics.extra) and all(
            0 <= cell < n and 0 <= pattern < (1 << m)
            for cell, pattern in semantics.extra
        )
    if kind == "retention":
        return semantics.value is not None \
            and 0 <= semantics.value < (1 << m)
    if kind == "bridge":
        # A bridge shorts whole cells: victim_bit stays None.
        return semantics.victim_cell is not None \
            and 0 <= semantics.victim_cell < n
    if semantics.victim_cell is None:
        return True
    return 0 <= semantics.victim_bit < m and 0 <= semantics.victim_cell < n


# -- process sharding -------------------------------------------------------
#
# A shard is a task tuple executed by ``_run_task`` inside a pool worker:
#
#     (stream_pair, spec, lo, hi, faults)
#
# ``stream_pair`` is the campaign's ``(digest, blob)``
# (``WorkerPool.stream_pair``): every task carries the stream.  A
# universe with a spec ships ``faults=None`` and the worker replays
# ``materialize_spec(spec)[lo:hi]`` -- re-enumerated locally, cached per
# worker, so the task carries no fault objects at all; any other
# universe (hand-built lists, the batched engine's scalar remainder)
# ships its ``[lo:hi]`` faults pickled.  Every completed task yields
#
#     (lo, hi, outcomes)
#
# merged into a position-keyed array, which is why verdicts are
# byte-identical regardless of completion order.


def _run_task(task) -> tuple:
    """Pool unit of work: replay one shard, ``(lo, hi, outcomes)``."""
    stream_pair, spec, lo, hi, faults = task
    stream = worker_stream(*stream_pair)
    if faults is None:
        faults = materialize_spec(spec)[lo:hi]
    return lo, hi, [_run_one(stream, fault) for fault in faults]


def _shard_plan(total: int, workers: int) -> list[tuple[int, int]]:
    """Cut ``total`` faults into contiguous ``(lo, hi)`` shard ranges of
    ``min(SERIAL_CHUNK, ceil(total / (SHARDS_PER_WORKER * workers)))``
    faults.  Contiguity is what lets a shard travel as a bare ``(spec,
    lo, hi)`` index range.

    >>> _shard_plan(10, workers=2)
    [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    >>> len(_shard_plan(256, workers=2)), _shard_plan(10_000, workers=2)[0]
    (8, (0, 128))
    """
    chunk = max(1, min(SERIAL_CHUNK, -(-total // (SHARDS_PER_WORKER
                                                  * workers))))
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _reference_pass(stream: OpStream, n: int, m: int) -> None:
    """Fault-free replay on a canonical perfect memory; caches success
    (and the stream's operation count) on the stream.

    Runs on the same canonical front-end as every per-fault replay
    (``SinglePortRAM``, or a perfect ``MultiPortRAM`` for cycle-grouped
    streams), with no fault installed: is the stream self-consistent on
    a *perfect* memory?
    """
    if stream.reference_verified:
        return
    ram = _stream_ram(n, m, stream.ports)
    mismatches: list[tuple[int, int]] = []
    executed = ram.apply_stream(stream.ops, tables=stream.tables,
                                mismatches=mismatches)
    if mismatches:
        index, actual = mismatches[0]
        record = stream.ops[index]
        raise ValueError(
            f"compiled stream {stream.name!r} fails on a fault-free memory: "
            f"op {index} ({record[0]} addr={record[2]}) expected "
            f"{record[4]} read {actual} -- the stream is not self-consistent "
            f"(hand-built records, or a compiler bug)"
        )
    stream.reference_verified = True
    stream.reference_operations = executed


def run_campaign(stream: OpStream, universe: Iterable[Fault],
                 workers: int = 0,
                 progress: Callable[[int, int], None] | None = None,
                 reference_check: bool = True,
                 pool: WorkerPool | None = None) -> CampaignResult:
    """Replay one compiled stream against every fault of a universe.

    Each fault is replayed on a fresh canonical front-end:
    ``SinglePortRAM(stream.n, m=stream.m)`` for a flat stream,
    ``MultiPortRAM(stream.n, m=stream.m, ports=stream.ports)`` for a
    cycle-grouped one.

    Parameters
    ----------
    stream:
        The compiled test (see :mod:`repro.sim.compilers`).
    universe:
        Iterable of faults; injected one at a time (single-fault
        methodology), outcome order preserved.  A universe carrying a
        :class:`~repro.faults.universe.UniverseSpec` (everything the
        :mod:`repro.faults.universe` generators produce) is sharded
        *by spec*: workers re-enumerate their faults locally instead of
        unpickling them per chunk.
    workers:
        ``0`` (default) runs in-process -- unless ``pool`` is given, in
        which case its worker count applies.  ``N > 0`` fans shards out
        to the persistent ``shared_pool(N)`` (or ``pool``); falls back
        to in-process execution, with a warning on the ``repro.sim``
        logger, if the platform cannot spawn workers (sandboxes,
        missing /dev/shm).
    progress:
        Optional ``progress(done, total)`` hook called after each chunk
        (the universe is materialized up front, so ``total`` is always
        its concrete size).
    reference_check:
        Validate the stream on a fault-free memory first (cached on the
        stream, so repeated campaigns pay it once).
    pool:
        An explicit :class:`~repro.sim.pool.WorkerPool` to shard on
        (e.g. one ``with WorkerPool(4) as pool`` block around many
        campaigns).  Default: the process-wide shared pool for
        ``workers``.

    >>> from repro.faults import single_cell_universe
    >>> from repro.march.library import MARCH_C_MINUS
    >>> from repro.sim.compilers import compile_march
    >>> stream = compile_march(MARCH_C_MINUS, 8)
    >>> result = run_campaign(stream, single_cell_universe(8, classes=("SAF",)))
    >>> result.detection_ratio
    1.0
    """
    n, m = stream.n, stream.m
    if reference_check:
        _reference_pass(stream, n, m)
    progress = _monotonic_progress(progress)
    result = CampaignResult(stream_name=stream.name, n=n, m=m,
                            reference_operations=stream.reference_operations or 0)
    faults = list(universe)
    outcomes: list[tuple[bool, int]] | None = None
    if (workers > 0 or pool is not None) and len(faults) > 1:
        effective = workers or pool.workers
        outcomes = _run_sharded(stream, faults,
                                getattr(universe, "spec", None),
                                effective, pool, progress)
        if outcomes is not None:
            result.workers_used = effective
    if outcomes is None:  # serial path, or process fan-out unavailable
        outcomes = []
        done = 0
        for lo in range(0, len(faults), SERIAL_CHUNK):
            chunk = faults[lo:lo + SERIAL_CHUNK]
            for fault in chunk:
                outcomes.append(_run_one(stream, fault))
            done += len(chunk)
            if progress is not None:
                progress(done, len(faults))
    result.faults = faults
    result.verdicts = [detected for detected, _executed in outcomes]
    result.operations_replayed = sum(executed for _detected, executed
                                     in outcomes)
    return result


#: Exceptions that mean "the pool cannot serve this campaign": the pool
#: is marked broken and the campaign degrades to single-process
#: execution.
POOL_FAILURES = (PoolUnavailable, OSError, PermissionError, ImportError)

_log = logging.getLogger("repro.sim")

#: Seconds to wait for any single shard result.  A worker killed
#: mid-shard (OOM, segfault) loses its task: the drain would block on it
#: forever, so it polls with this timeout and declares the pool broken
#: instead -- the campaign then re-runs serially.  Ordinary shards
#: finish in well under a second; only a dead worker plausibly exceeds
#: this.
SHARD_TIMEOUT = 300.0


def _drain_shards(results, outcomes: list, progress) -> None:
    """Merge shard payloads into ``outcomes`` as they complete.

    ``results`` is the ``imap_unordered`` iterator over the campaign's
    tasks; each ``(lo, hi, data)`` payload fills ``outcomes[lo:hi]``.
    Raises :class:`PoolUnavailable` when no result arrives within
    ``SHARD_TIMEOUT`` (a worker died with tasks in flight), and
    ``RuntimeError`` when the workers covered a different fault count
    than ``len(outcomes)`` (spec drift) -- silently-truncated verdicts
    must never merge.
    """
    covered = 0
    while True:
        try:
            lo, hi, data = results.next(SHARD_TIMEOUT)
        except StopIteration:
            break
        except multiprocessing.TimeoutError:
            raise PoolUnavailable(
                f"no shard result within {SHARD_TIMEOUT:.0f}s -- worker "
                f"lost mid-task?"
            ) from None
        outcomes[lo:hi] = data
        covered += hi - lo
        if progress is not None:
            progress(covered, len(outcomes))
    if covered != len(outcomes):
        raise RuntimeError(
            f"sharded campaign covered {covered} outcomes for "
            f"{len(outcomes)} faults -- the universe spec does not "
            f"re-enumerate identically in the workers"
        )


def _monotonic_progress(progress):
    """Wrap a progress hook so reported ``done`` never decreases.

    When a pool breaks mid-drain the campaign re-runs serially from
    zero; without the clamp the hook would observe ``done`` jump
    backwards and the same faults counted twice.
    """
    if progress is None:
        return None
    best = 0

    def hook(done: int, total: int) -> None:
        nonlocal best
        if done > best:
            best = done
            progress(done, total)

    return hook


def _run_sharded(stream, faults, spec, workers, pool,
                 progress) -> list[tuple[bool, int]] | None:
    """Fan fixed shards out over the pool; ``None`` when unavailable.

    Completed payloads merge into a position-keyed array -- identical
    verdicts to the serial path regardless of which worker ran what.  A
    pool that cannot start or breaks mid-run is marked broken (the next
    campaign gets a fresh one) and the campaign degrades to the serial
    path with a warning rather than failing.
    """
    if pool is None:
        pool = shared_pool(workers)
    outcomes: list = [None] * len(faults)
    try:
        stream_pair = pool.stream_pair(stream)
        tasks = [(stream_pair, spec, lo, hi,
                  None if spec is not None else faults[lo:hi])
                 for lo, hi in _shard_plan(len(faults), pool.workers)]
        _drain_shards(pool.imap_unordered(_run_task, tasks), outcomes,
                      progress)
        return outcomes
    except POOL_FAILURES as exc:
        pool.mark_broken()
        _log.warning("worker pool unavailable (%s: %s); running serially",
                     type(exc).__name__, exc)
        return None
