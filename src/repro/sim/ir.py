"""The operation-stream IR: a test compiled to flat memory operations.

An :class:`OpStream` is the compile-once artefact of :mod:`repro.sim`:
every memory operation a test will issue, lowered into a flat tuple of
plain-tuple records so a campaign can replay the same test against
thousands of faulty memories without re-interpreting March elements,
LFSR recurrences or trajectories.

Each record is the 6-tuple ``(kind, port, addr, value, expected, idle)``.
The ``kind`` tag selects which slots are meaningful:

=========  =================================================================
kind       semantics
=========  =================================================================
``"w"``    write the constant ``value`` to ``addr``
``"r"``    read ``addr`` and compare with ``expected`` (mismatch = detection)
``"s"``    checked read that is also *captured* (signature-window reads:
           the actual value is appended to the replay's ``captured`` list)
``"ra"``   recurrence read: read ``addr``, XOR-decode with mask
           ``expected``, multiply by the iteration's recurrence constant
           and add into the replay accumulator (a π-test sweep read).
           ``value`` is an index into :attr:`OpStream.tables` -- the
           GF(2^m) constant multiplication is precompiled to a lookup
           table per ``(field, multiplier)`` pair, so replay needs no
           field arithmetic and per-iteration fields are honoured --
           or ``None`` for a multiplier of 1 (identity)
``"wa"``   recurrence write: XOR-encode the accumulator with mask
           ``value``, write it to ``addr``, reset the accumulator;
           ``expected`` records the fault-free stored value
``"i"``    idle for ``idle`` memory cycles (March ``Del`` / PRT pause)
``"grp"``  cycle-group marker: the next ``value`` records all issue in
           *one* memory cycle, one per port (see below)
=========  =================================================================

``"ra"``/``"wa"`` keep compiled π-tests *exactly* equivalent to the
interpreted engine: write data is still computed from the actual (possibly
corrupted) reads, so fault effects propagate through the pseudo-ring the
same way, while everything that is fault-independent -- addresses,
multipliers, expected backgrounds, ``Fin*`` -- is precomputed once.

Cycle groups
------------

Flat records model the single-port discipline: one operation, one memory
cycle.  Multi-port schemes (the paper's Figure 2 dual-port π-test, the
QuadPort DSE family) issue up to one operation *per port* per cycle, and
the whole point of those schemes is the cycle count -- 2n instead of 3n
for dual-port, n for quad-port.  A ``"grp"`` marker encodes that: the
``value`` slot holds the member count k, and the k records that follow
form one memory cycle with the standard multi-port semantics

* every read (``"r"``/``"s"``/``"ra"``) senses the *pre-cycle* state
  (read-before-write: a read racing a write of the same cell returns the
  old value);
* writes commit after all reads, and two writes landing on the same cell
  are a :class:`~repro.memory.multiport.PortConflictError` -- rejected
  at stream-construction time for same-address writes, and at replay
  time when faulty decoding aliases two distinct addresses;
* ``RamStats.cycles`` advances by **one** for the whole group.

Group members use the ``port`` slot for their port and must name
distinct ports within ``[0, ports)``.  ``"i"`` records and nested groups
are not allowed inside a group.  Because several recurrence automata can
run concurrently (the quad-port scheme sweeps two array halves at once),
``"ra"``/``"wa"`` records select their accumulator with the otherwise
unused ``idle`` slot: accumulator ``record[5]``, defaulting to 0 -- the
single implicit accumulator of flat streams.  A ``"wa"`` consumes its
accumulator as of the start of its cycle; ``"ra"`` contributions become
visible to later cycles.

A flat stream is exactly the degenerate one-op-per-group case (every
group of size one, marker elided), which is why single-port streams --
their encoding, their replay semantics, their pickle bytes -- are
untouched by the grouped extension.

Replay is performed by the RAM front-ends' bulk ``apply_stream`` entry
point (:meth:`repro.memory.ram.SinglePortRAM.apply_stream` for flat
streams, :meth:`repro.memory.multiport.MultiPortRAM.apply_stream` for
grouped ones), which keeps stats/trace/settle semantics identical to
issuing ``read``/``write``/``cycle``/``idle`` calls one at a time.
"""

from __future__ import annotations

import hashlib
from collections.abc import Generator, Iterator
from dataclasses import dataclass, field as dataclass_field

from repro.sim.diagnostics import Diagnostic, StreamError, _diagnostic

__all__ = [
    "Op",
    "OpStream",
    "Segment",
    "OP_KINDS",
    "GROUPABLE_KINDS",
    "iter_construction_diagnostics",
]

Op = tuple
"""One operation record: ``(kind, port, addr, value, expected, idle)``."""

OP_KINDS = ("w", "r", "s", "ra", "wa", "i", "grp")
"""All valid record tags (see module docstring)."""

GROUPABLE_KINDS = ("w", "r", "s", "ra", "wa")
"""Tags that may appear inside a ``"grp"`` cycle group."""


def iter_construction_diagnostics(
    ops: tuple[Op, ...], info: tuple[tuple, ...], ports: int
) -> Iterator[Diagnostic]:
    """Yield every construction-contract violation in raw record data.

    This is the single source of truth for the checks
    :class:`OpStream.__post_init__` enforces (E001/E002/E003 stream
    shape, E101..E107 cycle-group contract), shared with the collect-all
    static analyzer :func:`repro.sim.verify.verify`.  Construction stays
    fail-fast (first diagnostic raises); the analyzer drains the
    generator, recovering past each finding -- a malformed group marker
    is skipped as if flat, a truncated group is clamped to the records
    that do follow -- so one pass reports *all* violations.
    """
    if len(ops) != len(info):
        yield _diagnostic(
            "E001", None,
            f"ops and info must be parallel: {len(ops)} records "
            f"vs {len(info)} metadata entries")
    if ports < 1:
        yield _diagnostic(
            "E002", None, f"streams need at least one port, got {ports}")
    index, total = 0, len(ops)
    while index < total:
        kind = ops[index][0]
        if kind not in OP_KINDS:
            yield _diagnostic(
                "E003", index, f"unknown op kind {ops[index][0]!r}")
            index += 1
        elif kind == "grp":
            index = yield from _group_diagnostics(ops, index, ports, total)
        else:
            index += 1


def _group_diagnostics(
    ops: tuple[Op, ...], index: int, ports: int, total: int
) -> Generator[Diagnostic, None, int]:
    """Check one ``"grp"`` marker's members; returns the next index.

    These are the *compile-time* conflict checks of the cycle-group
    contract: member count vs ports, distinct ports, no nested
    groups/idles, and no two writes to the same address.  Replay adds
    the physical-cell check (a faulty decoder can alias distinct
    addresses), raising ``PortConflictError`` with the cycle index.
    """
    count = ops[index][3]
    if not isinstance(count, int) or count < 1:
        yield _diagnostic(
            "E101", index,
            f"op {index}: group member count must be a positive int, "
            f"got {count!r}")
        return index + 1
    if count > ports:
        yield _diagnostic(
            "E102", index,
            f"op {index}: {count} operations grouped into one cycle of "
            f"a {ports}-port stream")
    stop = index + 1 + count
    if stop > total:
        yield _diagnostic(
            "E103", index,
            f"op {index}: group announces {count} members but only "
            f"{total - index - 1} records follow")
        stop = total
    seen_ports: set[int] = set()
    write_addrs: set[int] = set()
    for member in range(index + 1, stop):
        rec = ops[member]
        kind = rec[0]
        if kind not in GROUPABLE_KINDS:
            yield _diagnostic(
                "E104", member,
                f"op {member}: {kind!r} records cannot appear inside "
                f"a cycle group")
            continue
        port = rec[1]
        if not isinstance(port, int) or not 0 <= port < ports:
            yield _diagnostic(
                "E105", member,
                f"op {member}: port {port} out of range [0, {ports})")
        elif port in seen_ports:
            yield _diagnostic(
                "E106", member,
                f"op {member}: port {port} used twice in one cycle group")
        else:
            seen_ports.add(port)
        if kind in ("w", "wa"):
            if rec[2] in write_addrs:
                yield _diagnostic(
                    "E107", member,
                    f"op {member}: two simultaneous writes to address "
                    f"{rec[2]} in one cycle group")
            write_addrs.add(rec[2])
    return stop


@dataclass(frozen=True)
class Segment:
    """A contiguous slice of an :class:`OpStream` with shared bookkeeping.

    Schedule streams carry one segment per π-iteration (holding the
    precomputed ``init_state``/``expected_final`` needed to rebuild a
    :class:`~repro.prt.pi_test.PiIterationResult`) plus an optional
    trailing ``"readback"`` segment for the final verification pass.
    """

    label: str  # "iteration" or "readback"
    index: int  # iteration number (readback: index of the last iteration)
    start: int  # first op record (inclusive)
    stop: int  # last op record (exclusive)
    init_state: tuple[int, ...] | None = None
    expected_final: tuple[int, ...] | None = None


@dataclass
class OpStream:
    """A compiled test: flat operation records plus result-mapping metadata.

    Attributes
    ----------
    source:
        What was compiled: ``"march"``, ``"schedule"``, ``"iteration"``,
        ``"dual-port"`` or ``"quad-port"``.
    name:
        Human-readable test name (for reports).
    n, m:
        Memory geometry the stream was compiled for.
    ops:
        The flat records (see :mod:`repro.sim.ir` docstring).
    info:
        Per-op metadata, parallel to ``ops``.  March streams carry
        ``(background, element_index)``; schedule/iteration streams carry
        ``(iteration_index, role)`` with role in ``{"seed", "sweep",
        "verify", "sig", "pause", "readback"}``; grouped port streams
        additionally use the role ``"grp"`` for the cycle markers.
    tables:
        Constant-multiplier lookup tables referenced by ``"ra"`` records
        (``tables[value][r] == field.mul(multiplier, r)``); empty for
        pure constant streams such as March tests.
    segments:
        Iteration boundaries (schedule streams only).
    ports:
        Ports the stream was compiled for (1 = single-port / flat).  A
        replay target must offer at least this many ports; cycle groups
        are validated against it at construction time.
    reference_verified:
        Set by the campaign engine once a fault-free reference replay of
        this stream has passed (cached so repeated campaigns skip it).

    >>> stream = OpStream(source="march", name="demo", n=2, m=1,
    ...                   ops=(("w", 0, 0, 1, None, 0),
    ...                        ("r", 0, 0, None, 1, 0),
    ...                        ("i", 0, 0, 0, None, 8)),
    ...                   info=((0, 0), (0, 1), (0, 2)))
    >>> len(stream), stream.operation_count, stream.checked_reads
    (3, 2, 1)
    >>> stream.grouped, stream.replay_cycles
    (False, 10)
    """

    source: str
    name: str
    n: int
    m: int
    ops: tuple[Op, ...]
    info: tuple[tuple, ...]
    tables: tuple[tuple[int, ...], ...] = ()
    segments: tuple[Segment, ...] = ()
    ports: int = 1
    reference_verified: bool = dataclass_field(default=False, repr=False)
    reference_operations: int | None = dataclass_field(default=None, repr=False)

    def __post_init__(self) -> None:
        # Fail-fast construction gate: the first contract violation
        # raises StreamError (a ValueError subclass carrying the
        # machine-readable Diagnostic); repro.sim.verify drains the same
        # generator in collect-all mode.
        first = next(
            iter_construction_diagnostics(self.ops, self.info, self.ports),
            None)
        if first is not None:
            raise StreamError((first,))
        # The fields that passed, so verify() need not check them again.
        self.__dict__["_constructed_from"] = (self.ops, self.info,
                                              self.ports)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def operation_count(self) -> int:
        """Reads + writes in one replay (idles cost cycles, not operations;
        group markers are free)."""
        return sum(1 for record in self.ops if record[0] not in ("i", "grp"))

    @property
    def checked_reads(self) -> int:
        """Observation points: reads whose mismatch means *detection*."""
        return sum(1 for record in self.ops if record[0] in ("r", "s"))

    @property
    def idle_cycles(self) -> int:
        """Total idle cycles contributed by ``"i"`` records."""
        return sum(record[5] for record in self.ops if record[0] == "i")

    @property
    def grouped(self) -> bool:
        """True when the stream contains cycle groups (multi-port)."""
        return any(record[0] == "grp" for record in self.ops)

    @property
    def replay_cycles(self) -> int:
        """Memory cycles one replay costs: 1 per flat operation, 1 per
        cycle group (however many members), plus all idle cycles --
        the quantity the paper's 3n/2n/n claims are stated in.

        >>> grouped = OpStream(source="dual-port", name="g", n=2, m=1,
        ...                    ops=(("grp", 0, 0, 2, None, 0),
        ...                         ("w", 0, 0, 1, None, 0),
        ...                         ("w", 1, 1, 0, None, 0)),
        ...                    info=((0, "grp"), (0, "seed"), (0, "seed")),
        ...                    ports=2)
        >>> grouped.replay_cycles
        1
        """
        cycles = 0
        index, total = 0, len(self.ops)
        while index < total:
            record = self.ops[index]
            kind = record[0]
            if kind == "grp":
                cycles += 1
                index += 1 + record[3]
            elif kind == "i":
                cycles += record[5]
                index += 1
            else:
                cycles += 1
                index += 1
        return cycles

    def digest(self) -> str:
        """Content digest: SHA-256 over everything that defines a replay.

        Two streams with equal ``digest()`` issue the identical operation
        sequence against the identical geometry -- regardless of which
        process, Python run or compiler invocation produced them.  That
        stability is what makes streams *content-addressable*: the
        :class:`~repro.sim.pool.WorkerPool` workers cache recompiled
        streams by digest, and the campaign result cache of
        :mod:`repro.server.cache` keys requests on it.

        The digest covers ``source``, ``name``, geometry (``n``, ``m``,
        ``ports``), the op records, the per-op ``info`` metadata, the
        recurrence ``tables`` and the ``segments`` -- and deliberately
        excludes the mutable replay bookkeeping (``reference_verified``,
        ``reference_operations``), which is cache state, not identity.
        Records hold only ints, strings and ``None``, whose ``repr`` is
        bit-stable across processes and runs (no hash randomization),
        so the serialization needs no custom packing.

        >>> a = OpStream(source="march", name="d", n=2, m=1,
        ...              ops=(("w", 0, 0, 1, None, 0),), info=((0, 0),))
        >>> b = OpStream(source="march", name="d", n=2, m=1,
        ...              ops=(("w", 0, 0, 1, None, 0),), info=((0, 0),))
        >>> a is b, a.digest() == b.digest(), len(a.digest())
        (False, True, 64)
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            hasher = hashlib.sha256()
            segments = tuple(
                (s.label, s.index, s.start, s.stop, s.init_state,
                 s.expected_final)
                for s in self.segments
            )
            for piece in ((self.source, self.name, self.n, self.m,
                           self.ports), self.ops, self.info, self.tables,
                          segments):
                hasher.update(repr(piece).encode("utf-8"))
                hasher.update(b"\x00")
            cached = hasher.hexdigest()
            self.__dict__["_digest"] = cached
        return cached

    def counts_by_kind(self) -> dict[str, int]:
        """``{kind: record_count}`` for diagnostics."""
        out: dict[str, int] = {}
        for record in self.ops:
            out[record[0]] = out.get(record[0], 0) + 1
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{c}" for k, c in sorted(self.counts_by_kind().items()))
        ports = f", ports={self.ports}" if self.ports > 1 else ""
        return (
            f"OpStream({self.name!r}, {self.source}, n={self.n}, m={self.m}"
            f"{ports}, {len(self.ops)} records [{inner}])"
        )
