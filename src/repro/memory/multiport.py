"""Multi-port RAM front-ends.

A multi-port RAM performs one operation *per port* in a single memory cycle.
The paper's dual-port π-test (Figure 2) exploits this: the two reads of a
sub-iteration issue simultaneously on the two ports, cutting the iteration
from 3n cycles to 2n.  The "QuadPort DSE family" mentioned in §4 is modelled
by the 4-port variant.

Conflict semantics (per cycle):

* several reads of the same cell -- fine, all see the stored value;
* read + write of the same cell -- the read returns the *old* value
  (read-before-write, the common dual-port SRAM discipline);
* two writes to the same cell -- :class:`PortConflictError`: the result is
  undefined on real silicon, so tests must never do it;
* at most one operation per port per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.behavior import CellBehavior, TransparentBehavior
from repro.memory.decoder import AddressDecoder
from repro.memory.ram import RamStats
from repro.memory.array import MemoryArray
from repro.memory.trace import Operation, OperationTrace

__all__ = ["PortOp", "PortConflictError", "MultiPortRAM", "DualPortRAM", "QuadPortRAM"]


class PortConflictError(Exception):
    """Raised when a cycle's port operations have undefined semantics."""


@dataclass(frozen=True)
class PortOp:
    """One port operation inside a cycle.

    ``kind`` is ``"r"`` or ``"w"``; ``value`` is required for writes and
    must be None for reads.
    """

    port: int
    kind: str
    addr: int
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ValueError(f"kind must be 'r' or 'w', got {self.kind!r}")
        if self.kind == "w" and self.value is None:
            raise ValueError("write operations need a value")
        if self.kind == "r" and self.value is not None:
            raise ValueError("read operations must not carry a value")


class MultiPortRAM:
    """RAM with ``ports`` independent ports (see module docstring).

    Examples
    --------
    >>> ram = MultiPortRAM(8, ports=2)
    >>> ram.cycle([PortOp(0, "w", 3, 1)])
    {}
    >>> ram.cycle([PortOp(0, "r", 3), PortOp(1, "r", 3)])
    {0: 1, 1: 1}
    >>> ram.stats.cycles
    2
    """

    def __init__(self, n: int, m: int = 1, ports: int = 2,
                 decoder: AddressDecoder | None = None,
                 behavior: CellBehavior | None = None,
                 trace: bool = False,
                 wired: str = "and"):
        if ports < 1:
            raise ValueError(f"need at least one port, got {ports}")
        if wired not in ("and", "or"):
            raise ValueError(f"wired rule must be 'and' or 'or', got {wired!r}")
        self._array = MemoryArray(n, m)
        self._decoder = decoder if decoder is not None else AddressDecoder(n)
        if self._decoder.n != n:
            raise ValueError(
                f"decoder covers {self._decoder.n} addresses, RAM has {n}"
            )
        self._behavior: CellBehavior = (
            behavior if behavior is not None else TransparentBehavior()
        )
        self._ports = ports
        self._trace = OperationTrace() if trace else None
        self._wired = wired
        self._sense = [0] * ports  # per-port sense amplifiers
        self.stats = RamStats()

    # -- geometry / plumbing ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of addresses."""
        return self._array.n

    @property
    def m(self) -> int:
        """Bits per cell."""
        return self._array.m

    @property
    def ports(self) -> int:
        """Number of independent ports."""
        return self._ports

    @property
    def array(self) -> MemoryArray:
        """The underlying physical cell array."""
        return self._array

    @property
    def decoder(self) -> AddressDecoder:
        """The address decoder stage (shared by all ports)."""
        return self._decoder

    @property
    def trace(self) -> OperationTrace | None:
        """The operation trace, or None when tracing is disabled."""
        return self._trace

    def attach_behavior(self, behavior: CellBehavior) -> None:
        """Swap in new cell semantics (e.g. a fault injector)."""
        self._behavior = behavior

    def detach_behavior(self) -> None:
        """Restore perfect-memory semantics."""
        self._behavior = TransparentBehavior()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m}, ports={self._ports})"

    # -- cycle execution ---------------------------------------------------------

    def cycle(self, ops: list[PortOp]) -> dict[int, int]:
        """Execute one memory cycle with up to one operation per port.

        Returns ``{port: value}`` for the read operations.  All reads see
        the state *before* any write of the same cycle commits.
        """
        self._validate_cycle(ops)
        time = self.stats.cycles
        results: dict[int, int] = {}
        # Phase 1: all reads sense the pre-cycle state.
        for op in ops:
            if op.kind == "r":
                results[op.port] = self._read_internal(op.port, op.addr, time)
                self.stats.reads += 1
        # Phase 2: writes commit.
        for op in ops:
            if op.kind == "w":
                self._write_internal(op.addr, op.value, time)  # type: ignore[arg-type]
                self.stats.writes += 1
        self.stats.cycles += 1
        if self._trace is not None:
            for op in ops:
                value = results[op.port] if op.kind == "r" else op.value
                self._trace.record(
                    Operation(time, op.port, op.kind, op.addr, value)  # type: ignore[arg-type]
                )
        self._behavior.settle(self._array, self.stats.cycles)
        return results

    def _validate_cycle(self, ops: list[PortOp]) -> None:
        time = self.stats.cycles
        if len(ops) > self._ports:
            raise PortConflictError(
                f"cycle {time}: {len(ops)} operations issued on a "
                f"{self._ports}-port RAM"
            )
        seen_ports: set[int] = set()
        write_cells: set[int] = set()
        for op in ops:
            if not 0 <= op.port < self._ports:
                raise PortConflictError(
                    f"cycle {time}: port {op.port} out of range "
                    f"[0, {self._ports})"
                )
            if op.port in seen_ports:
                raise PortConflictError(
                    f"cycle {time}: port {op.port} used twice in one cycle"
                )
            seen_ports.add(op.port)
            if op.kind == "w":
                for cell in self._decoder.map(op.addr):
                    if cell in write_cells:
                        raise PortConflictError(
                            f"cycle {time}: two simultaneous writes touch "
                            f"cell {cell}"
                        )
                    write_cells.add(cell)

    def _read_internal(self, port: int, addr: int, time: int) -> int:
        cells = self._decoder.map(addr)
        if not cells:
            return self._sense[port]
        values = [
            self._behavior.read_cell(self._array, cell, time) for cell in cells
        ]
        value = values[0]
        for v in values[1:]:
            value = (value & v) if self._wired == "and" else (value | v)
        self._sense[port] = value
        return value

    def _write_internal(self, addr: int, value: int, time: int) -> None:
        self._array._check_value(value)
        for cell in self._decoder.map(addr):
            self._behavior.write_cell(self._array, cell, value, time)

    def idle(self, cycles: int) -> None:
        """Let ``cycles`` memory cycles pass without any operation
        (see :meth:`repro.memory.ram.SinglePortRAM.idle`)."""
        if cycles < 0:
            raise ValueError(f"idle cycles must be non-negative, got {cycles}")
        self.stats.cycles += cycles
        self._behavior.settle(self._array, self.stats.cycles)

    def apply_stream(self, ops, tables=(), start: int = 0,
                     end: int | None = None, stop_on_mismatch: bool = False,
                     mismatches: list | None = None,
                     captured: list | None = None) -> int:
        """Bulk-execute compiled operation records, grouped or flat.

        Same contract as :meth:`repro.memory.ram.SinglePortRAM
        .apply_stream`, extended with the cycle-group records of
        :mod:`repro.sim.ir`: a ``"grp"`` marker followed by its member
        records executes as *one* memory cycle -- reads sense the
        pre-cycle state, writes commit afterwards, ``stats.cycles``
        advances once -- exactly as if the equivalent :meth:`cycle` call
        had been issued.  Flat records keep the sequential discipline
        (one full cycle per record on the record's ``port``), which is
        what the single-port test engines use on a multi-port memory.

        Two writes of one group landing on the same physical cell raise
        :class:`PortConflictError` naming the offending cycle index --
        compile-time validation rejects same-*address* conflicts, so a
        replay-time conflict means a faulty decoder aliased two
        addresses (and the campaign engines count it as a detection).

        ``"ra"``/``"wa"`` records select their accumulator with the
        record's sixth slot (see :mod:`repro.sim.ir`); flat single-port
        streams always use accumulator 0.

        >>> ram = DualPortRAM(4)
        >>> ram.apply_stream([("w", 1, 2, 1, None, 0), ("r", 1, 2, None, 1, 0)])
        2
        >>> ram.stats.cycles
        2
        >>> grouped = DualPortRAM(4)
        >>> grouped.apply_stream([("grp", 0, 0, 2, None, 0),
        ...                       ("w", 0, 2, 1, None, 0),
        ...                       ("w", 1, 3, 1, None, 0)])
        2
        >>> grouped.stats.cycles
        1
        """
        if end is None:
            end = len(ops)
        # The loop below inlines cycle()/_read_internal/_write_internal
        # with the per-op attribute traffic hoisted into locals -- the
        # multi-port analogue of SinglePortRAM.apply_stream's hot loop.
        # Any semantic change here must be mirrored in cycle(); the
        # tests/sim equivalence suite compares the paths op for op.
        stats = self.stats
        trace = self._trace
        behavior = self._behavior
        array = self._array
        sense = self._sense
        decoder_map = self._decoder.map
        # With no decoder overrides installed the mapping is the
        # identity and two distinct addresses can never collide, so the
        # per-cycle conflict re-check is elided: OpStream validation
        # already rejected same-address write pairs at compile time, and
        # the array's own cell check still rejects out-of-range
        # addresses a hand-built record smuggles in.
        overrides = self._decoder._overrides
        ports = self._ports
        wired_and = self._wired == "and"
        read_cell = behavior.read_cell
        write_cell = behavior.write_cell
        settle = behavior.settle
        check_value = array._check_value
        accs: dict[int, int] = {}
        reads = writes = executed = 0
        cycles = stats.cycles
        try:
            index = start
            while index < end:
                record = ops[index]
                kind = record[0]
                if kind == "grp":
                    count = record[3]
                    stop = index + 1 + count
                    if stop > end:
                        raise ValueError(
                            f"op {index}: group announces {count} members "
                            f"but the stream slice ends at {end}"
                        )
                    if count == 1:
                        # A one-member group is exactly one op in one
                        # cycle -- the flat path below handles it.
                        index += 1
                        continue
                    if count > ports:
                        raise PortConflictError(
                            f"cycle {cycles}: {count} operations issued "
                            f"on a {ports}-port RAM"
                        )
                    if overrides:
                        # Faulty decoding can alias two addresses onto
                        # one cell: run the full physical conflict check
                        # (raises PortConflictError naming this cycle).
                        self._validate_group(ops[index + 1:stop], cycles)
                    # Distinct-port discipline is enforced inline below
                    # with a bitmask (phases A and B together visit each
                    # member exactly once), so hand-built record lists
                    # fail as loudly as they do through cycle().
                    seen_ports = 0
                    # Phase A: write values resolve against the
                    # accumulators as of the cycle start ("wa" consumes
                    # its accumulator before this cycle's "ra" reads
                    # contribute).
                    pending_writes = None
                    trace_vals = {} if trace is not None else None
                    for member in range(index + 1, stop):
                        rec = ops[member]
                        rkind = rec[0]
                        if rkind == "w":
                            stored = rec[3]
                        elif rkind == "wa":
                            acc_id = rec[5]
                            stored = accs.get(acc_id, 0) ^ rec[3]
                            accs[acc_id] = 0
                        else:
                            continue
                        port = rec[1]
                        if not 0 <= port < ports:
                            raise PortConflictError(
                                f"cycle {cycles}: port {port} out of "
                                f"range [0, {ports})"
                            )
                        bit = 1 << port
                        if seen_ports & bit:
                            raise PortConflictError(
                                f"cycle {cycles}: port {port} used twice "
                                f"in one cycle"
                            )
                        seen_ports |= bit
                        if pending_writes is None:
                            pending_writes = [(rec[2], stored)]
                        else:
                            # Same-address double writes are rejected at
                            # stream construction, but hand-built record
                            # lists bypass that -- keep the undefined-
                            # silicon contract loud.  (With overrides
                            # installed _validate_group already did the
                            # stronger physical-cell check.)
                            if not overrides:
                                for addr, _stored in pending_writes:
                                    if addr == rec[2]:
                                        raise PortConflictError(
                                            f"cycle {cycles}: two "
                                            f"simultaneous writes touch "
                                            f"cell {addr}"
                                        )
                            pending_writes.append((rec[2], stored))
                        if trace_vals is not None:
                            trace_vals[member] = stored
                    # Phase B: all reads sense the pre-cycle state;
                    # recurrence reads accumulate, checked reads compare.
                    # A memory cycle is atomic, so a detected mismatch
                    # does not abandon it: the remaining reads still
                    # sense and the writes still commit (exactly what
                    # the cycle()-based generic executor does) -- only
                    # *after* the cycle does the early abort fire.
                    aborted = False
                    for member in range(index + 1, stop):
                        rec = ops[member]
                        rkind = rec[0]
                        if rkind == "w" or rkind == "wa":
                            continue
                        if rkind != "r" and rkind != "s" and rkind != "ra":
                            raise ValueError(
                                f"cycle {cycles}: {rkind!r} records cannot "
                                f"appear inside a cycle group"
                            )
                        port = rec[1]
                        if not 0 <= port < ports:
                            raise PortConflictError(
                                f"cycle {cycles}: port {port} out of "
                                f"range [0, {ports})"
                            )
                        bit = 1 << port
                        if seen_ports & bit:
                            raise PortConflictError(
                                f"cycle {cycles}: port {port} used twice "
                                f"in one cycle"
                            )
                        seen_ports |= bit
                        addr = rec[2]
                        if not overrides:
                            actual = read_cell(array, addr, cycles)
                            sense[port] = actual
                        else:
                            cells = decoder_map(addr)
                            if not cells:
                                actual = sense[port]
                            else:
                                actual = read_cell(array, cells[0], cycles)
                                for cell in cells[1:]:
                                    other = read_cell(array, cell, cycles)
                                    actual = (actual & other) if wired_and \
                                        else (actual | other)
                                sense[port] = actual
                        reads += 1
                        if trace_vals is not None:
                            trace_vals[member] = actual
                        if aborted:
                            continue  # detection decided; senses only
                        if rkind == "ra":
                            actual ^= rec[4]  # decode the data inversion
                            if actual:
                                table = rec[3]
                                acc_id = rec[5]
                                accs[acc_id] = accs.get(acc_id, 0) ^ (
                                    actual if table is None
                                    else tables[table][actual]
                                )
                            continue
                        if rkind == "s" and captured is not None:
                            captured.append(actual)
                        if actual != rec[4]:
                            if mismatches is not None:
                                mismatches.append((member, actual))
                            if stop_on_mismatch:
                                aborted = True
                    # Phase C: writes commit.
                    if pending_writes is not None:
                        for addr, stored in pending_writes:
                            check_value(stored)
                            if not overrides:
                                write_cell(array, addr, stored, cycles)
                            else:
                                for cell in decoder_map(addr):
                                    write_cell(array, cell, stored, cycles)
                            writes += 1
                    if trace_vals is not None:
                        for member in range(index + 1, stop):
                            rec = ops[member]
                            op_kind = "w" if rec[0] in ("w", "wa") else "r"
                            trace.record(Operation(
                                cycles, rec[1], op_kind, rec[2],
                                trace_vals.get(member),
                            ))
                    cycles += 1
                    settle(array, cycles)
                    executed += count
                    if aborted:
                        return executed
                    index = stop
                    continue
                # Flat record: one full cycle, same semantics as the
                # read()/write()/idle() convenience calls.
                port, addr, value, expected, idle = record[1:6]
                if kind == "i":
                    cycles += idle
                    settle(array, cycles)
                    index += 1
                    continue
                if not 0 <= port < ports:
                    raise PortConflictError(
                        f"cycle {cycles}: port {port} out of range "
                        f"[0, {ports})"
                    )
                if kind == "w" or kind == "wa":
                    if kind == "wa":
                        value = accs.get(idle, 0) ^ value
                        accs[idle] = 0
                    check_value(value)
                    if not overrides:
                        write_cell(array, addr, value, cycles)
                    else:
                        for cell in decoder_map(addr):
                            write_cell(array, cell, value, cycles)
                    writes += 1
                    cycles += 1
                    if trace is not None:
                        trace.record(Operation(cycles - 1, port, "w", addr,
                                               value))
                    settle(array, cycles)
                    executed += 1
                elif kind == "r" or kind == "s" or kind == "ra":
                    if not overrides:
                        actual = read_cell(array, addr, cycles)
                        sense[port] = actual
                    else:
                        cells = decoder_map(addr)
                        if not cells:
                            actual = sense[port]
                        else:
                            actual = read_cell(array, cells[0], cycles)
                            for cell in cells[1:]:
                                other = read_cell(array, cell, cycles)
                                actual = (actual & other) if wired_and \
                                    else (actual | other)
                            sense[port] = actual
                    reads += 1
                    cycles += 1
                    if trace is not None:
                        trace.record(Operation(cycles - 1, port, "r", addr,
                                               actual))
                    settle(array, cycles)
                    executed += 1
                    if kind == "ra":
                        actual ^= expected  # decode the data inversion
                        if actual:
                            accs[idle] = accs.get(idle, 0) ^ (
                                actual if value is None
                                else tables[value][actual]
                            )
                    else:
                        if kind == "s" and captured is not None:
                            captured.append(actual)
                        if actual != expected:
                            if mismatches is not None:
                                mismatches.append((index, actual))
                            if stop_on_mismatch:
                                return executed
                else:
                    raise ValueError(f"unknown op kind {kind!r}")
                index += 1
        finally:
            stats.reads += reads
            stats.writes += writes
            stats.cycles = cycles
        return executed

    def _validate_group(self, group, time: int) -> None:
        """Replay-time conflict checks for one cycle group's records.

        Mirrors :meth:`_validate_cycle` over raw IR records; the message
        names the offending memory cycle so campaign logs can point at
        the exact step.  Structural rules (member kinds, count vs ports)
        are enforced at stream construction by
        :class:`repro.sim.ir.OpStream`; this re-checks the parts a
        faulty decoder can change plus the cheap port rules, so
        hand-built record lists fail loudly too.
        """
        if len(group) > self._ports:
            raise PortConflictError(
                f"cycle {time}: {len(group)} operations issued on a "
                f"{self._ports}-port RAM"
            )
        seen_ports: set[int] = set()
        write_cells: set[int] = set()
        for rec in group:
            kind, port = rec[0], rec[1]
            if kind not in ("w", "r", "s", "ra", "wa"):
                raise ValueError(
                    f"cycle {time}: {kind!r} records cannot appear inside "
                    f"a cycle group"
                )
            if not 0 <= port < self._ports:
                raise PortConflictError(
                    f"cycle {time}: port {port} out of range "
                    f"[0, {self._ports})"
                )
            if port in seen_ports:
                raise PortConflictError(
                    f"cycle {time}: port {port} used twice in one cycle"
                )
            seen_ports.add(port)
            if kind in ("w", "wa"):
                for cell in self._decoder.map(rec[2]):
                    if cell in write_cells:
                        raise PortConflictError(
                            f"cycle {time}: two simultaneous writes touch "
                            f"cell {cell}"
                        )
                    write_cells.add(cell)

    # -- sequential convenience (each call = one full cycle) ---------------------

    def read(self, addr: int, port: int = 0) -> int:
        """Single read occupying a whole cycle."""
        return self.cycle([PortOp(port, "r", addr)])[port]

    def write(self, addr: int, value: int, port: int = 0) -> None:
        """Single write occupying a whole cycle."""
        self.cycle([PortOp(port, "w", addr, value)])

    def fill(self, value: int) -> None:
        """Direct (un-counted, fault-free) initialization of all cells."""
        self._array.fill(value)

    def dump(self) -> list[int]:
        """Snapshot of physical cell contents (bypasses faults)."""
        return self._array.dump()


class DualPortRAM(MultiPortRAM):
    """Two-port RAM (the paper's 2P case, Figure 2).

    >>> ram = DualPortRAM(8)
    >>> ram.ports
    2
    """

    def __init__(self, n: int, m: int = 1, **kwargs):
        super().__init__(n, m, ports=2, **kwargs)


class QuadPortRAM(MultiPortRAM):
    """Four-port RAM modelling the paper's "QuadPort DSE family".

    >>> QuadPortRAM(8).ports
    4
    """

    def __init__(self, n: int, m: int = 1, **kwargs):
        super().__init__(n, m, ports=4, **kwargs)
