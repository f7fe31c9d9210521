"""Plane-packed memory backend: one column per address, one lane per fault.

:class:`PackedMemoryArray` models ``lanes`` independent memory copies of
``n`` cells by ``m`` bits at once.  The column stored at ``addr`` is a
*plane-major* bit matrix of ``m * lanes`` bits: bit ``b * lanes + k``
holds bit *b* of the value cell ``addr`` has in the *k*-th memory copy.
A bit-oriented geometry (``m == 1``) degenerates to the classic
one-bit-per-lane mask layout.  Because every copy replays the *same*
compiled operation sequence (an :class:`~repro.sim.ir.OpStream`) and
differs only in which fault is injected, a whole fault class -- same
mask algebra, different fault site per lane -- executes in one pass over
the stream:

* a constant write broadcasts its m-bit value to all lanes (the
  :meth:`PackedMemoryArray.broadcast` column),
* a checked read XORs the column with the broadcast expectation; any
  lane with a non-zero bit in *any* plane is a *detection in that lane*,
* pi-test accumulator ops (``"ra"``/``"wa"``) keep one m-bit accumulator
  *column per accumulator id*, so data corrupted by a fault propagates
  through the pseudo-ring exactly as it would in that lane's dedicated
  replay.  GF(2^m) constant multiplication is linear over GF(2), so an
  ``"ra"`` only adds its raw diff to a per-table sum, and the ``"wa"``
  that consumes the accumulator applies each table once: a precompiled
  lookup table lowers to a diagonal shift/XOR plan of at most ``2m - 1``
  column operations per flush, not per read and not per lane.

Every column is one plain Python int: arbitrary precision, no
dependencies.  CPython's bignum bitwise ops are word-packed C loops with
near-zero dispatch cost, writes rebind instead of copying, and a zero
diff short-circuits a whole record, so one int executor serves every
geometry the campaign engine produces (up to ``MAX_LANES = 4096`` at
``m=8``, a 2^15-bit column).

Per-lane fault semantics plug in through :class:`LaneFaultModel`: the
executor calls ``transform_write`` / ``after_write`` / ``settle`` with
int columns, and a model implements e.g. stuck-at-1 on bit *b* as
``new | sa1_mask[addr]`` with the mask positioned in plane *b* -- one
column OR applies the fault to hundreds of lanes at once.  Models
position and combine their masks through the public column/row surface
(:meth:`PackedMemoryArray.spread`,
:meth:`~PackedMemoryArray.match_lanes`, the ``*_lanes`` helpers, and
the :attr:`~PackedMemoryArray.words` list a hot hook assigns once),
never through private attributes.  Models are built from
:meth:`repro.faults.base.Fault.vector_semantics` descriptors by
:mod:`repro.sim.batched`, which also owns universe partitioning and the
per-fault fallback.

Cycle-grouped (multi-port) streams execute natively: a ``"grp"`` marker
runs its k member records as *one memory cycle* -- every read senses the
pre-cycle columns, then the writes commit in member order -- with the
model's ``clock``/``settle`` hooks firing once per group and decoder
write-write conflicts folded into the detection mask through
:meth:`LaneFaultModel.group_write_conflicts`.  The only ``"grp"`` shapes
the executor still rejects are structurally invalid ones (a truncated
group, or a member kind outside ``w/r/s/ra/wa``); port-level validation
is :class:`~repro.sim.ir.OpStream`'s compile-time job.
"""

from __future__ import annotations

__all__ = ["PackedMemoryArray", "LaneFaultModel"]


class LaneFaultModel:
    """Per-lane fault semantics applied as column operations.

    The default implementation is a no-op (all lanes healthy).  Concrete
    models (:mod:`repro.sim.batched`) override the hooks they need; each
    hook receives and returns int lane columns (plane-major, see the
    module docstring -- for ``m == 1`` a column is simply a lane mask).
    """

    #: Set True by models that override :meth:`transform_read` (e.g. the
    #: stuck-open sense-latch model).  The executor checks the flag once
    #: per pass so the common read-transparent models pay nothing on the
    #: read hot path.
    transforms_reads = False

    #: Set True by models that override :meth:`settle` (e.g. the state
    #: coupling model).  Mirrors the scalar engine's settle fast path
    #: (:class:`repro.faults.injector.FaultInjector` only visits faults
    #: that override ``settle``): the executor checks the flag once per
    #: pass and most models pay nothing per record.
    settles = False

    #: Set True by models that need the stream's cycle clock (the
    #: retention model's decay timing).  The executor then calls
    #: :meth:`clock` once per record with the scalar engines' cycle
    #: counter semantics: the time *at which the record executes*
    #: (pre-increment), with reads and writes costing one cycle each,
    #: a whole cycle group costing one cycle, and ``"i"`` records
    #: adding their idle count.
    timed = False

    #: Set True by models that remap addresses to physical cells (the
    #: decoder model).  The executor then asks
    #: :meth:`group_write_conflicts` once per cycle group with the
    #: group's write addresses, so lanes whose mappings make two
    #: simultaneous writes land on one physical cell are detected --
    #: the lane-parallel analogue of the scalar executor's
    #: ``PortConflictError``-counts-as-detection contract.
    maps_addresses = False

    def install(self, memory: "PackedMemoryArray") -> None:
        """Force the initial state (e.g. stuck-at-1 lanes start at 1)
        and spread plane masks over the memory's geometry.  Called once,
        before the first operation.  Default: nothing."""

    def clock(self, cycle: int) -> None:
        """Observe the stream clock before each record executes.  Only
        consulted when :attr:`timed` is True.  Default: nothing."""

    def transform_read(self, addr: int, sensed, port: int = 0):
        """Lane column actually *observed* when ``port`` reads ``addr``
        whose stored column is ``sensed`` (read-side state such as a
        sense latch lives in the model; per-port latches key on
        ``port``, which flat single-port streams always pass as 0).
        Only consulted when :attr:`transforms_reads` is True.
        Default: faithful."""
        return sensed

    def group_write_conflicts(self, addrs: tuple[int, ...]) -> int:
        """Int lane mask of the lanes where a cycle group writing
        ``addrs`` simultaneously drives one physical cell twice (through
        this model's per-lane address mapping).  Only consulted when
        :attr:`maps_addresses` is True.  Default: no lane conflicts."""
        return 0

    def transform_write(self, addr: int, old, new):
        """Lane column actually stored when writing ``new`` over ``old``
        at ``addr``.  Default: faithful."""
        return new

    def after_write(self, addr: int, old, committed,
                    memory: "PackedMemoryArray") -> None:
        """React to the committed write ``old -> committed`` at ``addr``
        (coupling models corrupt their victims here).  Default: nothing."""

    def settle(self, memory: "PackedMemoryArray") -> None:
        """Enforce steady-state conditions after each executed record --
        the lane-parallel analogue of :meth:`repro.faults.base.Fault
        .settle`, which the scalar engines run after every memory cycle
        (state coupling enforces its condition here).  A cycle group is
        one memory cycle: the hook fires once after the whole group's
        writes commit.  Only consulted when :attr:`settles` is True.
        Default: nothing."""


class PackedMemoryArray:
    """``n`` addresses x ``lanes`` independent ``m``-bit memory copies.

    Parameters
    ----------
    n:
        Number of addresses (cells) per memory copy.
    lanes:
        Number of parallel copies; each compiled-stream replay resolves
        one fault per lane.
    m:
        Bits per cell (1 = bit-oriented, the default).  Word-oriented
        copies store bit *b* of a cell in plane *b* of the column
        (bits ``[b * lanes, (b + 1) * lanes)``).

    Examples
    --------
    >>> packed = PackedMemoryArray(4, lanes=8)
    >>> packed.write_lanes(2, 0b1010_1010)
    >>> packed.lane_value(2, 1)
    1
    >>> packed.lane_value(2, 2)
    0
    >>> bin(packed.ones)
    '0b11111111'

    A word-oriented geometry packs one plane per bit:

    >>> wom = PackedMemoryArray(4, lanes=2, m=4)
    >>> wom.write_lanes(0, wom.broadcast(0b1010))
    >>> wom.lane_value(0, 0), wom.lane_value(0, 1)
    (10, 10)
    """

    __slots__ = ("_n", "_lanes", "_m", "_ones", "_full", "_replicate",
                 "_folds", "words")

    def __init__(self, n: int, lanes: int, m: int = 1):
        if n < 1:
            raise ValueError(f"memory needs at least one cell, got n={n}")
        if lanes < 1:
            raise ValueError(f"need at least one lane, got {lanes}")
        if m < 1:
            raise ValueError(f"cells need at least one bit, got m={m}")
        self._n = n
        self._lanes = lanes
        self._m = m
        self._ones = (1 << lanes) - 1
        self._full = (1 << (m * lanes)) - 1
        #: plane-replication factor: lane rows (< 2**lanes) multiplied by
        #: it spread carry-free into every plane.
        self._replicate = sum(1 << (bit * lanes) for bit in range(m))
        #: the halving steps of :meth:`lane_mask`: ``(shift, low)`` folds
        #: the planes from ``shift`` up onto the ``low`` ones.
        folds = []
        planes = m
        while planes > 1:
            kept = (planes + 1) // 2
            folds.append((kept * lanes, (1 << (kept * lanes)) - 1))
            planes = kept
        self._folds = tuple(folds)
        self.words: list[int] = [0] * n

    # -- geometry --------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of addresses per memory copy."""
        return self._n

    @property
    def lanes(self) -> int:
        """Number of parallel memory copies."""
        return self._lanes

    @property
    def m(self) -> int:
        """Bits per cell (planes per column)."""
        return self._m

    @property
    def ones(self) -> int:
        """The all-lanes *plane* mask, ``(1 << lanes) - 1``."""
        return self._ones

    @property
    def full(self) -> int:
        """The all-planes all-lanes column mask, ``(1 << m*lanes) - 1``."""
        return self._full

    def __repr__(self) -> str:
        m = f", m={self._m}" if self._m != 1 else ""
        return f"PackedMemoryArray(n={self._n}, lanes={self._lanes}{m})"

    # -- column/row algebra (the lane-model helper surface) --------------------
    #
    # A *column* is one address's full plane-major bit matrix (``m *
    # lanes`` bits); a *row* is one plane's lane mask (``lanes`` bits).
    # Both are plain ints.

    def broadcast(self, value: int) -> int:
        """The column storing m-bit ``value`` in every lane.

        >>> PackedMemoryArray(2, lanes=4, m=2).broadcast(0b10)
        240
        """
        if not 0 <= value < (1 << self._m):
            raise ValueError(
                f"value {value!r} does not fit an m={self._m}-bit cell"
            )
        if self._m == 1:
            return self._ones if value else 0
        column = 0
        shift = 0
        lanes = self._lanes
        ones = self._ones
        while value:
            if value & 1:
                column |= ones << shift
            value >>= 1
            shift += lanes
        return column

    def lane_mask(self, column: int) -> int:
        """Collapse a column to a lane mask: lane *k* is set when any
        plane of lane *k* is set in ``column`` (the detection fold).

        Folds by halving: each step ORs the upper planes onto the lower
        half, so ``m`` planes take about ``log2(m)`` steps that copy
        about ``3m`` planes in all (a plane-by-plane fold re-shifts every
        remaining plane per plane, about ``m**2 / 2``).

        >>> PackedMemoryArray(2, lanes=4, m=2).lane_mask(0b0001_1000)
        9
        """
        for shift, low in self._folds:
            column = (column & low) | (column >> shift)
        return column & self._ones

    def spread(self, row: int) -> int:
        """The column with ``row`` replicated into every plane (the mask
        that selects *whole cells* of the row's lanes)."""
        return row * self._replicate

    def match_lanes(self, addr: int, value_column: int) -> int:
        """Row of the lanes whose *whole m-bit cell* at ``addr`` equals
        the value ``value_column`` broadcasts."""
        return self._ones & ~self.lane_mask(self.words[addr] ^ value_column)

    # -- access ----------------------------------------------------------------

    def read_lanes(self, addr: int) -> int:
        """The lane column stored at ``addr``."""
        return self.words[addr]

    def write_lanes(self, addr: int, mask: int) -> None:
        """Replace the lane column stored at ``addr``."""
        self.words[addr] = mask & self._full

    def or_lanes(self, addr: int, column: int) -> None:
        """Set ``column``'s bits at ``addr``."""
        self.words[addr] |= column

    def blend_lanes(self, addr: int, select: int, value_column: int) -> None:
        """Replace the ``select``-masked bits at ``addr`` with
        ``value_column``'s (the column analogue of a bit-select mux)."""
        column = self.words[addr]
        self.words[addr] = column ^ ((column ^ value_column) & select)

    def lane_value(self, addr: int, lane: int) -> int:
        """The m-bit value cell ``addr`` holds in copy ``lane``."""
        if not 0 <= lane < self._lanes:
            raise IndexError(f"lane {lane} out of range [0, {self._lanes})")
        column = self.words[addr] >> lane
        if self._m == 1:
            return column & 1
        value = 0
        for bit in range(self._m):
            value |= ((column >> (bit * self._lanes)) & 1) << bit
        return value

    def dump_lane(self, lane: int) -> list[int]:
        """Snapshot of one memory copy's cells (for debugging/tests)."""
        if not 0 <= lane < self._lanes:
            raise IndexError(f"lane {lane} out of range [0, {self._lanes})")
        return [self.lane_value(addr, lane) for addr in range(self._n)]

    # -- bulk replay -----------------------------------------------------------

    def apply_stream(self, ops, tables=(), model: LaneFaultModel | None = None,
                     detected: int = 0,
                     stop_when_all_detected: bool = True,
                     captured: list | None = None) -> tuple[int, int]:
        """Replay compiled op records against every lane simultaneously.

        Executes the :mod:`repro.sim` IR (records
        ``(kind, port, addr, value, expected, idle)``, see
        :mod:`repro.sim.ir`) lane-parallel.  Values and expectations
        broadcast to all lanes; ``model`` applies per-lane fault
        semantics.  A checked read that mismatches its expectation in
        lane *k* (in any bit plane) marks lane *k* detected; replay
        stops early once *every* lane is detected (the batched analogue
        of the scalar engine's first-mismatch abort -- later mismatches
        cannot change any verdict because detection is monotone).

        ``"ra"``/``"wa"`` accumulator ops keep one m-bit accumulator
        column *per accumulator id* (the record's sixth slot, exactly
        like the scalar executors' per-id dicts), so recurrence write
        data is recomputed from each lane's actual (possibly corrupted)
        reads -- the scalar replay semantics, lane-parallel.
        Multiplication by a constant is GF(2)-linear, so the multiplies
        are deferred: an ``"ra"`` XORs its diff into a raw sum per
        (accumulator id, table), multiplier-1 reads straight into the
        accumulator, and the ``"wa"`` that consumes the accumulator
        applies each table once, through a diagonal plan lowered once
        per pass (:meth:`_lower_table`) -- at most ``2m - 1`` column ops
        per table per flush.  A ``"wa"`` still sees its accumulator as
        of the start of its cycle.  ``"i"`` idles execute no operation but
        advance the model clock (retention decay) and fire the model's
        ``settle`` hook, mirroring the scalar engines.

        ``"grp"`` cycle groups execute as one memory cycle: all of the
        group's reads (``"r"``/``"s"``/``"ra"``) sense the *pre-cycle*
        columns, then the writes commit in member order, with the
        model's ``clock``/``settle`` hooks firing once per group and
        per-lane decoder write-write conflicts folded into the detection
        mask (:meth:`LaneFaultModel.group_write_conflicts`) -- exactly
        the scalar :meth:`repro.memory.multiport.MultiPortRAM
        .apply_stream` cycle semantics, lane-parallel.  Structural
        validation (member count vs ports, distinct ports, one write
        per address) is :class:`~repro.sim.ir.OpStream`'s compile-time
        job; the executor re-checks only truncated groups and member
        kinds outside ``w/r/s/ra/wa``.

        Parameters
        ----------
        ops:
            Sequence of op records (usually ``OpStream.ops``).
        tables:
            ``OpStream.tables`` constant-multiplier tables; for ``m == 1``
            (GF(2)) a table can only encode multiply-by-0 or -1.
        model:
            Per-lane fault semantics; None replays healthy lanes.
        detected:
            Initial detected-lane mask (continue a partial campaign).
        stop_when_all_detected:
            Disable to force a full replay even once every lane is
            detected (e.g. to inspect final per-lane memory state).
        captured:
            Optional list collecting the *observed lane column* of every
            ``"s"`` (signature) read as a plain int, in order -- the
            lane-parallel analogue of the scalar executors' per-value
            ``captured`` list (bit ``b * lanes + k`` is bit *b* of the
            value lane *k* observed).  Pass ``stop_when_all_detected=False``
            when the capture list must cover the whole stream.

        Returns ``(detected, executed)``: the final detected-lane mask
        and the number of operation records executed, once per *pass*,
        not per lane.  Like the scalar executors, ``executed`` counts
        every read and write
        record -- ``"w"``/``"r"``/``"s"`` and the ``"ra"``/``"wa"``
        recurrence ops -- while ``"i"`` idles are free.

        >>> packed = PackedMemoryArray(2, lanes=3)
        >>> packed.apply_stream([("w", 0, 0, 1, None, 0),
        ...                      ("r", 0, 0, None, 1, 0)])
        (0, 2)
        """
        if model is None:
            model = _NO_FAULTS
        words = self.words
        ones = self._ones
        executed = 0
        accs: dict[int, int] = {}  # acc id -> multiplier-1 sum
        raws: dict[int, dict[int, int]] = {}  # acc id -> table -> raw sum
        columns: dict[int, int] = {}  # m-bit value -> broadcast column
        plans: dict[int, list] = {}  # table index -> diagonal plan

        def flush(acc_id):
            # Empty accumulator ``acc_id``: its multiplier-1 sum XOR each
            # table applied once to the raw sum of the reads it scales.
            acc = accs.pop(acc_id, 0)
            for table, raw in raws.pop(acc_id).items():
                if raw:
                    plan = plans.get(table)
                    if plan is None:
                        plan = plans[table] = self._lower_table(tables[table])
                    acc ^= _apply_plan(plan, raw)
            return acc

        broadcast = self.broadcast
        # At m == 1 a column is already its lane mask: skipping the fold
        # call keeps bit-oriented passes as fast as a dedicated loop.
        fold = self.lane_mask if self._m > 1 else None
        transform_write = model.transform_write
        after_write = model.after_write
        transform_read = model.transform_read if model.transforms_reads \
            else None
        settle = model.settle if model.settles else None
        clock = model.clock if model.timed else None
        conflicts = model.group_write_conflicts if model.maps_addresses \
            else None
        cycle = 0
        index = 0
        end = len(ops)
        while index < end:
            kind, _port, addr, value, expected, idle = ops[index]
            if clock is not None:
                clock(cycle)
            if kind == "w" or kind == "wa":
                new = columns.get(value)
                if new is None:
                    new = columns[value] = broadcast(value)
                if kind == "wa":
                    new ^= flush(idle) if idle in raws else accs.pop(idle, 0)
                old = words[addr]
                new = transform_write(addr, old, new)
                words[addr] = new
                after_write(addr, old, new, self)
                executed += 1
                cycle += 1
            elif kind == "r" or kind == "s":
                executed += 1
                cycle += 1
                observed = words[addr] if transform_read is None \
                    else transform_read(addr, words[addr], _port)
                if kind == "s" and captured is not None:
                    captured.append(observed)
                expect = columns.get(expected)
                if expect is None:
                    expect = columns[expected] = broadcast(expected)
                diff = observed ^ expect
                if diff:
                    detected |= diff if fold is None else fold(diff)
                    if detected == ones and stop_when_all_detected:
                        return detected, executed
            elif kind == "ra":
                executed += 1
                cycle += 1
                observed = words[addr] if transform_read is None \
                    else transform_read(addr, words[addr], _port)
                expect = columns.get(expected)
                if expect is None:
                    expect = columns[expected] = broadcast(expected)
                diff = observed ^ expect
                if diff:
                    if value is None:  # multiplier 1: add the raw diff
                        accs[idle] = accs.get(idle, 0) ^ diff
                    else:  # defer the multiply to the flush
                        sums = raws.get(idle)
                        if sums is None:
                            raws[idle] = {value: diff}
                        else:
                            sums[value] = sums.get(value, 0) ^ diff
            elif kind == "i":
                cycle += idle
            elif kind == "grp":
                count = value
                stop = index + 1 + count
                if stop > end:
                    raise ValueError(
                        f"op {index}: group announces {count} members "
                        f"but the stream slice ends at {end}"
                    )
                if count == 1:
                    index += 1
                    continue
                # Phase A: resolve stored values, collect pending writes.
                pending = None
                for member in range(index + 1, stop):
                    rec = ops[member]
                    rkind = rec[0]
                    if rkind in ("r", "s", "ra"):
                        continue
                    if rkind not in ("w", "wa"):
                        raise ValueError(
                            f"cycle {cycle}: {rkind!r} records cannot "
                            "appear inside a cycle group"
                        )
                    stored = columns.get(rec[3])
                    if stored is None:
                        stored = columns[rec[3]] = broadcast(rec[3])
                    if rkind == "wa":
                        acc_id = rec[5]
                        stored ^= flush(acc_id) if acc_id in raws \
                            else accs.pop(acc_id, 0)
                    if pending is None:
                        pending = []
                    pending.append((rec[2], stored))
                if pending is not None and conflicts is not None:
                    detected |= conflicts(
                        tuple(waddr for waddr, _ in pending)) & ones
                # Phase B: reads sense the pre-cycle columns.
                for member in range(index + 1, stop):
                    rec = ops[member]
                    rkind = rec[0]
                    if rkind == "w" or rkind == "wa":
                        continue
                    raddr = rec[2]
                    observed = words[raddr] if transform_read is None \
                        else transform_read(raddr, words[raddr], rec[1])
                    expect = columns.get(rec[4])
                    if expect is None:
                        expect = columns[rec[4]] = broadcast(rec[4])
                    diff = observed ^ expect
                    if rkind == "ra":
                        if diff:
                            acc_id = rec[5]
                            if rec[3] is None:
                                accs[acc_id] = accs.get(acc_id, 0) ^ diff
                            else:
                                sums = raws.get(acc_id)
                                if sums is None:
                                    raws[acc_id] = {rec[3]: diff}
                                else:
                                    sums[rec[3]] = sums.get(rec[3], 0) ^ diff
                        continue
                    if rkind == "s" and captured is not None:
                        captured.append(observed)
                    if diff:
                        detected |= diff if fold is None else fold(diff)
                # Phase C: commit in member order; the cycle is atomic,
                # so the all-detected abort waits for the commits.
                if pending is not None:
                    for waddr, stored in pending:
                        old = words[waddr]
                        stored = transform_write(waddr, old, stored)
                        words[waddr] = stored
                        after_write(waddr, old, stored, self)
                executed += count
                cycle += 1
                if settle is not None:
                    settle(self)
                if detected == ones and stop_when_all_detected:
                    return detected, executed
                index = stop
                continue
            else:
                raise ValueError(f"unknown op kind {kind!r}")
            if settle is not None:
                settle(self)
            index += 1
        return detected, executed

    def _lower_table(self, table) -> list[tuple[int, int]]:
        """Diagonal plan of one constant-multiplier table.

        GF(2^m) multiplication by a constant is linear over GF(2), so
        ``table[x]`` is the XOR over the set bits *i* of ``x`` of the
        basis images ``table[1 << i]``: input plane *src* feeds output
        plane *dst* wherever bit *dst* of ``table[1 << src]`` is set.
        The plan groups those plane pairs by their offset ``dst - src``
        into one ``(select, shift)`` pair per offset -- the input planes
        that move by it, and the signed column shift that moves them --
        so :func:`_apply_plan` costs at most ``2m - 1`` AND/shift/XOR
        triples per multiply, independent of the lane count.
        """
        lanes = self._lanes
        ones = self._ones
        selects: dict[int, int] = {}
        for src in range(self._m):
            image = table[1 << src]
            for dst in range(self._m):
                if (image >> dst) & 1:
                    selects[dst - src] = selects.get(dst - src, 0) \
                        | (ones << (src * lanes))
        return [(select, offset * lanes)
                for offset, select in selects.items()]


def _apply_plan(plan, column: int) -> int:
    """Multiply every lane of ``column`` by the constant ``plan`` lowers
    (see :meth:`PackedMemoryArray._lower_table`)."""
    product = 0
    for select, shift in plan:
        part = column & select
        if part:
            product ^= part << shift if shift >= 0 else part >> -shift
    return product


_NO_FAULTS = LaneFaultModel()
