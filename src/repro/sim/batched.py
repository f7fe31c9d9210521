"""The bit-packed campaign engine: one replay pass per fault *class*.

The scalar campaign engine (:func:`repro.sim.campaign.run_campaign`)
replays a compiled :class:`~repro.sim.ir.OpStream` once per fault.  For
the fault classes that dominate real universes the *operations* of every
one of those replays are identical; only the fault site differs.  This
engine exploits that: it packs one fault per *lane* of a
:class:`~repro.memory.packed.PackedMemoryArray` (lane-parallel int
columns, ``m`` bit planes per lane for word-oriented geometries) and
replays the stream **once per class**, applying each lane's fault as a
mask operation positioned in the faulty bit's plane:

* stuck-at:   ``new |= sa1_mask[addr]``, ``new &= ~sa0_mask[addr]``
* transition: ``new &= ~(~old & new & tf_up_mask[addr])`` (blocked rise),
  and the dual for blocked falls
* stuck-open: writes to the open cell are masked off, and reads route
  through a per-lane sense latch (the classical two-read SOF model)
* coupling:   on an aggressor-bit transition, ``victim ^= fired`` (CFin)
  or force the fired lanes (CFid)
* state coupling (CFst): after every committed write, lanes whose
  aggressor bit holds the coupling state force their victim bit -- the
  lane-parallel analogue of the scalar ``settle`` hook
* NPSF / bridging: enforced conditions -- while every neighbour holds
  the deleted pattern the victim is forced, and a shorted pair settles
  to its wired-AND/OR -- evaluated as whole-cell match-and-blend column
  ops after each relevant write (plus one initial settle)
* retention (DRF): the executor's cycle clock drives idle-aware decay;
  a cell unaccessed past its retention interval decays lazily at its
  next read, exactly like the scalar model
* linked faults: the coupling components fire in order under a shared
  aggressor transition, one group pass per component rank
* decoder (AF): per-lane address overrides -- lost writes, redirected
  writes, wired-AND multi-cell reads and the AF-A sense-latch -- mapped
  onto blend columns over the canonical single-port read path

A checked read XORs the packed word with the broadcast expectation; every
lane with a non-zero bit in any plane is a detection.  π-test recurrences
stay exact through per-lane accumulator columns, with GF(2^m) constant
multipliers deferred to the accumulator flush and applied as diagonal
shift/XOR plans (see
:meth:`~repro.memory.packed.PackedMemoryArray.apply_stream`), so this is
not an approximation: each lane computes bit-for-bit what its dedicated
scalar replay would.

Cost: ``O(classes * stream_length)`` column operations instead of
``O(|universe| * detection_prefix)`` scalar ones -- on single-cell
dominated universes an order of magnitude faster (see
``benchmarks/bench_campaign_engine.py``).  Every fault class the
built-in universes generate now vectorizes; only faults whose
:meth:`~repro.faults.base.Fault.vector_semantics` is ``None`` (custom
models), names an unregistered kind, or does not fit the stream's
geometry fall back per fault to
:func:`~repro.sim.campaign.run_campaign`, so
:func:`run_campaign_batched` accepts *any* universe and returns verdicts
identical to the scalar engines, in universe order.

Each built-in lane model takes its pass's *columns* -- per-address and
per-pair lane masks as plain ints, the pass's lane count being the
plane stride (see :class:`repro.faults.universe.LanePlan`).  A universe
made from a spec builds them straight from its generator records; any
other universe's descriptors go through the rows -> columns adapter
below (``_ROW_COLUMNS``, read pass by pass through :class:`RowPlan`),
so there is one constructor per model.  Masks that depend on the
memory's geometry (whole-cell selects, broadcast values) are finished
in ``install`` through the memory's helper surface (``spread`` /
``broadcast`` / ...).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

from repro.faults.base import Fault, VectorSemantics
from repro.faults.universe import LanePlan, coupling_slot
from repro.memory.packed import LaneFaultModel, PackedMemoryArray
from repro.sim.campaign import (
    CampaignResult,
    _partition_faults,
    _reference_pass,
    partition_table,
    run_campaign,
)
from repro.sim.ir import OpStream
from repro.sim.pool import WorkerPool

__all__ = ["run_campaign_batched", "build_lane_model", "register_lane_model",
           "lane_plan_of"]


class _StuckLanes(LaneFaultModel):
    """SA0/SA1 lanes: per-address force masks.

    The physical node is pinned, so the mask is applied to the initial
    state and to every committed write -- with one fault per lane and no
    other mutators in a stuck lane, the stored value is forced at every
    observable point, matching the scalar model's read/write/settle hooks.
    Word-oriented faults position their lane bit in the faulty bit's
    plane (``sem.bit * lanes + lane``); the mask algebra is unchanged.
    """

    def __init__(self, columns):
        self._sa1, self._sa0 = columns

    def install(self, memory: PackedMemoryArray) -> None:
        # Cells power up at 0; stuck-at-1 lanes are forced immediately.
        for addr, mask in self._sa1.items():
            memory.or_lanes(addr, mask)

    def transform_write(self, addr: int, old, new):
        mask = self._sa1.get(addr)
        if mask is not None:
            new = new | mask
        mask = self._sa0.get(addr)
        if mask is not None:
            new = new & ~mask
        return new


class _TransitionLanes(LaneFaultModel):
    """TF-up/TF-down lanes: the blocked transition keeps the old bit.

    The up and down masks address disjoint lanes (one fault per lane), so
    applying them in sequence never double-transforms a lane.
    """

    def __init__(self, columns):
        self._up, self._down = columns

    def transform_write(self, addr: int, old, new):
        # Narrow masks first, and ``x ^ (x & y)`` for ``x & ~y``: a
        # full-width ``~`` would cost more than the rest of the hook.
        mask = self._up.get(addr)
        if mask is not None:
            rising = new & mask
            new ^= rising ^ (rising & old)  # blocked rise: bit stays 0
        mask = self._down.get(addr)
        if mask is not None:
            falling = old & mask
            new |= falling ^ (falling & new)  # blocked fall: bit stays 1
        return new


def _fire_coupling(memory, entries, rise, fall):
    """Corrupt the victims of every entry lane whose aggressor fired."""
    for victim, shift, r_inv, r_set, r_clr, f_inv, f_set, f_clr in entries:
        if shift:  # line the aggressor-plane edges up with the victim's
            up, down = ((rise << shift, fall << shift) if shift > 0
                        else (rise >> -shift, fall >> -shift))
        else:
            up, down = rise, fall
        invert = (up & r_inv) | (down & f_inv)  # CFin
        set_ = (up & r_set) | (down & f_set)  # CFid -> 1
        clear = (up & r_clr) | (down & f_clr)  # CFid -> 0
        if invert or set_ or clear:
            # ``(x | clear) ^ clear`` clears without a full-width ``~``.
            words = memory.words
            words[victim] = ((words[victim] ^ invert) | set_ | clear) ^ clear


class _CouplingLanes(LaneFaultModel):
    """CFin/CFid lanes: aggressor transitions corrupt per-lane victims.

    Lanes are merged per (aggressor cell, victim cell, plane delta)
    (see :func:`_coupling_table`); each lane's mask sits in its victim
    bit's plane, and the aggressor's edge columns are shifted into line
    with it before the masks select the fired lanes.
    """

    def __init__(self, columns):
        self._by_aggressor = columns

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        entries = self._by_aggressor.get(addr)
        if entries is None:
            return
        changed = old ^ committed
        if changed:
            # rise: lanes whose aggressor bit went 0 -> 1; fall: the dual.
            _fire_coupling(memory, entries, changed & committed,
                           changed & old)


class _LinkedLanes(LaneFaultModel):
    """Linked-fault lanes: coupling components fired in rank order.

    A linked fault is several coupling faults installed together; the
    scalar wrapper fires every component on each committed write with
    the *same* ``(old, committed)`` pair, mutating the victims
    sequentially.  Lane-parallel that becomes one
    :func:`_coupling_table` per component *rank*: rank 0 of every
    lane fires first (possibly flipping victims), then rank 1 reads the
    already-corrupted state -- exactly the scalar masking order that
    makes linked CFin pairs cancel.
    """

    def __init__(self, columns):
        self._steps = columns  # one coupling table per component rank

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        changed = old ^ committed
        if not changed:
            return
        rise = fall = None
        for step in self._steps:
            entries = step.get(addr)
            if entries is None:
                continue
            if rise is None:  # shared edge masks, computed on first use
                rise = changed & committed
                fall = changed & old
            _fire_coupling(memory, entries, rise, fall)


class _StuckOpenLanes(LaneFaultModel):
    """SOF lanes: per-lane sense-latch bit, open cell cut off.

    The classical stuck-open model (see
    :class:`~repro.faults.stuck_open.StuckOpenFault`): writes never
    reach the open cell, and reading it returns whatever the sense
    amplifier latched on the *previous* read.  Lane-parallel, the latch
    is one bit per lane (``self._sense``): a read of any address
    refreshes the latch bit of every lane whose open cell is elsewhere,
    while lanes open *at* that address keep -- and observe -- their
    latched bit.
    """

    transforms_reads = True

    def __init__(self, columns):
        # The per-lane latch ``_sense`` powers up at initial_sense.
        self._open, self._sense = columns

    def install(self, memory: PackedMemoryArray) -> None:
        # SOF is a whole-cell fault: the open mask cuts off *every* plane
        # of the lane's cell, so the single-plane lane masks of the
        # columns are spread across the memory's m planes here (the
        # first point the geometry is known).  The latch keeps its
        # compact power-up value: initial_sense is a 0/1 cell value,
        # i.e. bit 0 -- plane 0 -- of the word.
        self._open = {cell: memory.spread(mask)
                      for cell, mask in self._open.items()}

    def transform_read(self, addr: int, sensed, port: int = 0):
        # The latch lives in the fault's sense amplifier, which the
        # scalar model shares across ports -- the port is irrelevant.
        open_here = self._open.get(addr)
        if open_here is None:
            # Healthy read in every lane: all latches refresh.
            self._sense = sensed
            return sensed
        # Lanes open at this address observe (and keep) their latch;
        # every other lane senses the stored bit and refreshes.
        observed = (self._sense & open_here) | (sensed & ~open_here)
        self._sense = observed
        return observed

    def transform_write(self, addr: int, old, new):
        open_here = self._open.get(addr)
        if open_here is not None:
            new = (new & ~open_here) | (old & open_here)  # write lost
        return new


class _StateCouplingLanes(LaneFaultModel):
    """CFst lanes: while the aggressor bit holds a state, the victim bit
    is forced.

    The scalar model enforces its condition in ``settle`` (after every
    memory cycle) and in ``after_write`` (immediately, when the write
    touches the aggressor or victim cell).  Lane-parallel that becomes:
    the *first* ``settle`` of a pass enforces every entry (the scalar
    engines' first post-cycle settle -- cells power up un-forced, so a
    read issued before any cycle completes still observes the raw
    state), and afterwards only a committed write can change an entry's
    aggressor state or overwrite its victim, so ``after_write`` enforces
    exactly the entries touching the written cell.

    Lanes are merged per (aggressor cell, aggressor bit, victim cell,
    victim bit), so all four CFst variants of a pair share one entry of
    lane masks: state-1 / state-0 and force-1 / force-0.  One fault per
    lane makes each pair of masks disjoint, and an enforcement writes
    only its own lanes, so it never cascades.
    """

    settles = True

    def __init__(self, columns):
        #: (aggr_cell, victim_cell, shift, state1, state0, force1,
        #:  force0) per coupled pair: the state masks sit in the
        #: aggressor plane, the force masks in the victim plane, and
        #: ``shift`` moves the held lanes from the one to the other.
        self._entries = columns
        self._by_cell: dict[int, list[tuple]] = {}
        self._enforced = False
        for entry in self._entries:
            self._by_cell.setdefault(entry[0], []).append(entry)
            if entry[1] != entry[0]:
                self._by_cell.setdefault(entry[1], []).append(entry)

    def _enforce(self, memory: PackedMemoryArray, entries) -> None:
        words = memory.words
        for a_cell, v_cell, shift, s1, s0, f1, f0 in entries:
            aggressor = words[a_cell]
            # Lanes whose aggressor bit equals their coupling state,
            # found in the aggressor plane (no full-width ``~``) and only
            # then moved to the victim plane.
            held = (aggressor & s1) | (s0 ^ (aggressor & s0))
            if not held:
                continue
            if shift:
                held = held << shift if shift > 0 else held >> -shift
            force1 = held & f1
            force0 = held & f0
            if force1 or force0:
                words[v_cell] = (words[v_cell] | force1 | force0) ^ force0

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        entries = self._by_cell.get(addr)
        if entries is not None:
            self._enforce(memory, entries)

    def settle(self, memory: PackedMemoryArray) -> None:
        if self._enforced:
            return
        self._enforced = True
        self._enforce(memory, self._entries)


class _NpsfLanes(LaneFaultModel):
    """NPSF lanes: while every neighbour holds its pattern value, the
    victim cell is forced.

    Pattern match is a whole-cell equality per neighbour
    (:meth:`~repro.memory.packed.PackedMemoryArray.match_lanes`), ANDed
    across the neighbourhood; matching lanes blend the forced value into
    their victim cell.  Enforcement timing follows the CFst argument: in
    an NPSF-only pass reads never mutate state and lanes are disjoint
    across groups (an enforcement writes only its own lanes' victim,
    which is never one of its neighbours), so the first ``settle``
    enforces every group once and afterwards only a committed write to a
    group's victim or neighbour can change its condition --
    ``after_write`` enforces exactly those groups.
    """

    settles = True

    def __init__(self, columns):
        self._groups = [
            (victim, neighbors, force_to, mask)
            for (victim, neighbors, force_to), mask in columns.items()
        ]
        self._by_cell: dict[int, list[tuple]] = {}
        self._enforced = False

    def install(self, memory: PackedMemoryArray) -> None:
        self._groups = [
            (victim,
             tuple((cell, memory.broadcast(pattern))
                   for cell, pattern in neighbors),
             memory.broadcast(force_to),
             mask)
            for victim, neighbors, force_to, mask in self._groups
        ]
        self._by_cell = {}
        for group in self._groups:
            for cell in {group[0], *(cell for cell, _ in group[1])}:
                self._by_cell.setdefault(cell, []).append(group)

    def _enforce(self, memory: PackedMemoryArray, groups) -> None:
        for victim, neighbors, force_column, row in groups:
            held = row
            for cell, pattern_column in neighbors:
                held = held & memory.match_lanes(cell, pattern_column)
                if not held:
                    break
            else:
                memory.blend_lanes(victim, memory.spread(held),
                                   force_column)

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        groups = self._by_cell.get(addr)
        if groups is not None:
            self._enforce(memory, groups)

    def settle(self, memory: PackedMemoryArray) -> None:
        if self._enforced:
            return
        self._enforced = True
        self._enforce(memory, self._groups)


class _BridgeLanes(LaneFaultModel):
    """BF lanes: a shorted pair settles to its wired-AND/OR.

    Each lane's pair merges bit-wise and both cells take the merged
    value (in the lane's planes only, via a whole-cell blend).  The
    merged value is a fixed point of the short, so the CFst enforcement
    argument applies unchanged: one initial settle, then re-short after
    every committed write touching either end.
    """

    settles = True

    def __init__(self, columns):
        self._columns = columns
        self._groups: list[tuple] = []
        self._by_cell: dict[int, list[tuple]] = {}
        self._enforced = False

    def install(self, memory: PackedMemoryArray) -> None:
        # One entry per shorted pair: its wired-AND and wired-OR lanes
        # (disjoint, one fault per lane) merged in one pass.
        pairs: dict[tuple[int, int], list[int]] = {}
        for (cell_a, cell_b, wired_or), mask in self._columns.items():
            pairs.setdefault((cell_a, cell_b), [0, 0])[wired_or] |= \
                memory.spread(mask)
        self._groups = [(cell_a, cell_b, sel_and, sel_or, sel_and | sel_or)
                        for (cell_a, cell_b), (sel_and, sel_or)
                        in pairs.items()]
        self._by_cell = {}
        for group in self._groups:
            self._by_cell.setdefault(group[0], []).append(group)
            self._by_cell.setdefault(group[1], []).append(group)

    def _enforce(self, memory: PackedMemoryArray, groups) -> None:
        words = memory.words
        for cell_a, cell_b, sel_and, sel_or, select in groups:
            value_a, value_b = words[cell_a], words[cell_b]
            merged = (value_a & value_b & sel_and) \
                | ((value_a | value_b) & sel_or)
            words[cell_a] = value_a ^ ((value_a ^ merged) & select)
            words[cell_b] = value_b ^ ((value_b ^ merged) & select)

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        groups = self._by_cell.get(addr)
        if groups is not None:
            self._enforce(memory, groups)

    def settle(self, memory: PackedMemoryArray) -> None:
        if self._enforced:
            return
        self._enforced = True
        self._enforce(memory, self._groups)


class _RetentionLanes(LaneFaultModel):
    """DRF lanes: idle-aware decay driven by the executor's cycle clock.

    The scalar model (:class:`~repro.faults.retention.DataRetentionFault`)
    tracks the cell's last access time and applies the decay *lazily at
    the next read* (writing the decayed value back -- it is now the real
    content), while a write refreshes the timestamp without decaying.
    Every lane replays the identical access sequence, so the last-access
    time of a cell is a pure function of the stream -- one shared
    timestamp per cell serves all lanes, and only the (retention, decay
    value) grouping is per-lane.
    """

    transforms_reads = True
    timed = True

    def __init__(self, columns):
        self._groups: dict[int, object] = columns
        self._last: dict[int, int] = {}
        self._now = 0
        self._memory: PackedMemoryArray | None = None

    def install(self, memory: PackedMemoryArray) -> None:
        self._memory = memory
        self._groups = {
            cell: [(retention, memory.broadcast(decay_to),
                    memory.spread(mask))
                   for (retention, decay_to), mask in per_cell.items()]
            for cell, per_cell in self._groups.items()
        }

    def clock(self, cycle: int) -> None:
        self._now = cycle

    def transform_read(self, addr: int, sensed, port: int = 0):
        # Decay is a property of the cell, not of the reading port.
        groups = self._groups.get(addr)
        if groups is None:
            return sensed
        last = self._last.get(addr)
        if last is not None:  # never-accessed cells do not decay
            memory = self._memory
            elapsed = self._now - last
            for retention, decay_column, select in groups:
                if elapsed > retention:
                    # The decayed value is now the real cell content.
                    memory.blend_lanes(addr, select, decay_column)
                    sensed = memory.read_lanes(addr)
        self._last[addr] = self._now
        return sensed

    def transform_write(self, addr: int, old, new):
        if addr in self._groups:
            self._last[addr] = self._now
        return new


class _DecoderLanes(LaneFaultModel):
    """AF lanes: per-lane address-mapping overrides.

    Reproduces the canonical single-port read path
    (:class:`~repro.memory.ram.SinglePortRAM`, wired-AND) column-parallel:

    * a write to an address whose lane mapping *excludes* the address
      keeps the old stored value there (lost / redirected write), and
      the intended value lands on every redirect target;
    * a read observes, per lane group, the wired-AND of the mapped
      cells; an empty mapping (AF-A) observes the reading *port's* lane
      sense latch -- which every non-empty read on that port refreshes,
      exactly like the scalar sense amplifiers (one per port; flat
      single-port streams only ever touch latch 0, and AF-A lanes
      observe their own latch, so the blanket refresh is a no-op for
      them, as in the scalar path);
    * a cycle group whose writes land on one physical cell in some
      lane's mapping marks that lane detected
      (:meth:`~repro.memory.packed.LaneFaultModel
      .group_write_conflicts`) -- the scalar executor raises
      ``PortConflictError`` there, which the campaign counts as a
      detection.
    """

    transforms_reads = True
    maps_addresses = True

    def __init__(self, columns):
        lost: dict[int, int] = {}
        redirects: dict[int, dict[int, int]] = {}
        read_groups: dict[int, dict[tuple[int, ...], int]] = {}
        for overrides, lanes in columns.items():
            for addr, cells in overrides:
                if addr not in cells:
                    lost[addr] = lost.get(addr, 0) | lanes
                for target in cells:
                    if target != addr:
                        targets = redirects.setdefault(addr, {})
                        targets[target] = targets.get(target, 0) | lanes
                group = read_groups.setdefault(addr, {})
                group[cells] = group.get(cells, 0) | lanes
        self._lost: dict[int, int] = lost
        self._redirects: dict[int, object] = redirects
        self._read_groups: dict[int, object] = read_groups
        #: (address -> physical cells mapping, lanes) per distinct
        #: mapping, for the group write-conflict check.
        self._overrides = [(dict(overrides), lanes)
                           for overrides, lanes in columns.items()]
        self._conflict_cache: dict[tuple[int, ...], int] = {}
        #: per-port lane latches; missing ports power up at 0 like the
        #: RAM's sense amps.
        self._sense: dict[int, int] = {}
        self._pending = None  # intended value of the in-flight write
        self._memory: PackedMemoryArray | None = None

    def install(self, memory: PackedMemoryArray) -> None:
        self._memory = memory
        spread = memory.spread
        self._lost = {addr: spread(mask)
                      for addr, mask in self._lost.items()}
        self._redirects = {
            addr: [(target, spread(mask))
                   for target, mask in targets.items()]
            for addr, targets in self._redirects.items()
        }
        self._read_groups = {
            addr: [(cells, spread(mask))
                   for cells, mask in groups.items()]
            for addr, groups in self._read_groups.items()
        }

    def transform_write(self, addr: int, old, new):
        # The redirect targets need the *intended* value (per-lane for
        # "wa" records), not the post-substitution column: stash it for
        # after_write before the lost lanes keep their old content.
        self._pending = new
        lost = self._lost.get(addr)
        if lost is not None:
            new = (new & ~lost) | (old & lost)
        return new

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        targets = self._redirects.get(addr)
        if targets is not None:
            pending = self._pending
            for target, select in targets:
                memory.blend_lanes(target, select, pending)

    def transform_read(self, addr: int, sensed, port: int = 0):
        memory = self._memory
        groups = self._read_groups.get(addr)
        if groups is None:
            # Default mapping in every lane; the port's latches refresh.
            self._sense[port] = sensed
            return sensed
        observed = sensed
        for cells, select in groups:
            if not cells:
                # AF-A: the port's sense amp keeps its last value.
                part = self._sense.get(port, 0)
            else:
                part = memory.read_lanes(cells[0])
                for cell in cells[1:]:
                    part = part & memory.read_lanes(cell)
            observed = (observed & ~select) | (part & select)
        self._sense[port] = observed
        return observed

    def group_write_conflicts(self, addrs: tuple[int, ...]) -> int:
        # The stream repeats its write-address groups, so the mapping
        # walk (static per pass) is cached on the addr tuple.
        mask = self._conflict_cache.get(addrs)
        if mask is None:
            mask = 0
            for overrides, lanes in self._overrides:
                cells = [cell for addr in addrs
                         for cell in overrides.get(addr, (addr,))]
                if len(set(cells)) != len(cells):
                    mask |= lanes
            self._conflict_cache[addrs] = mask
        return mask


# -- the rows -> columns adapter ---------------------------------------------
#
# A spec's generator parts hand each pass its columns whole
# (:meth:`repro.faults.universe.LanePlan.columns`).  Everything else --
# hand-built fault lists, ``sample`` specs, parts recorded for a memory
# larger than the stream -- has descriptors only, and reaches the same
# model constructors through these loops, one lane at a time.


def _cell_columns(semantics, first) -> tuple[dict, dict]:
    """Per-cell columns of a stuck/transition pass: lanes where
    ``first(sem)`` holds go to the first dict, the rest to the second."""
    stride = len(semantics)  # == the pass's lane count (plane stride)
    high: dict[int, int] = {}
    low: dict[int, int] = {}
    for lane, sem in enumerate(semantics):
        target = high if first(sem) else low
        bit = 1 << (sem.bit * stride + lane)
        target[sem.cell] = target.get(sem.cell, 0) | bit
    return high, low


def _coupling_table(pairs, stride):
    """Coupling columns of ``(lane, coupling semantics)`` pairs in a
    ``stride``-lane pass (the rows -> columns adapter's coupling case).

    Returns ``{aggressor_cell: [(victim_cell, shift, rise_inv, rise_set,
    rise_clr, fall_inv, fall_set, fall_clr)]}``: one entry per
    (aggressor cell, victim cell, plane delta), where the plane delta is
    the aggressor->victim bit offset (zero for bit-oriented and same-bit
    word faults; also covers the intra-word case where aggressor and
    victim are bits of one cell) and ``shift`` is that delta in column
    bits.  The six int lane masks, one per (edge, effect), sit in each
    lane's *victim* plane.  One fault per lane makes the masks
    disjoint, so firing a whole entry at once is exact.
    """
    merged: dict[tuple[int, int, int], list[int]] = {}
    for lane, sem in pairs:
        key = (sem.cell, sem.victim_cell, sem.victim_bit - sem.bit)
        masks = merged.get(key)
        if masks is None:
            masks = merged[key] = [0] * 6
        masks[coupling_slot(sem.rising, sem.value)] |= \
            1 << (sem.victim_bit * stride + lane)
    table: dict[int, list[tuple]] = {}
    for (aggr, victim, delta), masks in merged.items():
        table.setdefault(aggr, []).append((victim, delta * stride, *masks))
    return table


def _stuck_open_columns(semantics) -> tuple[dict, int]:
    open_lanes: dict[int, int] = {}
    sense = 0
    for lane, sem in enumerate(semantics):
        open_lanes[sem.cell] = open_lanes.get(sem.cell, 0) | (1 << lane)
        if sem.value:
            sense |= 1 << lane
    return open_lanes, sense


def _retention_columns(semantics) -> dict:
    grouped: dict[int, dict[tuple[int, int], int]] = {}
    for lane, sem in enumerate(semantics):
        per_cell = grouped.setdefault(sem.cell, {})
        key = (sem.extra[0], sem.value)
        per_cell[key] = per_cell.get(key, 0) | (1 << lane)
    return grouped


def _state_columns(semantics) -> list[tuple]:
    stride = len(semantics)
    merged: dict[tuple[int, int, int, int], list[int]] = {}
    for lane, sem in enumerate(semantics):
        key = (sem.cell, sem.bit, sem.victim_cell, sem.victim_bit)
        masks = merged.get(key)
        if masks is None:
            masks = merged[key] = [0, 0, 0, 0]
        masks[0 if sem.rising else 1] |= 1 << (sem.bit * stride + lane)
        masks[2 if sem.value else 3] |= 1 << (sem.victim_bit * stride + lane)
    return [(a_cell, v_cell, (v_bit - a_bit) * stride, *masks)
            for (a_cell, a_bit, v_cell, v_bit), masks in merged.items()]


def _linked_columns(semantics) -> list[dict]:
    """One coupling table per component rank: rank 0 of every lane fires
    first, then rank 1 reads the already-corrupted state."""
    stride = len(semantics)
    depth = max(len(sem.extra) for sem in semantics)
    return [_coupling_table([(lane, sem.extra[rank])
                             for lane, sem in enumerate(semantics)
                             if len(sem.extra) > rank], stride)
            for rank in range(depth)]


def _keyed_columns(key) -> Callable[[list[VectorSemantics]], dict]:
    """Adapter of a kind whose columns are ``{key(sem): lanes}``."""

    def columns(semantics) -> dict:
        grouped: dict = {}
        for lane, sem in enumerate(semantics):
            group = key(sem)
            grouped[group] = grouped.get(group, 0) | (1 << lane)
        return grouped

    return columns


#: Built-in kind -> its rows -> columns loop.
_ROW_COLUMNS: dict[str, Callable[[list[VectorSemantics]], object]] = {
    "stuck": lambda semantics: _cell_columns(semantics,
                                             lambda sem: sem.value),
    "transition": lambda semantics: _cell_columns(semantics,
                                                  lambda sem: sem.rising),
    "coupling": lambda semantics: _coupling_table(enumerate(semantics),
                                                  len(semantics)),
    "stuck-open": _stuck_open_columns,
    "state": _state_columns,
    "npsf": _keyed_columns(
        lambda sem: (sem.cell, tuple(sem.extra), sem.value)),
    "bridge": _keyed_columns(
        lambda sem: (sem.cell, sem.victim_cell, sem.value)),
    "retention": _retention_columns,
    "linked": _linked_columns,
    "decoder": _keyed_columns(lambda sem: tuple(sem.extra)),
}


def _row_columns(kind: str, semantics: list[VectorSemantics]):
    """What the model of ``kind`` takes for these descriptors: a
    built-in kind's columns, a custom kind's descriptors as they are."""
    adapter = _ROW_COLUMNS.get(kind)
    return semantics if adapter is None else adapter(semantics)


class RowPlan(NamedTuple):
    """The lane plan of a universe read row by row.

    ``rows[kind]`` lists a kind's ``(universe index, descriptor)``
    pairs in lane order.  Same interface as
    :class:`~repro.faults.universe.LanePlan`; a pass's columns come from
    the rows -> columns adapter.
    """

    rows: dict[str, list[tuple[int, VectorSemantics]]]
    fallback: list[int]

    @property
    def sizes(self) -> dict[str, int]:
        return {kind: len(members) for kind, members in self.rows.items()}

    def members(self, kind: str) -> list[int]:
        return [index for index, _semantics in self.rows[kind]]

    def columns(self, kind: str, lo: int, hi: int):
        return _row_columns(kind, [semantics for _index, semantics
                                   in self.rows[kind][lo:hi]])

    def unpack(self, kind: str, lo: int, hi: int, detected: int,
               verdicts: list) -> None:
        bits = format(detected, f"0{hi - lo}b")[::-1][:hi - lo]
        for (index, _semantics), bit in zip(self.rows[kind][lo:hi], bits,
                                            strict=True):
            verdicts[index] = bit == "1"


def lane_plan_of(faults, n: int, m: int = 1) -> LanePlan | RowPlan:
    """The lane plan of a universe on an ``n x m`` stream.

    A universe made from a spec whose generator parts all fit the
    stream gets its table's :class:`~repro.faults.universe.LanePlan`:
    members by stride arithmetic, columns per address and per coupled
    pair, no row made.  Any other universe is split row by row
    (:func:`~repro.sim.campaign.partition_table`, or the faults'
    descriptors for a hand-built list) into a :class:`RowPlan`.

    >>> from repro.faults import FaultUniverse, standard_universe_spec
    >>> universe = FaultUniverse.from_spec(standard_universe_spec(8))
    >>> plan = lane_plan_of(universe, 8)
    >>> type(plan).__name__, plan.members("bridge")[:4]
    ('LanePlan', [180, 181, 182, 183])
    >>> type(lane_plan_of(universe, 4)).__name__   # parts too large
    'RowPlan'
    """
    table = getattr(faults, "descriptors", None)
    if table is not None:
        plan = table.lane_plan(n, m)
        if plan is not None:
            return plan
        classes, fallback = partition_table(table, n, m)
    else:
        classes, fallback = _partition_faults(faults, n, m)
    return RowPlan(classes, fallback)


#: Vector-semantics kind -> lane model.  A built-in model takes its
#: pass's columns; a registered custom factory takes the descriptors.
_MODELS: dict[str, Callable[..., LaneFaultModel]] = {
    "stuck": _StuckLanes,
    "transition": _TransitionLanes,
    "coupling": _CouplingLanes,
    "stuck-open": _StuckOpenLanes,
    "state": _StateCouplingLanes,
    "npsf": _NpsfLanes,
    "bridge": _BridgeLanes,
    "retention": _RetentionLanes,
    "linked": _LinkedLanes,
    "decoder": _DecoderLanes,
}

#: Kinds whose lane models ship with the library.  A spec's lane plan
#: hands these models columns, not descriptors, so a registration may
#: not replace one.
_BUILTIN_KINDS = frozenset(_MODELS)

#: Lane-width cap per pass: a class with more faults is cut into passes
#: of at most this many lanes (a 2^15-bit column at m=8).
MAX_LANES = 4096


def register_lane_model(
    kind: str,
    factory: Callable[[list[VectorSemantics]], LaneFaultModel],
) -> None:
    """Register a lane-model factory for a custom vector-semantics kind.

    ``factory(semantics)`` receives the descriptors of one class (one per
    lane, in lane order) and returns the
    :class:`~repro.memory.packed.LaneFaultModel` that applies them.  Once
    registered, :func:`run_campaign_batched` vectorizes faults whose
    :meth:`~repro.faults.base.Fault.vector_semantics` returns that kind;
    unregistered kinds take the scalar per-fault path.  A built-in kind
    cannot be replaced: spec lane plans always run the library's model
    for it.
    """
    if not kind:
        raise ValueError("kind must be a non-empty string")
    if kind in _BUILTIN_KINDS:
        raise ValueError(f"kind {kind!r} has a built-in lane model")
    _MODELS[kind] = factory


def build_lane_model(kind: str,
                     semantics: list[VectorSemantics]) -> LaneFaultModel:
    """Lane-fault model for one vectorizable class.

    ``semantics[k]`` describes the fault lane *k* carries; ``kind`` is the
    shared :attr:`~repro.faults.base.VectorSemantics.kind` of the class
    (as produced by :func:`~repro.sim.campaign.partition_universe`).  A
    built-in kind's descriptors go through the rows -> columns adapter
    to the model's constructor; a custom kind's factory takes them as
    they are.

    >>> from repro.faults import StuckAtFault
    >>> model = build_lane_model(
    ...     "stuck", [StuckAtFault(2, 1).vector_semantics()])
    >>> model.transform_write(2, 0, 0)   # lane 0 pinned to 1 at cell 2
    1
    """
    try:
        factory = _MODELS[kind]
    except KeyError:
        raise ValueError(
            f"no lane model for vector-semantics kind {kind!r} "
            f"(known: {sorted(_MODELS)})"
        ) from None
    return factory(_row_columns(kind, semantics))


def _pass_model(plan: LanePlan | RowPlan, kind: str, lo: int,
                hi: int) -> LaneFaultModel:
    """The model of one lane pass over members ``[lo, hi)`` of ``kind``."""
    return _MODELS[kind](plan.columns(kind, lo, hi))


def run_campaign_batched(stream: OpStream, universe: Iterable[Fault],
                         workers: int = 0,
                         progress: Callable[[int, int], None] | None = None,
                         reference_check: bool = True,
                         pool: WorkerPool | None = None
                         ) -> CampaignResult:
    """Replay one compiled stream against a universe, one pass per class.

    Same contract and verdicts as
    :func:`~repro.sim.campaign.run_campaign` -- outcomes in universe
    order, identical ``detected`` flags -- but vectorizable faults
    (stuck-at, transition, stuck-open, CFin/CFid/CFst, NPSF, bridging,
    retention, linked and decoder faults, on bit- and word-oriented
    geometries alike) are resolved lane-parallel on a
    :class:`~repro.memory.packed.PackedMemoryArray`, and only the
    remainder takes the scalar per-fault path.

    Parameters
    ----------
    stream:
        The compiled test.  The packed backend models the canonical
        front-ends -- ``SinglePortRAM(n, m)`` for flat streams and
        ``MultiPortRAM(n, m, ports)`` for cycle-grouped (multi-port)
        ones, whose groups execute as single lane-parallel memory
        cycles (reads sense pre-cycle columns, then writes commit;
        decoder port conflicts count as detections).  Word-oriented
        streams get ``m`` bit planes per lane.
    universe:
        Iterable of faults; outcome order preserved.
    workers:
        Passed with ``pool`` to :func:`~repro.sim.campaign.run_campaign`
        for the scalar remainder, which ``N > 0`` (or an explicit
        ``pool``) shards over the process pool; every lane pass runs in
        this process.  ``workers_used`` is that call's.  A fully
        vectorizable universe has no remainder and never touches (or
        starts) a pool.
    progress:
        ``progress(done, total)`` with ``total`` the full universe size,
        fired after each lane chunk and each fallback chunk.
    reference_check:
        Validate the stream on a fault-free memory first (shared cache
        with the scalar engine).
    pool:
        Explicit :class:`~repro.sim.pool.WorkerPool` for the remainder's
        shards; default is the process-wide shared pool for ``workers``.

    Lanes come from :func:`lane_plan_of`: a
    universe made from a spec whose parts fit the stream hands each pass
    its model's columns from the generator records, with no descriptor
    row and no per-fault Python before the kernel; any other universe
    is split row by row and its descriptors reach the same models
    through the rows -> columns adapter.  A class wider than
    :data:`MAX_LANES` faults runs in several passes.
    ``CampaignResult.faults_batched`` reports how many faults the lane
    passes resolved; ``operations_replayed`` counts lane-pass records
    once per *pass* plus the scalar fallback's per-fault records (so it
    measures work done, not work avoided).

    >>> from repro.faults import single_cell_universe
    >>> from repro.march.library import MARCH_C_MINUS
    >>> from repro.sim.compilers import compile_march
    >>> stream = compile_march(MARCH_C_MINUS, 16)
    >>> result = run_campaign_batched(
    ...     stream, single_cell_universe(16, classes=("SAF", "TF")))
    >>> result.detection_ratio, result.faults_batched
    (1.0, 64)
    """
    n = stream.n
    if reference_check:
        _reference_pass(stream, n, stream.m)
    # A universe made from a spec keeps its descriptor table: its lanes
    # come from the table's lane plan, and a fault is built only where
    # one is needed (the scalar remainder, a report naming a miss).
    faults = universe if getattr(universe, "descriptors", None) is not None \
        else list(universe)
    plan = lane_plan_of(faults, n, stream.m)
    total = len(faults)
    classes = dict(plan.sizes)  # kind -> lanes
    fallback = list(plan.fallback)
    # A custom fault may return a VectorSemantics kind nobody registered
    # a lane model for; honour the any-universe contract by routing it to
    # the scalar path instead of failing mid-campaign.
    for kind in [k for k in classes if k not in _MODELS]:
        del classes[kind]
        fallback.extend(plan.members(kind))
    fallback.sort()
    result = CampaignResult(stream_name=stream.name, n=n, m=stream.m,
                            reference_operations=stream.reference_operations
                            or 0,
                            faults_batched=total - len(fallback))
    verdicts: list[bool] = [False] * total
    done = 0
    for kind in sorted(classes):
        for base in range(0, classes[kind], MAX_LANES):
            hi = min(base + MAX_LANES, classes[kind])
            model = _pass_model(plan, kind, base, hi)
            packed = PackedMemoryArray(n, lanes=hi - base, m=stream.m)
            model.install(packed)
            detected, executed = packed.apply_stream(
                stream.ops, tables=stream.tables, model=model
            )
            result.operations_replayed += executed
            plan.unpack(kind, base, hi, detected, verdicts)
            done += hi - base
            if progress is not None:
                progress(done, total)
    if fallback:
        def remap(sub_done: int, _sub_total: int) -> None:
            progress(done + sub_done, total)

        scalar = run_campaign(stream, [faults[i] for i in fallback],
                              workers=workers, pool=pool,
                              progress=remap if progress is not None
                              else None,
                              reference_check=False)
        result.workers_used = scalar.workers_used
        result.operations_replayed += scalar.operations_replayed
        for index, detected in zip(fallback, scalar.verdicts, strict=True):
            verdicts[index] = detected
    result.faults = faults
    result.verdicts = verdicts
    return result
