"""Compilers: lower March tests and π-test schedules into an OpStream.

The compilers walk the *same* control flow as the interpreted engines
(:func:`repro.march.engine.run_march`, :meth:`repro.prt.schedule
.PiTestSchedule.run`) but emit flat operation records instead of issuing
RAM calls, so replaying the stream performs exactly the operation sequence
the interpreted engine would -- same addresses, same order, same values,
same cycle counts -- and therefore detects exactly the same faults.

Compilation is O(test length) and happens once per campaign; everything
fault-independent (address walks, data backgrounds, recurrence
multipliers, expected backgrounds and signatures) is resolved here so the
per-fault replay is a single flat loop.
"""

from __future__ import annotations

from functools import lru_cache

from repro.march.engine import word_backgrounds
from repro.march.model import MarchDelay, MarchTest
from repro.sim.ir import OpStream, Segment
from repro.sim.verify import verify_or_raise


def _finish(stream: OpStream, verify: bool) -> OpStream:
    """Opt-in deep pass: every compiler's ``verify=True`` funnels here.

    Construction already enforced the fast structural contract; the deep
    pass adds the operand-domain, accumulator-discipline and segment
    checks of :func:`repro.sim.verify.verify` and raises
    :class:`~repro.sim.diagnostics.StreamError` on any error finding.
    """
    if verify:
        verify_or_raise(stream)
    return stream

__all__ = [
    "compile_march",
    "compile_schedule",
    "compile_pi_iteration",
    "compile_dual_port_pi",
    "compile_quad_port_pi",
    "compile_multi_schedule",
    "cached_march_stream",
    "cached_schedule_stream",
    "cached_pi_iteration_stream",
    "cached_dual_port_stream",
    "cached_quad_port_stream",
    "cached_multi_schedule_stream",
]


def compile_march(test: MarchTest, n: int, m: int = 1,
                  backgrounds: list[int] | None = None,
                  verify: bool = False) -> OpStream:
    """Lower a March test to an :class:`OpStream`.

    Mirrors :func:`repro.march.engine.run_march`: for every data
    background, every element, every address in the element's order, emit
    the element's operations with the background-resolved data values.
    ``MarchDelay`` elements become idle records.  Per-op metadata is
    ``(background, element_index)`` so replay can rebuild the exact
    ``MarchResult.failures`` tuples.

    >>> from repro.march.library import MATS_PLUS
    >>> stream = compile_march(MATS_PLUS, 16)
    >>> stream.operation_count == MATS_PLUS.operation_count(16)
    True
    """
    mask = (1 << m) - 1
    if backgrounds is None:
        backgrounds = [0] if m == 1 else word_backgrounds(m)
    ops: list[tuple] = []
    info: list[tuple] = []
    for background in backgrounds:
        if not 0 <= background <= mask:
            raise ValueError(
                f"background {background:#x} does not fit {m}-bit words"
            )
        for element_index, element in enumerate(test.elements):
            if isinstance(element, MarchDelay):
                ops.append(("i", 0, 0, 0, None, element.cycles))
                info.append((background, element_index))
                continue
            for addr in element.addresses(n):
                for op in element.ops:
                    value = background if op.data == 0 else background ^ mask
                    if op.kind == "w":
                        ops.append(("w", 0, addr, value, None, 0))
                    else:
                        ops.append(("r", 0, addr, None, value, 0))
                    info.append((background, element_index))
    return _finish(OpStream(source="march", name=test.name, n=n, m=m,
                            ops=tuple(ops), info=tuple(info)), verify)


def _multiplier_table(field, multiplier: int, table_index: dict,
                      tables: list[tuple[int, ...]]) -> int | None:
    """Table id for ``field.mul(multiplier, .)``, or None for identity.

    Constant GF(2^m) multiplication is lowered to a lookup table at
    compile time, shared across iterations via ``(modulus, multiplier)``
    keys -- this is also what lets one stream mix iterations over
    different fields of the same width.
    """
    if multiplier == 1:
        return None  # mul(1, r) == r: the replay adds the read directly
    key = (field.modulus, multiplier)
    index = table_index.get(key)
    if index is None:
        index = len(tables)
        tables.append(tuple(field.mul(multiplier, r) for r in range(field.size)))
        table_index[key] = index
    return index


def _compile_iteration(iteration, n: int, m: int,
                       previous_background: list[int] | None,
                       iteration_index: int,
                       ops: list[tuple], info: list[tuple],
                       table_index: dict,
                       tables: list[tuple[int, ...]]) -> Segment:
    """Emit one π-iteration's records; returns its :class:`Segment`.

    Replicates :meth:`repro.prt.pi_test.PiIteration.run` step for step:
    seed writes (with transparent verification when a previous background
    is given), the n-sub-iteration sweep with null recurrence taps
    skipped, and the final signature-window reads.
    """
    field = iteration.field
    if m != field.m:
        raise ValueError(
            f"RAM cell width m={m} does not match field GF(2^{field.m})"
        )
    k = iteration.k
    if n < iteration.min_cells:
        raise ValueError(
            f"memory must have more than k={k} cells, got {n}"
        )
    if previous_background is not None and len(previous_background) != n:
        raise ValueError(
            f"previous background must list all {n} cells, "
            f"got {len(previous_background)}"
        )
    traj = iteration.trajectory_for(n)
    mask = (1 << field.m) - 1
    enc = mask if iteration.invert else 0
    mult = iteration.recurrence_multipliers
    start = len(ops)
    # 1. Init: seed the first k trajectory cells.
    for i, value in enumerate(iteration.seed):
        if previous_background is not None:
            cell = traj[i]
            ops.append(("r", 0, cell, None, previous_background[cell], 0))
            info.append((iteration_index, "verify"))
        ops.append(("w", 0, traj[i], value ^ enc, None, 0))
        info.append((iteration_index, "seed"))
    # 2. Sweep with cyclic wrap: n sub-iterations.
    tap_tables = [
        _multiplier_table(field, multiplier, table_index, tables)
        if multiplier else 0
        for multiplier in mult
    ]
    expected_stream = iteration.expected_stream(n)
    for j in range(n):
        for i in range(k):
            if mult[i] == 0:
                continue  # null tap, skipped by the engine as well
            ops.append(("ra", 0, traj[j + i], tap_tables[i], enc, 0))
            info.append((iteration_index, "sweep"))
        if previous_background is not None:
            cell = traj[j + k]
            # Wrap writes overwrite this iteration's own seeds.
            expected = (previous_background[cell] if j < n - k
                        else iteration.seed[j + k - n] ^ enc)
            ops.append(("r", 0, cell, None, expected, 0))
            info.append((iteration_index, "verify"))
        ops.append(("wa", 0, traj[j + k], enc, expected_stream[j], 0))
        info.append((iteration_index, "sweep"))
    # 3. Signature: read the final window (wraps to the first k cells).
    expected_final = iteration.expected_final(n)
    for i in range(k):
        ops.append(("s", 0, traj[n + i], None, expected_final[i], 0))
        info.append((iteration_index, "sig"))
    return Segment(
        label="iteration", index=iteration_index, start=start, stop=len(ops),
        init_state=tuple(value ^ enc for value in iteration.seed),
        expected_final=expected_final,
    )


def compile_pi_iteration(iteration, n: int, m: int = 1,
                         verify: bool = False) -> OpStream:
    """Lower one standalone :class:`~repro.prt.pi_test.PiIteration`.

    >>> from repro.prt import PiIteration
    >>> it = PiIteration(generator=(1, 0, 1, 1), seed=(0, 0, 1))
    >>> stream = compile_pi_iteration(it, 14)
    >>> stream.operation_count == it.operation_count(14)
    True
    """
    ops: list[tuple] = []
    info: list[tuple] = []
    tables: list[tuple[int, ...]] = []
    segment = _compile_iteration(iteration, n, m, None, 0, ops, info,
                                 {}, tables)
    return _finish(
        OpStream(source="iteration", name=repr(iteration), n=n, m=m,
                 ops=tuple(ops), info=tuple(info), tables=tuple(tables),
                 segments=(segment,)), verify)


def compile_schedule(schedule, n: int, m: int = 1,
                     verify: bool = False) -> OpStream:
    """Lower a :class:`~repro.prt.schedule.PiTestSchedule`.

    Emits every iteration (chained through ``background_after`` when the
    schedule verifies transparently), inter-iteration pauses, and the
    final stride-2 read-back pass, exactly as
    :meth:`~repro.prt.schedule.PiTestSchedule.run` executes them.

    >>> from repro.prt import standard_schedule
    >>> schedule = standard_schedule(n=14)
    >>> stream = compile_schedule(schedule, 14)
    >>> stream.operation_count == schedule.operation_count(14)
    True
    """
    iterations = schedule.iterations
    transparent = schedule.verify
    pause = schedule.pause_between
    ops: list[tuple] = []
    info: list[tuple] = []
    tables: list[tuple[int, ...]] = []
    table_index: dict = {}
    segments: list[Segment] = []
    previous_background: list[int] | None = None
    for index, iteration in enumerate(iterations):
        start = len(ops)
        if index and pause:
            ops.append(("i", 0, 0, 0, None, pause))
            info.append((index, "pause"))
        segment = _compile_iteration(
            iteration, n, m, previous_background, index, ops, info,
            table_index, tables
        )
        # Fold the leading pause into the iteration's segment so a
        # segment-wise replay issues it at the same point in time.
        segments.append(Segment(
            label="iteration", index=index, start=start, stop=segment.stop,
            init_state=segment.init_state,
            expected_final=segment.expected_final,
        ))
        if transparent:
            previous_background = iteration.background_after(n)
    if transparent and previous_background is not None:
        last = len(iterations) - 1
        start = len(ops)
        if pause:
            ops.append(("i", 0, 0, 0, None, pause))
            info.append((last, "pause"))
        # Stride-2 order (evens, then odds) -- see PiTestSchedule.run.
        order = list(range(0, n, 2)) + list(range(1, n, 2))
        for addr in order:
            ops.append(("r", 0, addr, None, previous_background[addr], 0))
            info.append((last, "readback"))
        segments.append(Segment(label="readback", index=last,
                                start=start, stop=len(ops)))
    elif pause:
        # Pure mode still idles after the last iteration when a pause is
        # configured (PiTestSchedule.run does, before skipping read-back).
        last = len(iterations) - 1
        start = len(ops)
        ops.append(("i", 0, 0, 0, None, pause))
        info.append((last, "pause"))
        segments.append(Segment(label="readback", index=last,
                                start=start, stop=len(ops)))
    return _finish(
        OpStream(source="schedule", name=schedule.name, n=n, m=m,
                 ops=tuple(ops), info=tuple(info), tables=tuple(tables),
                 segments=tuple(segments)), verify)


# -- multi-port schemes: cycle-grouped lowering --------------------------------
#
# The dual-/quad-port π-tests (repro.prt.dual_port) issue several port
# operations per memory cycle -- that simultaneity IS the paper's claim
# (2n cycles for dual-port, n for quad-port), so the lowering must keep
# it.  Cycle groups (the "grp" records of repro.sim.ir) encode it: each
# interpreted ram.cycle([...]) call becomes one group, and replay through
# MultiPortRAM.apply_stream reproduces the exact per-cycle read/write
# phases, conflict checks and RamStats the interpreted engine produces.


def _compile_dual_iteration(iteration, n: int, m: int,
                            previous_background: list[int] | None,
                            iteration_index: int,
                            ops: list[tuple], info: list[tuple],
                            table_index: dict,
                            tables: list[tuple[int, ...]]) -> Segment:
    """Emit one dual-port π-iteration's records; returns its Segment.

    Replicates :meth:`repro.prt.dual_port.DualPortPiIteration.run` cycle
    for cycle, including the transparent-verification layout: one
    leading double-read group for the seed cells, then a verify read on
    the write cycle's idle second port (zero extra cycles -- the group's
    read phase senses the pre-write value).
    """
    field = iteration.field
    if m != field.m:
        raise ValueError(
            f"RAM cell width m={m} does not match field GF(2^{field.m})"
        )
    if n < iteration.min_cells:
        raise ValueError(f"memory must have more than 2 cells, got {n}")
    if previous_background is not None and len(previous_background) != n:
        raise ValueError(
            f"previous background must list all {n} cells, "
            f"got {len(previous_background)}"
        )
    traj = iteration.trajectory_for(n)
    seed = iteration.seed
    mult = iteration.recurrence_multipliers
    start = len(ops)

    def group(count: int, role: str) -> None:
        ops.append(("grp", 0, 0, count, None, 0))
        info.append((iteration_index, role))

    if previous_background is not None:
        # Both ports write in the init cycle, so the seed cells' old
        # contents get a dedicated leading double-read cycle.
        group(2, "verify")
        for i in range(2):
            cell = traj[i]
            ops.append(("r", i, cell, None, previous_background[cell], 0))
            info.append((iteration_index, "verify"))
    # 1. Init: both seed words in one cycle (two ports, two cells).
    group(2, "seed")
    ops.append(("w", 0, traj[0], seed[0], None, 0))
    info.append((iteration_index, "seed"))
    ops.append(("w", 1, traj[1], seed[1], None, 0))
    info.append((iteration_index, "seed"))
    # 2. Sweep: a double-read cycle then a write cycle per sub-iteration.
    # Unlike the single-port compiler, a null tap is NOT skipped: the
    # dual-port engine always issues both reads (the cycle pattern is
    # fixed in hardware), so a zero multiplier lowers to an
    # all-zero lookup table -- the read happens, contributes nothing.
    taps = [
        _multiplier_table(field, multiplier, table_index, tables)
        for multiplier in mult
    ]
    expected_stream = iteration.expected_stream(n)
    for j in range(n):
        group(2, "sweep")
        ops.append(("ra", 0, traj[j], taps[0], 0, 0))
        info.append((iteration_index, "sweep"))
        ops.append(("ra", 1, traj[j + 1], taps[1], 0, 0))
        info.append((iteration_index, "sweep"))
        if previous_background is None:
            # The write-back cycle carries a single op, so it stays a
            # flat record: a one-member group is exactly one op in one
            # cycle (the degenerate case), and eliding the marker keeps
            # the replay hot loop shorter.
            ops.append(("wa", 0, traj[j + 2], 0, expected_stream[j], 0))
            info.append((iteration_index, "sweep"))
        else:
            # Verifying mode: port 1 reads the cell port 0 overwrites,
            # in the same cycle (the group's read phase is pre-write).
            cell = traj[j + 2]
            # Wrap writes overwrite this iteration's own seeds.
            expected = (previous_background[cell] if j < n - 2
                        else seed[j + 2 - n])
            group(2, "sweep")
            ops.append(("wa", 0, cell, 0, expected_stream[j], 0))
            info.append((iteration_index, "sweep"))
            ops.append(("r", 1, cell, None, expected, 0))
            info.append((iteration_index, "verify"))
    # 3. Signature: both final-window reads in one cycle.
    expected_final = iteration.expected_final(n)
    group(2, "sig")
    ops.append(("s", 0, traj[n], None, expected_final[0], 0))
    info.append((iteration_index, "sig"))
    ops.append(("s", 1, traj[n + 1], None, expected_final[1], 0))
    info.append((iteration_index, "sig"))
    return Segment(label="iteration", index=iteration_index,
                   start=start, stop=len(ops),
                   init_state=tuple(seed), expected_final=expected_final)


def compile_dual_port_pi(iteration, n: int, m: int = 1,
                         verify: bool = False) -> OpStream:
    """Lower a :class:`~repro.prt.dual_port.DualPortPiIteration`.

    Mirrors its ``run`` cycle for cycle: one double-write init group,
    then per sub-iteration a double-read group (both ports, both taps --
    a null tap still reads, it just multiplies by zero) followed by a
    single-write group, and a final double-read signature group.  The
    stream replays in the paper's ``2n + 2`` cycles (claim C4 for 2P
    RAM).

    >>> from repro.prt import DualPortPiIteration
    >>> it = DualPortPiIteration(seed=(0, 1))
    >>> stream = compile_dual_port_pi(it, 14)
    >>> stream.ports, stream.replay_cycles == it.cycle_count(14)
    (2, True)
    """
    ops: list[tuple] = []
    info: list[tuple] = []
    tables: list[tuple[int, ...]] = []
    segment = _compile_dual_iteration(iteration, n, m, None, 0, ops, info,
                                      {}, tables)
    return _finish(
        OpStream(source="dual-port", name=repr(iteration), n=n, m=m,
                 ops=tuple(ops), info=tuple(info), tables=tuple(tables),
                 segments=(segment,), ports=2), verify)


def _compile_quad_iteration(iteration, n: int, m: int,
                            previous_background: list[int] | None,
                            iteration_index: int,
                            ops: list[tuple], info: list[tuple],
                            table_index: dict,
                            tables: list[tuple[int, ...]]) -> Segment:
    """Emit one quad-port π-iteration's records; returns its Segment.

    Member infos carry ``(automaton, role)`` (replay splits captures and
    verify mismatches per half); group markers carry the iteration
    index.  Verifying mode adds a leading 4-read group for the seed
    cells and folds ports 1/3 verify reads into the 2-write groups.
    """
    field = iteration.field
    if m != field.m:
        raise ValueError(
            f"RAM cell width m={m} does not match field GF(2^{field.m})"
        )
    if n % 2 != 0 or n < iteration.min_cells:
        raise ValueError(
            f"the two-automata scheme needs an even n >= 6, got {n}"
        )
    if previous_background is not None and len(previous_background) != n:
        raise ValueError(
            f"previous background must list all {n} cells, "
            f"got {len(previous_background)}"
        )
    half = n // 2
    seed = iteration.seed
    mult = iteration.recurrence_multipliers
    start = len(ops)

    def cell(automaton: int, j: int) -> int:
        return (half if automaton else 0) + (j % half)

    def group(count: int, role: str) -> None:
        ops.append(("grp", 0, 0, count, None, 0))
        info.append((iteration_index, role))

    if previous_background is not None:
        # All four ports write in the init cycle; one leading 4-read
        # cycle checks both automata's seed cells.
        group(4, "verify")
        for port, (automaton, i) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            addr = cell(automaton, i)
            ops.append(("r", port, addr, None, previous_background[addr], 0))
            info.append((automaton, "verify"))
    # 1. Init: all four seed words in one cycle.
    group(4, "seed")
    for port, (automaton, i) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        ops.append(("w", port, cell(automaton, i), seed[i], None, 0))
        info.append((automaton, "seed"))
    taps = [
        _multiplier_table(field, multiplier, table_index, tables)
        for multiplier in mult
    ]
    expected_stream = iteration.expected_stream(n)
    # 2. Sweep: 4 reads then 2 writes per sub-iteration (j over n/2).
    for j in range(half):
        group(4, "sweep")
        for port, (automaton, i) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            ops.append(("ra", port, cell(automaton, j + i), taps[i], 0,
                        automaton))
            info.append((automaton, "sweep"))
        if previous_background is None:
            group(2, "sweep")
            ops.append(("wa", 0, cell(0, j + 2), 0, expected_stream[j], 0))
            info.append((0, "sweep"))
            ops.append(("wa", 2, cell(1, j + 2), 0, expected_stream[j], 1))
            info.append((1, "sweep"))
        else:
            # Verifying mode: ports 1/3 read the cells ports 0/2
            # overwrite, in the same cycle (read phase is pre-write).
            group(4, "sweep")
            for automaton, (wport, rport) in enumerate([(0, 1), (2, 3)]):
                target = cell(automaton, j + 2)
                # Wrap writes overwrite this iteration's own seeds.
                expected = (previous_background[target] if j < half - 2
                            else seed[j + 2 - half])
                ops.append(("wa", wport, target, 0, expected_stream[j],
                            automaton))
                info.append((automaton, "sweep"))
                ops.append(("r", rport, target, None, expected, 0))
                info.append((automaton, "verify"))
    # 3. Signature: both automata's final windows in one cycle.
    expected_final = iteration.expected_final(n)
    group(4, "sig")
    for port, (automaton, i) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        ops.append(("s", port, cell(automaton, half + i), None,
                    expected_final[i], 0))
        info.append((automaton, "sig"))
    return Segment(label="iteration", index=iteration_index,
                   start=start, stop=len(ops),
                   init_state=tuple(seed), expected_final=expected_final)


def compile_quad_port_pi(iteration, n: int, m: int = 1,
                         verify: bool = False) -> OpStream:
    """Lower a :class:`~repro.prt.dual_port.QuadPortPiIteration`.

    Two virtual automata sweep the two array halves concurrently: per
    sub-iteration one 4-read group (ports 0/1 serve automaton A, ports
    2/3 automaton B) and one 2-write group.  Each automaton accumulates
    its recurrence in its *own* accumulator (ids 0 and 1 in the records'
    sixth slot), so corrupted data propagates per half exactly as in the
    interpreted engine.  Replays in ``n + 2`` cycles.

    >>> from repro.prt import QuadPortPiIteration
    >>> it = QuadPortPiIteration(seed=(0, 1))
    >>> stream = compile_quad_port_pi(it, 12)
    >>> stream.ports, stream.replay_cycles == it.cycle_count(12)
    (4, True)
    """
    ops: list[tuple] = []
    info: list[tuple] = []
    tables: list[tuple[int, ...]] = []
    segment = _compile_quad_iteration(iteration, n, m, None, 0, ops, info,
                                      {}, tables)
    return _finish(
        OpStream(source="quad-port", name=repr(iteration), n=n, m=m,
                 ops=tuple(ops), info=tuple(info), tables=tuple(tables),
                 segments=(segment,), ports=4), verify)


def compile_multi_schedule(schedule, n: int, m: int = 1,
                           verify: bool = False) -> OpStream:
    """Lower a :class:`~repro.prt.multi_schedule.MultiPortSchedule`.

    Emits every multi-port iteration (dual- or quad-port, dispatched on
    the iteration's ``ports`` attribute and chained through
    ``background_after`` when the schedule verifies transparently),
    inter-iteration pauses, and the final stride-2 read-back pass --
    exactly as :meth:`~repro.prt.multi_schedule.MultiPortSchedule
    .run_interpreted` executes them.  The read-back is itself
    port-parallel: the stride-2 address order is chunked into
    ``schedule.ports``-wide read groups (one cycle each), so the pass
    costs ``ceil(n / ports)`` cycles instead of ``n``.

    >>> from repro.prt import standard_multi_schedule
    >>> schedule = standard_multi_schedule(ports=2)
    >>> stream = compile_multi_schedule(schedule, 14)
    >>> stream.ports, stream.operation_count == schedule.operation_count(14)
    (2, True)
    """
    iterations = schedule.iterations
    transparent = schedule.verify
    pause = schedule.pause_between
    ports = schedule.ports
    ops: list[tuple] = []
    info: list[tuple] = []
    tables: list[tuple[int, ...]] = []
    table_index: dict = {}
    segments: list[Segment] = []
    previous_background: list[int] | None = None
    for index, iteration in enumerate(iterations):
        start = len(ops)
        if index and pause:
            ops.append(("i", 0, 0, 0, None, pause))
            info.append((index, "pause"))
        compile_one = (_compile_quad_iteration
                       if getattr(iteration, "ports", 2) == 4
                       else _compile_dual_iteration)
        segment = compile_one(iteration, n, m, previous_background, index,
                              ops, info, table_index, tables)
        # Fold the leading pause into the iteration's segment so a
        # segment-wise replay issues it at the same point in time.
        segments.append(Segment(
            label="iteration", index=index, start=start, stop=segment.stop,
            init_state=segment.init_state,
            expected_final=segment.expected_final,
        ))
        if transparent:
            previous_background = iteration.background_after(n)
    if transparent and previous_background is not None:
        last = len(iterations) - 1
        start = len(ops)
        if pause:
            ops.append(("i", 0, 0, 0, None, pause))
            info.append((last, "pause"))
        # Stride-2 order (evens, then odds) -- see PiTestSchedule.run --
        # issued ports-at-a-time: all ports of the RAM read in parallel.
        order = list(range(0, n, 2)) + list(range(1, n, 2))
        for chunk_start in range(0, n, ports):
            chunk = order[chunk_start:chunk_start + ports]
            if len(chunk) > 1:
                ops.append(("grp", 0, 0, len(chunk), None, 0))
                info.append((last, "readback"))
            for port, addr in enumerate(chunk):
                ops.append(("r", port, addr, None,
                            previous_background[addr], 0))
                info.append((last, "readback"))
        segments.append(Segment(label="readback", index=last,
                                start=start, stop=len(ops)))
    elif pause:
        # Pure mode still idles after the last iteration when a pause is
        # configured, mirroring the single-port schedule compiler.
        last = len(iterations) - 1
        start = len(ops)
        ops.append(("i", 0, 0, 0, None, pause))
        info.append((last, "pause"))
        segments.append(Segment(label="readback", index=last,
                                start=start, stop=len(ops)))
    return _finish(
        OpStream(source="multi-schedule", name=schedule.name, n=n, m=m,
                 ops=tuple(ops), info=tuple(info), tables=tuple(tables),
                 segments=tuple(segments), ports=ports), verify)


# -- memoized entry points -----------------------------------------------------
#
# The thin adapters (run_march, PiTestSchedule.run, the run_coverage
# runners) compile on every call; these caches make repeated runs of the
# same test on the same geometry -- per-fault loops in benchmarks and
# examples, the CLI compare table -- pay the lowering once.  Streams are
# immutable apart from the reference-pass flag, which is *meant* to be
# shared, so handing out the same object is safe.


@lru_cache(maxsize=256)
def _cached_march(test: MarchTest, n: int, m: int,
                  backgrounds: tuple[int, ...] | None) -> OpStream:
    return compile_march(
        test, n, m,
        backgrounds=None if backgrounds is None else list(backgrounds),
    )


def cached_march_stream(test: MarchTest, n: int, m: int = 1,
                        backgrounds: list[int] | None = None) -> OpStream:
    """Memoized :func:`compile_march` (keyed on test, geometry and
    backgrounds).

    >>> from repro.march.library import MATS
    >>> cached_march_stream(MATS, 8) is cached_march_stream(MATS, 8)
    True
    """
    key = None if backgrounds is None else tuple(backgrounds)
    return _cached_march(test, n, m, key)


@lru_cache(maxsize=256)
def cached_schedule_stream(schedule, n: int, m: int = 1) -> OpStream:
    """Memoized :func:`compile_schedule` (schedules are keyed by
    identity -- they are configured once and never mutated).

    >>> from repro.prt import standard_schedule
    >>> schedule = standard_schedule(n=14)
    >>> cached_schedule_stream(schedule, 14) is cached_schedule_stream(schedule, 14)
    True
    """
    return compile_schedule(schedule, n, m)


@lru_cache(maxsize=256)
def cached_pi_iteration_stream(iteration, n: int, m: int = 1) -> OpStream:
    """Memoized :func:`compile_pi_iteration` (keyed by iteration
    identity)."""
    return compile_pi_iteration(iteration, n, m)


@lru_cache(maxsize=256)
def cached_dual_port_stream(iteration, n: int, m: int = 1) -> OpStream:
    """Memoized :func:`compile_dual_port_pi` (keyed by iteration
    identity -- iterations are configured once and never mutated).

    Object identity is what lets repeated campaigns over one scheme
    reuse the stream's memoized digest and reference pass too.
    """
    return compile_dual_port_pi(iteration, n, m)


@lru_cache(maxsize=256)
def cached_quad_port_stream(iteration, n: int, m: int = 1) -> OpStream:
    """Memoized :func:`compile_quad_port_pi` (keyed by iteration
    identity)."""
    return compile_quad_port_pi(iteration, n, m)


@lru_cache(maxsize=256)
def cached_multi_schedule_stream(schedule, n: int, m: int = 1) -> OpStream:
    """Memoized :func:`compile_multi_schedule` (keyed by schedule
    identity -- schedules are configured once and never mutated)."""
    return compile_multi_schedule(schedule, n, m)
