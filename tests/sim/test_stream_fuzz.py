"""Differential executor fuzzing: random valid OpStreams, three executors.

Hypothesis generates random *valid* operation streams -- flat and
cycle-grouped records, mixed ``w/r/s/ra/wa/i`` kinds, word widths m in
{1, 4, 8}, 1/2/4 ports -- and replays each through every executor in the
codebase:

* ``MultiPortRAM.apply_stream`` (the native grouped executor, baseline),
* ``SinglePortRAM.apply_stream`` (flat single-port streams),
* ``PackedMemoryArray.apply_stream``, one fault-free lane (the single
  int-column executor every word width runs on; a fixed m=1 example
  reaches the bit-oriented case on every run).

Every executor must agree on the final memory image (trailing ``"wa"``
flush records fold the per-id accumulators into it), the executed-record
count, the captured signature values, the detection verdict and the
exact clock trace (observed on the packed executor through a timed
no-fault probe model).
Recurrence tables are GF(2)-linear by construction -- generated from
random basis images -- which is the invariant the packed executor's
shift/XOR table lowering assumes and the compilers guarantee.
"""

from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from repro.memory import MultiPortRAM, PackedMemoryArray, SinglePortRAM
from repro.memory.packed import LaneFaultModel
from repro.sim import OpStream

FLAT_KINDS = ("w", "r", "s", "ra", "wa", "i")
GROUP_KINDS = ("w", "r", "s", "ra", "wa")


def _linear_table(images):
    """The GF(2)-linear map sending basis vector ``b`` to ``images[b]``."""
    table = []
    for operand in range(1 << len(images)):
        acc = 0
        for bit, image in enumerate(images):
            if (operand >> bit) & 1:
                acc ^= image
        table.append(acc)
    return tuple(table)


@st.composite
def op_streams(draw):
    """A random valid :class:`OpStream` (construction re-validates it)."""
    ports = draw(st.sampled_from([1, 2, 4]))
    m = draw(st.sampled_from([1, 4, 8]))
    n = draw(st.integers(min_value=max(2, ports), max_value=6))
    mask = (1 << m) - 1
    tables = tuple(
        _linear_table([draw(st.integers(0, mask)) for _ in range(m)])
        for _ in range(draw(st.integers(0, 2)))
    )
    addr = st.integers(0, n - 1)
    value = st.integers(0, mask)
    acc_id = st.integers(0, 1)
    table_ref = st.sampled_from((None,) + tuple(range(len(tables))))

    def flat(kind):
        port = draw(st.integers(0, ports - 1))
        if kind == "w":
            return ("w", port, draw(addr), draw(value), None, 0)
        if kind in ("r", "s"):
            return (kind, port, draw(addr), None, draw(value), 0)
        if kind == "ra":
            return ("ra", port, draw(addr), draw(table_ref), draw(value),
                    draw(acc_id))
        if kind == "wa":
            return ("wa", port, draw(addr), draw(value), None, draw(acc_id))
        return ("i", 0, 0, 0, None, draw(st.integers(1, 4)))

    def group():
        count = draw(st.integers(1, ports))
        member_ports = draw(st.permutations(range(ports)))[:count]
        members, written = [], set()
        for port in member_ports:
            kind = draw(st.sampled_from(GROUP_KINDS))
            if kind in ("w", "wa"):
                free = [cell for cell in range(n) if cell not in written]
                if not free:
                    kind = "r"  # every cell already written this cycle
                else:
                    cell = draw(st.sampled_from(free))
                    written.add(cell)
                    if kind == "w":
                        members.append(("w", port, cell, draw(value),
                                        None, 0))
                    else:
                        members.append(("wa", port, cell, draw(value),
                                        None, draw(acc_id)))
                    continue
            if kind == "ra":
                members.append(("ra", port, draw(addr), draw(table_ref),
                                draw(value), draw(acc_id)))
            else:
                members.append((kind, port, draw(addr), None, draw(value), 0))
        return [("grp", 0, 0, count, None, 0)] + members

    ops = []
    for _ in range(draw(st.integers(1, 10))):
        if ports > 1 and draw(st.booleans()):
            ops.extend(group())
        else:
            ops.append(flat(draw(st.sampled_from(FLAT_KINDS))))
    # Trailing flushes fold the per-id accumulators into the memory
    # image, so the final-state comparison covers them too.
    ops.append(("wa", 0, 0, 0, None, 0))
    ops.append(("wa", 0, 1, 0, None, 1))
    return OpStream(source="fuzz", name="fuzz", n=n, m=m, ops=tuple(ops),
                    info=((0, "fuzz"),) * len(ops), tables=tables,
                    ports=ports)


class _ClockProbe(LaneFaultModel):
    """Timed no-fault model recording the packed executor's clock calls."""

    timed = True

    def __init__(self):
        self.ticks = []

    def clock(self, cycle):
        # A one-member group funnels its member through the flat path
        # after the marker record, so the executor clocks the same
        # instant twice; consecutive duplicates carry no information.
        if not self.ticks or self.ticks[-1] != cycle:
            self.ticks.append(cycle)


def _expected_clock(ops):
    """(pre-increment clock value per executed record, final cycle count).

    The contract every cycle-capable executor must honour: flat reads and
    writes cost one cycle each, a whole ``"grp"`` cycle group costs one,
    and ``"i"`` records add their idle count.
    """
    ticks = []
    cycle = index = 0
    while index < len(ops):
        record = ops[index]
        ticks.append(cycle)
        if record[0] == "grp":
            cycle += 1
            index += 1 + record[3]
        elif record[0] == "i":
            cycle += record[5]
            index += 1
        else:
            cycle += 1
            index += 1
    return ticks, cycle


def _scalar_run(ram, stream):
    mismatches, captured = [], []
    executed = ram.apply_stream(stream.ops, tables=stream.tables,
                                mismatches=mismatches, captured=captured)
    return executed, mismatches, captured


#: A fixed bit-oriented (m=1) two-port stream with every record kind and
#: a detecting read: the packed executor has no separate m=1 path, so
#: this example keeps the one-plane case covered whatever Hypothesis draws.
_BIT_OPS = (
    ("w", 0, 0, 1, None, 0),
    ("ra", 1, 0, 0, 1, 0),
    ("s", 0, 1, None, 0, 0),
    ("i", 0, 0, 0, None, 2),
    ("grp", 0, 0, 2, None, 0),
    ("wa", 0, 1, 1, None, 0),
    ("r", 1, 0, None, 1, 0),
    ("r", 0, 2, None, 1, 0),
    ("wa", 0, 0, 0, None, 0),
    ("wa", 0, 1, 0, None, 1),
)
BIT_STREAM = OpStream(source="fuzz", name="fuzz-m1", n=3, m=1, ops=_BIT_OPS,
                      info=((0, "fuzz"),) * len(_BIT_OPS),
                      tables=(_linear_table([1]),), ports=2)


@given(op_streams())
@example(BIT_STREAM)
@settings(max_examples=50, deadline=None)
def test_all_executors_agree(stream):
    ticks, total_cycles = _expected_clock(stream.ops)
    ports = max(stream.ports, 2)

    # Baseline: the native multi-port grouped executor.
    ram = MultiPortRAM(stream.n, m=stream.m, ports=ports)
    base_exec, base_mm, base_cap = _scalar_run(ram, stream)
    base_dump = ram.dump()
    assert base_exec == stream.operation_count
    assert ram.stats.cycles == total_cycles

    # Native single-port executor (flat streams only -- it rejects
    # grouped records by contract).
    if not stream.grouped:
        single = SinglePortRAM(stream.n, m=stream.m)
        result = _scalar_run(single, stream)
        assert result == (base_exec, base_mm, base_cap)
        assert single.dump() == base_dump
        assert single.stats.cycles == total_cycles

    # Packed executor: one fault-free lane.  The detection mask is
    # monotone (no per-mismatch list), so the verdict compares as a
    # boolean; the clock trace is observed through the probe model.
    probe = _ClockProbe()
    captured = []
    packed = PackedMemoryArray(stream.n, lanes=1, m=stream.m)
    detected, executed = packed.apply_stream(
        stream.ops, tables=stream.tables, model=probe,
        stop_when_all_detected=False, captured=captured)
    assert executed == base_exec
    assert bool(detected) == bool(base_mm)
    assert captured == base_cap
    assert packed.dump_lane(0) == base_dump
    assert probe.ticks == ticks


def test_shrinking_finds_minimal_failing_stream():
    # The shrinker meta-test: ask Hypothesis for the smallest stream
    # whose replay detects a mismatch.  It must collapse to the
    # degenerate geometry -- one port, one bit, two cells -- and a single
    # checked read expecting 1 from power-up-zero memory (plus the two
    # fixed accumulator flush records every generated stream carries).
    def detects(stream):
        ram = MultiPortRAM(stream.n, m=stream.m, ports=max(stream.ports, 2))
        mismatches = []
        ram.apply_stream(stream.ops, tables=stream.tables,
                         mismatches=mismatches)
        return bool(mismatches)

    minimal = find(op_streams(), detects)
    assert (minimal.ports, minimal.m, minimal.n) == (1, 1, 2)
    body = minimal.ops[:-2]  # strip the fixed accumulator flushes
    assert body == (("r", 0, 0, None, 1, 0),)
