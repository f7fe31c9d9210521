"""Cross-executor IR contracts: accumulator ids, capture, executed counts.

Three executors replay the :mod:`repro.sim` IR -- the inlined
``SinglePortRAM.apply_stream`` / ``MultiPortRAM.apply_stream`` hot
loops and the lane-parallel
:meth:`~repro.memory.packed.PackedMemoryArray.apply_stream`.  The suite
pins the contracts that used to be implicit:

* ``"ra"``/``"wa"`` records select their accumulator with the sixth
  record slot on *every* executor (flat streams included) -- a stream
  running two automata must never cross-feed them;
* within one cycle group a ``"wa"`` consumes its accumulator as of the
  *cycle start*, with ``"ra"`` contributions of the same cycle visible
  only to later cycles;
* ``"s"`` capture: scalar executors append observed values, the packed
  executor appends observed lane columns;
* ``executed`` counts every read/write record including the ``"ra"``/
  ``"wa"`` recurrence ops, identically across executors.
"""

import pytest

from repro.memory import MultiPortRAM, PackedMemoryArray, SinglePortRAM
from repro.sim.ir import OpStream


def _flat_info(ops):
    return tuple((0, "test") for _ in ops)


# A flat stream running two recurrence automata concurrently: correct
# per-id accumulators keep them independent; a shared accumulator
# cross-feeds them and corrupts both "wa" values.
TWO_AUTOMATA_OPS = (
    ("w", 0, 0, 0, None, 0),
    ("w", 0, 1, 0, None, 0),
    ("ra", 0, 0, None, 1, 0),  # acc0 ^= read(0) ^ 1 = 1
    ("ra", 0, 1, None, 1, 1),  # acc1 ^= read(1) ^ 1 = 1
    ("wa", 0, 0, 0, None, 1),  # addr0 <- acc1 ^ 0 = 1, acc1 reset
    ("wa", 0, 1, 1, None, 0),  # addr1 <- acc0 ^ 1 = 0, acc0 reset
    ("r", 0, 0, None, 1, 0),
    ("r", 0, 1, None, 0, 0),
)


class TestAccumulatorIds:
    """Regression for the shared-accumulator bug: every executor must
    honour the per-record accumulator id on flat streams.  (With one
    shared accumulator the two ``"ra"`` contributions cancel, both
    ``"wa"`` records store the wrong value, and the checked reads
    mismatch.)"""

    def test_single_port_inlined_executor(self):
        ram = SinglePortRAM(2)
        mismatches = []
        executed = ram.apply_stream(TWO_AUTOMATA_OPS,
                                    mismatches=mismatches)
        assert mismatches == []
        assert executed == len(TWO_AUTOMATA_OPS)
        assert ram.dump() == [1, 0]

    def test_packed_executor_bit_oriented(self):
        packed = PackedMemoryArray(2, lanes=5)
        detected, executed = packed.apply_stream(TWO_AUTOMATA_OPS)
        assert detected == 0  # any cross-feed detects in every lane
        assert executed == len(TWO_AUTOMATA_OPS)
        for lane in range(5):
            assert packed.dump_lane(lane) == [1, 0]

    def test_packed_executor_word_oriented(self):
        # Same stream on an m=3 geometry: value/mask 1 lives in plane 0,
        # the other planes must stay clean through both automata.
        packed = PackedMemoryArray(2, lanes=4, m=3)
        detected, executed = packed.apply_stream(TWO_AUTOMATA_OPS)
        assert detected == 0
        assert executed == len(TWO_AUTOMATA_OPS)
        for lane in range(4):
            assert packed.dump_lane(lane) == [1, 0]


class TestSameCycleAccumulatorOrdering:
    """Satellite contract: a ``"wa"`` inside a cycle group consumes the
    accumulator as of the cycle *start*; an ``"ra"`` in the same group
    becomes visible to later cycles only.  Pinned on both grouped
    executors (native ``MultiPortRAM.apply_stream`` and the packed lane
    executor)."""

    def _stream(self):
        ops = (
            ("w", 0, 0, 1, None, 0),
            # One cycle: port 0 reads addr 0 into acc 0 while port 1
            # writes acc 0 -- which is still 0 at cycle start.
            ("grp", 0, 0, 2, None, 0),
            ("ra", 0, 0, None, 0, 0),
            ("wa", 1, 1, 0, None, 0),
            ("r", 0, 1, None, 0, 0),   # cycle-start value: 0, not 1
            ("wa", 0, 1, 0, None, 0),  # next cycle sees the ra: 1
            ("r", 0, 1, None, 1, 0),
        )
        return OpStream(source="schedule", name="same-cycle", n=2, m=1,
                        ops=ops, info=_flat_info(ops), ports=2)

    def _check(self, ram, executor):
        stream = self._stream()
        mismatches = []
        executed = executor(ram, stream, mismatches)
        assert mismatches == []
        assert executed == 6  # the grp marker is free
        assert ram.dump() == [1, 1]

    def test_native_multiport_executor(self):
        self._check(
            MultiPortRAM(2, ports=2),
            lambda ram, stream, mismatches: ram.apply_stream(
                stream.ops, mismatches=mismatches),
        )

    def test_packed_executor_one_lane(self):
        packed = PackedMemoryArray(2, lanes=1)
        detected, executed = packed.apply_stream(self._stream().ops)
        assert detected == 0
        assert executed == 6
        assert packed.dump_lane(0) == [1, 1]


class TestPackedCapture:
    """The ``"s"`` capture contract of the packed executor: an optional
    ``captured`` list collects the observed lane column of every
    signature read, in order (scalar executors collect observed
    values)."""

    OPS = (
        ("w", 0, 0, 1, None, 0),
        ("s", 0, 0, None, 1, 0),
        ("w", 0, 1, 0, None, 0),
        ("s", 0, 1, None, 0, 0),
    )

    def test_healthy_columns(self):
        packed = PackedMemoryArray(2, lanes=3)
        captured = []
        packed.apply_stream(self.OPS, captured=captured)
        assert captured == [0b111, 0]

    def test_matches_scalar_capture_per_lane(self):
        from repro.faults import FaultInjector, StuckAtFault

        from repro.sim.batched import build_lane_model

        faults = [StuckAtFault(0, 0), StuckAtFault(1, 1)]
        model = build_lane_model(
            "stuck", [fault.vector_semantics() for fault in faults])
        packed = PackedMemoryArray(2, lanes=len(faults))
        model.install(packed)
        captured = []
        packed.apply_stream(self.OPS, model=model, captured=captured,
                            stop_when_all_detected=False)
        for lane, fault in enumerate(faults):
            ram = SinglePortRAM(2)
            injector = FaultInjector([fault])
            injector.install(ram)
            scalar_captured = []
            ram.apply_stream(self.OPS, captured=scalar_captured)
            injector.remove(ram)
            assert [(column >> lane) & 1 for column in captured] == \
                scalar_captured, fault.name

    def test_word_oriented_columns(self):
        packed = PackedMemoryArray(1, lanes=2, m=4)
        captured = []
        packed.apply_stream(
            (("w", 0, 0, 0xA, None, 0), ("s", 0, 0, None, 0xA, 0)),
            captured=captured,
        )
        assert captured == [packed.broadcast(0xA)]
        assert [packed.lane_value(0, lane) for lane in range(2)] == \
            [0xA, 0xA]

    def test_default_is_unchecked_capture_free(self):
        # Without a captured list an "s" record is just a checked read.
        packed = PackedMemoryArray(2, lanes=2)
        detected, executed = packed.apply_stream(self.OPS)
        assert (detected, executed) == (0, 4)


class TestExecutedParity:
    """``executed`` counts w/r/s and the ra/wa recurrence ops, once per
    pass, identically on the packed and scalar executors."""

    def test_full_replay_counts_match(self):
        from repro.prt import standard_schedule
        from repro.sim import compile_schedule

        stream = compile_schedule(standard_schedule(n=8), 8)
        assert stream.counts_by_kind().get("ra", 0) > 0
        assert stream.counts_by_kind().get("wa", 0) > 0
        ram = SinglePortRAM(8)
        scalar_executed = ram.apply_stream(stream.ops, tables=stream.tables)
        packed = PackedMemoryArray(8, lanes=4)
        _detected, packed_executed = packed.apply_stream(
            stream.ops, tables=stream.tables, stop_when_all_detected=False)
        assert packed_executed == scalar_executed == stream.operation_count

    @pytest.mark.parametrize("m", [1, 4])
    def test_word_oriented_counts_match(self, m):
        from repro.march.library import MARCH_C_MINUS
        from repro.sim import compile_march

        stream = compile_march(MARCH_C_MINUS, 6, m=m)
        ram = SinglePortRAM(6, m=m)
        scalar_executed = ram.apply_stream(stream.ops, tables=stream.tables)
        packed = PackedMemoryArray(6, lanes=3, m=m)
        _detected, packed_executed = packed.apply_stream(
            stream.ops, tables=stream.tables, stop_when_all_detected=False)
        assert packed_executed == scalar_executed == stream.operation_count
