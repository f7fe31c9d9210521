"""Word-lane packed backend + CFst lanes == scalar engines, byte for byte.

PR contract: the plane-packed executor must reproduce the scalar
engines' verdicts on *word-oriented* geometries (m bit planes per lane,
GF(2^m) recurrence tables lowered to shift/XOR plans) and for the CFst
state-coupling class (the last coupling class that used to take the
per-fault fallback).  The headline checks are full ``standard_universe``
sweeps at m in {4, 8} pinned byte-identical (pickled
``CoverageReport``) against the compiled scalar engine, with the
interpreted engine as ground truth at small n.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import march_runner, run_coverage, schedule_runner
from repro.faults import (
    BitLocation,
    FaultInjector,
    StateCouplingFault,
    bridging_universe,
    coupling_universe,
    intra_word_universe,
    linked_universe,
    npsf_universe,
    single_cell_universe,
    standard_universe,
)
from repro.gf2 import primitive_polynomial
from repro.gf2m import GF2m
from repro.march.library import MARCH_C_MINUS, MATS, MATS_PLUS_RETENTION
from repro.memory import PackedMemoryArray, SinglePortRAM
from repro.memory.packed import _apply_plan
from repro.prt import standard_schedule
from repro.sim import (
    build_lane_model,
    compile_march,
    compile_schedule,
    partition_universe,
    run_campaign,
    run_campaign_batched,
)
from tests.sim.conftest import assert_reports_identical, report_key


def _word_schedule(n, m):
    """The standard 3-iteration schedule over GF(2^m)."""
    return standard_schedule(field=GF2m(primitive_polynomial(m)), n=n)


class TestWordLanePackedArray:
    def test_plane_layout(self):
        packed = PackedMemoryArray(4, lanes=3, m=4)
        assert (packed.n, packed.lanes, packed.m) == (4, 3, 4)
        assert packed.ones == 0b111
        assert packed.full == (1 << 12) - 1
        packed.write_lanes(2, packed.broadcast(0b1001))
        assert [packed.lane_value(2, lane) for lane in range(3)] == [9, 9, 9]
        assert packed.dump_lane(1) == [0, 0, 9, 0]
        assert "m=4" in repr(packed)

    def test_broadcast_validation(self):
        packed = PackedMemoryArray(2, lanes=2, m=2)
        assert packed.broadcast(0) == 0
        assert packed.broadcast(0b11) == packed.full
        with pytest.raises(ValueError, match="does not fit"):
            packed.broadcast(4)
        with pytest.raises(ValueError):
            PackedMemoryArray(2, lanes=2, m=0)

    def test_lane_mask_folds_planes(self):
        packed = PackedMemoryArray(2, lanes=4, m=3)
        # lane 0 differs in plane 2 only, lane 3 in plane 0 only.
        column = (1 << (2 * 4)) | (1 << 3)
        assert packed.lane_mask(column) == 0b1001

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 16), lanes=st.integers(1, 300))
    def test_lane_mask_matches_a_per_lane_fold(self, data, m, lanes):
        # Any column of m planes, dense or with a few bits set: lane k
        # is in the mask iff some plane has lane k set.
        column = data.draw(st.one_of(
            st.integers(0, (1 << (m * lanes)) - 1),
            st.lists(st.integers(0, m * lanes - 1), max_size=4).map(
                lambda bits: sum(1 << bit for bit in set(bits)))))
        naive = 0
        for lane in range(lanes):
            if any(column >> (plane * lanes + lane) & 1
                   for plane in range(m)):
                naive |= 1 << lane
        packed = PackedMemoryArray(1, lanes=lanes, m=m)
        assert packed.lane_mask(column) == naive

    def test_word_stream_healthy_replay(self):
        stream = compile_march(MARCH_C_MINUS, 8, m=4)
        packed = PackedMemoryArray(8, lanes=16, m=4)
        detected, executed = packed.apply_stream(stream.ops,
                                                 tables=stream.tables)
        assert detected == 0
        assert executed == stream.operation_count

    def test_word_schedule_healthy_replay(self):
        # π-test schedules exercise the GF(2^m) table lowering:
        # non-trivial multipliers must lower to per-plane shift/XOR
        # plans that reproduce the field arithmetic exactly.
        stream = compile_schedule(_word_schedule(15, 4), 15, m=4)
        packed = PackedMemoryArray(15, lanes=8, m=4)
        detected, executed = packed.apply_stream(stream.ops,
                                                 tables=stream.tables)
        assert detected == 0
        assert executed == stream.operation_count

    def test_lowered_tables_match_field_arithmetic(self):
        # The diagonal plan of every table of a mixed-multiplier stream,
        # applied through the executor's own helper, must agree with the
        # table lookup for every operand value.
        stream = compile_schedule(_word_schedule(15, 4), 15, m=4)
        assert stream.tables, "schedule streams carry multiplier tables"
        packed = PackedMemoryArray(15, lanes=3, m=4)
        for table in stream.tables:
            plan = packed._lower_table(table)
            for operand in range(1 << 4):
                result = _apply_plan(plan, packed.broadcast(operand))
                assert result == packed.broadcast(table[operand]), \
                    f"operand {operand} through {table}"


class TestWordLaneStateTrace:
    """Per-lane memory images must equal the dedicated scalar replays --
    stronger than verdict equality -- on a word-oriented geometry, for
    every lane class including the new CFst lanes."""

    @pytest.mark.parametrize("m", [4, 8])
    def test_single_fault_state_trace(self, m):
        stream = compile_march(MATS, 5, m=m)
        universe = single_cell_universe(5, m=m,
                                        classes=("SAF", "TF", "SOF")) \
            + intra_word_universe(5, m, max_cells=3) \
            + coupling_universe(5, m, classes=("CFst",))
        classes, fallback = partition_universe(universe, n=5, m=m)
        assert not fallback
        assert "state" in classes
        for kind, group in classes.items():
            model = build_lane_model(kind, [sem for _, _, sem in group])
            packed = PackedMemoryArray(5, lanes=len(group), m=m)
            model.install(packed)
            packed.apply_stream(stream.ops, tables=stream.tables,
                                model=model, stop_when_all_detected=False)
            for lane, (_, fault, _) in enumerate(group):
                ram = SinglePortRAM(5, m=m)
                injector = FaultInjector([fault])
                injector.install(ram)
                ram.apply_stream(stream.ops, tables=stream.tables)
                injector.remove(ram)
                assert packed.dump_lane(lane) == ram.dump(), \
                    f"{kind}: {fault.name}"


class TestStateCouplingLanes:
    """CFst joins the lane classes: the settle-hook model must reproduce
    the scalar enforce-after-every-cycle semantics verdict for verdict."""

    def test_cfst_universe_fully_batched(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = coupling_universe(16, classes=("CFst",))
        result = run_campaign_batched(stream, universe)
        assert result.faults_batched == len(universe)
        scalar = run_campaign(stream, universe, reference_check=False)
        assert [d for _, d in result.outcomes] == \
            [d for _, d in scalar.outcomes]

    def test_cfst_through_pi_schedule(self):
        stream = compile_schedule(standard_schedule(n=14), 14)
        universe = coupling_universe(14, classes=("CFst",))
        batched = run_campaign_batched(stream, universe)
        assert batched.faults_batched == len(universe)
        scalar = run_campaign(stream, universe, reference_check=False)
        assert [d for _, d in batched.outcomes] == \
            [d for _, d in scalar.outcomes]

    def test_first_cycle_read_sees_unforced_state(self):
        # The scalar engines enforce CFst in settle() -- i.e. only after
        # the first cycle completes.  A read issued as the very first
        # operation must observe the raw power-up state, and the read
        # right after it the forced state; the lane model keys its full
        # first enforcement off the first executed record.
        fault = StateCouplingFault(0, 1, aggressor_state=0, force_to=1)
        ops = (
            ("r", 0, 1, None, 0, 0),  # pre-settle: victim still 0
            ("r", 0, 1, None, 0, 0),  # post-settle: forced to 1 -> detect
        )
        model = build_lane_model("state", [fault.vector_semantics()])
        packed = PackedMemoryArray(2, lanes=1)
        model.install(packed)
        detected, executed = packed.apply_stream(ops, model=model)
        assert (detected, executed) == (1, 2)
        ram = SinglePortRAM(2)
        injector = FaultInjector([fault])
        injector.install(ram)
        mismatches = []
        ram.apply_stream(ops, mismatches=mismatches)
        injector.remove(ram)
        assert [index for index, _ in mismatches] == [1]

    def test_intra_word_cfst_lanes(self):
        stream = compile_march(MARCH_C_MINUS, 8, m=4)
        universe = intra_word_universe(8, 4, classes=("CFst",))
        batched = run_campaign_batched(stream, universe)
        assert batched.faults_batched == len(universe)
        scalar = run_campaign(stream, universe, reference_check=False)
        assert [d for _, d in batched.outcomes] == \
            [d for _, d in scalar.outcomes]

    def test_aggressor_written_into_and_out_of_state(self):
        # Forcing only applies while the aggressor holds the state;
        # writes moving it out must stop the forcing (but not restore
        # the victim).
        fault = StateCouplingFault(BitLocation(0, 0), BitLocation(1, 0),
                                   aggressor_state=1, force_to=0)
        ops = (
            ("w", 0, 1, 1, None, 0),
            ("r", 0, 1, None, 1, 0),  # aggressor 0: victim untouched
            ("w", 0, 0, 1, None, 0),  # aggressor enters state 1
            ("r", 0, 1, None, 1, 0),  # victim forced to 0 -> detect
        )
        model = build_lane_model("state", [fault.vector_semantics()])
        packed = PackedMemoryArray(2, lanes=1)
        model.install(packed)
        detected, executed = packed.apply_stream(ops, model=model)
        assert (detected, executed) == (1, 4)


class TestWordLaneEquivalence:
    """The acceptance sweeps: full word-oriented ``standard_universe``
    (single-cell per bit, inter-cell and intra-word coupling, bridges,
    decoder faults), batched vs compiled byte-identical at m in {4, 8},
    with the interpreted engine as ground truth at small n."""

    def test_interpreted_ground_truth_m4(self):
        universe = standard_universe(10, m=4)
        runner = march_runner(MARCH_C_MINUS)
        batched = run_coverage(runner, universe, 10, m=4, engine="batched")
        interpreted = run_coverage(runner, universe, 10, m=4,
                                   engine="interpreted")
        assert report_key(batched) == report_key(interpreted)

    @pytest.mark.parametrize("make_runner", [
        lambda n: march_runner(MARCH_C_MINUS),
        lambda n: schedule_runner(_word_schedule(n, 4)),
    ], ids=["march-c", "prt-3"])
    def test_m4_byte_identical(self, make_runner, universe_m4):
        runner = make_runner(48)
        batched = run_coverage(runner, universe_m4, 48, m=4,
                               engine="batched")
        compiled = run_coverage(runner, universe_m4, 48, m=4,
                                engine="compiled")
        assert_reports_identical(compiled, batched)

    @pytest.mark.parametrize("make_runner", [
        lambda n: march_runner(MARCH_C_MINUS),
        lambda n: schedule_runner(_word_schedule(n, 8)),
    ], ids=["march-c", "prt-3"])
    def test_m8_byte_identical(self, make_runner, universe_m8):
        runner = make_runner(32)
        batched = run_coverage(runner, universe_m8, 32, m=8,
                               engine="batched")
        compiled = run_coverage(runner, universe_m8, 32, m=8,
                                engine="compiled")
        assert_reports_identical(compiled, batched)

    def test_m8_campaign_batches_word_faults(self, universe_m8):
        # The acceptance criterion: an m=8 word-oriented campaign is
        # resolved *entirely* in lane passes (CFst, bridging and decoder
        # faults included) -- no scalar delegation, no fallback rows.
        stream = compile_march(MARCH_C_MINUS, 32, m=8)
        result = run_campaign_batched(stream, universe_m8)
        classes, fallback = partition_universe(universe_m8, n=32, m=8)
        assert fallback == []
        assert result.faults_batched == len(list(universe_m8))
        assert "state" in classes  # CFst resolved in lane passes
        assert "bridge" in classes and "decoder" in classes

    def test_m8_new_lane_classes_sweep(self):
        # The classes this PR moved off the scalar fallback -- NPSF,
        # bridging, DRF (real idle decay) and linked faults -- swept on
        # an m=8 geometry under a retention-pause march: batched vs
        # compiled byte-identical, fully lane-resolved, and stable under
        # workers=2 (pickled reports equal; nothing left to shard).
        n = 20
        universe = npsf_universe(n) + bridging_universe(n) + \
            linked_universe(n) + \
            single_cell_universe(n, m=8, classes=("DRF",), retention=64)
        _classes, fallback = partition_universe(universe, n=n, m=8)
        assert fallback == []
        runner = march_runner(MATS_PLUS_RETENTION)
        batched = run_coverage(runner, universe, n, m=8, engine="batched")
        compiled = run_coverage(runner, universe, n, m=8,
                                engine="compiled")
        sharded = run_coverage(runner, universe, n, m=8, engine="batched",
                               workers=2)
        assert_reports_identical(compiled, batched, sharded)

    def test_sharded_word_campaign_byte_identical(self, universe_m4):
        runner = march_runner(MARCH_C_MINUS)
        serial = run_coverage(runner, universe_m4, 48, m=4,
                              engine="batched")
        sharded = run_coverage(runner, universe_m4, 48, m=4,
                               engine="batched", workers=2)
        assert_reports_identical(serial, sharded)
