"""Bit-packed campaign engine == scalar engines, verdict for verdict.

The contract of ``repro.sim.batched``: resolving a fault lane-parallel on
the ``PackedMemoryArray`` must produce exactly the verdict the scalar
engines produce for that fault -- for every vectorizable class, on
healthy and corrupted pseudo-ring data, with the non-vectorizable
remainder routed through the proven per-fault path.  The headline check
is the full ``standard_universe(256)`` sweep over every library March
test and both π-test schedules.
"""

import pytest

from repro.analysis import march_runner, run_coverage, schedule_runner
from repro.faults import (
    BitLocation,
    FaultInjector,
    IdempotentCouplingFault,
    InversionCouplingFault,
    StuckAtFault,
    TransitionFault,
    single_cell_universe,
    standard_universe,
)
from repro.faults.base import VectorSemantics
from repro.march import ALL_MARCH_TESTS, MATS_PLUS_RETENTION
from repro.march.library import MARCH_C_MINUS, MATS
from repro.memory import PackedMemoryArray, SinglePortRAM
from repro.prt import extended_schedule, standard_schedule
from repro.sim import batched as batched_module
from repro.sim import (
    build_lane_model,
    compile_march,
    partition_universe,
    register_lane_model,
    run_campaign,
    run_campaign_batched,
)
from tests.sim.conftest import assert_reports_identical, report_key


class TestPackedMemoryArray:
    def test_lane_isolation(self):
        packed = PackedMemoryArray(4, lanes=8)
        packed.write_lanes(1, 0b0101_0001)
        assert packed.lane_value(1, 0) == 1
        assert packed.lane_value(1, 1) == 0
        assert packed.lane_value(1, 4) == 1
        assert packed.read_lanes(2) == 0
        assert packed.dump_lane(0) == [0, 1, 0, 0]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PackedMemoryArray(0, lanes=4)
        with pytest.raises(ValueError):
            PackedMemoryArray(4, lanes=0)
        with pytest.raises(IndexError):
            PackedMemoryArray(4, lanes=2).lane_value(0, 2)
        with pytest.raises(IndexError):
            PackedMemoryArray(4, lanes=2).dump_lane(-1)

    def test_healthy_stream_detects_nothing(self):
        stream = compile_march(MARCH_C_MINUS, 8)
        packed = PackedMemoryArray(8, lanes=16)
        detected, executed = packed.apply_stream(stream.ops,
                                                 tables=stream.tables)
        assert detected == 0
        assert executed == stream.operation_count

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            PackedMemoryArray(2, lanes=1).apply_stream(
                [("x", 0, 0, None, None, 0)]
            )

    def test_early_abort_when_all_lanes_detected(self):
        # Two checked reads both mismatching in the only lane: replay must
        # stop at the first one.
        ops = [("w", 0, 0, 0, None, 0),
               ("r", 0, 0, None, 1, 0),
               ("r", 0, 0, None, 1, 0)]
        detected, executed = PackedMemoryArray(1, lanes=1).apply_stream(ops)
        assert detected == 1
        assert executed == 2  # write + first read only


class TestVectorSemantics:
    def test_vectorizable_fault_types(self):
        assert StuckAtFault(3, 1).vector_semantics() == VectorSemantics(
            "stuck", cell=3, value=1)
        assert TransitionFault(2, rising=True).vector_semantics() == \
            VectorSemantics("transition", cell=2, rising=True)
        cfin = InversionCouplingFault(1, 3, rising=False).vector_semantics()
        assert (cfin.kind, cfin.cell, cfin.victim_cell, cfin.rising,
                cfin.value) == ("coupling", 1, 3, False, None)
        cfid = IdempotentCouplingFault(0, 2, rising=True,
                                       force_to=1).vector_semantics()
        assert (cfid.kind, cfid.victim_cell, cfid.value) == ("coupling", 2, 1)

    def test_stuck_open_vectorizes(self):
        from repro.faults import StuckOpenFault

        assert StuckOpenFault(2).vector_semantics() == VectorSemantics(
            "stuck-open", cell=2, value=0)
        assert StuckOpenFault(5, initial_sense=1).vector_semantics() == \
            VectorSemantics("stuck-open", cell=5, value=1)
        # A word-oriented power-up value cannot ride a 1-bit lane.
        assert StuckOpenFault(1, initial_sense=3).vector_semantics() is None

    def test_state_coupling_vectorizes(self):
        from repro.faults import StateCouplingFault

        cfst = StateCouplingFault(BitLocation(1, 2), BitLocation(4, 0),
                                  aggressor_state=0,
                                  force_to=1).vector_semantics()
        assert (cfst.kind, cfst.cell, cfst.bit, cfst.victim_cell,
                cfst.victim_bit) == ("state", 1, 2, 4, 0)
        assert cfst.rising is False  # aggressor holds 0
        assert cfst.value == 1  # victim forced to 1

    def test_structural_fault_types_vectorize(self):
        from repro.faults import BridgingFault, DataRetentionFault

        drf = DataRetentionFault(2, retention=8).vector_semantics()
        assert (drf.kind, drf.cell, drf.value, drf.extra) == \
            ("retention", 2, 0, (8,))
        bf = BridgingFault(0, 1, kind="or").vector_semantics()
        assert (bf.kind, bf.cell, bf.victim_cell, bf.value) == \
            ("bridge", 0, 1, 1)
        assert BridgingFault(0, 1, kind="and").vector_semantics().value == 0

    def test_npsf_and_decoder_vectorize(self):
        from repro.faults import af_multi_access
        from repro.faults.npsf import StaticNPSF

        npsf = StaticNPSF(4, neighbors=(3, 5), pattern=(1, 0),
                          force_to=1).vector_semantics()
        assert (npsf.kind, npsf.cell, npsf.value) == ("npsf", 4, 1)
        assert npsf.extra == ((3, 1), (5, 0))
        af = af_multi_access(1, (4,)).vector_semantics()
        assert (af.kind, af.extra) == ("decoder", ((1, (1, 4)),))

    def test_linked_vectorizes_only_pure_coupling(self):
        from repro.faults import StuckAtFault
        from repro.faults.linked import LinkedFault, linked_cfin_pair

        linked = linked_cfin_pair(0, 4, 2).vector_semantics()
        assert linked.kind == "linked"
        assert [part.kind for part in linked.extra] == \
            ["coupling", "coupling"]
        # A composite with a non-coupling member has no shared-edge lane
        # form and must take the per-fault path.
        mixed = LinkedFault([InversionCouplingFault(0, 2, rising=True),
                             StuckAtFault(2, 1)])
        assert mixed.vector_semantics() is None

    def test_default_fault_is_not_vectorizable(self):
        from repro.faults.base import Fault

        class AnalogueFault(Fault):
            fault_class = "X"
            name = "analogue"

            def cells(self):
                return (0,)

        assert AnalogueFault().vector_semantics() is None

    def test_word_oriented_bits_fall_back(self):
        # A bit > 0 descriptor cannot live in a 1-bit-per-cell plane.
        universe = [StuckAtFault(1, 1, bit=2),
                    InversionCouplingFault(BitLocation(0, 1),
                                           BitLocation(0, 2), rising=True)]
        classes, fallback = partition_universe(universe, n=4, m=1)
        assert classes == {}
        assert [fault for _, fault in fallback] == universe


class TestPartitionUniverse:
    def test_standard_universe_split(self):
        universe = standard_universe(16)
        classes, fallback = partition_universe(universe, n=16)
        counts = {kind: len(group) for kind, group in classes.items()}
        # SAF -> stuck, TF -> transition, SOF -> stuck-open,
        # CFin+CFid -> coupling, CFst -> state, BF -> bridge,
        # AF -> decoder: the whole standard universe vectorizes.
        assert counts["stuck"] == 32
        assert counts["transition"] == 32
        assert counts["stuck-open"] == 16
        assert counts["coupling"] == 30 * 2 + 30 * 4
        assert counts["state"] == 30 * 4
        assert counts["bridge"] == 30
        assert counts["decoder"] == 32
        assert sum(counts.values()) == len(universe)
        assert fallback == []

    def test_indices_reassemble_universe_order(self):
        universe = standard_universe(8)
        classes, fallback = partition_universe(universe, n=8)
        indices = sorted(
            [index for group in classes.values() for index, _, _ in group]
            + [index for index, _ in fallback]
        )
        assert indices == list(range(len(universe)))

    def test_word_oriented_geometry_vectorizes(self):
        universe = single_cell_universe(8, m=4, classes=("SAF", "TF"))
        classes, fallback = partition_universe(universe, n=8, m=4)
        assert not fallback
        counts = {kind: len(group) for kind, group in classes.items()}
        assert counts == {"stuck": 64, "transition": 64}

    def test_bits_beyond_m_fall_back(self):
        # A descriptor naming bit 4 of a 4-bit word does not fit the
        # geometry and must take the scalar path.
        universe = [StuckAtFault(1, 1, bit=4), StuckAtFault(1, 1, bit=3)]
        classes, fallback = partition_universe(universe, n=8, m=4)
        assert [fault for _, fault in fallback] == [universe[0]]
        assert len(classes["stuck"]) == 1

    def test_out_of_range_sites_fall_back(self):
        classes, fallback = partition_universe([StuckAtFault(9, 1)], n=8)
        assert classes == {}
        assert len(fallback) == 1

    def test_build_lane_model_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="no lane model"):
            build_lane_model("bogus", [])


class TestRunCampaignBatched:
    def test_outcomes_preserve_universe_order(self):
        stream = compile_march(MATS, 8)
        universe = standard_universe(8)
        result = run_campaign_batched(stream, universe)
        assert [fault for fault, _ in result.outcomes] == list(universe)

    def test_faults_batched_accounting(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        result = run_campaign_batched(stream, universe)
        classes, fallback = partition_universe(universe, n=16)
        assert result.faults_batched == sum(
            len(group) for group in classes.values())
        assert result.faults_batched + len(fallback) == result.faults_total

    def test_fewer_operations_than_scalar_replay(self):
        stream = compile_march(MARCH_C_MINUS, 64)
        universe = single_cell_universe(64, classes=("SAF", "TF"))
        batched = run_campaign_batched(stream, universe)
        scalar = run_campaign(stream, universe)
        assert batched.faults_batched == len(universe)
        # One pass per class vs one (partial) replay per fault.
        assert batched.operations_replayed < scalar.operations_replayed / 10

    def test_progress_covers_whole_universe(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        seen = []
        run_campaign_batched(stream, universe,
                             progress=lambda done, total:
                             seen.append((done, total)))
        assert seen[-1] == (len(universe), len(universe))
        assert [done for done, _ in seen] == sorted(d for d, _ in seen)
        assert all(total == len(universe) for _, total in seen)

    def test_max_lanes_chunking_matches_single_pass(self, monkeypatch):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = single_cell_universe(16, classes=("SAF", "TF"))
        wide = run_campaign_batched(stream, universe)
        monkeypatch.setattr(batched_module, "MAX_LANES", 5)
        narrow = run_campaign_batched(stream, universe)
        assert [d for _, d in wide.outcomes] == [d for _, d in narrow.outcomes]
        # The cap took effect: more, narrower passes replayed the stream.
        assert narrow.operations_replayed > wide.operations_replayed

    def test_word_oriented_stream_batches(self):
        stream = compile_march(MARCH_C_MINUS, 8, m=4)
        universe = single_cell_universe(8, m=4, classes=("SAF",))
        result = run_campaign_batched(stream, universe)
        assert result.faults_batched == len(universe)
        assert result.detection_ratio == 1.0

    def test_unknown_vector_kind_falls_back_to_scalar(self):
        # A third-party fault may return a VectorSemantics kind nobody
        # registered a lane model for: the campaign must take the scalar
        # path for it, not crash (the any-universe contract).
        class ExoticFault(StuckAtFault):
            def vector_semantics(self):
                return VectorSemantics("read-disturb", cell=3)

        stream = compile_march(MARCH_C_MINUS, 8)
        universe = [StuckAtFault(1, 1), ExoticFault(3, 1), StuckAtFault(5, 0)]
        result = run_campaign_batched(stream, universe)
        assert [fault for fault, _ in result.outcomes] == universe
        assert result.detection_ratio == 1.0
        assert result.faults_batched == 2  # the exotic one went scalar

    def test_register_lane_model_extends_vectorization(self):
        from repro.sim.batched import _MODELS

        def pinned_high_lanes(semantics):
            # The custom kind's descriptors read as stuck-at lanes.
            return build_lane_model("stuck", semantics)

        class PinnedHighFault(StuckAtFault):
            """A stuck-at-1 under a custom vector-semantics kind."""

            def __init__(self, cell):
                super().__init__(cell, 1)

            def vector_semantics(self):
                base = super().vector_semantics()
                return VectorSemantics("pinned-high", cell=base.cell,
                                       value=1)

        stream = compile_march(MARCH_C_MINUS, 8)
        universe = [PinnedHighFault(2), StuckAtFault(4, 0)]
        unregistered = run_campaign_batched(stream, universe)
        assert unregistered.faults_batched == 1  # custom kind went scalar
        register_lane_model("pinned-high", pinned_high_lanes)
        try:
            registered = run_campaign_batched(stream, universe)
        finally:
            _MODELS.pop("pinned-high")
        assert registered.faults_batched == 2
        assert [d for _, d in registered.outcomes] == \
            [d for _, d in unregistered.outcomes]
        with pytest.raises(ValueError):
            register_lane_model("", pinned_high_lanes)
        with pytest.raises(ValueError):  # built-in kinds keep their model
            register_lane_model("stuck", pinned_high_lanes)

    def test_reference_pass_shared_with_scalar_engine(self):
        stream = compile_march(MATS, 8)
        assert not stream.reference_verified
        run_campaign_batched(stream, single_cell_universe(8, classes=("SAF",)))
        assert stream.reference_verified
        assert stream.reference_operations == stream.operation_count


class TestBatchedEquivalenceInterpreted:
    """Small-n ground truth: batched vs the *interpreted* engine."""

    @pytest.mark.parametrize("test", [MARCH_C_MINUS, MATS_PLUS_RETENTION],
                             ids=lambda t: t.name)
    def test_march(self, test):
        universe = standard_universe(14) + single_cell_universe(
            14, classes=("DRF",), retention=64)
        batched = run_coverage(march_runner(test), universe, 14,
                               engine="batched")
        interpreted = run_coverage(march_runner(test), universe, 14,
                                   engine="interpreted")
        assert report_key(batched) == report_key(interpreted)

    @pytest.mark.parametrize("build", [standard_schedule, extended_schedule],
                             ids=["standard-3", "extended-5"])
    def test_schedule(self, build):
        universe = standard_universe(14)
        runner = schedule_runner(build(n=14))
        batched = run_coverage(runner, universe, 14, engine="batched")
        interpreted = run_coverage(runner, universe, 14, engine="interpreted")
        assert report_key(batched) == report_key(interpreted)

    def test_single_fault_state_trace(self):
        # Per-lane state must equal the dedicated scalar replay's memory
        # image, fault by fault (stronger than verdict equality).  SOF is
        # included: its sense latch lives in the lane model, but the
        # array image (writes lost at the open cell) must still match.
        stream = compile_march(MATS, 6)
        universe = single_cell_universe(6, classes=("SAF", "TF", "SOF"))
        classes, fallback = partition_universe(universe, n=6)
        assert not fallback
        for kind, group in classes.items():
            model = build_lane_model(kind, [sem for _, _, sem in group])
            packed = PackedMemoryArray(6, lanes=len(group))
            model.install(packed)
            packed.apply_stream(stream.ops, tables=stream.tables, model=model,
                                stop_when_all_detected=False)
            for lane, (_, fault, _) in enumerate(group):
                ram = SinglePortRAM(6)
                injector = FaultInjector([fault])
                injector.install(ram)
                ram.apply_stream(stream.ops, tables=stream.tables)
                injector.remove(ram)
                assert packed.dump_lane(lane) == ram.dump(), fault.name


class TestStuckOpenLanes:
    """The SOF sense-latch lane model (the ROADMAP's 'remaining headroom'
    vectorization): one lane pass must reproduce the scalar SOF replay
    verdict for verdict, including the two-read detection subtlety."""

    def test_sof_universe_fully_batched(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = single_cell_universe(16, classes=("SOF",))
        result = run_campaign_batched(stream, universe)
        assert result.faults_batched == len(universe)
        scalar = run_campaign(stream, universe, reference_check=False)
        assert [d for _, d in result.outcomes] == \
            [d for _, d in scalar.outcomes]

    @pytest.mark.parametrize("build", [standard_schedule, extended_schedule],
                             ids=["standard-3", "extended-5"])
    def test_sof_through_pi_schedules(self, build):
        # π-test sweeps re-read cells constantly, so the latch state
        # machine is exercised much harder than by March elements.
        from repro.sim import compile_schedule

        schedule = build(n=14)
        stream = compile_schedule(schedule, 14)
        universe = single_cell_universe(14, classes=("SOF",))
        batched = run_campaign_batched(stream, universe)
        assert batched.faults_batched == len(universe)
        scalar = run_campaign(stream, universe, reference_check=False)
        assert [d for _, d in batched.outcomes] == \
            [d for _, d in scalar.outcomes]

    def test_initial_sense_one_latch(self):
        from repro.faults import StuckOpenFault

        # First read of the open cell observes the power-up latch value.
        stream_detects_1 = compile_march(MATS, 4)  # starts with w0 sweep
        for initial in (0, 1):
            universe = [StuckOpenFault(2, initial_sense=initial)]
            batched = run_campaign_batched(stream_detects_1, universe)
            scalar = run_campaign(stream_detects_1, universe,
                                  reference_check=False)
            assert [d for _, d in batched.outcomes] == \
                [d for _, d in scalar.outcomes], f"initial_sense={initial}"
            assert batched.faults_batched == 1


class TestBatchedEquivalence256:
    """The acceptance sweep: full standard_universe(256), every library
    March test and both π-test schedules.  The per-fault replay engine is
    the baseline (itself equivalence-proven against the interpreted
    engines exhaustively at small n and cross-checked at n in {64..1024}
    by ``benchmarks/bench_campaign_engine.py``); the batched engine must
    reproduce its CoverageReport byte for byte."""

    @pytest.mark.parametrize("test", ALL_MARCH_TESTS, ids=lambda t: t.name)
    def test_march(self, test, universe_256):
        runner = march_runner(test)
        batched = run_coverage(runner, universe_256, 256, engine="batched")
        compiled = run_coverage(runner, universe_256, 256, engine="compiled")
        assert report_key(batched) == report_key(compiled)

    @pytest.mark.parametrize("build", [standard_schedule, extended_schedule],
                             ids=["standard-3", "extended-5"])
    def test_schedule(self, build, universe_256):
        runner = schedule_runner(build(n=256))
        batched = run_coverage(runner, universe_256, 256, engine="batched")
        compiled = run_coverage(runner, universe_256, 256, engine="compiled")
        assert report_key(batched) == report_key(compiled)


class TestBatchedSharded256:
    """Acceptance sweep for process sharding: on the full
    ``standard_universe(256)``, ``workers=2`` (persistent pool, lane
    passes concurrent with the pooled scalar remainder) must reproduce
    the single-process batched CoverageReport byte for byte."""

    def test_march_workers_byte_identical(self, universe_256):
        runner = march_runner(MARCH_C_MINUS)
        serial = run_coverage(runner, universe_256, 256, engine="batched")
        sharded = run_coverage(runner, universe_256, 256, engine="batched",
                               workers=2)
        assert_reports_identical(serial, sharded)

    def test_schedule_workers_byte_identical(self, universe_256):
        runner = schedule_runner(standard_schedule(n=256))
        serial = run_coverage(runner, universe_256, 256, engine="batched")
        sharded = run_coverage(runner, universe_256, 256, engine="batched",
                               workers=2)
        assert report_key(sharded) == report_key(serial)


class TestRunCoverageBatchedRouting:
    def test_engine_batched_requires_compilable(self):
        with pytest.raises(ValueError, match="compilable"):
            run_coverage(lambda ram: False,
                         single_cell_universe(8, classes=("SAF",)), 8,
                         engine="batched")

    def test_engine_batched_report(self):
        universe = single_cell_universe(16, classes=("SAF", "TF"))
        report = run_coverage(march_runner(MARCH_C_MINUS), universe, 16,
                              engine="batched")
        assert report.overall == 1.0
