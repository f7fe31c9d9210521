"""Compiled replay == interpreted execution, byte for byte.

The contract of the repro.sim refactor: lowering a test to an OpStream
and replaying it must produce *identical* results to the legacy
interpreted engines -- same result objects, same operation counts, same
RAM statistics -- on healthy and faulted, bit- and word-oriented
memories.  These tests are what allows every caller to route through the
compiled kernel without re-validating the paper's coverage numbers.
"""

import pytest

from repro.faults import FaultInjector, single_cell_universe, standard_universe
from repro.gf2 import poly_from_string
from repro.gf2m import GF2m
from repro.march import (
    ALL_MARCH_TESTS,
    MATS_PLUS_RETENTION,
    run_march,
    run_march_interpreted,
)
from repro.march.library import MARCH_C_MINUS
from repro.memory import DualPortRAM, SinglePortRAM
from repro.prt import PiIteration, extended_schedule, standard_schedule
from repro.sim import compile_pi_iteration, replay_iteration

F16 = GF2m(poly_from_string("1+z+z^4"))

ALL_TESTS = list(ALL_MARCH_TESTS) + [MATS_PLUS_RETENTION]


def _stats_tuple(ram):
    return (ram.stats.reads, ram.stats.writes, ram.stats.cycles)


class TestMarchEquivalence:
    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    @pytest.mark.parametrize("n,m", [(24, 1), (12, 4)])
    def test_healthy(self, test, n, m):
        ram_c, ram_i = SinglePortRAM(n, m=m), SinglePortRAM(n, m=m)
        compiled = run_march(test, ram_c)
        interpreted = run_march_interpreted(test, ram_i)
        assert compiled == interpreted
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)

    @pytest.mark.parametrize("test", [MARCH_C_MINUS, MATS_PLUS_RETENTION],
                             ids=lambda t: t.name)
    def test_faulted_bom(self, test):
        # standard_universe covers SAF/TF/SOF/CF/bridging/AF; the retention
        # variant adds DRF (delay elements must idle identically).
        universe = standard_universe(16) + single_cell_universe(
            16, classes=("DRF",), retention=64
        )
        for fault in universe:
            ram_c, ram_i = SinglePortRAM(16), SinglePortRAM(16)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = run_march(test, ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = run_march_interpreted(test, ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name
            assert _stats_tuple(ram_c) == _stats_tuple(ram_i), fault.name

    def test_faulted_wom(self):
        for fault in standard_universe(8, m=4).sample(120):
            ram_c, ram_i = SinglePortRAM(8, m=4), SinglePortRAM(8, m=4)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = run_march(MARCH_C_MINUS, ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = run_march_interpreted(MARCH_C_MINUS, ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name

    def test_stop_on_first_failure(self):
        from repro.faults import StuckAtFault

        for stop in (False, True):
            ram_c, ram_i = SinglePortRAM(16), SinglePortRAM(16)
            fault_c = FaultInjector([StuckAtFault(3, 1), StuckAtFault(9, 1)])
            fault_i = FaultInjector([StuckAtFault(3, 1), StuckAtFault(9, 1)])
            fault_c.install(ram_c)
            compiled = run_march(MARCH_C_MINUS, ram_c,
                                 stop_on_first_failure=stop)
            fault_i.install(ram_i)
            interpreted = run_march_interpreted(MARCH_C_MINUS, ram_i,
                                                stop_on_first_failure=stop)
            assert compiled == interpreted
            assert _stats_tuple(ram_c) == _stats_tuple(ram_i)

    def test_custom_backgrounds(self):
        compiled = run_march(MARCH_C_MINUS, SinglePortRAM(8, m=4),
                             backgrounds=[0b1010])
        interpreted = run_march_interpreted(MARCH_C_MINUS,
                                            SinglePortRAM(8, m=4),
                                            backgrounds=[0b1010])
        assert compiled == interpreted

    def test_background_out_of_range_raises(self):
        with pytest.raises(ValueError):
            run_march(MARCH_C_MINUS, SinglePortRAM(8, m=2), backgrounds=[7])

    def test_multiport_sequential(self):
        compiled = run_march(MARCH_C_MINUS, DualPortRAM(16))
        interpreted = run_march_interpreted(MARCH_C_MINUS, DualPortRAM(16))
        assert compiled == interpreted


class _BareWrapperRAM:
    """A duck-typed front-end honouring only the documented contract
    (read/write/idle/n/m) -- no ``apply_stream``."""

    def __init__(self, n, m=1):
        self._inner = SinglePortRAM(n, m=m)
        self.n, self.m = n, m

    def read(self, addr):
        return self._inner.read(addr)

    def write(self, addr, value):
        self._inner.write(addr, value)

    def idle(self, cycles):
        self._inner.idle(cycles)


class TestDuckTypedFrontEnds:
    def test_run_march_falls_back_without_apply_stream(self):
        wrapped = run_march(MARCH_C_MINUS, _BareWrapperRAM(16))
        native = run_march(MARCH_C_MINUS, SinglePortRAM(16))
        assert wrapped == native

    def test_schedule_falls_back_without_apply_stream(self):
        schedule = standard_schedule(n=14)
        wrapped = schedule.run(_BareWrapperRAM(14))
        native = schedule.run(SinglePortRAM(14))
        assert wrapped == native


class TestScheduleEquivalence:
    @pytest.mark.parametrize("build", [standard_schedule, extended_schedule],
                             ids=["standard-3", "extended-5"])
    @pytest.mark.parametrize("verify", [True, False])
    def test_healthy_bom(self, build, verify):
        schedule = build(n=14, verify=verify)
        ram_c, ram_i = SinglePortRAM(14), SinglePortRAM(14)
        assert schedule.run(ram_c) == schedule.run_interpreted(ram_i)
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)

    @pytest.mark.parametrize("build", [standard_schedule, extended_schedule],
                             ids=["standard-3", "extended-5"])
    def test_healthy_wom(self, build):
        schedule = build(field=F16, n=16)
        ram_c, ram_i = SinglePortRAM(16, m=4), SinglePortRAM(16, m=4)
        assert schedule.run(ram_c) == schedule.run_interpreted(ram_i)
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)

    @pytest.mark.parametrize("build", [standard_schedule, extended_schedule],
                             ids=["standard-3", "extended-5"])
    def test_faulted_bom(self, build):
        schedule = build(n=14)
        for fault in standard_universe(14):
            ram_c, ram_i = SinglePortRAM(14), SinglePortRAM(14)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = schedule.run(ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = schedule.run_interpreted(ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name
            assert _stats_tuple(ram_c) == _stats_tuple(ram_i), fault.name

    def test_faulted_wom(self):
        schedule = standard_schedule(field=F16, n=8)
        for fault in standard_universe(8, m=4).sample(120):
            ram_c, ram_i = SinglePortRAM(8, m=4), SinglePortRAM(8, m=4)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = schedule.run(ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = schedule.run_interpreted(ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name

    def test_pause_between_and_retention(self):
        from repro.faults import DataRetentionFault

        schedule = standard_schedule(n=14, pause_between=128)
        for fault in [DataRetentionFault(3, retention=64),
                      DataRetentionFault(10, retention=64)]:
            ram_c, ram_i = SinglePortRAM(14), SinglePortRAM(14)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = schedule.run(ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = schedule.run_interpreted(ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name
            assert _stats_tuple(ram_c) == _stats_tuple(ram_i), fault.name

    def test_stop_on_failure(self):
        from repro.faults import StuckAtFault

        schedule = standard_schedule(n=14)
        for stop in (False, True):
            ram_c, ram_i = SinglePortRAM(14), SinglePortRAM(14)
            inj_c = FaultInjector([StuckAtFault(4, 1)])
            inj_i = FaultInjector([StuckAtFault(4, 1)])
            inj_c.install(ram_c)
            compiled = schedule.run(ram_c, stop_on_failure=stop)
            inj_i.install(ram_i)
            interpreted = schedule.run_interpreted(ram_i, stop_on_failure=stop)
            assert compiled == interpreted
            assert _stats_tuple(ram_c) == _stats_tuple(ram_i)

    def test_operation_count_matches_model(self):
        for build in (standard_schedule, extended_schedule):
            schedule = build(n=14)
            result = schedule.run(SinglePortRAM(14))
            assert result.operations == schedule.operation_count(14)


class TestIterationEquivalence:
    def test_standalone_iteration(self):
        iteration = PiIteration(generator=(1, 0, 1, 1), seed=(0, 0, 1))
        for fault in standard_universe(14).sample(80):
            ram_c, ram_i = SinglePortRAM(14), SinglePortRAM(14)
            stream = compile_pi_iteration(iteration, 14)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = replay_iteration(stream, ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = iteration.run(ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name

    def test_wom_iteration(self):
        iteration = PiIteration(field=F16, generator=(1, 2, 2), seed=(0, 1))
        stream = compile_pi_iteration(iteration, 15, m=4)
        compiled = replay_iteration(stream, SinglePortRAM(15, m=4))
        interpreted = iteration.run(SinglePortRAM(15, m=4))
        assert compiled == interpreted

    def test_mixed_field_schedule(self):
        # Two GF(2^4) fields with different moduli in one schedule: each
        # iteration's recurrence must be compiled in its *own* field.
        from repro.prt import PiTestSchedule

        other = GF2m(poly_from_string("1+z^3+z^4"))
        schedule = PiTestSchedule(
            [
                PiIteration(field=F16, generator=(1, 2, 2), seed=(0, 1)),
                PiIteration(field=other, generator=(1, 2, 2), seed=(0, 1)),
            ],
            verify=True,
        )
        ram_c, ram_i = SinglePortRAM(15, m=4), SinglePortRAM(15, m=4)
        compiled = schedule.run(ram_c)
        interpreted = schedule.run_interpreted(ram_i)
        assert compiled == interpreted
        assert compiled.passed
        for fault in standard_universe(15, m=4).sample(40):
            ram_c, ram_i = SinglePortRAM(15, m=4), SinglePortRAM(15, m=4)
            inj_c, inj_i = FaultInjector([fault]), FaultInjector([fault])
            inj_c.install(ram_c)
            compiled = schedule.run(ram_c)
            inj_c.remove(ram_c)
            inj_i.install(ram_i)
            interpreted = schedule.run_interpreted(ram_i)
            inj_i.remove(ram_i)
            assert compiled == interpreted, fault.name
