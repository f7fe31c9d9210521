"""Multi-iteration schedules for the multi-port π-test schemes.

:class:`~repro.prt.schedule.PiTestSchedule` chains single-port
π-iterations into the paper's 3-iteration plan; this module does the
same for the port-parallel schemes of :mod:`repro.prt.dual_port`.  The
structural trick is that transparent verification is *cheaper* here than
on one port: the write cycle of every sub-iteration leaves ports idle
(one on the dual-port scheme, two on quad-port), and a read issued in
the same cycle senses the pre-write value -- so from the second
iteration on, the previous iteration's background is verified at **zero
extra cycles**, plus a single leading read cycle for the seed cells.

The dual-/quad-port iterations cannot invert their data stream (the
recurrence hardware of Figure 2 has no inversion tap), so the
3-iteration plan ``(B, C, B)`` varies the *seed phase* instead of
complementing the background: iteration 2 runs the same generator from a
different seed, which shifts the m-sequence and changes which cells
carry equal values -- the activation-diversity role the complement plays
in the single-port plan.

:func:`standard_multi_schedule` builds that plan for either scheme; the
:meth:`MultiPortSchedule.run` adapter lowers it once through
:func:`repro.sim.compilers.compile_multi_schedule` and replays the
grouped stream through the RAM's cycle-aware ``apply_stream``, so the
compiled and interpreted paths agree cycle for cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.gf2m.field import GF2m
from repro.memory.multiport import PortOp
from repro.prt.dual_port import DualPortPiIteration, QuadPortPiIteration
from repro.prt.pi_test import GF2

__all__ = [
    "MultiPortSchedule",
    "MultiScheduleResult",
    "standard_multi_schedule",
]


@dataclass
class MultiScheduleResult:
    """Outcome of a full multi-port schedule run.

    ``iteration_results`` mixes :class:`~repro.prt.pi_test
    .PiIterationResult` (dual-port iterations) and
    :class:`~repro.prt.dual_port.QuadPortResult` (quad-port iterations)
    in run order; both expose ``passed``.
    """

    iteration_results: list = dataclass_field(default_factory=list)
    operations: int = 0

    @property
    def passed(self) -> bool:
        """True when every iteration (and the final read-back) matched."""
        return all(r.passed for r in self.iteration_results)

    @property
    def detected(self) -> bool:
        """True when at least one iteration flagged a mismatch."""
        return not self.passed

    @property
    def failing_iterations(self) -> list[int]:
        """Indices of iterations whose signature or verification failed."""
        return [i for i, r in enumerate(self.iteration_results) if not r.passed]

    def __repr__(self) -> str:
        status = "PASS" if self.passed else f"FAIL@{self.failing_iterations}"
        return (
            f"MultiScheduleResult({status}, "
            f"{len(self.iteration_results)} iterations, "
            f"{self.operations} ops)"
        )


class MultiPortSchedule:
    """An ordered list of multi-port π-iterations run back to back.

    Accepts any mix of :class:`~repro.prt.dual_port.DualPortPiIteration`
    and :class:`~repro.prt.dual_port.QuadPortPiIteration`; the schedule's
    ``ports`` is the widest iteration's requirement.

    >>> from repro.memory import DualPortRAM
    >>> schedule = standard_multi_schedule(ports=2)
    >>> schedule.run(DualPortRAM(12)).passed
    True
    """

    def __init__(self, iterations: list, name: str = "custom",
                 verify: bool = False, pause_between: int = 0):
        if not iterations:
            raise ValueError("a schedule needs at least one iteration")
        if pause_between < 0:
            raise ValueError("pause must be non-negative")
        self._iterations = list(iterations)
        self._name = name
        self._verify = verify
        self._pause_between = pause_between

    @property
    def iterations(self) -> tuple:
        """The configured iterations, in run order."""
        return tuple(self._iterations)

    @property
    def min_cells(self) -> int:
        """Smallest memory every iteration of the schedule runs on."""
        return max(iteration.min_cells for iteration in self._iterations)

    @property
    def name(self) -> str:
        """Schedule label for reports."""
        return self._name

    @property
    def verify(self) -> bool:
        """True when iterations 2+ transparently verify the previous
        iteration's background before overwriting it (the verify reads
        ride the write cycles' idle ports -- zero extra cycles beyond
        one leading read cycle per iteration)."""
        return self._verify

    @property
    def pause_between(self) -> int:
        """Idle cycles inserted between iterations (and before the final
        read-back) -- the retention-decay window, as on
        :class:`~repro.prt.schedule.PiTestSchedule`."""
        return self._pause_between

    @property
    def ports(self) -> int:
        """Ports the widest iteration needs per memory cycle."""
        return max(getattr(it, "ports", 2) for it in self._iterations)

    def __len__(self) -> int:
        return len(self._iterations)

    def operation_count(self, n: int) -> int:
        """Total memory operations on an n-cell RAM.

        Each verifying iteration (the second onwards) adds ``n`` sweep
        verify reads plus ``ports`` leading seed-cell reads; the final
        read-back pass adds ``n`` more.
        """
        total = sum(it.operation_count(n) for it in self._iterations)
        if self._verify:
            total += sum(n + it.ports for it in self._iterations[1:])
            total += n
        return total

    def run(self, ram, stop_on_failure: bool = False,
            compiled: bool = True) -> MultiScheduleResult:
        """Execute all iterations; optionally abort at the first mismatch.

        Thin adapter over :mod:`repro.sim`, exactly like
        :meth:`~repro.prt.schedule.PiTestSchedule.run`: the schedule is
        lowered once (:func:`repro.sim.compilers.compile_multi_schedule`)
        and replayed through the RAM's cycle-aware ``apply_stream``;
        ``compiled=False`` (or a front-end without ``apply_stream``)
        takes the interpreted path, which stays byte-identical --
        including ``RamStats``.
        """
        if compiled and hasattr(ram, "apply_stream"):
            from repro.sim.compilers import cached_multi_schedule_stream
            from repro.sim.replay import replay_multi_schedule

            stream = cached_multi_schedule_stream(self, ram.n, ram.m)
            return replay_multi_schedule(stream, ram,
                                         stop_on_failure=stop_on_failure)
        return self.run_interpreted(ram, stop_on_failure=stop_on_failure)

    def run_interpreted(self, ram,
                        stop_on_failure: bool = False) -> MultiScheduleResult:
        """The original cycle-by-cycle interpreted execution.

        Reference implementation for the equivalence tests; needs a RAM
        exposing ``cycle``/``idle``/``stats`` with at least
        :attr:`ports` ports.
        """
        result = MultiScheduleResult()
        previous_background: list[int] | None = None
        stats = ram.stats
        for index, iteration in enumerate(self._iterations):
            if index and self._pause_between:
                ram.idle(self._pause_between)
            before = stats.reads + stats.writes
            it_result = iteration.run(
                ram, previous_background=previous_background)
            result.iteration_results.append(it_result)
            result.operations += stats.reads + stats.writes - before
            if stop_on_failure and not it_result.passed:
                return result
            if self._verify:
                previous_background = iteration.background_after(ram.n)
        if self._pause_between:
            ram.idle(self._pause_between)
        if self._verify and previous_background is not None:
            n = ram.n
            ports = self.ports
            mismatches = 0
            # Stride-2 order (evens, then odds), read ports-at-a-time --
            # the multi-port RAM covers the pass in ceil(n / ports)
            # cycles; see PiTestSchedule.run_interpreted for why the
            # ordering closes the last stuck-open blind spot.
            order = list(range(0, n, 2)) + list(range(1, n, 2))
            for chunk_start in range(0, n, ports):
                chunk = order[chunk_start:chunk_start + ports]
                reads = ram.cycle([
                    PortOp(port, "r", addr)
                    for port, addr in enumerate(chunk)
                ])
                for port, addr in enumerate(chunk):
                    if reads[port] != previous_background[addr]:
                        mismatches += 1
            result.operations += n
            if mismatches:
                # Attribute the final-pass mismatches to the last
                # iteration, as the single-port scheduler does.
                result.iteration_results[-1].verify_mismatches += mismatches
        return result

    def __repr__(self) -> str:
        return (
            f"MultiPortSchedule({self._name!r}, "
            f"{len(self._iterations)} iterations, ports={self.ports})"
        )


def standard_multi_schedule(ports: int = 2,
                            field: GF2m | None = None,
                            generator: tuple[int, ...] | None = None,
                            seed: tuple[int, ...] | None = None,
                            verify: bool = True,
                            pause_between: int = 0) -> MultiPortSchedule:
    """The 3-iteration verifying plan for a multi-port scheme.

    Builds ``(B, C, B)`` -- base seed, phase-shifted seed, base seed --
    over the dual-port (``ports=2``) or quad-port (``ports=4``) scheme.
    The port schemes cannot invert their stream, so the middle iteration
    varies the seed *phase* instead of complementing the background (the
    phase shift changes which cells carry equal values, the same
    activation-diversity role the complement plays in
    :func:`~repro.prt.schedule.standard_schedule`); the alternate seed
    is derived exactly as in
    :func:`~repro.prt.schedule.extended_schedule`.

    Defaults mirror the single-port factories: GF(2) with the paper's
    k = 2 generator ``1 + x + x^2`` (``1 + 2x + 2x^2`` on extension
    fields) and seed ``(0, 1)``.
    """
    if ports not in (2, 4):
        raise ValueError(f"ports must be 2 or 4, got {ports}")
    field = field if field is not None else GF2
    if generator is None:
        generator = (1, 1, 1) if field.m == 1 else (1, 2, 2)
    if seed is None:
        seed = (0, 1)
    seed = tuple(seed)
    seed_c = tuple(reversed(seed))
    if seed_c == seed or all(s == 0 for s in seed_c):
        seed_c = (seed[0] ^ 1,) + seed[1:]
        if all(s == 0 for s in seed_c):
            seed_c = (1,) * len(seed)
    cls = DualPortPiIteration if ports == 2 else QuadPortPiIteration
    iterations = [
        cls(field=field, generator=generator, seed=seed),
        cls(field=field, generator=generator, seed=seed_c),
        cls(field=field, generator=generator, seed=seed),
    ]
    return MultiPortSchedule(iterations, name=f"multi-{ports}p-3",
                             verify=verify, pause_between=pause_between)
